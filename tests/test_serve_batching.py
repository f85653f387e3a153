"""Micro-batch formation: ``BoundedRequestQueue.take_batch``.

A free worker takes the oldest queued requests, FIFO, up to the batch
size.
"""

import pytest

from repro.errors import ConfigurationError
from repro.serve.queue import BoundedRequestQueue


def queue_of(*entries, capacity=16):
    queue = BoundedRequestQueue(capacity=capacity)
    for entry in entries:
        queue.put(entry)
    return queue


class TestValidation:
    def test_zero_batch_size_rejected(self):
        queue = queue_of(0)
        with pytest.raises(ConfigurationError):
            queue.take_batch(0)
        assert queue.depth == 1


class TestBatchFormation:
    def test_full_class_dispatches_immediately(self):
        queue = queue_of(0, 1, 2)
        assert queue.take_batch(3, timeout_s=0) == [0, 1, 2]
        assert queue.depth == 0

    def test_fifo_preserved_within_class(self):
        queue = queue_of(*range(6))
        flattened = []
        while queue.depth:
            flattened.extend(queue.take_batch(2, timeout_s=0))
        assert flattened == list(range(6))

    def test_oversize_class_splits_into_multiple_full_batches(self):
        queue = queue_of(*range(7))
        sizes = []
        while queue.depth:
            sizes.append(len(queue.take_batch(3, timeout_s=0)))
        assert sizes == [3, 3, 1]


class TestDrainOnClose:
    def test_close_then_take_batch_empties_everything(self):
        queue = queue_of("a1", "b1", "b2", "b3")
        queue.close()
        batches = []
        while True:
            batch = queue.take_batch(2)
            if not batch:
                break
            batches.append(batch)
        assert batches == [["a1", "b1"], ["b2", "b3"]]
        assert queue.depth == 0
