"""Micro-batch formation: ``BoundedRequestQueue.take_batch``.

A free worker takes the oldest queued request plus the later requests
that share its batch key, FIFO within the key, up to the batch size.
Entries here are ``(key, name)`` pairs.
"""

import pytest

from repro.errors import ConfigurationError
from repro.serve.queue import BoundedRequestQueue


def key_of(entry):
    return entry[0]


def queue_of(*entries, capacity=16):
    queue = BoundedRequestQueue(capacity=capacity)
    for entry in entries:
        queue.put(entry)
    return queue


def names(batch):
    return [name for _, name in batch]


class TestValidation:
    def test_zero_batch_size_rejected(self):
        queue = queue_of(("a", 0))
        with pytest.raises(ConfigurationError):
            queue.take_batch(0, key_of)
        assert queue.depth == 1


class TestBatchFormation:
    def test_full_class_dispatches_immediately(self):
        queue = queue_of(("a", 0), ("a", 1), ("a", 2))
        assert names(queue.take_batch(3, key_of, timeout_s=0)) == [0, 1, 2]
        assert queue.depth == 0

    def test_incompatible_keys_never_share_a_batch(self):
        fast, slow = (16_000.0, False), (8_000.0, False)
        queue = queue_of((fast, "a1"), (slow, "b1"), (fast, "a2"))
        first = queue.take_batch(8, key_of, timeout_s=0)
        second = queue.take_batch(8, key_of, timeout_s=0)
        assert first == [(fast, "a1"), (fast, "a2")]
        assert second == [(slow, "b1")]
        assert queue.take_batch(8, key_of, timeout_s=0) == []

    def test_fifo_preserved_within_class(self):
        queue = queue_of(*[("a", index) for index in range(6)])
        flattened = []
        while queue.depth:
            flattened.extend(names(queue.take_batch(2, key_of, 0)))
        assert flattened == list(range(6))

    def test_oversize_class_splits_into_multiple_full_batches(self):
        queue = queue_of(*[("a", index) for index in range(7)])
        sizes = []
        while queue.depth:
            sizes.append(len(queue.take_batch(3, key_of, timeout_s=0)))
        assert sizes == [3, 3, 1]

    def test_head_of_line_key_goes_first(self):
        # The oldest request's key is served first even when another
        # key has more requests waiting.
        queue = queue_of(("b", 0), ("a", 1), ("a", 2), ("a", 3))
        assert names(queue.take_batch(8, key_of, timeout_s=0)) == [0]
        assert names(queue.take_batch(8, key_of, timeout_s=0)) == [1, 2, 3]

    def test_skipped_entries_keep_their_order(self):
        queue = queue_of(("a", 0), ("b", 1), ("a", 2), ("c", 3), ("b", 4))
        assert names(queue.take_batch(8, key_of, timeout_s=0)) == [0, 2]
        rest = [queue.take_batch(1, key_of, timeout_s=0) for _ in range(3)]
        assert rest == [[("b", 1)], [("c", 3)], [("b", 4)]]


class TestDrainOnClose:
    def test_close_then_take_batch_empties_everything(self):
        queue = queue_of(("a", "a1"), ("b", "b1"), ("b", "b2"), ("b", "b3"))
        queue.close()
        batches = []
        while True:
            batch = queue.take_batch(2, key_of)
            if not batch:
                break
            batches.append(names(batch))
        assert batches == [["a1"], ["b1", "b2"], ["b3"]]
        assert queue.depth == 0
