"""Bounded request queue: FIFO order, blocking put, close."""

import threading
import time

import pytest

from repro.errors import ConfigurationError, ServiceOverloadError
from repro.serve.queue import BoundedRequestQueue


def take_one(queue, timeout_s=0):
    """The oldest entry (a batch of one), or ``None`` if none came."""
    batch = queue.take_batch(1, timeout_s=timeout_s)
    return batch[0] if batch else None


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedRequestQueue(capacity=0)


class TestFifo:
    def test_entries_pop_in_arrival_order(self):
        queue = BoundedRequestQueue(capacity=8)
        for value in range(5):
            queue.put(value)
        assert [take_one(queue) for _ in range(5)] == list(range(5))

    def test_get_times_out_empty(self):
        queue = BoundedRequestQueue(capacity=2)
        assert take_one(queue, timeout_s=0.01) is None

    def test_depth_tracks_occupancy(self):
        queue = BoundedRequestQueue(capacity=4)
        assert queue.depth == 0
        queue.put("a")
        queue.put("b")
        assert queue.depth == 2
        take_one(queue)
        assert queue.depth == 1


class TestBlockPolicy:
    """``put`` on a full queue waits for a consumer; nothing is refused."""

    def test_blocked_put_completes_when_space_frees(self):
        queue = BoundedRequestQueue(capacity=1)
        queue.put("a")
        done = threading.Event()

        def producer():
            queue.put("b")
            done.set()

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert not done.is_set()
        assert take_one(queue) == "a"
        thread.join(timeout=2.0)
        assert done.is_set()
        assert take_one(queue) == "b"

    def test_close_wakes_blocked_producer(self):
        queue = BoundedRequestQueue(capacity=1)
        queue.put("a")
        errors = []

        def producer():
            try:
                queue.put("b")
            except ServiceOverloadError as error:
                errors.append(error)

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=2.0)
        assert len(errors) == 1
        # The refused entry never entered the queue.
        assert take_one(queue) == "a"
        assert take_one(queue) is None


class TestClose:
    def test_put_after_close_raises(self):
        queue = BoundedRequestQueue(capacity=2)
        queue.close()
        with pytest.raises(ServiceOverloadError):
            queue.put("a")

    def test_take_after_close_drains_then_empty(self):
        queue = BoundedRequestQueue(capacity=2)
        queue.put("a")
        queue.close()
        assert queue.take_batch(4) == ["a"]
        assert queue.take_batch(4) == []


class TestTakeBatch:
    def test_take_batch_times_out_empty(self):
        queue = BoundedRequestQueue(capacity=2)
        assert queue.take_batch(4, timeout_s=0.01) == []

    def test_close_wakes_blocked_take_batch(self):
        queue = BoundedRequestQueue(capacity=2)
        taken = []

        def consumer():
            taken.append(queue.take_batch(4))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        assert thread.is_alive()
        queue.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert taken == [[]]

    def test_put_wakes_blocked_take_batch(self):
        queue = BoundedRequestQueue(capacity=2)
        taken = []
        thread = threading.Thread(
            target=lambda: taken.append(queue.take_batch(4))
        )
        thread.start()
        time.sleep(0.05)
        queue.put(("a", 0))
        thread.join(timeout=2.0)
        assert taken == [[("a", 0)]]

    def test_take_batch_frees_room_for_blocked_puts(self):
        queue = BoundedRequestQueue(capacity=2)
        queue.put(("a", 0))
        queue.put(("a", 1))
        thread = threading.Thread(
            target=lambda: [queue.put(("a", i)) for i in (2, 3)]
        )
        thread.start()
        time.sleep(0.05)
        assert queue.take_batch(2) == [("a", 0), ("a", 1)]
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert queue.take_batch(4, timeout_s=0) == [
            ("a", 2),
            ("a", 3),
        ]
