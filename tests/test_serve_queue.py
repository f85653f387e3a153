"""Bounded request queue: backpressure policies and accounting."""

import threading
import time

import pytest

from repro.errors import ConfigurationError, ServiceOverloadError
from repro.serve.queue import BackpressurePolicy, BoundedRequestQueue


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedRequestQueue(capacity=0)

    def test_negative_block_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedRequestQueue(capacity=1, block_timeout_s=-0.1)

    def test_nan_block_timeout_rejected(self):
        # NaN compares false both ways; accepted, a blocked put would
        # fail at once with "queue full after blocking nans".
        with pytest.raises(ConfigurationError):
            BoundedRequestQueue(capacity=1, block_timeout_s=float("nan"))


class TestFifo:
    def test_entries_pop_in_arrival_order(self):
        queue = BoundedRequestQueue(capacity=8)
        for value in range(5):
            queue.put(value)
        assert [queue.get(timeout_s=0) for _ in range(5)] == list(range(5))

    def test_get_times_out_empty(self):
        queue = BoundedRequestQueue(capacity=2)
        assert queue.get(timeout_s=0.01) is None

    def test_depth_tracks_occupancy(self):
        queue = BoundedRequestQueue(capacity=4)
        assert queue.depth == 0
        queue.put("a")
        queue.put("b")
        assert queue.depth == 2
        queue.get(timeout_s=0)
        assert queue.depth == 1


class TestRejectPolicy:
    def test_full_queue_raises_overload(self):
        queue = BoundedRequestQueue(
            capacity=2, policy=BackpressurePolicy.REJECT
        )
        queue.put("a")
        queue.put("b")
        with pytest.raises(ServiceOverloadError):
            queue.put("c")
        assert queue.n_rejected == 1
        assert queue.n_enqueued == 2
        # The refused entry never entered the queue.
        assert queue.drain() == ["a", "b"]


class TestShedOldestPolicy:
    def test_oldest_entry_returned_to_caller(self):
        queue = BoundedRequestQueue(
            capacity=2, policy=BackpressurePolicy.SHED_OLDEST
        )
        queue.put("a")
        queue.put("b")
        shed = queue.put("c")
        assert shed == "a"
        assert queue.n_shed == 1
        assert queue.drain() == ["b", "c"]

    def test_shed_count_matches_overflow_arithmetic(self):
        capacity = 3
        queue = BoundedRequestQueue(
            capacity=capacity, policy=BackpressurePolicy.SHED_OLDEST
        )
        n_offered = 11
        shed = [
            entry
            for entry in (queue.put(i) for i in range(n_offered))
            if entry is not None
        ]
        assert queue.n_shed == n_offered - capacity
        assert len(shed) == n_offered - capacity
        # Survivors are exactly the newest `capacity` entries, in order.
        assert queue.drain() == list(range(n_offered - capacity, n_offered))


class TestBlockPolicy:
    def test_blocked_put_completes_when_space_frees(self):
        queue = BoundedRequestQueue(
            capacity=1, policy=BackpressurePolicy.BLOCK
        )
        queue.put("a")
        done = threading.Event()

        def producer():
            queue.put("b")
            done.set()

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert not done.is_set()
        assert queue.get(timeout_s=0) == "a"
        thread.join(timeout=2.0)
        assert done.is_set()
        assert queue.get(timeout_s=0) == "b"

    def test_block_timeout_raises_overload(self):
        queue = BoundedRequestQueue(
            capacity=1,
            policy=BackpressurePolicy.BLOCK,
            block_timeout_s=0.02,
        )
        queue.put("a")
        with pytest.raises(ServiceOverloadError):
            queue.put("b")
        assert queue.n_rejected == 1

    def test_close_wakes_blocked_producer(self):
        queue = BoundedRequestQueue(
            capacity=1, policy=BackpressurePolicy.BLOCK
        )
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


class TestClose:
    def test_put_after_close_raises(self):
        queue = BoundedRequestQueue(capacity=2)
        queue.close()
        with pytest.raises(ServiceOverloadError):
            queue.put("a")

    def test_get_after_close_drains_then_none(self):
        queue = BoundedRequestQueue(capacity=2)
        queue.put("a")
        queue.close()
        assert queue.get(timeout_s=0.01) == "a"
        assert queue.get(timeout_s=0.01) is None


class TestTakeBatch:
    @staticmethod
    def key_of(entry):
        return entry[0]

    def test_take_batch_times_out_empty(self):
        queue = BoundedRequestQueue(capacity=2)
        assert queue.take_batch(4, self.key_of, timeout_s=0.01) == []

    def test_close_wakes_blocked_take_batch(self):
        queue = BoundedRequestQueue(capacity=2)
        taken = []

        def consumer():
            taken.append(queue.take_batch(4, self.key_of))

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
            target=lambda: taken.append(queue.take_batch(4, self.key_of))
        )
        thread.start()
        time.sleep(0.05)
        queue.put(("a", 0))
        thread.join(timeout=2.0)
        assert taken == [[("a", 0)]]

    def test_take_batch_frees_room_for_blocked_puts(self):
        queue = BoundedRequestQueue(
            capacity=2, policy=BackpressurePolicy.BLOCK
        )
        queue.put(("a", 0))
        queue.put(("a", 1))
        thread = threading.Thread(
            target=lambda: [queue.put(("a", i)) for i in (2, 3)]
        )
        thread.start()
        time.sleep(0.05)
        assert queue.take_batch(2, self.key_of) == [("a", 0), ("a", 1)]
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert queue.drain() == [("a", 2), ("a", 3)]

    def test_shed_oldest_evicts_the_oldest_waiting_entry(self):
        queue = BoundedRequestQueue(
            capacity=2, policy=BackpressurePolicy.SHED_OLDEST
        )
        queue.put(("a", 0))
        queue.put(("b", 1))
        assert queue.take_batch(4, self.key_of) == [("a", 0)]
        queue.put(("b", 2))
        # ("a", 0) left the queue; the oldest still waiting is shed.
        assert queue.put(("b", 3)) == ("b", 1)
        assert queue.drain() == [("b", 2), ("b", 3)]
