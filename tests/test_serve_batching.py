"""Micro-batch scheduler: compatibility classes, deadlines, FIFO."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.batching import BatchingConfig, MicroBatchScheduler


class TestValidation:
    def test_zero_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(max_batch_size=0)

    def test_negative_max_wait_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(max_wait_s=-0.01)

    def test_nan_max_wait_rejected(self):
        # NaN compares false both ways; accepted, it would leave a
        # partly filled batch waiting until shutdown.
        with pytest.raises(ConfigurationError):
            BatchingConfig(max_wait_s=float("nan"))


class TestBatchFormation:
    def test_full_class_dispatches_immediately(self):
        scheduler = MicroBatchScheduler(
            BatchingConfig(max_batch_size=3, max_wait_s=10.0)
        )
        for index in range(3):
            scheduler.offer(index, key="a", now=0.0)
        batches = scheduler.ready_batches(now=0.0)
        assert len(batches) == 1
        assert batches[0].entries == [0, 1, 2]
        assert batches[0].formed_reason == "full"
        assert scheduler.n_pending == 0

    def test_partial_class_waits_until_deadline(self):
        scheduler = MicroBatchScheduler(
            BatchingConfig(max_batch_size=4, max_wait_s=0.5)
        )
        scheduler.offer("x", key="a", now=0.0)
        assert scheduler.ready_batches(now=0.4) == []
        batches = scheduler.ready_batches(now=0.5)
        assert len(batches) == 1
        assert batches[0].formed_reason == "deadline"

    def test_incompatible_keys_never_share_a_batch(self):
        scheduler = MicroBatchScheduler(
            BatchingConfig(max_batch_size=8, max_wait_s=0.0)
        )
        scheduler.offer("a1", key=(16_000.0, False), now=0.0)
        scheduler.offer("b1", key=(8_000.0, False), now=0.0)
        scheduler.offer("a2", key=(16_000.0, False), now=0.0)
        batches = scheduler.ready_batches(now=0.0)
        grouped = {batch.key: batch.entries for batch in batches}
        assert grouped[(16_000.0, False)] == ["a1", "a2"]
        assert grouped[(8_000.0, False)] == ["b1"]

    def test_fifo_preserved_within_class(self):
        scheduler = MicroBatchScheduler(
            BatchingConfig(max_batch_size=2, max_wait_s=0.0)
        )
        for index in range(6):
            scheduler.offer(index, key="a", now=float(index))
        batches = scheduler.ready_batches(now=10.0)
        flattened = [
            entry for batch in batches for entry in batch.entries
        ]
        assert flattened == list(range(6))

    def test_oversize_class_splits_into_multiple_full_batches(self):
        scheduler = MicroBatchScheduler(
            BatchingConfig(max_batch_size=3, max_wait_s=10.0)
        )
        for index in range(7):
            scheduler.offer(index, key="a", now=0.0)
        batches = scheduler.ready_batches(now=0.0)
        assert [len(batch) for batch in batches] == [3, 3]
        assert scheduler.n_pending == 1  # the tail waits for its deadline


class TestFlushAndDeadline:
    def test_flush_empties_everything(self):
        scheduler = MicroBatchScheduler(
            BatchingConfig(max_batch_size=2, max_wait_s=100.0)
        )
        scheduler.offer("a1", key="a", now=0.0)
        scheduler.offer("b1", key="b", now=0.0)
        scheduler.offer("b2", key="b", now=0.0)
        scheduler.offer("b3", key="b", now=0.0)
        batches = scheduler.flush()
        assert scheduler.n_pending == 0
        assert sorted(len(batch) for batch in batches) == [1, 1, 2]
        assert all(
            batch.formed_reason == "flush" for batch in batches
        )

    def test_next_deadline_tracks_oldest_entry(self):
        scheduler = MicroBatchScheduler(
            BatchingConfig(max_batch_size=8, max_wait_s=1.0)
        )
        assert scheduler.next_deadline(now=0.0) is None
        scheduler.offer("a", key="a", now=0.0)
        scheduler.offer("b", key="b", now=0.5)
        assert scheduler.next_deadline(now=0.25) == pytest.approx(0.75)
        # Never negative, even past due.
        assert scheduler.next_deadline(now=5.0) == 0.0

    def test_zero_max_wait_dispatches_singletons(self):
        scheduler = MicroBatchScheduler(
            BatchingConfig(max_batch_size=8, max_wait_s=0.0)
        )
        scheduler.offer("a", key="a", now=1.0)
        batches = scheduler.ready_batches(now=1.0)
        assert len(batches) == 1
        assert batches[0].entries == ["a"]
