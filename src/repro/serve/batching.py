"""Micro-batching scheduler for the verification service.

Incoming requests are grouped into batches so a warm worker amortizes
per-dispatch overhead, under two constraints: only *compatible*
requests (same :attr:`~repro.serve.request.VerificationRequest.batch_key`
— audio rate and pipeline-affecting flags) may share a batch, and no
admitted request waits longer than ``max_wait_s`` for its batch to
fill.  The scheduler is deliberately free of threads and wall-clock
reads: callers inject ``now`` timestamps, which makes the dispatch
logic directly property-testable (FIFO within a compatibility class,
no request dispatched twice, bounded wait).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


@dataclass(frozen=True)
class BatchingConfig:
    """Micro-batch formation parameters.

    Attributes
    ----------
    max_batch_size:
        Largest number of requests dispatched together.
    max_wait_s:
        Longest an admitted request may sit waiting for co-batchees
        before its (possibly singleton) batch is dispatched anyway.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if not self.max_wait_s >= 0:
            raise ConfigurationError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )


@dataclass
class Batch(Generic[T]):
    """One dispatchable group of compatible requests."""

    key: Hashable
    entries: List[T]
    formed_reason: str = "full"

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class _PendingClass(Generic[T]):
    """Requests of one compatibility class awaiting dispatch."""

    entries: List[T] = field(default_factory=list)
    arrivals: List[float] = field(default_factory=list)

    @property
    def oldest_arrival(self) -> float:
        return self.arrivals[0]


class MicroBatchScheduler(Generic[T]):
    """Groups offered entries into compatible, deadline-bounded batches.

    Usage: ``offer`` entries as they leave the request queue, then call
    ``ready_batches(now)`` to collect every batch that is either full
    or has exceeded its oldest entry's ``max_wait_s``.  ``flush()``
    empties every pending class regardless of age (shutdown / idle
    drain).
    """

    def __init__(self, config: Optional[BatchingConfig] = None) -> None:
        self.config = config or BatchingConfig()
        self._pending: "OrderedDict[Hashable, _PendingClass[T]]" = (
            OrderedDict()
        )

    def offer(self, entry: T, key: Hashable, now: float) -> None:
        """Add one entry to its compatibility class."""
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _PendingClass()
        pending.entries.append(entry)
        pending.arrivals.append(now)

    def ready_batches(self, now: float) -> List[Batch[T]]:
        """Pop every batch whose dispatch condition holds at ``now``.

        A class dispatches when it holds ``max_batch_size`` entries
        (repeatedly, if it holds several batches' worth) or when its
        oldest entry has waited ``max_wait_s``.  Entries leave in
        arrival order, so FIFO order is preserved within a class.
        """
        batches: List[Batch[T]] = []
        size = self.config.max_batch_size
        for key in list(self._pending):
            pending = self._pending[key]
            while len(pending.entries) >= size:
                batches.append(
                    Batch(
                        key=key,
                        entries=pending.entries[:size],
                        formed_reason="full",
                    )
                )
                del pending.entries[:size]
                del pending.arrivals[:size]
            if pending.entries and (
                now - pending.oldest_arrival >= self.config.max_wait_s
            ):
                batches.append(
                    Batch(
                        key=key,
                        entries=pending.entries[:],
                        formed_reason="deadline",
                    )
                )
                pending.entries.clear()
                pending.arrivals.clear()
            if not pending.entries:
                del self._pending[key]
        return batches

    def flush(self) -> List[Batch[T]]:
        """Dispatch everything pending, regardless of age or size."""
        batches: List[Batch[T]] = []
        size = self.config.max_batch_size
        for key, pending in self._pending.items():
            for start in range(0, len(pending.entries), size):
                batches.append(
                    Batch(
                        key=key,
                        entries=pending.entries[start : start + size],
                        formed_reason="flush",
                    )
                )
        self._pending.clear()
        return batches

    def next_deadline(self, now: float) -> Optional[float]:
        """Seconds until the earliest pending class must dispatch.

        ``None`` when nothing is pending; never negative.
        """
        if not self._pending:
            return None
        earliest = min(
            pending.oldest_arrival for pending in self._pending.values()
        )
        return max(0.0, earliest + self.config.max_wait_s - now)

    @property
    def n_pending(self) -> int:
        """Entries currently awaiting batch formation."""
        return sum(
            len(pending.entries) for pending in self._pending.values()
        )

    @property
    def pending_keys(self) -> Tuple[Hashable, ...]:
        """Compatibility classes with waiting entries."""
        return tuple(self._pending.keys())
