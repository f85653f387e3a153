"""Bounded request queue with configurable backpressure.

The queue is the service's admission-control point and its only
waiting room: when producers outrun the worker pool, the configured
:class:`BackpressurePolicy` decides whether ``put`` blocks for space,
rejects the newcomer with :class:`~repro.errors.ServiceOverloadError`,
or sheds the oldest queued entry to make room.  A free worker takes
its micro-batch straight from the queue (``take_batch``), so the
capacity bounds every request not yet dispatched.  Counters are
maintained so the metrics snapshot can report exactly how much load
was refused — the property suite pins ``enqueued == admitted`` and
``shed`` arithmetic against the queue bound.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Generic,
    Hashable,
    List,
    Optional,
    TypeVar,
)

from repro.errors import ConfigurationError, ServiceOverloadError

T = TypeVar("T")


class BackpressurePolicy(enum.Enum):
    """What ``put`` does when the queue is at capacity."""

    #: Wait (up to ``block_timeout_s``) for a consumer to make room;
    #: raise :class:`ServiceOverloadError` if the wait times out.
    BLOCK = "block"
    #: Refuse the new entry immediately with
    #: :class:`ServiceOverloadError`.
    REJECT = "reject"
    #: Evict the oldest queued entry and admit the new one; the evicted
    #: entry is returned to the caller so its future can be resolved.
    SHED_OLDEST = "shed-oldest"


class BoundedRequestQueue(Generic[T]):
    """Thread-safe FIFO with a hard capacity and backpressure counters.

    Parameters
    ----------
    capacity:
        Maximum number of queued entries (>= 1).
    policy:
        Behaviour at capacity (see :class:`BackpressurePolicy`).
    block_timeout_s:
        Longest a ``BLOCK``-policy ``put`` may wait; ``None`` waits
        forever.
    """

    def __init__(
        self,
        capacity: int,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        block_timeout_s: Optional[float] = None,
    ) -> None:
        if int(capacity) < 1:
            raise ConfigurationError(
                f"queue capacity must be >= 1, got {capacity}"
            )
        if block_timeout_s is not None and not block_timeout_s >= 0:
            raise ConfigurationError(
                f"block_timeout_s must be >= 0 (or None), "
                f"got {block_timeout_s}"
            )
        self.capacity = int(capacity)
        self.policy = policy
        self.block_timeout_s = block_timeout_s
        self._entries: Deque[T] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self.n_enqueued = 0
        self.n_rejected = 0
        self.n_shed = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def put(self, entry: T) -> Optional[T]:
        """Admit ``entry``, applying the backpressure policy.

        Returns the entry evicted to make room (``SHED_OLDEST`` only),
        or ``None``.  Raises :class:`ServiceOverloadError` when the
        entry cannot be admitted (``REJECT``, or a ``BLOCK`` timeout)
        and when the queue has been closed.
        """
        with self._lock:
            if self._closed:
                raise ServiceOverloadError("queue is closed")
            if len(self._entries) >= self.capacity:
                shed = self._make_room()
            else:
                shed = None
            self._entries.append(entry)
            self.n_enqueued += 1
            self._not_empty.notify()
            return shed

    def _make_room(self) -> Optional[T]:
        """Resolve a full queue per policy; caller holds the lock."""
        if self.policy is BackpressurePolicy.REJECT:
            self.n_rejected += 1
            raise ServiceOverloadError(
                f"queue full ({self.capacity} entries, policy=reject)"
            )
        if self.policy is BackpressurePolicy.SHED_OLDEST:
            self.n_shed += 1
            return self._entries.popleft()
        # BLOCK: wait for a consumer.
        deadline = (
            None
            if self.block_timeout_s is None
            else time.monotonic() + self.block_timeout_s
        )
        while len(self._entries) >= self.capacity:
            if self._closed:
                raise ServiceOverloadError("queue closed while blocked")
            if deadline is None:
                self._not_full.wait()
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._not_full.wait(remaining):
                    if len(self._entries) < self.capacity:
                        break
                    self.n_rejected += 1
                    raise ServiceOverloadError(
                        f"queue full after blocking "
                        f"{self.block_timeout_s:.3f}s"
                    )
        return None

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def get(self, timeout_s: Optional[float] = None) -> Optional[T]:
        """Pop the oldest entry, waiting up to ``timeout_s``.

        Returns ``None`` on timeout or when the queue is closed and
        drained.
        """
        batch = self.take_batch(1, lambda entry: None, timeout_s)
        return batch[0] if batch else None

    def take_batch(
        self,
        max_size: int,
        key_of: Callable[[T], Hashable],
        timeout_s: Optional[float] = None,
    ) -> List[T]:
        """Pop the oldest entry plus up to ``max_size - 1`` compatible ones.

        Waits up to ``timeout_s`` (``None``: forever) for the queue to
        be non-empty, then takes the head entry and the later entries
        whose ``key_of`` equals the head's, oldest first, until the
        batch holds ``max_size``.  Entries of other keys keep their
        places.  Returns ``[]`` on timeout or when the queue is closed
        and drained.
        """
        if max_size < 1:
            raise ConfigurationError(
                f"max_size must be >= 1, got {max_size}"
            )
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        with self._lock:
            while not self._entries:
                if self._closed:
                    return []
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return []
                    self._not_empty.wait(remaining)
            batch = [self._entries.popleft()]
            if max_size > 1 and self._entries:
                key = key_of(batch[0])
                rest: Deque[T] = deque()
                for entry in self._entries:
                    if len(batch) < max_size and key_of(entry) == key:
                        batch.append(entry)
                    else:
                        rest.append(entry)
                self._entries = rest
            self._not_full.notify(len(batch))
            return batch

    def drain(self) -> List[T]:
        """Pop every queued entry at once."""
        with self._lock:
            entries = list(self._entries)
            self._entries.clear()
            self._not_full.notify_all()
            return entries

    def close(self) -> None:
        """Refuse future ``put``s and wake every waiter."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def depth(self) -> int:
        """Current number of queued entries."""
        with self._lock:
            return len(self._entries)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._lock:
            return self._closed
