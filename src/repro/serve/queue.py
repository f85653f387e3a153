"""Bounded FIFO request queue whose ``put`` blocks at capacity.

The queue is the service's admission-control point and its only
waiting room: when producers outrun the workers, ``put`` blocks until
a worker takes a batch and frees space.  A free worker takes its
micro-batch, the oldest entries, straight from the queue
(``take_batch``), so the capacity bounds every request not yet taken.  ``close`` refuses further
``put``s and wakes every blocked producer with
:class:`~repro.errors.ServiceOverloadError`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

from repro.errors import ConfigurationError, ServiceOverloadError

T = TypeVar("T")


class BoundedRequestQueue(Generic[T]):
    """Thread-safe FIFO with a hard capacity.

    Parameters
    ----------
    capacity:
        Maximum number of queued entries (>= 1).
    """

    def __init__(self, capacity: int) -> None:
        if int(capacity) < 1:
            raise ConfigurationError(
                f"queue capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._entries: Deque[T] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def put(self, entry: T) -> None:
        """Admit ``entry``, blocking while the queue is full.

        Raises :class:`ServiceOverloadError` when the queue is closed,
        including while the caller is blocked.
        """
        with self._lock:
            while not self._closed and len(self._entries) >= self.capacity:
                self._not_full.wait()
            if self._closed:
                raise ServiceOverloadError("queue is closed")
            self._entries.append(entry)
            self._not_empty.notify()

    def take_batch(
        self, max_size: int, timeout_s: Optional[float] = None
    ) -> List[T]:
        """Pop the oldest entries, at most ``max_size`` of them.

        Waits up to ``timeout_s`` (``None``: forever) for the queue to
        be non-empty.  Returns ``[]`` on timeout or when the queue is
        closed and drained.
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
            size = min(max_size, len(self._entries))
            batch = [self._entries.popleft() for _ in range(size)]
            self._not_full.notify(size)
            return batch

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
