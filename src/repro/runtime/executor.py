"""The execution layer: one place that builds pools.

Every concurrent code path in the library — campaign scoring, the warm
serve worker pool, CLI attack studies — runs its units through a
:class:`Runtime` of one executor kind:

``process``
    A stdlib ``ProcessPoolExecutor``.
``thread``
    A stdlib ``ThreadPoolExecutor``.
``inline``
    An :class:`InlineExecutor`: units run in the calling thread and
    come back as already-completed futures.

An optional warm-up ``probe`` runs once per worker at ``start()``, so
worker spawn and the initializer happen there instead of on the first
unit.  :meth:`Runtime.submit` never changes executor: a process pool
that cannot start raises from ``start()``.  :meth:`Runtime.map_units`
has one fallback: when a process pool breaks, the completed prefix is
kept and the remaining units run inline.

Per the pool-boundary contract, any exception a unit raises inside a
*process* worker is re-raised as a picklable
:class:`repro.errors.WorkerError`; thread and inline execution raise
the original exception unchanged.
"""

from __future__ import annotations

import logging
import pickle
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, WorkerError
from repro.runtime.events import StageEvent, emit_event

logger = logging.getLogger(__name__)

#: Executor kinds understood by the runtime, fastest-isolation first.
INLINE = "inline"
THREAD = "thread"
PROCESS = "process"
EXECUTOR_KINDS: Tuple[str, ...] = (PROCESS, THREAD, INLINE)

#: Errors that indicate the *pool* (not the unit of work) failed:
#: workers could not spawn or died, or the payload could not cross the
#: process boundary.  These make :meth:`Runtime.map_units` finish a
#: process run inline; anything else is a unit failure and propagates
#: to the caller.
POOL_ERRORS: Tuple[type, ...] = (
    BrokenExecutor,
    OSError,
    pickle.PicklingError,
)


def validate_kind(kind: str) -> str:
    """Reject unknown executor kinds with a uniform error."""
    if kind not in EXECUTOR_KINDS:
        choices = ", ".join(EXECUTOR_KINDS)
        raise ConfigurationError(
            f"unknown executor kind {kind!r}; choose one of: {choices}"
        )
    return kind


def _call_in_process(fn: Callable[..., Any], *args: Any) -> Any:
    """Run one unit in a process worker; its errors become picklable.

    Module-level so it pickles into spawn workers.  Pool-infrastructure
    errors pass through untouched (the parent must see them as such);
    every other exception is re-raised as a :class:`WorkerError` that
    is guaranteed to survive the pickle trip back to the parent.
    """
    try:
        return fn(*args)
    except POOL_ERRORS:
        raise
    except Exception as error:  # noqa: BLE001 - boundary wrap
        raise WorkerError.from_exception(error) from None


class InlineExecutor:
    """Runs every unit in the calling thread, serially.

    The initializer runs once, at construction.  ``submit`` executes
    immediately and returns an already-completed
    :class:`~concurrent.futures.Future`, so callers written against the
    pool interface work unchanged.
    """

    def __init__(
        self,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - future carries it
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class Runtime:
    """Executes units of work on one executor kind.

    ``realized_kind`` is the kind actually running: it equals ``kind``
    unless :meth:`map_units` finished a broken process run inline, in
    which case it reads ``inline`` and :attr:`fell_back` is true.  That
    fallback emits one ``runtime``-scoped :class:`StageEvent` and one
    log warning.
    """

    def __init__(
        self,
        kind: str,
        n_workers: int = 1,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        probe: Optional[Tuple[Callable[..., Any], Tuple[Any, ...]]] = None,
    ) -> None:
        validate_kind(kind)
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.kind = kind
        self.realized_kind = kind
        self.n_workers = n_workers
        self._initializer = initializer
        self._initargs = initargs
        self._probe = probe
        self._executor: Optional[Any] = None

    @property
    def fell_back(self) -> bool:
        """Whether :meth:`map_units` finished a process run inline."""
        return self.realized_kind != self.kind

    def start(self) -> None:
        """Build the executor and run the probe once per worker.

        A no-op when already started.  Spawn, initializer and probe
        failures propagate, with the executor torn down.
        """
        if self._executor is not None:
            return
        if self.realized_kind == PROCESS:
            executor: Any = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        elif self.realized_kind == THREAD:
            executor = ThreadPoolExecutor(
                max_workers=self.n_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        else:
            executor = InlineExecutor(self._initializer, self._initargs)
        if self._probe is not None:
            probe_fn, probe_args = self._probe
            try:
                futures = [
                    executor.submit(probe_fn, *probe_args)
                    for _ in range(self.n_workers)
                ]
                for future in futures:
                    future.result()
            except BaseException:
                executor.shutdown(wait=False, cancel_futures=True)
                raise
        self._executor = executor

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Submit one unit (starting the executor if needed).

        A pool that breaks after submission surfaces through the
        returned future.
        """
        self.start()
        assert self._executor is not None
        if self.realized_kind == PROCESS:
            return self._executor.submit(_call_in_process, fn, *args)
        return self._executor.submit(fn, *args)

    def map_units(
        self, fn: Callable[..., Any], units: Sequence[Any]
    ) -> List[Any]:
        """Run ``fn(unit)`` for every unit, in submission order.

        Results are collected in order, which is what makes parallel
        campaign runs bitwise-identical to serial ones.  If a process
        pool raises a :data:`POOL_ERRORS` member — at start, on submit,
        or while collecting — the completed prefix is kept and the
        remaining units run inline, after the initializer runs
        in-process.
        """
        units = list(units)
        results: List[Any] = []
        while True:
            try:
                pending = [
                    self.submit(fn, unit) for unit in units[len(results):]
                ]
                for future in pending:
                    results.append(future.result())
                return results
            except POOL_ERRORS as error:
                if self.realized_kind != PROCESS:
                    raise
                self.shutdown(wait=False)
                self._fall_back_inline(error)

    def _fall_back_inline(self, error: BaseException) -> None:
        logger.warning(
            "process executor failed (%s: %s); falling back to inline",
            type(error).__name__,
            error,
        )
        emit_event(
            StageEvent(
                stage="runtime.map",
                wall_s=0.0,
                fallback=INLINE,
                error=type(error).__name__,
                scope="runtime",
            )
        )
        self.realized_kind = INLINE

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None

    def __enter__(self) -> "Runtime":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
