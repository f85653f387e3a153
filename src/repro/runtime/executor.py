"""The execution layer for batch work: one function that maps units.

Campaign scoring, red-team attacker populations and CLI attack studies
run their units through :func:`map_units`.  The worker count is the
only option: a run with at most one worker (after capping at the unit
count) executes inline in the calling thread, anything larger on a
stdlib ``ProcessPoolExecutor``.  ``None`` means one worker per CPU
core.  Results always come back in submission order, which is what
makes a parallel run bitwise-identical to a serial one.

There is one fallback: when a process pool breaks (it cannot spawn,
a worker dies, a payload will not pickle), the completed prefix is
kept and the remaining units run inline.  The fallback emits one
``runtime``-scoped :class:`StageEvent` and one log warning.

Per the pool-boundary contract, any exception a unit raises inside a
process worker is re-raised as a picklable
:class:`repro.errors.WorkerError`; inline execution raises the
original exception unchanged.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, WorkerError
from repro.runtime.events import StageEvent, emit_event

logger = logging.getLogger(__name__)

#: Errors that indicate the *pool* (not the unit of work) failed:
#: workers could not spawn or died, or the payload could not cross the
#: process boundary.  These make :func:`map_units` finish the run
#: inline; anything else is a unit failure and propagates to the
#: caller.
POOL_ERRORS: Tuple[type, ...] = (
    BrokenExecutor,
    OSError,
    pickle.PicklingError,
)


def resolve_workers(n_workers: Optional[int], n_units: int) -> int:
    """Workers a run of ``n_units`` units gets from ``n_workers``.

    ``None`` means one per CPU core; the count never exceeds the
    number of units and is at least one.
    """
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if not n_workers >= 1:
        raise ConfigurationError(
            f"n_workers must be >= 1 (or None), got {n_workers}"
        )
    return max(1, min(int(n_workers), n_units))


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


def map_units(
    fn: Callable[[Any], Any],
    units: Sequence[Any],
    n_workers: Optional[int],
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> Tuple[List[Any], bool]:
    """Run ``fn(unit)`` for every unit; return results and fallback.

    Returns ``(results, fell_back)``: the results in submission order,
    and whether a broken process pool made the run finish inline.
    ``initializer(*initargs)`` runs once per process worker, or once in
    the calling thread before the first inline unit.
    """
    units = list(units)
    workers = resolve_workers(n_workers, len(units))
    results: List[Any] = []
    fell_back = False
    if workers > 1:
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=initializer,
                initargs=initargs,
            )
            try:
                futures = [
                    pool.submit(_call_in_process, fn, unit) for unit in units
                ]
                for future in futures:
                    results.append(future.result())
            finally:
                # A failed unit or a broken pool leaves nothing to wait
                # for but the units already running.
                pool.shutdown(cancel_futures=True)
            return results, False
        except POOL_ERRORS as error:
            _warn_fallback(error)
            fell_back = True
    if initializer is not None:
        initializer(*initargs)
    for unit in units[len(results):]:
        results.append(fn(unit))
    return results, fell_back


def _warn_fallback(error: BaseException) -> None:
    logger.warning(
        "process pool failed (%s: %s); finishing inline",
        type(error).__name__,
        error,
    )
    emit_event(
        StageEvent(
            stage="runtime.map",
            wall_s=0.0,
            fallback="inline",
            error=type(error).__name__,
            scope="runtime",
        )
    )
