"""Wall-clock helper for the tier-1 batched-versus-sequential speed gates."""

import statistics
import time
from typing import Callable


def _lap(func: Callable[[], object]) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def median_speedup(
    sequential: Callable[[], object],
    batched: Callable[[], object],
    rounds: int = 7,
) -> float:
    """Median over ``rounds`` of sequential seconds / batched seconds.

    Each side gets one untimed warm-up call first.  The side that runs
    first alternates from round to round, and each round's ratio pairs
    two back-to-back laps, so a busy neighbour core or an unpinned BLAS
    thread pool slows both sides of a round rather than one side of the
    whole measurement.
    """
    sequential()
    batched()
    ratios = []
    for index in range(rounds):
        if index % 2:
            batched_s = _lap(batched)
            sequential_s = _lap(sequential)
        else:
            sequential_s = _lap(sequential)
            batched_s = _lap(batched)
        ratios.append(sequential_s / batched_s)
    return statistics.median(ratios)
