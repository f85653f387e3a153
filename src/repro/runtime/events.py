"""StageEvent — one structured-observability protocol for every layer.

Pipeline stages, campaign units, serve workers, and the runtime's
inline fallback all emit the same small frozen record: stage name, wall
time, batch size, which fallback (if any) was taken, and the error
class when the stage failed.  The same events feed both
:class:`repro.serve.metrics.ServiceMetrics` and the campaign stats
reporting, so a pipeline run looks identical through either lens.

Events reach the **ambient sink** installed for the current context
with :func:`capture_stage_events` — how worker functions collect the
events of exactly one call without touching shared pipeline state (and
therefore without races between threads).
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class StageEvent:
    """One observed execution of a named stage.

    Attributes
    ----------
    stage:
        Stage name (``sync`` / ``segment`` / ... for pipeline stages,
        ``runtime.map`` for a process run finished inline,
        ``segment_batch`` for the shared vectorized forward).
    wall_s:
        Wall-clock seconds attributed to this stage (for batched work,
        including the emitting request's amortized share).
    batch_size:
        Number of requests the stage served at once.
    fallback:
        Name of the fallback taken, or ``None`` on the primary path
        (e.g. ``full-recording``, ``per-request``, ``inline``).
    error:
        Error class name when the stage raised, else ``None``.
    scope:
        Emitting layer: ``pipeline``, ``batch``, ``runtime``,
        ``campaign``, or ``serve``.
    """

    stage: str
    wall_s: float
    batch_size: int = 1
    fallback: Optional[str] = None
    error: Optional[str] = None
    scope: str = "pipeline"

    @property
    def ok(self) -> bool:
        """Whether the stage completed without raising."""
        return self.error is None


class StageEventAggregator:
    """Thread-safe sink that accumulates events for later counting.

    The aggregation point behind both metrics surfaces: serve workers
    hand the captured events to
    :class:`~repro.serve.metrics.MetricsCollector`, the campaign runner
    folds per-unit totals into its stats block.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[StageEvent] = []

    def emit(self, event: StageEvent) -> None:
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> List[StageEvent]:
        """Snapshot of the events observed so far."""
        with self._lock:
            return list(self._events)

    def stage_totals(self) -> Dict[str, float]:
        """Summed wall seconds per stage over successful events."""
        totals: Dict[str, float] = {}
        for event in self.events:
            if event.ok:
                totals[event.stage] = (
                    totals.get(event.stage, 0.0) + event.wall_s
                )
        return totals

    def fallback_counts(self) -> Dict[str, int]:
        """``{"stage:fallback": count}`` over events that fell back."""
        counts: Dict[str, int] = {}
        for event in self.events:
            if event.fallback is not None:
                key = f"{event.stage}:{event.fallback}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def error_counts(self) -> Dict[str, int]:
        """``{"stage:ErrorClass": count}`` over failed events."""
        counts: Dict[str, int] = {}
        for event in self.events:
            if event.error is not None:
                key = f"{event.stage}:{event.error}"
                counts[key] = counts.get(key, 0) + 1
        return counts


#: Ambient sink for the current execution context.  Worker functions
#: install an aggregator here around exactly one pipeline call, so
#: shared pipeline instances need no mutable sink state of their own.
_ACTIVE_SINK: "contextvars.ContextVar[Optional[StageEventAggregator]]" = (
    contextvars.ContextVar("repro_stage_event_sink", default=None)
)


def emit_event(event: StageEvent) -> None:
    """Deliver ``event`` to the ambient sink, if one is installed."""
    ambient = _ACTIVE_SINK.get()
    if ambient is not None:
        ambient.emit(event)


@contextlib.contextmanager
def capture_stage_events() -> Iterator[StageEventAggregator]:
    """Install an ambient aggregator for the ``with`` block.

    Every :func:`emit_event` inside the block (same thread/context) is
    recorded; the previous ambient sink is restored on exit.
    """
    aggregator = StageEventAggregator()
    token = _ACTIVE_SINK.set(aggregator)
    try:
        yield aggregator
    finally:
        _ACTIVE_SINK.reset(token)
