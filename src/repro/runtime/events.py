"""StageEvent — one structured-observability protocol for every layer.

Pipeline stages, campaign units, serve workers, and the runtime's
inline fallback all emit the same small frozen record: stage name, wall
time, batch size, which fallback (if any) was taken, and the error
class when the stage failed.  Sinks aggregate them; the same aggregate
feeds both :class:`repro.serve.metrics.ServiceMetrics` and the campaign
stats reporting, so a pipeline run looks identical through either lens.

Events are delivered two ways, which compose:

* an **instance sink** (e.g. ``DefensePipeline.sink``) wired by the
  owner of the emitting object;
* an **ambient sink** installed for the current context with
  :func:`capture_stage_events` — how worker functions collect the
  events of exactly one call without touching shared pipeline state
  (and therefore without races between threads).
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.utils.stats import percentile_values


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
        (e.g. ``full-recording``, ``deadline-skip``, ``inline``).
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


class StageEventSink:
    """Minimal sink interface (also usable as a no-op base)."""

    def emit(self, event: StageEvent) -> None:  # pragma: no cover
        """Receive one event."""


@dataclass(frozen=True)
class StageSummary:
    """Aggregate of one stage's events: count, total, percentiles."""

    stage: str
    count: int
    total_s: float
    p50_s: float
    p95_s: float
    p99_s: float


class StageEventAggregator(StageEventSink):
    """Thread-safe sink that accumulates events for later summary.

    The single aggregation point behind both metrics surfaces: the
    serving layer feeds summaries into
    :class:`~repro.serve.metrics.ServiceMetrics`, the campaign runner
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

    def timings(self) -> Dict[str, float]:
        """``{stage: wall_s}`` of the *latest* successful event per stage.

        Matches the shape of the pipeline's per-call timing dict when
        the aggregator captured exactly one call.
        """
        out: Dict[str, float] = {}
        for event in self.events:
            if event.ok:
                out[event.stage] = event.wall_s
        return out

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

    def summarize(self) -> Dict[str, StageSummary]:
        """Per-stage count/total/percentile summary (ok events only)."""
        samples: Dict[str, List[float]] = {}
        for event in self.events:
            if event.ok:
                samples.setdefault(event.stage, []).append(event.wall_s)
        summaries: Dict[str, StageSummary] = {}
        for stage, walls in samples.items():
            p50, p95, p99 = percentile_values(walls, (50.0, 95.0, 99.0))
            summaries[stage] = StageSummary(
                stage=stage,
                count=len(walls),
                total_s=float(sum(walls)),
                p50_s=float(p50),
                p95_s=float(p95),
                p99_s=float(p99),
            )
        return summaries


#: Ambient sink for the current execution context.  Worker functions
#: install an aggregator here around exactly one pipeline call, so
#: shared pipeline instances need no mutable sink state of their own.
_ACTIVE_SINK: "contextvars.ContextVar[Optional[StageEventSink]]" = (
    contextvars.ContextVar("repro_stage_event_sink", default=None)
)


def emit_event(
    event: StageEvent, sink: Optional[StageEventSink] = None
) -> None:
    """Deliver ``event`` to the instance ``sink`` and the ambient sink.

    Either may be absent; when both are the same object the event is
    delivered once.
    """
    if sink is not None:
        sink.emit(event)
    ambient = _ACTIVE_SINK.get()
    if ambient is not None and ambient is not sink:
        ambient.emit(event)


@contextlib.contextmanager
def capture_stage_events(
    sink: Optional[StageEventAggregator] = None,
) -> Iterator[StageEventAggregator]:
    """Install an ambient aggregator for the ``with`` block.

    Every :func:`emit_event` inside the block (same thread/context) is
    recorded; the previous ambient sink is restored on exit.
    """
    aggregator = sink if sink is not None else StageEventAggregator()
    token = _ACTIVE_SINK.set(aggregator)
    try:
        yield aggregator
    finally:
        _ACTIVE_SINK.reset(token)
