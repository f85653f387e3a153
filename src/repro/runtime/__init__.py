"""Unified execution layer: the executor and the StageEvent
observability protocol.

All pool construction in the library lives here; ``core``, ``eval``,
``serve``, and the CLI submit units of work through a
:class:`Runtime` and observe them through :class:`StageEvent` sinks.
"""

from repro.runtime.events import (
    NullSink,
    StageEvent,
    StageEventAggregator,
    StageEventSink,
    StageSummary,
    active_sink,
    capture_stage_events,
    emit_event,
)
from repro.runtime.executor import (
    EXECUTOR_KINDS,
    INLINE,
    POOL_ERRORS,
    PROCESS,
    THREAD,
    InlineExecutor,
    Runtime,
    validate_kind,
)

__all__ = [
    "EXECUTOR_KINDS",
    "INLINE",
    "InlineExecutor",
    "NullSink",
    "POOL_ERRORS",
    "PROCESS",
    "Runtime",
    "StageEvent",
    "StageEventAggregator",
    "StageEventSink",
    "StageSummary",
    "THREAD",
    "active_sink",
    "capture_stage_events",
    "emit_event",
    "validate_kind",
]
