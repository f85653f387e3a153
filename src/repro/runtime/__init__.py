"""Unified execution layer: executors, fallback/retry policies, and
the StageEvent observability protocol.

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
    POOL_ERRORS,
    InlineExecutor,
    ProcessPoolRuntime,
    Runtime,
    ThreadPoolRuntime,
)
from repro.runtime.policies import (
    EXECUTOR_KINDS,
    INLINE,
    PROCESS,
    THREAD,
    FallbackPolicy,
    RetryPolicy,
    validate_kind,
)

__all__ = [
    "EXECUTOR_KINDS",
    "FallbackPolicy",
    "INLINE",
    "InlineExecutor",
    "NullSink",
    "POOL_ERRORS",
    "PROCESS",
    "ProcessPoolRuntime",
    "RetryPolicy",
    "Runtime",
    "StageEvent",
    "StageEventAggregator",
    "StageEventSink",
    "StageSummary",
    "THREAD",
    "ThreadPoolRuntime",
    "active_sink",
    "capture_stage_events",
    "emit_event",
    "validate_kind",
]
