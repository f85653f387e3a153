"""Unified execution layer: batch unit mapping and the StageEvent
observability protocol.

Batch work in ``eval``, ``redteam`` and the CLI runs its units through
:func:`map_units` and is observed through :class:`StageEvent` records.
"""

from repro.runtime.events import (
    StageEvent,
    StageEventAggregator,
    capture_stage_events,
    emit_event,
)
from repro.runtime.executor import POOL_ERRORS, map_units, resolve_workers

__all__ = [
    "POOL_ERRORS",
    "StageEvent",
    "StageEventAggregator",
    "capture_stage_events",
    "emit_event",
    "map_units",
    "resolve_workers",
]
