"""Online verification serving layer.

Turns the batch-oriented defense pipeline into an online service that
answers individual :class:`VerificationRequest`s with bounded latency:
a bounded admission queue with configurable backpressure, from which
each free worker takes the oldest request plus the compatible requests
queued behind it as one micro-batch, and a warm worker pool that trains
the phoneme segmenter once per worker at startup.  See DESIGN.md
§ "Online serving architecture".
"""

from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    RecordingPool,
    build_recording_pool,
    run_loadgen,
)
from repro.serve.metrics import (
    LatencySummary,
    MetricsCollector,
    ServiceMetrics,
)
from repro.serve.queue import BackpressurePolicy, BoundedRequestQueue
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.serve.service import ServiceConfig, VerificationService
from repro.serve.workers import PipelineSpec, WarmWorkerPool

__all__ = [
    "BackpressurePolicy",
    "BoundedRequestQueue",
    "LatencySummary",
    "LoadgenConfig",
    "LoadgenReport",
    "MetricsCollector",
    "PipelineSpec",
    "RecordingPool",
    "RequestStatus",
    "ServiceConfig",
    "ServiceMetrics",
    "VerificationRequest",
    "VerificationResponse",
    "VerificationService",
    "WarmWorkerPool",
    "build_recording_pool",
    "run_loadgen",
]
