"""Online verification serving layer.

Turns the batch-oriented defense pipeline into an online service that
answers individual :class:`VerificationRequest`s: a bounded FIFO
admission queue whose ``submit`` blocks while it is full, and worker
threads that each take the oldest queued requests as one micro-batch.
The service builds its one pipeline, training the phoneme segmenter
once, when it starts, and every worker runs that pipeline, so queue
timing never changes a verdict.  See DESIGN.md
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
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.serve.service import ServiceConfig, VerificationService
from repro.serve.workers import PipelineSpec

__all__ = [
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
    "build_recording_pool",
    "run_loadgen",
]
