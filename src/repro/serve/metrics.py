"""Service metrics: latency percentiles, throughput, request counts.

A :class:`MetricsCollector` accumulates per-request observations behind
a lock; :meth:`MetricsCollector.snapshot` freezes them into a
:class:`ServiceMetrics` value object that
:func:`repro.eval.reporting.format_service_metrics` renders in the same
plain-text style as the campaign runner's stats block.

Stage-level observability arrives as :class:`repro.runtime.StageEvent`
streams from the workers (:meth:`MetricsCollector.record_stage_events`)
— the same protocol the campaign runner aggregates — so fallback
annotations (full-recording degrades, per-request retries) are counted
uniformly across the serving and evaluation surfaces.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.runtime import StageEvent
from repro.utils.stats import (
    REPORTED_PERCENTILES as _REPORTED_PERCENTILES,
    percentile_values,
)

#: Percentiles reported for every latency distribution.
REPORTED_PERCENTILES: Tuple[int, ...] = tuple(
    int(p) for p in _REPORTED_PERCENTILES
)


@dataclass(frozen=True)
class LatencySummary:
    """p50/p95/p99 (seconds) plus count for one latency distribution."""

    count: int
    p50_s: float
    p95_s: float
    p99_s: float

    @classmethod
    def from_samples(
        cls, samples: List[float]
    ) -> Optional["LatencySummary"]:
        if not samples:
            return None
        p50, p95, p99 = percentile_values(samples, REPORTED_PERCENTILES)
        return cls(
            count=len(samples),
            p50_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
        )


@dataclass(frozen=True)
class ServiceMetrics:
    """Frozen snapshot of the service's counters and distributions.

    Attributes
    ----------
    n_submitted / n_served / n_failed:
        Request accounting.  Every submitted request ends either served
        or failed.
    n_batches / mean_batch_size:
        Micro-batching effectiveness.  Each batch is one
        ``DefensePipeline.analyze_batch`` call (one shared segmentation
        forward).
    queue_depth:
        Requests queued (admitted, not yet dispatched) at snapshot
        time.
    wall_s / throughput_rps:
        Serving time — from the end of the warm-up in
        :meth:`~repro.serve.service.VerificationService.start` to
        :meth:`~repro.serve.service.VerificationService.stop`, or to the
        snapshot while the service runs — and served requests per
        second of it.
    total_latency / queue_wait:
        End-to-end and queued-time percentiles.
    stage_latency:
        Percentiles per pipeline stage (see
        :data:`repro.core.pipeline.PIPELINE_STAGES`).
    """

    n_submitted: int
    n_served: int
    n_failed: int
    n_batches: int
    mean_batch_size: float
    queue_depth: int
    wall_s: float
    throughput_rps: float
    total_latency: Optional[LatencySummary]
    queue_wait: Optional[LatencySummary]
    stage_latency: Mapping[str, LatencySummary] = field(
        default_factory=dict
    )
    #: ``{"stage:fallback": count}`` over the workers' StageEvent
    #: streams — full-recording degrades and per-request retries,
    #: through one protocol.
    stage_fallbacks: Mapping[str, int] = field(default_factory=dict)

    @property
    def n_resolved(self) -> int:
        """Requests that reached a terminal status."""
        return self.n_served + self.n_failed


class MetricsCollector:
    """Thread-safe accumulator behind the service's metrics endpoint.

    The serving clock runs from :meth:`start_clock` to
    :meth:`stop_clock`; a collector whose clock never started reports
    zero wall time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self.n_submitted = 0
        self.n_served = 0
        self.n_failed = 0
        self.n_batches = 0
        self.n_batched_requests = 0
        self._total_latencies: List[float] = []
        self._queue_waits: List[float] = []
        self._stage_latencies: Dict[str, List[float]] = {}
        self._stage_fallbacks: Dict[str, int] = {}

    def start_clock(self) -> None:
        """Start the serving clock (the service is ready for traffic)."""
        with self._lock:
            self._started_at = time.monotonic()
            self._stopped_at = None

    def stop_clock(self) -> None:
        """Freeze the serving clock (the service has stopped)."""
        with self._lock:
            self._stopped_at = time.monotonic()

    def record_submitted(self) -> None:
        with self._lock:
            self.n_submitted += 1

    def record_failed(self) -> None:
        with self._lock:
            self.n_failed += 1

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.n_batches += 1
            self.n_batched_requests += size

    def record_stage_events(
        self, events: Iterable[StageEvent]
    ) -> None:
        """Fold a worker's :class:`StageEvent` stream into the counters.

        Fallback annotations become ``stage:fallback`` counts; stage
        wall times are *not* re-recorded here (they arrive once via
        :meth:`record_served`'s timing dict, which the pipeline derives
        from the same events).
        """
        with self._lock:
            for event in events:
                if event.fallback is not None:
                    key = f"{event.stage}:{event.fallback}"
                    self._stage_fallbacks[key] = (
                        self._stage_fallbacks.get(key, 0) + 1
                    )

    def record_served(
        self,
        total_s: float,
        queue_wait_s: float,
        stage_timings_s: Mapping[str, float],
    ) -> None:
        with self._lock:
            self.n_served += 1
            self._total_latencies.append(total_s)
            self._queue_waits.append(queue_wait_s)
            for stage, seconds in stage_timings_s.items():
                self._stage_latencies.setdefault(stage, []).append(
                    seconds
                )

    def snapshot(self, queue_depth: int = 0) -> ServiceMetrics:
        """Freeze the current counters into a :class:`ServiceMetrics`."""
        with self._lock:
            start, end = self._started_at, self._stopped_at
            if start is None:
                wall_s = 0.0
            else:
                wall_s = (time.monotonic() if end is None else end) - start
            mean_batch = (
                self.n_batched_requests / self.n_batches
                if self.n_batches
                else 0.0
            )
            return ServiceMetrics(
                n_submitted=self.n_submitted,
                n_served=self.n_served,
                n_failed=self.n_failed,
                n_batches=self.n_batches,
                mean_batch_size=mean_batch,
                queue_depth=queue_depth,
                wall_s=wall_s,
                throughput_rps=(
                    self.n_served / wall_s if wall_s > 0 else 0.0
                ),
                total_latency=LatencySummary.from_samples(
                    self._total_latencies
                ),
                queue_wait=LatencySummary.from_samples(
                    self._queue_waits
                ),
                stage_latency={
                    stage: LatencySummary.from_samples(samples)
                    for stage, samples in self._stage_latencies.items()
                    if samples
                },
                stage_fallbacks=dict(self._stage_fallbacks),
            )
