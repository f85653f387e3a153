"""Online verification service: queue → free worker, one batch at a time.

:class:`VerificationService` is the in-process serving engine.
``submit`` admits a :class:`~repro.serve.request.VerificationRequest`
into a bounded FIFO queue, blocking while it is full, and returns a
future.  ``n_workers`` worker threads share one warm pipeline; each
loops on taking the oldest queued requests, up to ``max_batch_size``,
and running them as one micro-batch.  While every worker is busy,
requests wait in the queue, so batches form from the backlog alone and
``queue_capacity`` bounds every request not yet taken.  Every
submitted request reaches exactly one terminal status: served or
failed.

Determinism contract
--------------------
A served verdict is a pure function of (pipeline spec, recordings,
request seed): batch composition, worker count, and queue timing never
change it.  ``tests/test_serve_service.py`` pins service
verdicts bitwise against direct ``DefensePipeline.analyze`` calls.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional

from repro.core.pipeline import DefensePipeline
from repro.errors import ConfigurationError
from repro.serve import workers
from repro.serve.metrics import MetricsCollector, ServiceMetrics
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.serve.workers import PipelineSpec, WorkerResult


@dataclass
class ServiceConfig:
    """Tunables of the serving engine.

    Attributes
    ----------
    n_workers:
        Worker threads serving the queue.
    worker_mode:
        Must be ``"thread"``, the only worker kind; kept so existing
        callers that pass it still construct.
    queue_capacity:
        Bound of the admission queue; ``submit`` blocks while it is
        full.
    max_batch_size:
        Most requests a free worker takes from the queue at once.
    """

    n_workers: int = 2
    worker_mode: str = "thread"
    queue_capacity: int = 64
    max_batch_size: int = 8

    def __post_init__(self) -> None:
        for name in ("n_workers", "queue_capacity", "max_batch_size"):
            value = getattr(self, name)
            if not value >= 1:  # also rejects NaN
                raise ConfigurationError(
                    f"{name} must be >= 1, got {value}"
                )
        if self.worker_mode != "thread":
            raise ConfigurationError(
                f"worker_mode must be 'thread', got {self.worker_mode!r}"
            )


@dataclass
class _Entry:
    """A queued request plus its resolution future and timestamps."""

    request: VerificationRequest
    future: "Future[VerificationResponse]"
    submitted_at: float
    dispatched_at: float = 0.0


class VerificationService:
    """In-process online verification service.

    Parameters
    ----------
    spec:
        Pipeline recipe the service warms up with.
    config:
        Queue / batching / worker tunables.

    Examples
    --------
    >>> from repro.serve import PipelineSpec, ServiceConfig
    >>> spec = PipelineSpec(use_segmenter=False)
    >>> service = VerificationService(spec, ServiceConfig(n_workers=1))
    >>> # with service: response = service.verify(request)
    """

    def __init__(
        self,
        spec: Optional[PipelineSpec] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.spec = spec or PipelineSpec()
        self.config = config or ServiceConfig()
        self.metrics_collector = MetricsCollector()
        self._queue: "BoundedRequestQueue[_Entry]" = BoundedRequestQueue(
            self.config.queue_capacity
        )
        self._threads: List[threading.Thread] = []
        self._started = False
        # Serializes start/stop so concurrent lifecycle calls (two
        # callers double-stopping, or a stop racing a start) are
        # idempotent instead of racing on the worker threads.
        self._lifecycle_lock = threading.Lock()
        #: Wall-clock seconds :meth:`start` spent building the pipeline
        #: (training or store-loading the segmenter); ``None`` until
        #: the first start.  The cold-start benchmark reads this to
        #: separate warm-up cost from steady-state latency.
        self.warmup_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Build the pipeline, start the worker threads and the clock.

        The pipeline is built in the calling thread, so segmenter
        training happens here rather than on the first request.  The
        metrics clock starts once warm-up is done, so
        ``ServiceMetrics.wall_s`` and ``throughput_rps`` cover serving
        time only; :attr:`warmup_s` reports the warm-up.  If a worker
        thread cannot start, the ones already running are stopped and
        the error propagates.
        """
        with self._lifecycle_lock:
            if self._started:
                return
            warmup_start = time.monotonic()
            pipeline = self.spec.build_pipeline(16_000.0, False)
            self.warmup_s = time.monotonic() - warmup_start
            try:
                for index in range(self.config.n_workers):
                    thread = threading.Thread(
                        target=self._work,
                        args=(pipeline,),
                        name=f"verify-worker-{index}",
                        daemon=True,
                    )
                    thread.start()
                    self._threads.append(thread)
            except BaseException:
                self._join_workers()
                raise
            self.metrics_collector.start_clock()
            self._started = True

    def stop(self) -> None:
        """Drain queued work, wait for the workers, shut down.

        Idempotent and safe to call concurrently: every caller returns
        only after the drain completed (the first caller performs it,
        the rest wait on the lifecycle lock).  Closing the queue lets
        each worker finish what is still queued, in batches of at most
        ``max_batch_size``, and return once the queue is empty.  The
        metrics clock stops once the drain is done.
        """
        with self._lifecycle_lock:
            if not self._started:
                return
            self._join_workers()
            self._started = False
            self.metrics_collector.stop_clock()

    def _join_workers(self) -> None:
        self._queue.close()
        for thread in self._threads:
            thread.join()
        self._threads = []

    @property
    def n_workers(self) -> int:
        """Worker-thread count, fixed by ``config.n_workers``."""
        return self.config.n_workers

    def __enter__(self) -> "VerificationService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def submit(
        self, request: VerificationRequest
    ) -> "Future[VerificationResponse]":
        """Admit one request; returns a future for its response.

        Blocks while the queue is full.  Raises
        :class:`~repro.errors.ServiceOverloadError` if :meth:`stop`
        closes the queue first.
        """
        if not self._started:
            raise ConfigurationError(
                "service not started; call start() or use it as a "
                "context manager"
            )
        entry = _Entry(
            request=request,
            future=Future(),
            submitted_at=time.monotonic(),
        )
        self._queue.put(entry)
        self.metrics_collector.record_submitted()
        return entry.future

    def verify(
        self, request: VerificationRequest
    ) -> VerificationResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result()

    def metrics(self) -> ServiceMetrics:
        """Snapshot of counters, percentiles, and occupancy."""
        return self.metrics_collector.snapshot(
            queue_depth=self._queue.depth
        )

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------

    def _work(self, pipeline: DefensePipeline) -> None:
        """Take the oldest queued batch, run it, resolve it; repeat.

        Returns once the queue is closed and empty.
        """
        while True:
            entries = self._queue.take_batch(self.config.max_batch_size)
            if not entries:
                return
            now = time.monotonic()
            for entry in entries:
                entry.dispatched_at = now
            self.metrics_collector.record_batch(len(entries))
            items = [
                (entry.request, now - entry.submitted_at)
                for entry in entries
            ]
            try:
                # Looked up on the module at call time, so a wrapper
                # installed on the attribute sees every batch.
                results = workers.execute_batch((pipeline, None, items))
            except Exception as error:
                message = f"{type(error).__name__}: {error}"
                results = [
                    WorkerResult(entry.request.request_id, error=message)
                    for entry in entries
                ]
            self._resolve(entries, results)

    def _resolve(
        self, entries: List[_Entry], results: List[WorkerResult]
    ) -> None:
        for result in results:
            if result.events:
                self.metrics_collector.record_stage_events(result.events)
        now = time.monotonic()
        for entry, result in zip(entries, results):
            total_s = now - entry.submitted_at
            queue_wait_s = entry.dispatched_at - entry.submitted_at
            if result.error is not None:
                self.metrics_collector.record_failed()
                entry.future.set_result(
                    VerificationResponse(
                        request_id=entry.request.request_id,
                        status=RequestStatus.FAILED,
                        total_s=total_s,
                        queue_wait_s=queue_wait_s,
                        error=result.error,
                    )
                )
                continue
            self.metrics_collector.record_served(
                total_s=total_s,
                queue_wait_s=queue_wait_s,
                stage_timings_s=result.stage_timings_s,
            )
            entry.future.set_result(
                VerificationResponse(
                    request_id=entry.request.request_id,
                    status=RequestStatus.SERVED,
                    verdict=result.verdict,
                    stage_timings_s=result.stage_timings_s,
                    queue_wait_s=queue_wait_s,
                    total_s=total_s,
                )
            )
