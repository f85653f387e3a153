"""Online verification service: queue → free worker, one batch at a time.

:class:`VerificationService` is the in-process serving engine.
``submit`` admits a :class:`~repro.serve.request.VerificationRequest`
into a bounded FIFO queue, blocking while it is full, and returns a
future.  A dispatcher thread is work-conserving: as soon as a
worker thread of the :class:`WarmWorkerPool` is free, it takes the oldest
queued request plus up to ``max_batch_size - 1`` later requests with
the same batch key and hands them to that worker as one micro-batch.
While every worker is busy, requests wait in the queue, so batches form
from the backlog alone and ``queue_capacity`` bounds every request not
yet dispatched.  Every submitted request reaches exactly one terminal
status: served or failed.

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
from typing import Dict, Hashable, List, Optional, Set

from repro.errors import ConfigurationError
from repro.serve.metrics import MetricsCollector, ServiceMetrics
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.serve.workers import PipelineSpec, WarmWorkerPool, WorkerResult


@dataclass
class ServiceConfig:
    """Tunables of the serving engine.

    Attributes
    ----------
    n_workers:
        Warm worker threads in the pool.
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


def _batch_key(entry: _Entry) -> Hashable:
    return entry.request.batch_key


class VerificationService:
    """In-process online verification service.

    Parameters
    ----------
    spec:
        Pipeline recipe the workers warm up with.
    config:
        Queue / batching / pool tunables.

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
        self._pool = WarmWorkerPool(
            self.spec, n_workers=self.config.n_workers
        )
        # Batches handed to the pool and not yet resolved.  The
        # dispatcher waits on the condition for a free worker; stop()
        # waits on it for the set to empty.
        self._inflight: Set[Future] = set()
        self._inflight_drained = threading.Condition()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        # Serializes start/stop so concurrent lifecycle calls (two
        # callers double-stopping, or a stop racing a start) are
        # idempotent instead of racing on _thread/_pool teardown.
        self._lifecycle_lock = threading.Lock()
        #: Wall-clock seconds :meth:`start` spent warming the worker
        #: pool (training or store-loading segmenters); ``None`` until
        #: the first start.  The cold-start benchmark reads this to
        #: separate warm-up cost from steady-state latency.
        self.warmup_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Warm the worker pool, start the dispatcher and the clock.

        The metrics clock starts once warm-up is done, so
        ``ServiceMetrics.wall_s`` and ``throughput_rps`` cover serving
        time only; :attr:`warmup_s` reports the warm-up.
        """
        with self._lifecycle_lock:
            if self._started:
                return
            warmup_start = time.monotonic()
            self._pool.start()
            self.warmup_s = time.monotonic() - warmup_start
            self.metrics_collector.start_clock()
            self._thread = threading.Thread(
                target=self._dispatch_loop,
                name="verify-dispatcher",
                daemon=True,
            )
            self._thread.start()
            self._started = True

    def stop(self) -> None:
        """Drain queued work, wait for in-flight batches, shut down.

        Idempotent and safe to call concurrently: every caller returns
        only after the drain completed (the first caller performs it,
        the rest wait on the lifecycle lock), and a stop racing the
        draining dispatcher can no longer observe a half-torn-down
        ``_thread``/``_pool`` pair.  Everything still queued is
        dispatched in batches of at most ``max_batch_size``, whether or
        not a worker is free.  The metrics clock stops once the drain
        is done.
        """
        with self._lifecycle_lock:
            if not self._started:
                return
            self._queue.close()
            with self._inflight_drained:
                self._stop_event.set()
                self._inflight_drained.notify_all()
            if self._thread is not None:
                self._thread.join()
                self._thread = None
            with self._inflight_drained:
                while self._inflight:
                    self._inflight_drained.wait()
            self._pool.shutdown(wait=True)
            self._started = False
            self.metrics_collector.stop_clock()

    @property
    def n_workers(self) -> int:
        """Worker-pool size, fixed by ``config.n_workers`` at construction."""
        return self._pool.n_workers

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
    # Dispatcher internals
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Hand each free worker the oldest request and its batch-mates.

        Batch completion and :meth:`stop` wake the wait for a free
        worker; a ``put`` or ``close`` wakes the wait for a request.
        After :meth:`stop` the loop stops waiting for workers and
        returns once the closed queue is empty.
        """
        while True:
            with self._inflight_drained:
                while (
                    len(self._inflight) >= self._pool.n_workers
                    and not self._stop_event.is_set()
                ):
                    self._inflight_drained.wait()
            entries = self._queue.take_batch(
                self.config.max_batch_size, _batch_key
            )
            if not entries:
                return
            self._dispatch(entries)

    def _dispatch(self, entries: List[_Entry]) -> None:
        now = time.monotonic()
        for entry in entries:
            entry.dispatched_at = now
        key = entries[0].request.batch_key
        requests = [entry.request for entry in entries]
        ages = [now - entry.submitted_at for entry in entries]
        self.metrics_collector.record_batch(len(entries))
        try:
            pool_future = self._pool.submit(key, requests, ages)
        except Exception as error:
            self._fail_batch(entries, error)
            return
        with self._inflight_drained:
            self._inflight.add(pool_future)
        pool_future.add_done_callback(
            lambda future, entries=entries: self._on_batch_done(
                entries, future
            )
        )

    def _on_batch_done(
        self,
        entries: List[_Entry],
        pool_future: "Future[List[WorkerResult]]",
    ) -> None:
        try:
            error = pool_future.exception()
            if error is not None:
                self._fail_batch(entries, error)
                return
            results = pool_future.result()
            for result in results:
                if result.events:
                    self.metrics_collector.record_stage_events(
                        result.events
                    )
            by_id: Dict[int, WorkerResult] = dict(enumerate(results))
            now = time.monotonic()
            for index, entry in enumerate(entries):
                result = by_id.get(index)
                if result is None or result.error is not None:
                    message = (
                        result.error
                        if result is not None
                        else "worker returned no result"
                    )
                    self.metrics_collector.record_failed()
                    entry.future.set_result(
                        VerificationResponse(
                            request_id=entry.request.request_id,
                            status=RequestStatus.FAILED,
                            total_s=now - entry.submitted_at,
                            queue_wait_s=(
                                entry.dispatched_at - entry.submitted_at
                            ),
                            error=message,
                        )
                    )
                    continue
                total_s = now - entry.submitted_at
                queue_wait_s = entry.dispatched_at - entry.submitted_at
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
        finally:
            with self._inflight_drained:
                self._inflight.discard(pool_future)
                self._inflight_drained.notify_all()

    def _fail_batch(
        self, entries: List[_Entry], error: BaseException
    ) -> None:
        now = time.monotonic()
        for entry in entries:
            self.metrics_collector.record_failed()
            entry.future.set_result(
                VerificationResponse(
                    request_id=entry.request.request_id,
                    status=RequestStatus.FAILED,
                    total_s=now - entry.submitted_at,
                    queue_wait_s=entry.dispatched_at - entry.submitted_at,
                    error=f"{type(error).__name__}: {error}",
                )
            )
