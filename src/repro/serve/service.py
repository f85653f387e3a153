"""Online verification service: queue → free worker, one batch at a time.

:class:`VerificationService` is the in-process serving engine.
``submit`` admits a :class:`~repro.serve.request.VerificationRequest`
into a bounded queue (applying the configured backpressure policy) and
returns a future.  A dispatcher thread is work-conserving: as soon as a
worker of the :class:`WarmWorkerPool` is free, it takes the oldest
queued request plus up to ``max_batch_size - 1`` later requests with
the same batch key and hands them to that worker as one micro-batch.
While every worker is busy, requests wait in the queue, so batches form
from the backlog alone and ``queue_capacity`` bounds every request not
yet dispatched.  Every submitted request reaches exactly one terminal
status: served (possibly degraded past its deadline), rejected, shed,
or failed.

Determinism contract
--------------------
A served verdict is a pure function of (pipeline spec, recordings,
request seed): batch composition, worker count, worker mode, and queue
timing never change it.  Only deadline expiry does — visibly, via
``degraded=True`` — because it switches the request to the
full-recording fallback.  ``tests/test_serve_service.py`` pins service
verdicts bitwise against direct ``DefensePipeline.verify`` calls.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Union

from repro.errors import ConfigurationError, ServiceOverloadError
from repro.serve.metrics import MetricsCollector, ServiceMetrics
from repro.serve.queue import BackpressurePolicy, BoundedRequestQueue
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.serve.workers import PipelineSpec, WarmWorkerPool, WorkerResult


def _duration(name: str, value: Optional[float], allow_none: bool) -> None:
    """Reject non-positive durations up front (CLI and config path)."""
    if value is None:
        if not allow_none:
            raise ConfigurationError(f"{name} must be set")
        return
    if not value > 0:
        raise ConfigurationError(
            f"{name} must be > 0, got {value}"
        )


@dataclass
class ServiceConfig:
    """Tunables of the serving engine.

    Attributes
    ----------
    n_workers:
        Warm workers in the pool.
    worker_mode:
        ``"thread"`` or ``"process"`` (see :class:`WarmWorkerPool`).
    queue_capacity:
        Bound of the admission queue.
    backpressure:
        Policy at capacity: ``block`` / ``reject`` / ``shed-oldest``
        (enum or its string value).
    block_timeout_s:
        Longest a blocking ``submit`` waits for queue space.
    max_batch_size:
        Most requests a free worker takes from the queue at once.
    default_deadline_s:
        Deadline applied to requests that do not carry their own.
    """

    n_workers: int = 2
    worker_mode: str = "thread"
    queue_capacity: int = 64
    backpressure: Union[BackpressurePolicy, str] = (
        BackpressurePolicy.BLOCK
    )
    block_timeout_s: Optional[float] = None
    max_batch_size: int = 8
    default_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.worker_mode not in ("thread", "process"):
            raise ConfigurationError(
                f"worker_mode must be 'thread' or 'process', "
                f"got {self.worker_mode!r}"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, "
                f"got {self.queue_capacity}"
            )
        if isinstance(self.backpressure, str):
            try:
                self.backpressure = BackpressurePolicy(self.backpressure)
            except ValueError:
                choices = ", ".join(
                    policy.value for policy in BackpressurePolicy
                )
                raise ConfigurationError(
                    f"unknown backpressure policy "
                    f"{self.backpressure!r}; choose one of: {choices}"
                ) from None
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, "
                f"got {self.max_batch_size}"
            )
        _duration(
            "default_deadline_s", self.default_deadline_s, allow_none=True
        )
        if self.block_timeout_s is not None and not self.block_timeout_s >= 0:
            raise ConfigurationError(
                f"block_timeout_s must be >= 0 (or None), "
                f"got {self.block_timeout_s}"
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
            capacity=self.config.queue_capacity,
            policy=self.config.backpressure,
            block_timeout_s=self.config.block_timeout_s,
        )
        self._pool = WarmWorkerPool(
            self.spec,
            n_workers=self.config.n_workers,
            mode=self.config.worker_mode,
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
        """Warm the worker pool and start the dispatcher."""
        with self._lifecycle_lock:
            if self._started:
                return
            warmup_start = time.monotonic()
            self._pool.start()
            self.warmup_s = time.monotonic() - warmup_start
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
        not a worker is free.
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

        Raises :class:`ServiceOverloadError` when the queue refuses the
        request (``reject`` policy, or a ``block`` timeout).  Requests
        dropped by ``shed-oldest`` are *not* raised here — their
        already-returned futures resolve with a ``SHED`` response.
        """
        if not self._started:
            raise ConfigurationError(
                "service not started; call start() or use it as a "
                "context manager"
            )
        if (
            request.deadline_s is None
            and self.config.default_deadline_s is not None
        ):
            request.deadline_s = self.config.default_deadline_s
        self.metrics_collector.record_submitted()
        entry = _Entry(
            request=request,
            future=Future(),
            submitted_at=time.monotonic(),
        )
        try:
            shed = self._queue.put(entry)
        except ServiceOverloadError:
            self.metrics_collector.record_rejected()
            raise
        if shed is not None:
            self.metrics_collector.record_shed()
            shed.future.set_result(
                VerificationResponse(
                    request_id=shed.request.request_id,
                    status=RequestStatus.SHED,
                    total_s=time.monotonic() - shed.submitted_at,
                    error=(
                        "shed by backpressure policy 'shed-oldest' "
                        f"(queue capacity {self._queue.capacity})"
                    ),
                )
            )
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
                    degraded=result.degraded,
                )
                entry.future.set_result(
                    VerificationResponse(
                        request_id=entry.request.request_id,
                        status=RequestStatus.SERVED,
                        verdict=result.verdict,
                        degraded=result.degraded,
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
