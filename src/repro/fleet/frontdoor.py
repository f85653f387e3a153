"""Asyncio front door: user-affine routing over the shard fleet.

The front door is the fleet's single entry point.  It owns a
consistent-hash ring over N :class:`~repro.fleet.shard.ServiceShard`
instances and, per request:

1. resolves the user's preference list on the ring (owner first,
   then the failover walk),
2. applies the SLO shedding valve *before* dispatch, so overload is
   refused with a retry-after hint instead of queued into a breach,
3. looks up the user's serving profile in the target shard's LRU,
4. submits to the shard's engine and awaits the response under the
   fleet-wide deadline,
5. on :class:`~repro.errors.ShardUnavailableError`, degrades to the
   next shard on the preference list; when the walk is exhausted the
   request is rejected with retry-after — never silently dropped.

The event loop runs on a dedicated background thread so synchronous
callers (the load generator, tests, the CLI) drive the fleet through
:meth:`FleetFrontDoor.submit_threadsafe` /
:meth:`FleetFrontDoor.verify`.  Every accepted request is tracked
in-flight; :meth:`FleetFrontDoor.stop` drains them before tearing the
loop down, which is the "zero dropped on shutdown" guarantee the
smoke target asserts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import (
    ConfigurationError,
    ServiceOverloadError,
    ShardUnavailableError,
)
from repro.fleet.hashing import DEFAULT_VNODES, ConsistentHashRing
from repro.fleet.metrics import FleetMetrics, FleetMetricsCollector
from repro.fleet.profiles import UserProfile
from repro.fleet.shard import ServiceShard
from repro.fleet.slo import SheddingPolicy, SloConfig
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.utils.rng import derive_seed


@dataclass
class FleetConfig:
    """Front-door configuration.

    Attributes
    ----------
    n_shards:
        Shards built at :meth:`FleetFrontDoor.start` (ids
        ``shard-0 .. shard-{n-1}``).
    vnodes:
        Virtual nodes per shard on the ring.
    failover:
        Extra preference-list shards tried when the owner is down.
    default_deadline_s:
        Fleet-wide deadline applied to requests that carry none.
    deadline_grace_s:
        Extra wait past the deadline before the front door gives up
        on an in-flight request.  Engines degrade late requests
        rather than drop them, so a small grace converts most
        would-be timeouts into (degraded) verdicts.
    slo:
        Shedding target shared by the valve and the shards' windows.
    autoscale_interval_s:
        Period of the background autoscale tick (0 disables it).
    apply_profiles:
        Whether to personalize verdicts with per-user thresholds.
    """

    n_shards: int = 2
    vnodes: int = DEFAULT_VNODES
    failover: int = 1
    default_deadline_s: Optional[float] = None
    deadline_grace_s: float = 0.25
    slo: SloConfig = field(default_factory=SloConfig)
    autoscale_interval_s: float = 0.5
    apply_profiles: bool = True

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.failover < 0:
            raise ConfigurationError(
                f"failover must be >= 0, got {self.failover}"
            )
        if (
            self.default_deadline_s is not None
            and not self.default_deadline_s > 0
        ):
            raise ConfigurationError(
                f"default_deadline_s must be > 0 (or None), "
                f"got {self.default_deadline_s}"
            )
        if self.deadline_grace_s < 0:
            raise ConfigurationError(
                f"deadline_grace_s must be >= 0, "
                f"got {self.deadline_grace_s}"
            )
        if self.autoscale_interval_s < 0:
            raise ConfigurationError(
                f"autoscale_interval_s must be >= 0, "
                f"got {self.autoscale_interval_s}"
            )


@dataclass
class FleetRequest:
    """One verification job addressed to a *user*, not a shard.

    The front door derives the shard from ``user_id`` via the ring.
    ``seed`` defaults to a deterministic function of ``(user_id,
    request_id)`` so replaying a request anywhere in the fleet yields
    the same verdict.
    """

    user_id: str
    va_audio: np.ndarray
    wearable_audio: np.ndarray
    priority: int = 0
    request_id: str = ""
    seed: Optional[int] = None
    audio_rate: float = 16_000.0
    deadline_s: Optional[float] = None
    wearer_moving: bool = False

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ConfigurationError("user_id must be non-empty")
        if not 0 < self.audio_rate < math.inf:
            raise ConfigurationError(
                f"audio_rate must be finite and > 0, got {self.audio_rate}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 (or None), got {self.deadline_s}"
            )

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return int(self.seed)
        return derive_seed(
            0, "fleet-request", self.user_id, self.request_id
        )


@dataclass
class FleetResponse:
    """Fleet-level answer for one request.

    ``total_s`` is the caller-observed latency (routing, queueing,
    failover and profile application included).  ``retry_after_s`` is
    set on every refusal (SLO shed, engine shed, rejection, fleet
    deadline) so callers can back off instead of hammering a hot
    shard.
    """

    request_id: str
    user_id: str
    status: RequestStatus
    shard_id: Optional[str] = None
    verdict: object = None
    degraded: bool = False
    rerouted: bool = False
    retry_after_s: Optional[float] = None
    queue_wait_s: float = 0.0
    total_s: float = 0.0
    error: Optional[str] = None
    profile_threshold: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.SERVED


class FleetFrontDoor:
    """User-sharded async serving tier over N verification shards.

    Parameters
    ----------
    shard_factory:
        ``shard_id -> ServiceShard`` (see
        :func:`repro.fleet.shard.service_shard_factory` /
        :func:`repro.fleet.shard.simulated_shard_factory`).
    config:
        Fleet-level knobs; shard-level ones live in the factory.
    """

    def __init__(
        self,
        shard_factory: Callable[[str], ServiceShard],
        config: Optional[FleetConfig] = None,
    ) -> None:
        self.config = config or FleetConfig()
        self._shard_factory = shard_factory
        self.shards: Dict[str, ServiceShard] = {}
        self.ring = ConsistentHashRing(vnodes=self.config.vnodes)
        self.collector = FleetMetricsCollector()
        self._shedder = SheddingPolicy(self.config.slo)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._autoscale_future: Optional["asyncio.Task"] = None
        self._lifecycle_lock = threading.Lock()
        self._started = False
        self._accepting = False
        self._inflight = 0
        self._drained = threading.Condition()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Build and warm the shards, then start the routing loop."""
        with self._lifecycle_lock:
            if self._started:
                return
            for index in range(self.config.n_shards):
                shard_id = f"shard-{index}"
                shard = self._shard_factory(shard_id)
                self.shards[shard_id] = shard
                self.ring.add(shard_id)
            for shard in self.shards.values():
                shard.start()
            self._loop = asyncio.new_event_loop()
            ready = threading.Event()
            self._thread = threading.Thread(
                target=self._run_loop,
                args=(ready,),
                name="fleet-frontdoor",
                daemon=True,
            )
            self._thread.start()
            ready.wait()
            if self.config.autoscale_interval_s > 0 and any(
                shard.autoscaler is not None
                for shard in self.shards.values()
            ):
                self._autoscale_future = (
                    asyncio.run_coroutine_threadsafe(
                        self._start_autoscale_task(), self._loop
                    ).result()
                )
            self._started = True
            self._accepting = True

    def _run_loop(self, ready: threading.Event) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(ready.set)
        self._loop.run_forever()

    def stop(self) -> None:
        """Drain in-flight requests, then tear everything down.

        Idempotent and safe to call concurrently.  New submissions
        are refused the moment stop begins; requests already accepted
        all resolve before the loop and the shards go away.
        """
        with self._lifecycle_lock:
            if not self._started:
                return
            self._accepting = False
            with self._drained:
                while self._inflight > 0:
                    self._drained.wait(timeout=0.1)
            assert self._loop is not None and self._thread is not None
            if self._autoscale_future is not None:
                task = self._autoscale_future
                self._autoscale_future = None
                # Cancel on-loop and await it, so the loop never stops
                # with a pending task (and never logs about one).
                asyncio.run_coroutine_threadsafe(
                    self._cancel_task(task), self._loop
                ).result()
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()
            self._loop = None
            self._thread = None
            for shard in self.shards.values():
                shard.stop()
            self._started = False

    def __enter__(self) -> "FleetFrontDoor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission surfaces
    # ------------------------------------------------------------------

    def submit_threadsafe(
        self, request: FleetRequest
    ) -> "Future[FleetResponse]":
        """Submit from any thread; the future resolves exactly once.

        The in-flight count is bumped *before* the coroutine is
        scheduled, so a concurrent :meth:`stop` always waits for this
        request.
        """
        if not self._accepting or self._loop is None:
            raise ConfigurationError(
                "front door is not accepting requests "
                "(not started, or stopping)"
            )
        self._enter_flight()
        try:
            return asyncio.run_coroutine_threadsafe(
                self._submit_tracked(request), self._loop
            )
        except Exception:
            self._exit_flight()
            raise

    def verify(self, request: FleetRequest) -> FleetResponse:
        """Blocking convenience wrapper over
        :meth:`submit_threadsafe`."""
        return self.submit_threadsafe(request).result()

    async def submit(self, request: FleetRequest) -> FleetResponse:
        """Async submission for callers already on the fleet loop."""
        if not self._accepting:
            raise ConfigurationError(
                "front door is not accepting requests "
                "(not started, or stopping)"
            )
        self._enter_flight()
        return await self._submit_tracked(request)

    def metrics(self) -> FleetMetrics:
        """Fleet snapshot with per-shard rollups."""
        return self.collector.snapshot(self.shards)

    # ------------------------------------------------------------------
    # In-flight tracking
    # ------------------------------------------------------------------

    def _enter_flight(self) -> None:
        with self._drained:
            self._inflight += 1

    def _exit_flight(self) -> None:
        with self._drained:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.notify_all()

    async def _submit_tracked(
        self, request: FleetRequest
    ) -> FleetResponse:
        try:
            return await self._route(request)
        finally:
            self._exit_flight()

    # ------------------------------------------------------------------
    # Routing core
    # ------------------------------------------------------------------

    async def _route(self, request: FleetRequest) -> FleetResponse:
        start = time.monotonic()
        self.collector.record_routed()
        config = self.config
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else config.default_deadline_s
        )
        candidates = self.ring.preference(
            request.user_id, 1 + config.failover
        )
        owner = candidates[0]
        for shard_id in candidates:
            shard = self.shards[shard_id]
            if not shard.available:
                continue
            if self._shedder.should_shed(shard.window, request.priority):
                self.collector.record_shed_slo()
                return FleetResponse(
                    request_id=request.request_id,
                    user_id=request.user_id,
                    status=RequestStatus.SHED,
                    shard_id=shard_id,
                    retry_after_s=config.slo.retry_after_s,
                    total_s=time.monotonic() - start,
                    error=(
                        f"SLO shed: shard {shard_id} rolling p95 "
                        f"above {config.slo.target_p95_s:.3f}s target"
                    ),
                )
            profile: Optional[UserProfile] = None
            if config.apply_profiles:
                # LRU hit for the hot Zipf head; a cold miss derives
                # (or store-loads) inline, which is sub-millisecond
                # for derivation and rare enough not to matter for
                # the store path.
                profile = shard.profiles.get(request.user_id)
            verification = VerificationRequest(
                va_audio=request.va_audio,
                wearable_audio=request.wearable_audio,
                seed=request.resolved_seed(),
                request_id=request.request_id,
                audio_rate=request.audio_rate,
                deadline_s=deadline_s,
                wearer_moving=request.wearer_moving,
            )
            try:
                engine_future = shard.submit(verification)
            except ServiceOverloadError as error:
                self.collector.record_rejected()
                return FleetResponse(
                    request_id=request.request_id,
                    user_id=request.user_id,
                    status=RequestStatus.REJECTED,
                    shard_id=shard_id,
                    retry_after_s=config.slo.retry_after_s,
                    total_s=time.monotonic() - start,
                    error=str(error),
                )
            except ShardUnavailableError:
                continue
            timeout = None
            if deadline_s is not None:
                elapsed = time.monotonic() - start
                timeout = (
                    max(0.0, deadline_s - elapsed)
                    + config.deadline_grace_s
                )
            try:
                # shield(): a fleet timeout must not cancel the
                # engine-side future — the worker that picked the
                # request up will still resolve it (and a cancelled
                # concurrent future would blow up its set_result).
                response = await asyncio.wait_for(
                    asyncio.shield(
                        asyncio.wrap_future(engine_future)
                    ),
                    timeout,
                )
            except asyncio.TimeoutError:
                self.collector.record_failed()
                return FleetResponse(
                    request_id=request.request_id,
                    user_id=request.user_id,
                    status=RequestStatus.FAILED,
                    shard_id=shard_id,
                    retry_after_s=config.slo.retry_after_s,
                    total_s=time.monotonic() - start,
                    error=(
                        f"fleet deadline {deadline_s:.3f}s exceeded "
                        f"(+{config.deadline_grace_s:.3f}s grace)"
                    ),
                )
            return self._finish(
                request=request,
                response=response,
                shard_id=shard_id,
                rerouted=shard_id != owner,
                profile=profile,
                start=start,
            )
        # Preference walk exhausted: every candidate shard was down.
        self.collector.record_rejected()
        return FleetResponse(
            request_id=request.request_id,
            user_id=request.user_id,
            status=RequestStatus.REJECTED,
            shard_id=None,
            retry_after_s=config.slo.retry_after_s,
            total_s=time.monotonic() - start,
            error=(
                f"no available shard for user {request.user_id!r} "
                f"(tried {', '.join(candidates)})"
            ),
        )

    def _finish(
        self,
        request: FleetRequest,
        response: VerificationResponse,
        shard_id: str,
        rerouted: bool,
        profile: Optional[UserProfile],
        start: float,
    ) -> FleetResponse:
        total_s = time.monotonic() - start
        verdict = response.verdict
        threshold = None
        if (
            response.status is RequestStatus.SERVED
            and profile is not None
            and verdict is not None
            and profile.threshold is not None
        ):
            # Personalize post-hoc: the shared pipeline scores, the
            # user's own threshold decides.  Keeping the threshold
            # out of the batch key preserves micro-batching.
            threshold = profile.threshold
            verdict = dataclasses.replace(
                verdict, is_attack=profile.decide(verdict.score)
            )
        if response.status is RequestStatus.SERVED:
            self.collector.record_served(
                total_s=total_s,
                degraded=response.degraded,
                rerouted=rerouted,
            )
            retry_after = None
        elif response.status is RequestStatus.SHED:
            self.collector.record_shed_engine()
            retry_after = self.config.slo.retry_after_s
        else:
            self.collector.record_failed()
            retry_after = self.config.slo.retry_after_s
        return FleetResponse(
            request_id=request.request_id,
            user_id=request.user_id,
            status=response.status,
            shard_id=shard_id,
            verdict=verdict,
            degraded=response.degraded,
            rerouted=rerouted,
            retry_after_s=retry_after,
            queue_wait_s=response.queue_wait_s,
            total_s=total_s,
            error=response.error,
            profile_threshold=threshold,
        )

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------

    async def _start_autoscale_task(self) -> "asyncio.Task":
        return asyncio.get_event_loop().create_task(
            self._autoscale_loop()
        )

    @staticmethod
    async def _cancel_task(task: "asyncio.Task") -> None:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def _autoscale_loop(self) -> None:
        interval = self.config.autoscale_interval_s
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(interval)
            # Resizes warm a replacement pool, which can take a
            # moment — run off-loop so routing latency never pays it.
            await loop.run_in_executor(None, self._autoscale_tick_all)

    def _autoscale_tick_all(self) -> None:
        now = time.monotonic()
        for shard in self.shards.values():
            try:
                shard.autoscale_tick(now)
            except Exception:
                # An autoscale failure (e.g. a shard dying mid-tick)
                # must not kill the background loop; the shard's
                # submit path reports the failure to callers.
                continue
