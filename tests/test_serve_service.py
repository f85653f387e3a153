"""Verification service: lifecycle, dispatch, determinism, metrics."""

import statistics
import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import PIPELINE_STAGES, DefensePipeline
from repro.core.segmentation import training_run_count
from repro.errors import ConfigurationError
from repro.serve import (
    PipelineSpec,
    RequestStatus,
    ServiceConfig,
    VerificationRequest,
    VerificationService,
    WarmWorkerPool,
    workers,
)

AUDIO_RATE = 16_000.0


def make_pair(seed, n_samples=8_000):
    """A small synthetic recording pair (noise is enough to verify)."""
    rng = np.random.default_rng(seed)
    va = rng.normal(0.0, 0.1, n_samples)
    wearable = 0.8 * va + rng.normal(0.0, 0.02, n_samples)
    return va, wearable


def make_request(seed, **kwargs):
    va, wearable = make_pair(seed)
    kwargs.setdefault("request_id", f"req-{seed}")
    return VerificationRequest(
        va_audio=va, wearable_audio=wearable, seed=seed, **kwargs
    )


@pytest.fixture(scope="module")
def fast_spec():
    """Segmenter-free spec: requests run the no-selection pipeline."""
    return PipelineSpec(use_segmenter=False)


class TestLifecycle:
    def test_submit_before_start_raises(self, fast_spec):
        service = VerificationService(fast_spec)
        with pytest.raises(ConfigurationError):
            service.submit(make_request(0))

    def test_context_manager_serves_and_stops(self, fast_spec):
        with VerificationService(
            fast_spec, ServiceConfig(n_workers=2)
        ) as service:
            response = service.verify(make_request(1))
        assert response.status is RequestStatus.SERVED
        assert response.verdict is not None
        # A second start/stop cycle is a no-op-safe sequence.
        service.stop()

    def test_stop_drains_pending_requests(self, fast_spec, monkeypatch):
        release = threading.Event()
        busy = threading.Event()
        real_execute = workers.execute_batch

        def gated_execute(payload):
            if payload[2]:  # the warm-up probe carries no requests
                busy.set()
                release.wait(timeout=30.0)
            return real_execute(payload)

        monkeypatch.setattr(workers, "execute_batch", gated_execute)
        service = VerificationService(
            fast_spec, ServiceConfig(n_workers=1, max_batch_size=2)
        )
        service.start()
        futures = [service.submit(make_request(seed)) for seed in range(6)]
        # Stop while the lone worker is busy and the rest still queue:
        # the drain must dispatch and answer every admitted request.
        assert busy.wait(timeout=30.0)
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        while not service._queue.closed:
            time.sleep(0.001)
        release.set()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()
        statuses = {future.result().status for future in futures}
        assert statuses == {RequestStatus.SERVED}
        assert service.metrics().n_batches >= 3

    def test_stop_is_idempotent(self, fast_spec):
        service = VerificationService(fast_spec)
        service.stop()  # never started: no-op
        service.start()
        service.verify(make_request(1))
        service.stop()
        service.stop()  # repeat: no-op
        with pytest.raises(ConfigurationError):
            service.submit(make_request(2))

    def test_stop_is_concurrent_safe(self, fast_spec):
        service = VerificationService(
            fast_spec, ServiceConfig(n_workers=1)
        )
        service.start()
        futures = [service.submit(make_request(seed)) for seed in range(4)]
        errors = []

        def stopper():
            try:
                service.stop()
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=stopper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every caller returned only after the drain: all admitted
        # requests already resolved.
        assert all(future.done() for future in futures)
        statuses = {future.result().status for future in futures}
        assert statuses == {RequestStatus.SERVED}


class TestWorkConservingDispatch:
    def test_lone_request_dispatches_without_holding(self, fast_spec):
        with VerificationService(
            fast_spec, ServiceConfig(n_workers=1)
        ) as service:
            waits = [
                service.verify(make_request(seed)).queue_wait_s
                for seed in range(20)
            ]
        assert statistics.median(waits) < 0.005

    def test_busy_worker_batches_the_backlog(self, fast_spec, monkeypatch):
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]
        real_submit = WarmWorkerPool.submit

        def spy_submit(pool, key, requests, ages_s):
            future = real_submit(pool, key, requests, ages_s)
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])

            def finished(_):
                with lock:
                    in_flight[0] -= 1

            future.add_done_callback(finished)
            return future

        monkeypatch.setattr(WarmWorkerPool, "submit", spy_submit)
        with VerificationService(
            fast_spec, ServiceConfig(n_workers=1)
        ) as service:
            futures = [service.submit(make_request(seed)) for seed in range(9)]
            responses = [future.result() for future in futures]
            metrics = service.metrics()
        assert all(r.status is RequestStatus.SERVED for r in responses)
        assert metrics.n_batches <= 3
        assert peak[0] <= service.n_workers

    def test_failed_batch_carries_queue_wait(self, fast_spec):
        calls = []

        def broken_submit(key, requests, ages_s):
            calls.append(len(requests))
            raise RuntimeError("pool died")

        with VerificationService(
            fast_spec, ServiceConfig(n_workers=1)
        ) as service:
            service._pool.submit = broken_submit
            responses = [
                service.submit(make_request(seed)).result()
                for seed in range(3)
            ]
            metrics = service.metrics()
        # A failed submit fails its batch at once: no retry.
        assert metrics.n_batches == 3
        assert calls == [1, 1, 1]
        for response in responses:
            assert response.status is RequestStatus.FAILED
            assert "pool died" in response.error
            # Every failed entry was dispatched, so its wait is known.
            assert 0.0 < response.queue_wait_s <= response.total_s


class TestThreadModeWarmup:
    def test_start_trains_so_first_verify_does_not(self):
        # A recipe no other test uses, so the memo cannot be warm.
        spec = PipelineSpec(
            segmenter_seed=4242, n_speakers=2, n_per_phoneme=2, epochs=1
        )
        service = VerificationService(
            spec, ServiceConfig(n_workers=2, worker_mode="thread")
        )
        before = training_run_count()
        with service:
            assert training_run_count() == before + 1
            assert service.warmup_s > 0
            response = service.verify(make_request(3))
            assert training_run_count() == before + 1
        assert response.status is RequestStatus.SERVED


class TestDeterminismContract:
    def test_service_matches_direct_pipeline_bitwise(self, fast_spec):
        pipeline = fast_spec.build_pipeline(AUDIO_RATE, False)
        seeds = [11, 22, 33, 44, 55, 66, 77, 88]
        with VerificationService(
            fast_spec, ServiceConfig(n_workers=4)
        ) as service:
            futures = [
                service.submit(make_request(seed)) for seed in seeds
            ]
            responses = [future.result() for future in futures]
        for seed, response in zip(seeds, responses):
            va, wearable = make_pair(seed)
            direct = pipeline.analyze(va, wearable, rng=seed)
            assert response.status is RequestStatus.SERVED
            assert response.verdict == direct

    def test_batch_composition_does_not_change_verdicts(self, fast_spec):
        seeds = [5, 6, 7, 8]

        def serve_all(max_batch):
            config = ServiceConfig(n_workers=2, max_batch_size=max_batch)
            with VerificationService(fast_spec, config) as service:
                futures = [
                    service.submit(make_request(seed)) for seed in seeds
                ]
                return [future.result().verdict for future in futures]

        assert serve_all(max_batch=1) == serve_all(max_batch=4)


class TestMetrics:
    def test_snapshot_well_formed(self, fast_spec):
        with VerificationService(
            fast_spec, ServiceConfig(n_workers=2)
        ) as service:
            for seed in range(5):
                service.verify(make_request(seed))
            metrics = service.metrics()
        assert metrics.n_submitted == metrics.n_served == 5
        assert metrics.n_failed == 0
        assert metrics.throughput_rps > 0
        assert metrics.total_latency.count == 5
        assert metrics.total_latency.p50_s <= metrics.total_latency.p99_s
        for stage in PIPELINE_STAGES:
            assert metrics.stage_latency[stage].count == 5

    def test_clock_runs_from_start_to_stop(self, fast_spec):
        service = VerificationService(
            fast_spec, ServiceConfig(n_workers=1)
        )
        # Time between construction and start() is not serving time.
        time.sleep(0.3)
        before_start = time.monotonic()
        service.start()
        try:
            service.verify(make_request(1))
            running = service.metrics()
            elapsed = time.monotonic() - before_start
        finally:
            service.stop()
        assert 0.0 < running.wall_s <= elapsed
        assert running.throughput_rps == pytest.approx(1 / running.wall_s)
        # After stop() the clock is frozen.
        stopped = service.metrics().wall_s
        time.sleep(0.2)
        assert service.metrics().wall_s == stopped

    def test_failed_requests_counted_not_raised(self, fast_spec):
        with VerificationService(
            fast_spec, ServiceConfig(n_workers=1)
        ) as service:
            bad = VerificationRequest(
                va_audio=np.zeros(0),
                wearable_audio=np.zeros(0),
                seed=1,
                request_id="empty",
            )
            response = service.verify(bad)
        assert response.status is RequestStatus.FAILED
        assert "SignalError" in response.error
        assert service.metrics().n_failed == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"queue_capacity": 0},
            {"max_batch_size": 0},
            {"worker_mode": "fork"},
            {"n_workers": float("nan")},
            {"queue_capacity": float("nan")},
            {"max_batch_size": float("nan")},
            {"worker_mode": "process"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)

    def test_thread_worker_mode_constructs(self):
        # Serve always runs on threads; the field takes that one value.
        assert ServiceConfig(worker_mode="thread").worker_mode == "thread"


class TestRequestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"audio_rate": 0.0},
            {"audio_rate": -1.0},
            {"audio_rate": float("nan")},
            {"audio_rate": float("inf")},
        ],
    )
    def test_invalid_request_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_request(0, **kwargs)
