"""Load generator: accounting invariants, modes, reproducibility."""

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    LoadgenConfig,
    PipelineSpec,
    ServiceConfig,
    VerificationService,
    build_recording_pool,
    run_loadgen,
)


@pytest.fixture(scope="module")
def recording_pool():
    return build_recording_pool(seed=17, pool_size=4)


@pytest.fixture(scope="module")
def fast_spec():
    return PipelineSpec(use_segmenter=False)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_requests": 0},
            {"mode": "sinusoidal"},
            {"concurrency": 0},
            {"rate_rps": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(**kwargs)


class TestClosedLoop:
    def test_fifty_requests_four_workers_zero_errors(
        self, fast_spec, recording_pool
    ):
        """The acceptance-criteria run: >= 50 requests at 4 workers."""
        config = ServiceConfig(n_workers=4)
        with VerificationService(fast_spec, config) as service:
            report = run_loadgen(
                service,
                LoadgenConfig(n_requests=50, concurrency=8, seed=1),
                pool=recording_pool,
            )
            metrics = service.metrics()
        assert report.n_issued == 50
        assert report.n_served == 50
        assert report.n_failed == 0
        # Client- and server-side accounting agree: nothing dropped yet
        # reported served.
        assert metrics.n_served == report.n_served
        assert metrics.n_resolved == metrics.n_submitted == 50
        assert report.throughput_rps > 0
        p50 = report.latency_percentile(50)
        p95 = report.latency_percentile(95)
        p99 = report.latency_percentile(99)
        assert 0 < p50 <= p95 <= p99

    def test_capacity_one_queue_blocks_and_serves_all(
        self, fast_spec, recording_pool
    ):
        # Eight clients against a one-slot queue: producers block in
        # submit until the worker frees room, and nobody is refused.
        config = ServiceConfig(
            n_workers=1, queue_capacity=1, max_batch_size=16
        )
        with VerificationService(fast_spec, config) as service:
            report = run_loadgen(
                service,
                LoadgenConfig(n_requests=24, concurrency=8, seed=2),
                pool=recording_pool,
            )
            metrics = service.metrics()
        assert report.n_issued == report.n_served + report.n_failed == 24
        assert report.n_failed == 0
        assert metrics.n_resolved == metrics.n_submitted == 24


class TestOpenLoop:
    def test_open_loop_issues_at_rate(self, fast_spec, recording_pool):
        config = ServiceConfig(n_workers=2)
        with VerificationService(fast_spec, config) as service:
            report = run_loadgen(
                service,
                LoadgenConfig(
                    n_requests=10, mode="open", rate_rps=50.0, seed=3
                ),
                pool=recording_pool,
            )
        assert report.mode == "open"
        assert report.n_issued == report.n_served == 10
        # Arrivals were spaced: the run takes at least (n-1)/rate.
        assert report.wall_s >= 9 / 50.0

    def test_open_loop_blocks_on_a_full_queue(
        self, fast_spec, recording_pool
    ):
        # Arrivals far faster than one worker serves them: the issuing
        # thread blocks on the one-slot queue, and every request is
        # still served.
        config = ServiceConfig(
            n_workers=1, queue_capacity=1, max_batch_size=4
        )
        with VerificationService(fast_spec, config) as service:
            report = run_loadgen(
                service,
                LoadgenConfig(
                    n_requests=16, mode="open", rate_rps=1000.0, seed=4
                ),
                pool=recording_pool,
            )
        assert report.n_issued == report.n_served + report.n_failed == 16
        assert report.n_failed == 0


class TestReproducibility:
    def test_same_seed_same_verdict_distribution(
        self, fast_spec, recording_pool
    ):
        """Request seeds derive from the config seed, so two runs score
        identically regardless of thread scheduling."""

        def scores():
            config = ServiceConfig(n_workers=2)
            with VerificationService(fast_spec, config) as service:
                futures = []
                from repro.serve.loadgen import _make_request

                loadgen_config = LoadgenConfig(n_requests=8, seed=5)
                for index in range(8):
                    futures.append(
                        service.submit(
                            _make_request(
                                loadgen_config, recording_pool, index
                            )
                        )
                    )
                return [
                    future.result().verdict.score for future in futures
                ]

        assert scores() == scores()


class TestRecordingPool:
    def test_pool_mixes_legit_and_attack(self, recording_pool):
        kinds = [is_attack for _, _, is_attack in recording_pool.pairs]
        assert any(kinds) and not all(kinds)

    def test_pool_deterministic(self):
        import numpy as np

        first = build_recording_pool(seed=7, pool_size=2)
        second = build_recording_pool(seed=7, pool_size=2)
        for (va_a, we_a, kind_a), (va_b, we_b, kind_b) in zip(
            first.pairs, second.pairs
        ):
            assert kind_a == kind_b
            np.testing.assert_array_equal(va_a, va_b)
            np.testing.assert_array_equal(we_a, we_b)
