"""Front door: routing, profiles, SLO shedding, deadlines, lifecycle."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    FleetConfig,
    FleetFrontDoor,
    FleetRequest,
    SimulatedEngineConfig,
    SloConfig,
    derive_user_profile,
    simulated_shard_factory,
)
from repro.serve.request import RequestStatus

AUDIO = np.zeros(160)


def make_fleet(
    n_shards=2,
    service_time_s=0.002,
    queue_capacity=64,
    slo=None,
    **config_kwargs,
):
    slo = slo or SloConfig()
    factory = simulated_shard_factory(
        engine_config=SimulatedEngineConfig(
            n_workers=1,
            service_time_s=service_time_s,
            queue_capacity=queue_capacity,
        ),
        slo=slo,
    )
    config_kwargs.setdefault("autoscale_interval_s", 0.0)
    return FleetFrontDoor(
        factory,
        FleetConfig(n_shards=n_shards, slo=slo, **config_kwargs),
    )


def request(user, rid="r0", **kwargs):
    return FleetRequest(
        user_id=user,
        va_audio=AUDIO,
        wearable_audio=AUDIO,
        request_id=rid,
        **kwargs,
    )


class TestRouting:
    def test_same_user_same_shard(self):
        with make_fleet(n_shards=4) as fleet:
            shards = {
                fleet.verify(request("user-7", f"r{i}")).shard_id
                for i in range(6)
            }
        assert len(shards) == 1

    def test_users_spread_across_shards(self):
        with make_fleet(n_shards=4) as fleet:
            shards = {
                fleet.verify(request(f"user-{i}", f"r{i}")).shard_id
                for i in range(40)
            }
        assert len(shards) == 4

    def test_routing_matches_ring_owner(self):
        with make_fleet(n_shards=4) as fleet:
            for i in range(10):
                user = f"user-{i}"
                response = fleet.verify(request(user, f"r{i}"))
                assert response.shard_id == fleet.ring.owner(user)
                assert not response.rerouted

    def test_personal_threshold_applied(self):
        with make_fleet() as fleet:
            response = fleet.verify(request("user-3"))
        profile = derive_user_profile("user-3")
        assert response.profile_threshold == profile.threshold
        assert response.verdict.is_attack == (
            response.verdict.score < profile.threshold
        )

    def test_profiles_can_be_disabled(self):
        with make_fleet(apply_profiles=False) as fleet:
            response = fleet.verify(request("user-3"))
        assert response.profile_threshold is None
        assert response.verdict.is_attack is None


class TestShedding:
    def test_slo_breach_sheds_low_priority_only(self):
        slo = SloConfig(
            target_p95_s=0.0001, min_samples=5, retry_after_s=0.5
        )
        with make_fleet(slo=slo, queue_capacity=256) as fleet:
            # Warm the owner shard's window past min_samples with
            # latencies that necessarily breach the 0.1 ms target
            # (protected priority so the warm-up itself is not shed).
            for i in range(8):
                fleet.verify(
                    request("user-1", f"warm-{i}", priority=1)
                )
            shed = fleet.verify(request("user-1", "low"))
            assert shed.status is RequestStatus.SHED
            assert shed.retry_after_s == 0.5
            assert shed.verdict is None
            protected = fleet.verify(
                request("user-1", "high", priority=1)
            )
            assert protected.status is RequestStatus.SERVED
            metrics = fleet.metrics()
        assert metrics.n_shed_slo == 1
        assert metrics.n_unresolved == 0


class TestDeadlines:
    def test_fleet_deadline_times_out(self):
        with make_fleet(
            service_time_s=0.05,
            queue_capacity=64,
            deadline_grace_s=0.0,
        ) as fleet:
            user = "user-1"
            owner = fleet.ring.owner(user)
            pads = [
                pad
                for pad in (f"pad-{i}" for i in range(200))
                if fleet.ring.owner(pad) == owner
            ][:3]
            blockers = [
                fleet.submit_threadsafe(request(pad, f"pad-{j}"))
                for j, pad in enumerate(pads)
            ]
            late = fleet.verify(
                request(user, "late", deadline_s=0.001)
            )
            for blocker in blockers:
                blocker.result()
        # Either the queue wait already blew the budget (FAILED) or
        # the engine answered degraded within the grace; with zero
        # grace and 50 ms service time, FAILED is the expected path.
        assert late.status is RequestStatus.FAILED
        assert "deadline" in late.error

    def test_default_deadline_from_config(self):
        with make_fleet(
            service_time_s=0.001, default_deadline_s=5.0
        ) as fleet:
            response = fleet.verify(request("user-1"))
        assert response.status is RequestStatus.SERVED


class TestLifecycle:
    def test_stop_is_idempotent_and_concurrent_safe(self):
        fleet = make_fleet()
        fleet.start()
        fleet.verify(request("user-1"))
        errors = []

        def stopper():
            try:
                fleet.stop()
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=stopper) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        fleet.stop()  # third-party no-op

    def test_submit_after_stop_refused(self):
        fleet = make_fleet()
        fleet.start()
        fleet.stop()
        with pytest.raises(ConfigurationError):
            fleet.submit_threadsafe(request("user-1"))

    def test_submit_before_start_refused(self):
        with pytest.raises(ConfigurationError):
            make_fleet().submit_threadsafe(request("user-1"))

    def test_stop_drains_inflight_requests(self):
        fleet = make_fleet(service_time_s=0.01, queue_capacity=256)
        fleet.start()
        futures = [
            fleet.submit_threadsafe(request(f"user-{i}", f"r{i}"))
            for i in range(30)
        ]
        fleet.stop()
        statuses = [f.result(timeout=5).status for f in futures]
        assert all(
            status is RequestStatus.SERVED for status in statuses
        )
        assert fleet.metrics().n_unresolved == 0

    def test_start_is_idempotent(self):
        fleet = make_fleet()
        fleet.start()
        fleet.start()
        assert len(fleet.shards) == 2
        fleet.stop()


class TestAutoscaling:
    def test_autoscaler_grows_overloaded_shard(self):
        from repro.fleet import Autoscaler, AutoscalerConfig

        slo = SloConfig(target_p95_s=0.005, min_samples=5)
        factory = simulated_shard_factory(
            engine_config=SimulatedEngineConfig(
                n_workers=1,
                service_time_s=0.01,
                queue_capacity=512,
            ),
            slo=slo,
            autoscaler_factory=lambda: Autoscaler(
                AutoscalerConfig(cooldown_s=0.0, max_workers=4), slo
            ),
        )
        fleet = FleetFrontDoor(
            factory,
            FleetConfig(
                n_shards=1, slo=slo, autoscale_interval_s=0.02
            ),
        )
        with fleet:
            futures = [
                fleet.submit_threadsafe(
                    request(f"user-{i}", f"r{i}", priority=1)
                )
                for i in range(60)
            ]
            for future in futures:
                future.result(timeout=10)
            shard = fleet.shards["shard-0"]
            assert shard.engine.n_workers > 1
            assert len(shard.scale_events) >= 1


class TestValidation:
    def test_invalid_fleet_configs(self):
        for kwargs in (
            {"n_shards": 0},
            {"failover": -1},
            {"default_deadline_s": 0.0},
            {"default_deadline_s": float("nan")},
            {"deadline_grace_s": -0.1},
            {"autoscale_interval_s": -1.0},
        ):
            with pytest.raises(ConfigurationError):
                FleetConfig(**kwargs)

    def test_invalid_requests(self):
        with pytest.raises(ConfigurationError):
            FleetRequest(
                user_id="", va_audio=AUDIO, wearable_audio=AUDIO
            )
        for kwargs in (
            {"deadline_s": 0.0},
            {"deadline_s": float("nan")},
            {"audio_rate": 0.0},
            {"audio_rate": -1.0},
            {"audio_rate": float("nan")},
            {"audio_rate": float("inf")},
        ):
            with pytest.raises(ConfigurationError):
                request("u", **kwargs)

    def test_request_seed_defaults_deterministically(self):
        a = request("user-1", "r1").resolved_seed()
        b = request("user-1", "r1").resolved_seed()
        c = request("user-1", "r2").resolved_seed()
        assert a == b != c
        assert request("u", seed=5).resolved_seed() == 5
