"""Campaign runner: determinism contract, sharding, stats, fallback."""

import numpy as np
import pytest

from repro.attacks.base import AttackKind
from repro.core.segmentation import PhonemeSegmenter
from repro.errors import ConfigurationError
from repro.eval.campaign import (
    CampaignConfig,
    DetectorBank,
    FULL_SYSTEM,
    ScoreSet,
    build_campaign_units,
    collect_scores,
    score_campaign_unit,
)
from repro.eval.participants import ParticipantPool
from repro.eval.reporting import format_runner_stats
from repro.eval.rooms import ROOM_A
from repro.eval.runner import CampaignRunner
from repro.phonemes.corpus import SyntheticCorpus


@pytest.fixture(scope="module")
def campaign():
    """A small campaign with four units (one room, four victims)."""
    pool = ParticipantPool(n_participants=8, seed=11)
    detectors = DetectorBank(segmenter=None)
    config = CampaignConfig(
        n_commands_per_participant=1, n_attacks_per_kind=1, seed=12
    )
    corpus = SyntheticCorpus(speakers=pool.speakers, seed=config.seed)
    return pool, detectors, config, corpus


@pytest.fixture(scope="module")
def serial_result(campaign):
    pool, detectors, config, corpus = campaign
    return CampaignRunner(n_workers=1).run(
        [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
        corpus=corpus,
    )


class TestDeterminismContract:
    def test_four_workers_match_serial_bitwise(
        self, campaign, serial_result
    ):
        pool, detectors, config, corpus = campaign
        parallel = CampaignRunner(n_workers=4).run(
            [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
            corpus=corpus,
        )
        assert parallel.stats.mode == "process-pool"
        assert parallel.stats.n_workers == 4
        # Same detectors, same score lists in the same order — bitwise.
        assert parallel.scores.legit == serial_result.scores.legit
        assert parallel.scores.attacks == serial_result.scores.attacks

    def test_collect_scores_n_workers_param(self, campaign, serial_result):
        pool, detectors, config, corpus = campaign
        scores = collect_scores(
            [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
            corpus=corpus, n_workers=2,
        )
        assert scores.legit == serial_result.scores.legit
        assert scores.attacks == serial_result.scores.attacks


class TestMergePartitionProperty:
    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_merge_of_disjoint_partitions_equals_one_shot(
        self, campaign, serial_result, split
    ):
        pool, detectors, config, corpus = campaign
        units = build_campaign_units(
            [ROOM_A], pool, [AttackKind.REPLAY], config
        )
        assert len(units) == 4
        merged = ScoreSet()
        for partition in (units[:split], units[split:]):
            for unit in partition:
                merged.merge(
                    score_campaign_unit(unit, detectors, corpus)
                )
        assert merged.legit == serial_result.scores.legit
        assert merged.attacks == serial_result.scores.attacks


class TestStateLeakRegression:
    def test_attack_scores_independent_of_legit_sample_count(self):
        """Attack scores must not shift with the legitimate workload.

        Before the fix, ``_score_legitimate`` mutated the shared
        scenario and shared one RNG stream with the attack pass, so
        adding legitimate samples silently perturbed attack scores.
        """
        pool = ParticipantPool(n_participants=4, seed=21)
        detectors = DetectorBank(segmenter=None, include_baselines=False)
        attack_sets = []
        for n_commands in (1, 3):
            config = CampaignConfig(
                n_commands_per_participant=n_commands,
                n_attacks_per_kind=1,
                seed=22,
            )
            scores = collect_scores(
                [ROOM_A], pool, detectors, [AttackKind.REPLAY], config
            )
            attack_sets.append(scores.attacks[AttackKind.REPLAY])
        assert attack_sets[0] == attack_sets[1]


class TestRunnerStats:
    def test_stats_account_every_unit_and_sample(self, serial_result):
        stats = serial_result.stats
        assert stats.mode == "serial"
        assert stats.n_units == 4
        # 1 command + 1 attack × 1 kind per unit.
        assert stats.n_samples == 8
        assert stats.wall_s > 0
        assert stats.samples_per_s > 0
        assert all(unit.wall_s > 0 for unit in stats.units)
        labels = [unit.label for unit in stats.units]
        assert all(label.startswith("Room A/") for label in labels)
        assert len(set(labels)) == len(labels)

    def test_format_runner_stats(self, serial_result):
        text = format_runner_stats(serial_result.stats)
        assert "samples/s" in text
        assert "4 units" in text
        assert "Room A/" in text


class TestWorkerResolution:
    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(n_workers=0)

    def test_workers_capped_at_unit_count(self, campaign):
        pool, detectors, config, corpus = campaign
        units = build_campaign_units(
            [ROOM_A], pool, [AttackKind.REPLAY], config
        )
        runner = CampaignRunner(n_workers=64)
        assert runner._resolve_workers(len(units)) == len(units)
        assert CampaignRunner(n_workers=1)._resolve_workers(4) == 1

    def test_default_is_cpu_count_aware(self):
        import os

        runner = CampaignRunner()
        assert runner._resolve_workers(1024) == (os.cpu_count() or 1)


class TestGracefulFallback:
    def test_pool_spawn_failure_falls_back_to_serial(
        self, campaign, serial_result, monkeypatch
    ):
        import repro.runtime.executor as executor_module

        def broken_executor(*args, **kwargs):
            raise OSError("no processes available")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", broken_executor
        )
        pool, detectors, config, corpus = campaign
        result = CampaignRunner(n_workers=4).run(
            [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
            corpus=corpus,
        )
        assert result.stats.mode == "process-pool+serial-fallback"
        assert result.scores.legit == serial_result.scores.legit
        assert result.scores.attacks == serial_result.scores.attacks


class TestSweepFanOut:
    def test_parallel_sweep_matches_serial(self):
        from repro.eval.experiment import run_factor_sweep

        pool = ParticipantPool(n_participants=2, seed=31)
        detectors = DetectorBank(segmenter=None, include_baselines=False)
        config = CampaignConfig(
            n_commands_per_participant=1, n_attacks_per_kind=1, seed=32
        )
        kwargs = dict(
            factor="attack_spl",
            values=[70.0, 80.0],
            attack_kinds=[AttackKind.REPLAY],
            base_config=config,
            rooms=[ROOM_A],
            pool=pool,
            detectors=detectors,
        )
        serial = run_factor_sweep(**kwargs)
        parallel = run_factor_sweep(n_workers=2, **kwargs)
        assert serial.keys() == parallel.keys()
        for label in serial:
            serial_metrics = serial[label][AttackKind.REPLAY][FULL_SYSTEM]
            par_metrics = parallel[label][AttackKind.REPLAY][FULL_SYSTEM]
            assert serial_metrics == par_metrics


@pytest.fixture(scope="module")
def small_segmenter(corpus):
    segmenter = PhonemeSegmenter(rng=41)
    segmenter.train_on_phoneme_segments(
        corpus, n_per_phoneme=2, epochs=2, rng=42
    )
    return segmenter


class TestSegmentationModes:
    """A tiny one-room campaign under oracle and online segmentation."""

    @staticmethod
    def _run(segmenter, use_oracle, runner=None):
        # Four participants give two units (victims) in the one room.
        pool = ParticipantPool(n_participants=4, seed=51)
        detectors = DetectorBank(
            segmenter=segmenter, include_baselines=False
        )
        config = CampaignConfig(
            n_commands_per_participant=1,
            n_attacks_per_kind=1,
            use_oracle_segmentation=use_oracle,
            seed=52,
        )
        return (runner or CampaignRunner(n_workers=1)).run(
            [ROOM_A], pool, detectors, [AttackKind.REPLAY], config
        )

    def test_oracle_scores_ignore_segmenter_weights(
        self, small_segmenter
    ):
        # Oracle segments come from the alignments and the sensitive
        # set alone, so the evaluate CLI needs no trained segmenter.
        untrained = self._run(PhonemeSegmenter(), use_oracle=True).scores
        trained = self._run(small_segmenter, use_oracle=True).scores
        assert untrained.legit == trained.legit
        assert untrained.attacks == trained.attacks

    def test_online_scores_match_across_thread_workers(
        self, small_segmenter
    ):
        inline = self._run(small_segmenter, use_oracle=False)
        threaded = self._run(
            small_segmenter,
            use_oracle=False,
            runner=CampaignRunner(n_workers=2, executor="thread"),
        )
        assert threaded.stats.mode == "thread-pool"
        assert threaded.stats.n_workers == 2
        assert inline.scores.legit == threaded.scores.legit
        assert inline.scores.attacks == threaded.scores.attacks
