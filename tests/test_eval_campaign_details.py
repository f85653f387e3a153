"""Campaign machinery details (fast paths)."""

import pytest

from repro.attacks import AttackKind, make_attack_generator
from repro.errors import ConfigurationError
from repro.eval.campaign import (
    CampaignConfig,
    DetectorBank,
    ScoreSet,
)
from repro.phonemes.corpus import SyntheticCorpus


class TestCampaignConfig:
    def test_defaults_sane(self):
        config = CampaignConfig()
        assert config.attack_spl_db == 75.0
        assert config.barrier_to_va_m == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_commands_per_participant": 0},
            {"n_attacks_per_kind": 0},
            {"user_distances_m": ()},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            CampaignConfig(**kwargs)


class TestAttackGeneratorFactory:
    def test_all_kinds_constructible(self, corpus):
        for kind in AttackKind:
            generator = make_attack_generator(
                kind,
                corpus,
                corpus.speakers[0],
                corpus.speakers[1],
                synthesis_rng=0,
            )
            sound = generator.generate(rng=1)
            assert sound.kind is kind


class TestScoreSetDetails:
    def test_attack_buckets_isolated(self):
        scores = ScoreSet()
        scores.add_attack(AttackKind.REPLAY, {"d": 0.1})
        scores.add_attack(AttackKind.RANDOM, {"d": 0.2})
        assert scores.attacks[AttackKind.REPLAY]["d"] == [0.1]
        assert scores.attacks[AttackKind.RANDOM]["d"] == [0.2]

    def test_merge_disjoint_attacks(self):
        a = ScoreSet()
        a.add_attack(AttackKind.REPLAY, {"d": 0.1})
        b = ScoreSet()
        b.add_attack(AttackKind.HIDDEN_VOICE, {"d": 0.3})
        a.merge(b)
        assert set(a.attacks) == {
            AttackKind.REPLAY, AttackKind.HIDDEN_VOICE
        }


class TestScoreAll:
    def test_score_all_keys_match_names(self, corpus, room_config):
        from repro.attacks.scenario import AttackScenario
        from repro.phonemes.commands import phonemize

        scenario = AttackScenario(room_config=room_config)
        utterance = corpus.utterance(
            phonemize("play music"), rng=1
        )
        va, wearable = scenario.legitimate_recordings(
            utterance, spl_db=70.0, rng=2
        )
        bank = DetectorBank(segmenter=None)
        scores = bank.score_all(
            va, wearable, utterance, use_oracle=True, rng=3
        )
        assert set(scores) == set(bank.detector_names)
        for value in scores.values():
            assert -1.0 <= value <= 1.0


class TestDetectorBankSensor:
    def test_vibration_baseline_shares_the_pipeline_sensor(self):
        from repro.core.pipeline import DefensePipeline
        from repro.sensing import CrossDomainSensor

        sensor = CrossDomainSensor(body_motion_intensity=0.05)
        pipeline = DefensePipeline(segmenter=None, sensor=sensor)
        bank = DetectorBank(segmenter=None, pipeline=pipeline)
        assert bank.vibration_baseline.sensor is sensor
