"""End-to-end defense pipeline behaviour (fast variants)."""

import numpy as np
import pytest

from repro.attacks.replay import ReplayAttack
from repro.attacks.scenario import AttackScenario
from repro.core.detector import DetectorConfig
from repro.core.pipeline import (
    DefenseConfig,
    DefensePipeline,
    DefenseVerdict,
)
from repro.core.baselines import (
    AudioDomainBaseline,
    VibrationBaselineNoSelection,
)
from repro.core.segmentation import PhonemeSegmenter
from repro.core.sync import synchronize_recordings
from repro.errors import ConfigurationError
from repro.phonemes.commands import phonemize


@pytest.fixture(scope="module")
def scenario(room_config):
    return AttackScenario(room_config=room_config)


@pytest.fixture(scope="module")
def legit_pair(scenario, corpus):
    utterance = corpus.utterance(
        phonemize("alexa play my favorite playlist"),
        speaker=corpus.speakers[0],
        rng=20,
    )
    va, wearable = scenario.legitimate_recordings(
        utterance, spl_db=70.0, rng=21
    )
    return utterance, va, wearable


@pytest.fixture(scope="module")
def attack_pair(scenario, corpus):
    replay = ReplayAttack(corpus, corpus.speakers[0])
    attack = replay.generate(
        command="alexa play my favorite playlist", rng=22
    )
    va, wearable = scenario.attack_recordings(attack, spl_db=75.0,
                                              rng=23)
    return attack, va, wearable


class TestPipeline:
    def test_verdict_fields(self, legit_pair):
        utterance, va, wearable = legit_pair
        pipeline = DefensePipeline(segmenter=PhonemeSegmenter(rng=0))
        verdict = pipeline.analyze(
            va, wearable, rng=0, oracle_utterance=utterance
        )
        assert isinstance(verdict, DefenseVerdict)
        assert -1.0 <= verdict.score <= 1.0
        assert verdict.is_attack is None  # no threshold configured
        assert verdict.analyzed_duration_s > 0
        assert verdict.sync_delay_s > 0

    def test_legit_scores_above_attack(self, legit_pair, attack_pair):
        pipeline = DefensePipeline(segmenter=PhonemeSegmenter(rng=0))
        utterance, va_l, wearable_l = legit_pair
        attack, va_a, wearable_a = attack_pair
        legit_score = pipeline.score(
            va_l, wearable_l, rng=1, oracle_utterance=utterance
        )
        attack_score = pipeline.score(
            va_a, wearable_a, rng=2,
            oracle_utterance=attack.utterance,
        )
        assert legit_score > attack_score + 0.2

    def test_threshold_produces_decision(self, legit_pair):
        utterance, va, wearable = legit_pair
        config = DefenseConfig(
            detector=DetectorConfig(threshold=0.45)
        )
        pipeline = DefensePipeline(
            segmenter=PhonemeSegmenter(rng=0), config=config
        )
        verdict = pipeline.analyze(
            va, wearable, rng=3, oracle_utterance=utterance
        )
        assert verdict.is_attack is False

    def test_no_segmenter_analyzes_full_recording(self, legit_pair):
        utterance, va, wearable = legit_pair
        pipeline = DefensePipeline(segmenter=None)
        verdict = pipeline.analyze(va, wearable, rng=4)
        assert verdict.n_segments == 0
        assert verdict.analyzed_duration_s == pytest.approx(
            min(va.size, wearable.size) / 16_000.0, rel=0.2
        )

    def test_deterministic_given_seed(self, legit_pair):
        utterance, va, wearable = legit_pair
        pipeline = DefensePipeline(segmenter=None)
        a = pipeline.score(va, wearable, rng=9)
        b = pipeline.score(va, wearable, rng=9)
        assert a == b

    def test_invalid_config(self):
        for audio_rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                DefenseConfig(audio_rate=audio_rate)


def _aligned(pair):
    """The (VA, wearable) pair the full system's sync stage scores."""
    _, va, wearable = pair
    return synchronize_recordings(va, wearable, 16_000.0)[:2]


class TestBaselines:
    def test_audio_baseline_scores(self, legit_pair, attack_pair):
        baseline = AudioDomainBaseline()
        legit = baseline.score(*_aligned(legit_pair))
        attack = baseline.score(*_aligned(attack_pair))
        assert -1.0 <= attack <= 1.0
        assert -1.0 <= legit <= 1.0

    def test_vibration_baseline_separates(self, legit_pair,
                                          attack_pair):
        baseline = VibrationBaselineNoSelection()
        legit = baseline.score(*_aligned(legit_pair), rng=5)
        attack = baseline.score(*_aligned(attack_pair), rng=6)
        assert legit > attack


class TestVerdictDelegation:
    """Pipeline verdicts must come from the detector's threshold rule."""

    def test_analyze_matches_detector_decide(self, legit_pair):
        _, va, wearable = legit_pair
        config = DefenseConfig(
            detector=DetectorConfig(threshold=0.4)
        )
        pipeline = DefensePipeline(segmenter=None, config=config)
        verdict = pipeline.analyze(va, wearable, rng=5)
        assert verdict.is_attack == pipeline.detector.decide(verdict.score)

    def test_analyze_matches_is_attack_boundary(self, legit_pair):
        _, va, wearable = legit_pair
        pipeline = DefensePipeline(segmenter=None)
        score = pipeline.score(va, wearable, rng=5)
        # Pin the threshold exactly at the observed score: the paper's
        # rule is "attack iff score < threshold", so sitting on the
        # boundary is legitimate — and pipeline and detector must agree.
        boundary = DefensePipeline(
            segmenter=None,
            config=DefenseConfig(
                detector=DetectorConfig(threshold=round(score, 6))
            ),
        )
        verdict = boundary.analyze(va, wearable, rng=5)
        assert verdict.is_attack == boundary.detector.decide(verdict.score)
