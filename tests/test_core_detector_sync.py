"""2-D correlation detector and cross-device synchronization."""

import numpy as np
import pytest

from repro.attacks.scenario import AttackScenario
from repro.core.detector import CorrelationDetector, DetectorConfig
from repro.core.pipeline import DefensePipeline
from repro.core.sync import SyncConfig, synchronize_recordings
from repro.errors import ConfigurationError
from repro.eval.rooms import ROOM_A
from repro.phonemes.commands import phonemize

RATE = 16_000.0


class TestDetector:
    def test_score_bounds(self, rng):
        detector = CorrelationDetector()
        a = rng.standard_normal((10, 10))
        assert detector.score(a, a) == pytest.approx(1.0)

    def test_is_attack_requires_threshold(self, rng):
        detector = CorrelationDetector()
        a = rng.standard_normal((5, 5))
        with pytest.raises(ConfigurationError):
            detector.is_attack(a, a)

    def test_threshold_decision(self, rng):
        detector = CorrelationDetector(DetectorConfig(threshold=0.5))
        a = rng.standard_normal((10, 10))
        b = rng.standard_normal((10, 10))
        assert not detector.is_attack(a, a)      # corr 1.0 > 0.5
        assert detector.is_attack(a, b)          # corr ~0 < 0.5

    def test_with_threshold_copy(self):
        detector = CorrelationDetector()
        thresholded = detector.with_threshold(0.4)
        assert thresholded.config.threshold == 0.4
        assert detector.config.threshold is None

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(threshold=1.5)


class TestSync:
    def _pair(self, rng, delay_samples):
        burst = np.zeros(16_000)
        burst[4000:8000] = rng.standard_normal(4000)
        return burst, burst[delay_samples:]

    def test_recovers_known_delay(self, rng):
        va, wearable = self._pair(rng, 1600)
        va_a, wearable_a, delay_s = synchronize_recordings(
            va, wearable, RATE
        )
        assert delay_s == pytest.approx(0.1, abs=0.001)
        assert va_a.size == wearable_a.size
        np.testing.assert_allclose(va_a, wearable_a)

    def test_zero_delay(self, rng):
        va, _ = self._pair(rng, 0)
        _, _, delay_s = synchronize_recordings(va, va.copy(), RATE)
        assert delay_s == 0.0

    def test_handles_noise(self, rng):
        va, wearable = self._pair(rng, 800)
        wearable = wearable + 0.05 * rng.standard_normal(wearable.size)
        va_a, wearable_a, delay_s = synchronize_recordings(
            va, wearable, RATE
        )
        assert delay_s == pytest.approx(0.05, abs=0.005)
        assert np.corrcoef(va_a, wearable_a)[0, 1] > 0.9

    def test_max_delay_bounds_search(self, rng):
        va, wearable = self._pair(rng, 4000)  # 0.25 s
        _, _, delay_s = synchronize_recordings(
            va, wearable, RATE, SyncConfig(max_delay_s=0.1)
        )
        assert delay_s <= 0.1 + 1e-9

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            SyncConfig(max_delay_s=0.0)
        # Non-finite delays used to fail later, inside
        # synchronize_recordings, with ValueError or OverflowError; a
        # NaN overlap silently disabled the guard.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                SyncConfig(max_delay_s=value)
            with pytest.raises(ConfigurationError):
                SyncConfig(min_overlap_s=value)


class TestTriggerOffset:
    """Sync removes the WiFi trigger offset of a legitimate command.

    The wearable starts recording when the VA's wake-word trigger
    arrives, so it misses the first ``wifi_delay_s`` of the command;
    :class:`AttackScenario` models that offset for every campaign.
    """

    @pytest.fixture(scope="class")
    def utterance(self, corpus):
        return corpus.utterance(
            phonemize("alexa play my favorite playlist"),
            speaker=corpus.speakers[0],
            rng=10,
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("delay_s, seed", [(0.05, 1), (0.16, 2)])
    def test_offset_recovered_and_scored(self, utterance, delay_s, seed):
        scenario = AttackScenario(
            room_config=ROOM_A, wifi_delay_s=delay_s, wifi_jitter_s=0.0
        )
        va, wearable = scenario.legitimate_recordings(utterance, rng=seed)
        va_aligned, wearable_aligned, estimated = synchronize_recordings(
            va, wearable, RATE
        )
        assert estimated == pytest.approx(delay_s, abs=0.01)
        assert np.corrcoef(va_aligned, wearable_aligned)[0, 1] > 0.8

        verdict = DefensePipeline(segmenter=None).analyze(
            va, wearable, rng=3
        )
        assert verdict.sync_delay_s == pytest.approx(delay_s, abs=0.01)
        # Same legitimate source at both devices: strong correlation.
        assert verdict.score > 0.5


class TestDetectorDecide:
    def test_decide_is_single_source_of_truth(self, rng):
        from repro.core.detector import CorrelationDetector, DetectorConfig

        detector = CorrelationDetector(DetectorConfig(threshold=0.4))
        a = rng.standard_normal((6, 8))
        b = rng.standard_normal((6, 8))
        assert detector.is_attack(a, b) == detector.decide(
            detector.score(a, b)
        )

    def test_decide_boundary_semantics(self):
        from repro.core.detector import CorrelationDetector, DetectorConfig

        detector = CorrelationDetector(DetectorConfig(threshold=0.4))
        # Attack iff strictly below the threshold.
        assert detector.decide(0.4 - 1e-9)
        assert not detector.decide(0.4)

    def test_decide_requires_threshold(self):
        from repro.core.detector import CorrelationDetector
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CorrelationDetector().decide(0.5)
