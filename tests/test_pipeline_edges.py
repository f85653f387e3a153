"""Pipeline edge cases and failure injection."""

import numpy as np
import pytest

from repro.core.pipeline import DefenseConfig, DefensePipeline
from repro.core.segmentation import PhonemeSegmenter, SegmenterConfig
from repro.dsp.generators import tone, white_noise
from repro.errors import ModelError, SignalError

RATE = 16_000.0


def _pair(rng, seconds=2.0):
    burst = white_noise(seconds, RATE, amplitude=0.05, rng=rng)
    return burst, burst[800:].copy()


def test_empty_recordings_rejected():
    pipeline = DefensePipeline(segmenter=None)
    with pytest.raises(SignalError):
        pipeline.analyze(np.zeros(0), np.zeros(0), rng=0)


_GOOD = np.random.default_rng(0).normal(0.0, 0.1, 16_000)


@pytest.mark.parametrize("method", ["analyze", "verify"])
@pytest.mark.parametrize(
    "segmenter, va, wearable, error",
    [
        (None, np.zeros(0), _GOOD, SignalError),
        # The threat model's wearable-absent policy: no wearable
        # recording, no verdict.
        (None, _GOOD, np.zeros(0), SignalError),
        (None, _GOOD, None, SignalError),
        (None, np.zeros((2, 100)), _GOOD, SignalError),
        (None, _GOOD, np.zeros((2, 8_000)), SignalError),
        (None, np.float64(1.0), _GOOD, SignalError),
        # Sync and segmentation pass; features reject a one-sample
        # vibration.
        (None, _GOOD[:16], _GOOD[:16], SignalError),
        # The batched segmentation forward raises inside analyze_batch;
        # the single-request call still surfaces the segmenter's error.
        ("untrained", _GOOD[:16], _GOOD[:16], ModelError),
        ("untrained", _GOOD, _GOOD, ModelError),
    ],
    ids=[
        "empty-va",
        "empty-wearable",
        "missing-wearable",
        "2d-va",
        "2d-wearable",
        "scalar-va",
        "too-short",
        "untrained-short",
        "untrained",
    ],
)
def test_bad_input_raises_its_stage_error(
    method, segmenter, va, wearable, error
):
    pipeline = DefensePipeline(
        segmenter=PhonemeSegmenter(rng=0) if segmenter else None
    )
    with pytest.raises(error):
        getattr(pipeline, method)(va, wearable, rng=1)


def test_fallback_when_segments_too_short(corpus):
    """If segmentation yields almost nothing, the pipeline falls back to
    the full recording instead of failing."""
    # A segmenter whose threshold nothing can satisfy.
    segmenter = PhonemeSegmenter(
        config=SegmenterConfig(decision_threshold=0.999),
        rng=0,
    )
    segmenter.train_on_phoneme_segments(
        corpus, n_per_phoneme=2, epochs=1, rng=1
    )
    pipeline = DefensePipeline(segmenter=segmenter)
    va, wearable = _pair(3)
    verdict = pipeline.analyze(va, wearable, rng=2)
    assert verdict.n_segments == 0  # fell back
    assert np.isfinite(verdict.score)


def test_min_audio_fallback_threshold(corpus):
    """Oracle segments shorter than min_audio_s trigger the fallback."""
    utterance = corpus.utterance(["t"], rng=4)  # single brief stop
    pipeline = DefensePipeline(
        segmenter=PhonemeSegmenter(rng=0),
        config=DefenseConfig(min_audio_s=0.5),
    )
    lead = np.zeros(4000)
    va = np.concatenate([lead, utterance.waveform, lead])
    va = va + 0.001 * np.random.default_rng(5).standard_normal(va.size)
    wearable = va[800:].copy()
    verdict = pipeline.analyze(
        va, wearable, rng=6, oracle_utterance=utterance
    )
    assert verdict.n_segments == 0


def _speechlike(rng_seed, seconds=2.0):
    """Broadband amplitude-modulated signal (voice-like test stimulus).

    A single pure tone folds onto one aliased bin and makes the
    correlation degenerate, so tests use band-rich content instead.
    """
    from repro.dsp.filters import butter_bandpass

    carrier = butter_bandpass(
        white_noise(seconds, RATE, amplitude=0.08, rng=rng_seed),
        RATE, 800.0, 3000.0,
    )
    t = np.arange(carrier.size) / RATE
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * t)
    return carrier * envelope


def test_identical_recordings_score_high():
    pipeline = DefensePipeline(segmenter=None)
    signal = _speechlike(7)
    verdict = pipeline.analyze(signal, signal.copy(), rng=8)
    assert verdict.score > 0.5


def test_unrelated_recordings_score_low():
    pipeline = DefensePipeline(segmenter=None)
    a = white_noise(2.0, RATE, amplitude=0.02, rng=9)
    b = white_noise(2.0, RATE, amplitude=0.02, rng=10)
    verdict = pipeline.analyze(a, b, rng=11)
    assert verdict.score < 0.4


def test_extreme_level_mismatch_handled():
    """Normalization must cancel a large scale difference."""
    pipeline = DefensePipeline(segmenter=None)
    signal = _speechlike(12)
    verdict = pipeline.analyze(signal * 10.0, signal.copy(), rng=13)
    assert verdict.score > 0.5


def test_body_motion_absorbed_by_artifact_mitigation():
    """Detection survives the wearer moving during the replay."""
    pipeline_still = DefensePipeline(segmenter=None)
    pipeline_moving = DefensePipeline(
        segmenter=None, config=DefenseConfig(wearer_moving=True)
    )
    signal = _speechlike(30)
    still = pipeline_still.analyze(signal, signal.copy(), rng=31)
    moving = pipeline_moving.analyze(signal, signal.copy(), rng=31)
    # Same legitimate pair: scores comparable despite motion.
    assert moving.score > 0.5
    assert abs(moving.score - still.score) < 0.25


def test_very_long_recording_ok():
    pipeline = DefensePipeline(segmenter=None)
    signal = tone(1200.0, 8.0, RATE, amplitude=0.03)
    verdict = pipeline.analyze(signal, signal.copy(), rng=14)
    assert np.isfinite(verdict.score)
