"""BRNN phoneme segmentation."""

import numpy as np
import pytest

from repro.core.segmentation import (
    PhonemeSegmenter,
    SegmenterConfig,
    concatenate_segments,
    default_segmenter,
)
from repro.errors import ConfigurationError, ModelError
from repro.phonemes.commands import VA_COMMANDS, phonemize

RATE = 16_000.0


@pytest.fixture(scope="module")
def trained_segmenter(corpus):
    segmenter = PhonemeSegmenter(rng=5)
    segmenter.train_on_phoneme_segments(
        corpus, n_per_phoneme=6, epochs=8, rng=6
    )
    return segmenter


class TestConfigAndSetup:
    def test_default_sensitive_set_size(self):
        assert len(PhonemeSegmenter(rng=0).sensitive_phonemes) == 31

    def test_rejects_empty_set(self):
        with pytest.raises(ConfigurationError):
            PhonemeSegmenter(sensitive_phonemes=[], rng=0)

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ConfigurationError):
            PhonemeSegmenter(sensitive_phonemes=["nope"], rng=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"decision_threshold": 1.5},
            {"min_segment_s": float("nan")},
            {"merge_gap_s": float("nan")},
            {"min_segment_s": -0.01},
            {"hop_length_s": 0.0},
            {"hop_length_s": float("nan")},
            {"frame_length_s": -1.0},
            {"frame_length_s": float("nan")},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            SegmenterConfig(**kwargs)

    def test_untrained_inference_raises(self, corpus):
        segmenter = PhonemeSegmenter(rng=1)
        utterance = corpus.utterance(["ae"], rng=2)
        with pytest.raises(ModelError):
            segmenter.frame_probabilities(utterance.waveform)


class TestFeaturesAndLabels:
    def test_feature_dim(self, corpus):
        segmenter = PhonemeSegmenter(rng=3)
        utterance = corpus.utterance(phonemize("play music"), rng=4)
        features = segmenter.features(utterance.waveform)
        assert features.shape[1] == 14

    def test_frame_labels_match_alignment(self, corpus):
        segmenter = PhonemeSegmenter(rng=3)
        utterance = corpus.utterance(["s", "ae", "s"], rng=5)
        labels = segmenter.frame_labels(utterance)
        # /s/ is insensitive, /ae/ sensitive: expect a 0-1-0 pattern.
        assert labels.max() == 1
        assert labels.min() == 0
        middle = labels[len(labels) // 3 : 2 * len(labels) // 3]
        assert middle.mean() > 0.5


class TestOracleSegments:
    def test_oracle_extracts_sensitive_intervals(self, corpus):
        segmenter = PhonemeSegmenter(rng=3)
        utterance = corpus.utterance(
            ["s", "ae", "ih", "s", "er"], rng=6
        )
        segments = segmenter.oracle_segments(utterance)
        assert segments
        # The /ae/+/ih/ block and /er/ block; /s/ excluded.
        total = sum(end - start for start, end in segments)
        sensitive_total = sum(
            interval.duration_s
            for interval in utterance.alignment
            if interval.symbol in segmenter.sensitive_phonemes
        )
        assert total == pytest.approx(sensitive_total, rel=0.15)

    def test_oracle_merges_adjacent(self, corpus):
        segmenter = PhonemeSegmenter(rng=3)
        utterance = corpus.utterance(["ae", "ih", "er"], rng=7)
        segments = segmenter.oracle_segments(utterance)
        assert len(segments) == 1


class TestDefaultSegmenterQuality:
    """The serving default (paper recipe, seed 0) segments utterances.

    A recipe that sees only isolated phoneme segments can learn to mark
    every frame of a whole utterance effective, which scores exactly the
    label rate and hands the whole recording to cross-domain sensing.
    """

    def test_held_out_utterances_are_segmented(self, corpus):
        segmenter = default_segmenter(seed=0)
        accuracies = []
        for index, command in enumerate(VA_COMMANDS[:6]):
            utterance = corpus.utterance(
                phonemize(command), rng=900 + index
            )
            predicted = segmenter.frame_probabilities(
                utterance.waveform
            ) >= segmenter.config.decision_threshold
            labels = segmenter.frame_labels(utterance).astype(bool)
            assert not predicted.all(), command
            accuracies.append(float((predicted == labels).mean()))
        assert np.mean(accuracies) >= 0.85


class TestTrainedSegmenter:
    def test_classifies_strong_vowel_positive(self, trained_segmenter,
                                              corpus):
        segment = corpus.phoneme_population("ae", 1, rng=8)[0]
        assert trained_segmenter.classify_segment(
            segment.waveform * 3.0
        )

    def test_classifies_weak_fricative_negative(self, trained_segmenter,
                                                corpus):
        segment = corpus.phoneme_population("s", 1, rng=9)[0]
        assert not trained_segmenter.classify_segment(
            segment.waveform * 3.0
        )

    def test_segments_found_in_utterance(self, trained_segmenter,
                                         corpus):
        utterance = corpus.utterance(
            phonemize("alexa play my favorite playlist"), rng=10
        )
        segments = trained_segmenter.segments(utterance.waveform)
        assert segments
        for start, end in segments:
            assert end > start

    def test_save_load_roundtrip(self, trained_segmenter, corpus,
                                 tmp_path):
        utterance = corpus.utterance(phonemize("play music"), rng=11)
        expected = trained_segmenter.frame_probabilities(
            utterance.waveform
        )
        path = tmp_path / "segmenter.npz"
        trained_segmenter.save(path)
        restored = PhonemeSegmenter(rng=99)
        restored.load_weights(path)
        np.testing.assert_allclose(
            restored.frame_probabilities(utterance.waveform),
            expected,
            atol=1e-10,
        )

    def test_save_untrained_raises(self, tmp_path):
        with pytest.raises(ModelError):
            PhonemeSegmenter(rng=0).save(tmp_path / "x.npz")


class TestConcatenate:
    def test_extracts_requested_spans(self):
        audio = np.arange(1600, dtype=float)
        out = concatenate_segments(
            audio, [(0.0, 0.01), (0.05, 0.06)], RATE, fade_s=0.0
        )
        assert out.size == 320

    def test_fades_edges(self):
        audio = np.ones(3200)
        out = concatenate_segments(
            audio, [(0.0, 0.1)], RATE, fade_s=0.01
        )
        assert out[0] == pytest.approx(0.0)
        assert out[out.size // 2] == pytest.approx(1.0)

    def test_empty_segments_give_empty_array(self):
        assert concatenate_segments(np.ones(100), [], RATE).size == 0

    def test_out_of_range_segments_clamped(self):
        audio = np.ones(160)
        out = concatenate_segments(
            audio, [(-1.0, 0.005), (0.009, 5.0)], RATE, fade_s=0.0
        )
        assert out.size == 80 + (160 - 144)
