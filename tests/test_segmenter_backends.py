"""Pluggable segmenter backends: protocol, bounds, parity, training.

Covers the contracts shared by the BLSTM and rate-distortion backends:
segments stay inside the recording, batched equals sequential, the RD
backend performs zero training runs (down through the serving spec),
and ``default_segmenter`` trains exactly once per recipe under
concurrent misses.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.scenario import AttackScenario
from repro.core.rate_distortion import (
    RateDistortionConfig,
    RateDistortionSegmenter,
)
from repro.core import segmentation as segmentation_module
from repro.core.pipeline import DefensePipeline
from repro.core.segmentation import (
    PhonemeSegmenter,
    default_segmenter,
    training_run_count,
)
from repro.core.segmenter import (
    PersistentSegmenter,
    Segmenter,
    mask_to_segments,
)
from repro.errors import ConfigurationError
from repro.phonemes.commands import phonemize
from repro.serve.workers import PipelineSpec

RATE = 16_000.0


@pytest.fixture(scope="module")
def blstm_segmenter(corpus):
    segmenter = PhonemeSegmenter(rng=5)
    segmenter.train_on_phoneme_segments(
        corpus, n_per_phoneme=6, epochs=8, rng=6
    )
    return segmenter


@pytest.fixture(scope="module")
def rd_segmenter():
    return RateDistortionSegmenter()


@pytest.fixture(scope="module")
def utterance_waveforms(corpus):
    commands = ["play music", "open the door", "call mom"]
    return [
        corpus.utterance(phonemize(text), rng=30 + index).waveform
        for index, text in enumerate(commands)
    ]


class TestProtocolConformance:
    def test_both_backends_satisfy_segmenter(
        self, blstm_segmenter, rd_segmenter
    ):
        assert isinstance(blstm_segmenter, Segmenter)
        assert isinstance(rd_segmenter, Segmenter)

    def test_only_blstm_is_persistent(
        self, blstm_segmenter, rd_segmenter
    ):
        assert isinstance(blstm_segmenter, PersistentSegmenter)
        assert not isinstance(rd_segmenter, PersistentSegmenter)

    @pytest.mark.parametrize(
        "build, kwargs",
        [
            (RateDistortionConfig, {"target_segment_s": 0.0}),
            (RateDistortionConfig, {"decision_threshold": 1.5}),
            (RateDistortionSegmenter, {"sample_rate": 0.0}),
            (RateDistortionConfig, {"target_segment_s": float("nan")}),
            (RateDistortionConfig, {"covariance_ridge": float("nan")}),
            (RateDistortionConfig, {"min_segment_s": float("nan")}),
            (RateDistortionConfig, {"merge_gap_s": float("nan")}),
            (RateDistortionConfig, {"hop_length_s": 0.0}),
            (RateDistortionConfig, {"frame_length_s": -1.0}),
            (RateDistortionConfig, {"activity_range_db": float("nan")}),
        ],
    )
    def test_rd_config_validation(self, build, kwargs):
        with pytest.raises(ConfigurationError):
            build(**kwargs)


class TestMaskToSegments:
    """Regression pins for the shared mask → segment conversion."""

    def test_run_end_uses_last_positive_frame(self):
        # Frames 0-2 positive: the segment ends at the *last positive*
        # frame's window (2 * 10 ms + 25 ms), not one hop later at the
        # first negative frame's window — the old off-by-one.
        segments = mask_to_segments(
            np.array([True, True, True, False, False]),
            hop_s=0.010,
            frame_length_s=0.025,
            duration_s=1.0,
        )
        assert segments == [(0.0, 0.045)]

    def test_run_reaching_final_frame_clamps_to_duration(self):
        # 10 frames cover a 0.1 s recording (pad_final framing); an
        # all-positive mask must not extend past the audio.
        segments = mask_to_segments(
            np.ones(10, dtype=bool),
            hop_s=0.010,
            frame_length_s=0.025,
            duration_s=0.1,
        )
        assert segments == [(0.0, 0.1)]

    def test_interior_segment_boundaries(self):
        segments = mask_to_segments(
            np.array([False, False, True, True, False, False]),
            hop_s=0.010,
            frame_length_s=0.025,
            duration_s=1.0,
        )
        assert segments == [(0.02, 0.055)]

    def test_gap_merging_and_min_length(self):
        mask = np.zeros(13, dtype=bool)
        mask[[0, 1, 3, 4, 12]] = True
        segments = mask_to_segments(
            mask,
            hop_s=0.010,
            frame_length_s=0.025,
            duration_s=1.0,
            merge_gap_s=0.02,
            min_segment_s=0.03,
        )
        # Runs [0,1] and [3,4] merge (the window overlap closes the
        # 1-frame gap); the lone frame at 12 starts 55 ms later, stays
        # separate, and its 25 ms run is dropped by min_segment_s.
        assert segments == [(0.0, 0.065)]

    def test_empty_mask_and_zero_duration(self):
        assert mask_to_segments(
            np.zeros(0, dtype=bool), 0.01, 0.025, 1.0
        ) == []
        assert mask_to_segments(
            np.ones(5, dtype=bool), 0.01, 0.025, 0.0
        ) == []

    def test_plain_python_floats(self):
        segments = mask_to_segments(
            np.array([True, True]), 0.01, 0.025, 1.0
        )
        for start, end in segments:
            assert type(start) is float and type(end) is float


class TestSegmentBounds:
    """Both backends emit segments strictly within [0, duration]."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_samples=st.integers(min_value=400, max_value=12_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_rd_segments_within_recording(self, seed, n_samples):
        rng = np.random.default_rng(seed)
        audio = rng.normal(size=n_samples)
        duration = n_samples / RATE
        segmenter = RateDistortionSegmenter()
        for start, end in segmenter.segments(audio):
            assert 0.0 <= start < end <= duration

    def test_blstm_segments_within_recording(
        self, blstm_segmenter, utterance_waveforms
    ):
        for waveform in utterance_waveforms:
            duration = waveform.size / RATE
            for start, end in blstm_segmenter.segments(waveform):
                assert 0.0 <= start < end <= duration

    def test_blstm_full_positive_mask_clamps(self, blstm_segmenter):
        # Force an all-positive mask through the real conversion path:
        # whatever the probabilities, a run reaching the final analysis
        # frame (which pad_final zero-pads past the audio) must clamp.
        duration = 0.1
        segments = blstm_segmenter._mask_to_segments(
            np.ones(10, dtype=bool), duration
        )
        assert segments and segments[-1][1] <= duration


class TestRateDistortionBehaviour:
    def test_batched_matches_sequential(
        self, rd_segmenter, utterance_waveforms
    ):
        batched_probs = rd_segmenter.frame_probabilities_batch(
            utterance_waveforms
        )
        batched_segments = rd_segmenter.segments_batch(
            utterance_waveforms
        )
        for waveform, probs, segments in zip(
            utterance_waveforms, batched_probs, batched_segments
        ):
            assert (
                probs == rd_segmenter.frame_probabilities(waveform)
            ).all()
            assert segments == rd_segmenter.segments(waveform)

    def test_boundaries_partition_frames(
        self, rd_segmenter, utterance_waveforms
    ):
        features = rd_segmenter.features(utterance_waveforms[0])
        bounds = rd_segmenter.boundaries(features)
        assert bounds[0] == 0
        assert bounds[-1] == features.shape[0]
        assert (np.diff(bounds) > 0).all()

    def test_vowel_sensitive_fricative_not(self, corpus):
        segmenter = RateDistortionSegmenter()
        vowel = corpus.utterance(["ae"], rng=40).waveform
        fricative = corpus.utterance(["s"], rng=41).waveform
        assert segmenter.classify_segment(vowel)
        assert not segmenter.classify_segment(fricative)

    def test_finds_segments_in_utterance(
        self, rd_segmenter, utterance_waveforms
    ):
        assert rd_segmenter.segments(utterance_waveforms[0])

    def test_construction_and_inference_train_nothing(
        self, utterance_waveforms
    ):
        before = training_run_count()
        segmenter = RateDistortionSegmenter()
        segmenter.segments(utterance_waveforms[0])
        segmenter.frame_probabilities_batch(utterance_waveforms)
        assert training_run_count() == before

    def test_oracle_segmentation_rejected(self, rd_segmenter, corpus):
        utterance = corpus.utterance(phonemize("call mom"), rng=33)
        pipeline = DefensePipeline(segmenter=rd_segmenter)
        with pytest.raises(
            ConfigurationError, match="RateDistortionSegmenter.*oracle"
        ):
            pipeline.analyze(
                utterance.waveform,
                utterance.waveform,
                rng=0,
                oracle_utterance=utterance,
            )


class TestServingSpec:
    def test_rd_spec_builds_training_free_pipeline(
        self, room_config, corpus
    ):
        before = training_run_count()
        spec = PipelineSpec(segmenter_backend="rd")
        pipeline = spec.build_pipeline(RATE, wearer_moving=False)
        assert isinstance(pipeline.segmenter, RateDistortionSegmenter)
        scenario = AttackScenario(room_config=room_config)
        utterance = corpus.utterance(
            phonemize("play my favorite playlist"), rng=50
        )
        va, wearable = scenario.legitimate_recordings(
            utterance, spl_db=70.0, rng=51
        )
        verdict = pipeline.analyze(va, wearable, rng=52)
        assert verdict.analyzed_duration_s > 0
        assert training_run_count() == before

    def test_rd_fingerprint_ignores_training_recipe(self):
        small = PipelineSpec(
            segmenter_backend="rd", n_speakers=2, epochs=3
        )
        large = PipelineSpec(
            segmenter_backend="rd", n_speakers=8, epochs=12
        )
        assert small.fingerprint == large.fingerprint
        assert (
            PipelineSpec(segmenter_backend="rd").fingerprint
            != PipelineSpec().fingerprint
        )

    def test_blstm_fingerprint_still_recipe_sensitive(self):
        assert (
            PipelineSpec(n_speakers=2).fingerprint
            != PipelineSpec(n_speakers=8).fingerprint
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineSpec(segmenter_backend="oracle")


class TestDefaultSegmenterRace:
    def test_concurrent_misses_train_once(self, monkeypatch):
        recipe = dict(
            seed=987_654, n_speakers=1, n_per_phoneme=1, epochs=1
        )
        key = (987_654, 1, 1, 1)
        n_threads = 8
        start_barrier = threading.Barrier(n_threads)

        class FakeSegmenter:
            pass

        def fake_train(seed=None, n_speakers=8, n_per_phoneme=12,
                       epochs=12):
            # Stand-in for the BLSTM recipe: bump the counter like the
            # real training does, and linger long enough that every
            # thread is inside default_segmenter before it finishes.
            segmentation_module._note_training_run()
            threading.Event().wait(0.05)
            return FakeSegmenter()

        monkeypatch.setattr(
            segmentation_module, "train_default_segmenter", fake_train
        )
        before = training_run_count()
        results = [None] * n_threads

        def worker(index):
            start_barrier.wait()
            results[index] = default_segmenter(**recipe)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_threads)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert training_run_count() == before + 1
            assert all(result is results[0] for result in results)
            assert isinstance(results[0], FakeSegmenter)
        finally:
            segmentation_module._WARM_SEGMENTERS.pop(key, None)
            segmentation_module._RECIPE_LOCKS.pop(key, None)

    def test_memo_returns_same_instance(self, monkeypatch):
        key = (987_655, 1, 1, 1)
        calls = []

        def fake_train(seed=None, n_speakers=8, n_per_phoneme=12,
                       epochs=12):
            calls.append(seed)
            return object()

        monkeypatch.setattr(
            segmentation_module, "train_default_segmenter", fake_train
        )
        try:
            first = default_segmenter(
                seed=987_655, n_speakers=1, n_per_phoneme=1, epochs=1
            )
            second = default_segmenter(
                seed=987_655, n_speakers=1, n_per_phoneme=1, epochs=1
            )
            assert first is second
            assert len(calls) == 1
        finally:
            segmentation_module._WARM_SEGMENTERS.pop(key, None)
            segmentation_module._RECIPE_LOCKS.pop(key, None)
