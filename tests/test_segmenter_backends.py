"""BLSTM segmenter contracts: mask conversion, bounds, recipe memo.

Covers the frame-mask → segment conversion, that segments stay inside
the recording, that the serving fingerprint tracks the training
recipe, and that ``default_segmenter`` trains exactly once per recipe
under concurrent misses.
"""

import threading

import numpy as np
import pytest

from repro.core import segmentation as segmentation_module
from repro.core.segmentation import (
    PhonemeSegmenter,
    default_segmenter,
    mask_to_segments,
    training_run_count,
)
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
def utterance_waveforms(corpus):
    commands = ["play music", "open the door", "call mom"]
    return [
        corpus.utterance(phonemize(text), rng=30 + index).waveform
        for index, text in enumerate(commands)
    ]


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
    """Segments stay strictly within [0, duration]."""

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


class TestServingSpec:
    def test_blstm_fingerprint_still_recipe_sensitive(self):
        assert (
            PipelineSpec(n_speakers=2).fingerprint
            != PipelineSpec(n_speakers=8).fingerprint
        )


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
