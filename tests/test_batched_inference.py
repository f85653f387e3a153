"""Batched inference: batch-composition invariance across the nn,
segmenter, pipeline, and serving layers, and error isolation."""

import numpy as np
import pytest

from repro.core.pipeline import (
    PIPELINE_STAGES,
    BatchAnalysisItem,
    DefenseConfig,
    DefensePipeline,
)
from repro.core.segmentation import PhonemeSegmenter
from repro.errors import ModelError
from repro.nn.model import SequenceClassifier
from repro.runtime import capture_stage_events
from repro.serve.request import VerificationRequest
from repro.serve.workers import PipelineSpec, execute_batch

RATE = 16_000.0


@pytest.fixture(scope="module")
def trained_segmenter(corpus):
    segmenter = PhonemeSegmenter(rng=5)
    segmenter.train_on_phoneme_segments(
        corpus, n_per_phoneme=4, epochs=6, rng=6
    )
    return segmenter


@pytest.fixture(scope="module")
def utterance_audios(corpus):
    """Ragged-length recordings: three utterances plus plain noise."""
    sequences = [
        ["aa", "s", "iy"],
        ["m", "ow", "z", "eh", "n"],
        ["sh", "ah"],
    ]
    audios = [
        corpus.utterance(sequence, rng=40 + index).waveform
        for index, sequence in enumerate(sequences)
    ]
    audios.append(np.random.default_rng(9).normal(0.0, 0.05, 5_000))
    return audios


class TestInferenceForward:
    @pytest.fixture(scope="class")
    def model(self):
        return SequenceClassifier(input_dim=6, hidden_dim=8, rng=0)

    @pytest.fixture(scope="class")
    def inputs(self):
        return np.random.default_rng(3).normal(size=(3, 12, 6))

    def test_matches_training_forward_bitwise(self, model, inputs):
        expected = model.forward(inputs)  # training path
        actual = model.forward(inputs, training=False)
        np.testing.assert_array_equal(actual, expected)

    def test_singleton_batch_close_to_training(self, model, inputs):
        # Batch 1 is mirrored onto the multi-row BLAS kernel, so it can
        # differ from the training forward's single-row kernel in the
        # last ulp — but no more.
        expected = model.forward(inputs[:1])
        actual = model.forward(inputs[:1], training=False)
        np.testing.assert_allclose(actual, expected, rtol=1e-10)

    def test_batch_size_independence_bitwise(self, model, inputs):
        # The contract the segmenter's batched path relies on: a
        # sequence scored alone equals the same sequence inside a
        # larger batch, bitwise.
        batched = model.forward(inputs, training=False)
        for index in range(inputs.shape[0]):
            alone = model.forward(
                inputs[index : index + 1], training=False
            )
            np.testing.assert_array_equal(alone[0], batched[index])

    def test_inference_writes_no_caches(self, model, inputs):
        model.brnn.forward_layer._cache = None
        model.brnn.backward_layer._cache = None
        model.head._cache = None
        model.forward(inputs, training=False)
        assert model.brnn.forward_layer._cache is None
        assert model.brnn.backward_layer._cache is None
        assert model.head._cache is None

    def test_mask_rejected_on_training_path(self, model, inputs):
        mask = np.ones(inputs.shape[:2], dtype=bool)
        with pytest.raises(ModelError):
            model.forward(inputs, training=True, mask=mask)

    def test_masked_padding_is_inert(self, model, inputs):
        # Right-padding a sequence with garbage frames must not change
        # its valid frames when the mask marks them invalid.
        short = inputs[:, :7, :]
        padded = np.concatenate(
            [short, np.full((3, 5, 6), 123.0)], axis=1
        )
        mask = np.zeros((3, 12), dtype=bool)
        mask[:, :7] = True
        expected = model.forward(short, training=False)
        actual = model.forward(padded, training=False, mask=mask)
        np.testing.assert_array_equal(actual[:, :7], expected)


class TestSegmenterBatchParity:
    def test_batch_matches_single_bitwise(
        self, trained_segmenter, utterance_audios
    ):
        batched = trained_segmenter.frame_probabilities_batch(
            utterance_audios
        )
        assert len(batched) == len(utterance_audios)
        for audio, probabilities in zip(utterance_audios, batched):
            single = trained_segmenter.frame_probabilities(audio)
            np.testing.assert_array_equal(probabilities, single)

    def test_segments_batch_matches_single(
        self, trained_segmenter, utterance_audios
    ):
        batched = trained_segmenter.segments_batch(utterance_audios)
        singles = [
            trained_segmenter.segments(audio)
            for audio in utterance_audios
        ]
        assert batched == singles

    def test_empty_batch(self, trained_segmenter):
        assert trained_segmenter.frame_probabilities_batch([]) == []
        assert trained_segmenter.segments_batch([]) == []

    def test_silence_yields_no_segments(self, trained_segmenter):
        silence = np.zeros(4_000)
        batched = trained_segmenter.segments_batch(
            [silence, np.zeros(2_000)]
        )
        singles = [
            trained_segmenter.segments(silence),
            trained_segmenter.segments(np.zeros(2_000)),
        ]
        assert batched == singles

    def test_untrained_raises(self):
        with pytest.raises(ModelError):
            PhonemeSegmenter(rng=1).frame_probabilities_batch(
                [np.zeros(4_000)]
            )


def make_pair(seed, n_samples=8_000):
    rng = np.random.default_rng(seed)
    va = rng.normal(0.0, 0.1, n_samples)
    wearable = 0.8 * va + rng.normal(0.0, 0.02, n_samples)
    return va, wearable


class TestAnalyzeBatch:
    @pytest.fixture(scope="class")
    def pipeline(self, trained_segmenter):
        return DefensePipeline(
            segmenter=trained_segmenter,
            config=DefenseConfig(audio_rate=RATE),
        )

    def test_verdicts_match_sequential_bitwise(self, pipeline):
        items = []
        for seed in (11, 22, 33, 44):
            va, wearable = make_pair(seed, n_samples=6_000 + 700 * seed)
            items.append(
                BatchAnalysisItem(
                    va_audio=va, wearable_audio=wearable, rng=seed
                )
            )
        outcomes = pipeline.analyze_batch(items)
        assert all(outcome.ok for outcome in outcomes)
        for item, outcome in zip(items, outcomes):
            expected, _ = pipeline.analyze_timed(
                item.va_audio, item.wearable_audio, rng=item.rng
            )
            assert outcome.verdict == expected
            assert set(outcome.timings) == set(PIPELINE_STAGES)

    def test_error_isolation(self, pipeline):
        va, wearable = make_pair(7)
        items = [
            BatchAnalysisItem(
                va_audio=va, wearable_audio=wearable, rng=7
            ),
            BatchAnalysisItem(
                va_audio=np.zeros(0), wearable_audio=wearable, rng=8
            ),
            BatchAnalysisItem(
                va_audio=va, wearable_audio=wearable, rng=9
            ),
        ]
        outcomes = pipeline.analyze_batch(items)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].error is not None
        assert outcomes[0].verdict == pipeline.analyze(
            va, wearable, rng=7
        )
        assert outcomes[2].verdict == pipeline.analyze(
            va, wearable, rng=9
        )

    @pytest.mark.parametrize(
        "kernel, event",
        [
            ("segments_batch", "segment:ModelError"),
            ("convert_batch", "sense:ModelError"),
        ],
    )
    def test_failed_batch_of_one_is_not_retried(
        self, kernel, event, monkeypatch
    ):
        # A lone request runs its kernel once, in its own stage: no
        # batched call, so no per-request retry of the same code.
        from repro.sensing.cross_domain import CrossDomainSensor

        calls = []

        def failing(*args, **kwargs):
            calls.append(kernel)
            raise ModelError("kernel failed")

        if kernel == "segments_batch":
            monkeypatch.setattr(PhonemeSegmenter, kernel, failing)
            segmenter = PhonemeSegmenter(rng=0)
        else:
            monkeypatch.setattr(CrossDomainSensor, kernel, failing)
            segmenter = None
        pipeline = DefensePipeline(
            segmenter=segmenter, config=DefenseConfig(audio_rate=RATE)
        )
        va, wearable = make_pair(3)
        with capture_stage_events() as events:
            (outcome,) = pipeline.analyze_batch(
                [
                    BatchAnalysisItem(
                        va_audio=va, wearable_audio=wearable, rng=3
                    )
                ]
            )
        assert isinstance(outcome.error, ModelError)
        assert len(calls) == 1
        assert events.fallback_counts() == {}
        assert events.error_counts() == {event: 1}

    def test_skip_segmentation_matches_sequential(self, pipeline):
        va, wearable = make_pair(17)
        items = [
            BatchAnalysisItem(
                va_audio=va,
                wearable_audio=wearable,
                rng=17,
                skip_segmentation=True,
            ),
            BatchAnalysisItem(
                va_audio=va, wearable_audio=wearable, rng=18
            ),
        ]
        outcomes = pipeline.analyze_batch(items)
        assert outcomes[0].verdict == pipeline.analyze(
            va, wearable, rng=17, skip_segmentation=True
        )
        assert outcomes[0].verdict.n_segments == 0


def make_request(seed, n_samples=8_000, **kwargs):
    va, wearable = make_pair(seed, n_samples=n_samples)
    kwargs.setdefault("request_id", f"req-{seed}")
    return VerificationRequest(
        va_audio=va, wearable_audio=wearable, seed=seed, **kwargs
    )


class TestExecuteBatchParity:
    """The serving contract: a verdict does not depend on its batch."""

    KEY = (RATE, False)

    def _verdicts(self, spec, requests):
        batched = execute_batch(
            (spec, self.KEY, [(request, 0.0) for request in requests])
        )
        singles = [
            execute_batch((spec, self.KEY, [(request, 0.0)]))[0]
            for request in requests
        ]
        return batched, singles

    def test_fast_spec_parity(self):
        spec = PipelineSpec(use_segmenter=False)
        requests = [make_request(seed) for seed in (1, 2, 3, 4)]
        batched, singles = self._verdicts(spec, requests)
        for together, alone in zip(batched, singles):
            assert together.error is None and alone.error is None
            assert together.verdict == alone.verdict
            assert set(together.stage_timings_s) == set(PIPELINE_STAGES)

    def test_segmenter_spec_parity(self):
        spec = PipelineSpec(
            segmenter_seed=7, n_speakers=2, n_per_phoneme=3, epochs=3
        )
        requests = [make_request(seed) for seed in (5, 6, 7)]
        batched, singles = self._verdicts(spec, requests)
        for together, alone in zip(batched, singles):
            assert together.verdict == alone.verdict

    def test_poisoned_request_degrades_only_itself(self):
        # A batch of 8 with one poisoned member: it fails alone, and its
        # 7 batch-mates get the verdicts they get when served alone.
        # The seed -1 request fails where its generator is built, which
        # must sit inside analyze_batch's per-request isolation.
        spec = PipelineSpec(use_segmenter=False)
        good = [
            make_request(seed, n_samples=6_000 + 500 * (seed % 3))
            for seed in range(10, 17)
        ]
        alone = [
            execute_batch((spec, self.KEY, [(request, 0.0)]))[0]
            for request in good
        ]
        va, wearable = make_pair(18)
        poisons = [
            (np.zeros(0), np.zeros(8_000), 99, "SignalError"),
            (va, wearable, -1, "ValueError"),
        ]
        for bad_va, bad_wearable, seed, error in poisons:
            bad = VerificationRequest(
                va_audio=bad_va,
                wearable_audio=bad_wearable,
                seed=seed,
                request_id="req-bad",
            )
            batch = good[:3] + [bad] + good[3:]
            results = execute_batch(
                (spec, self.KEY, [(request, 0.0) for request in batch])
            )
            assert len(results) == 8
            assert results[3].verdict is None
            assert results[3].error.startswith(error)
            mates = results[:3] + results[4:]
            for request, result, single in zip(good, mates, alone):
                assert result.request_id == request.request_id
                assert result.error is None
                assert result.verdict == single.verdict
