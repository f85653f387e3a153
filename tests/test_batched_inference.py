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
from repro.core.segmentation import PhonemeSegmenter, default_segmenter
from repro.errors import ModelError
from repro.nn.model import SequenceClassifier
from repro.runtime import capture_stage_events
from repro.serve.request import VerificationRequest
from repro.serve.workers import PipelineSpec, execute_batch
from tests.timing import median_speedup

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

    def test_singleton_mask_error_names_caller_shapes(self, model):
        # Validated before the batch-of-one mirror doubles the rows.
        with pytest.raises(ModelError, match=r"\(1, 6\).*\(1, 5\)"):
            model.forward(
                np.zeros((1, 5, 6)),
                training=False,
                mask=np.ones((1, 6), dtype=bool),
            )


def _reference_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _reference_direction(params, inputs, mask):
    """One LSTM direction, computed the plain way: one flat hoisted
    input projection, a sigmoid per gate and ``np.where`` masking."""
    W, U, b = params["W"], params["U"], params["b"]
    batch, time, dim = inputs.shape
    hidden = U.shape[0]
    x_proj = (inputs.reshape(batch * time, dim) @ W).reshape(
        batch, time, 4 * hidden
    )
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    hs = np.empty((batch, time, hidden))
    for t in range(time):
        gates = x_proj[:, t] + h @ U + b
        i = _reference_sigmoid(gates[:, :hidden])
        f = _reference_sigmoid(gates[:, hidden : 2 * hidden])
        g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o = _reference_sigmoid(gates[:, 3 * hidden :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        if mask is None:
            c, h = c_new, h_new
        else:
            valid = mask[:, t, np.newaxis]
            c = np.where(valid, c_new, c)
            h = np.where(valid, h_new, h)
        hs[:, t] = h
    return hs


def reference_logits(model, inputs, mask=None):
    """Inference logits from one direction at a time, with the
    batch-of-one mirror, for comparison with the stacked recurrence."""
    mirrored = inputs.shape[0] == 1
    if mirrored:
        inputs = np.concatenate([inputs, inputs])
        if mask is not None:
            mask = np.concatenate([mask, mask])
    reversed_mask = None if mask is None else mask[:, ::-1]
    h_forward = _reference_direction(
        model.brnn.forward_layer.params, inputs, mask
    )
    h_backward = _reference_direction(
        model.brnn.backward_layer.params, inputs[:, ::-1], reversed_mask
    )
    hidden = h_forward + h_backward[:, ::-1]
    logits = model.head.forward(hidden, training=False)
    return logits[:1] if mirrored else logits


class TestStackedRecurrenceMatchesReference:
    """The two-direction, one-loop recurrence against a plain
    per-direction loop, bitwise, on this machine's BLAS."""

    @pytest.fixture(scope="class")
    def model(self):
        return SequenceClassifier(input_dim=14, hidden_dim=64, rng=7)

    @staticmethod
    def check(model, inputs, mask):
        actual = model.forward(inputs, training=False, mask=mask)
        np.testing.assert_array_equal(
            actual, reference_logits(model, inputs, mask)
        )

    def test_batch_of_one(self, model):
        inputs = np.random.default_rng(1).normal(size=(1, 290, 14))
        self.check(model, inputs, np.ones((1, 290), dtype=bool))

    def test_equal_length_batch(self, model):
        inputs = np.random.default_rng(2).normal(size=(8, 60, 14))
        self.check(model, inputs, np.ones((8, 60), dtype=bool))

    def test_ragged_batch_spans_projection_blocks(self, model):
        # 8 * 41 = 328 rows: several input-projection blocks
        # (repro.nn.lstm.PROJECTION_BLOCK_ROWS), the last one short.
        lengths = [41, 17, 33, 5, 41, 28, 9, 36]
        time = max(lengths)
        inputs = np.random.default_rng(3).normal(size=(8, time, 14))
        mask = np.arange(time) < np.array(lengths)[:, np.newaxis]
        inputs[~mask] = 0.0
        self.check(model, inputs, mask)

    def test_without_mask(self, model):
        inputs = np.random.default_rng(4).normal(size=(3, 25, 14))
        self.check(model, inputs, None)


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


class TestSegmentationSpeedGate:
    """One masked BLSTM forward over a batch of 8 must be at least
    twice as fast as 8 single-recording forwards: the batch amortizes
    the per-frame Python recurrence overhead."""

    def test_batch_of_eight_twice_as_fast_as_loop(self):
        segmenter = default_segmenter(
            seed=9300, n_speakers=2, n_per_phoneme=3, epochs=3
        )
        generator = np.random.default_rng(9301)
        audios = [
            generator.normal(0.0, 0.1, 6_000 + 500 * (index % 5))
            for index in range(8)
        ]
        speedup = median_speedup(
            lambda: [segmenter.segments(audio) for audio in audios],
            lambda: segmenter.segments_batch(audios),
        )
        assert speedup >= 2.0, (
            f"batched segmentation at batch 8 is {speedup:.2f}x "
            f"the sequential loop (bar 2.0x)"
        )


def make_pair(seed, n_samples=8_000):
    rng = np.random.default_rng(seed)
    va = rng.normal(0.0, 0.1, n_samples)
    wearable = 0.8 * va + rng.normal(0.0, 0.02, n_samples)
    return va, wearable


def record_kernel_rows(monkeypatch):
    """Log ``(kernel, rows)`` for every shared segmentation and sensing
    call, in call order."""
    from repro.sensing.cross_domain import CrossDomainSensor

    rows = []
    for owner, kernel in (
        (PhonemeSegmenter, "segments_batch"),
        (CrossDomainSensor, "convert_batch"),
    ):
        def recording(
            self, audios, *args, _kernel=kernel,
            _original=getattr(owner, kernel), **kwargs
        ):
            rows.append((_kernel, len(audios)))
            return _original(self, audios, *args, **kwargs)

        monkeypatch.setattr(owner, kernel, recording)
    return rows


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
            expected = pipeline.analyze(
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
        # A lone request's shared call is its own call: no batch
        # event, and no per-request retry of the same code.
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

    @pytest.mark.parametrize(
        "kernel, stage, max_rows",
        [("segments_batch", "segment", 1), ("convert_batch", "sense", 2)],
    )
    def test_failed_shared_call_retries_each_request(
        self, pipeline, kernel, stage, max_rows, monkeypatch
    ):
        from repro.sensing.cross_domain import CrossDomainSensor

        # The kernel fails whenever requests share it, so the batch of
        # three runs it 1 + 3 times: the shared call, then each alone.
        items = []
        for seed in (11, 22, 33):
            va, wearable = make_pair(seed, n_samples=6_000 + 700 * seed)
            items.append(
                BatchAnalysisItem(
                    va_audio=va, wearable_audio=wearable, rng=seed
                )
            )
        alone = [
            pipeline.analyze(
                item.va_audio, item.wearable_audio, rng=item.rng
            )
            for item in items
        ]
        owner = (
            PhonemeSegmenter
            if kernel == "segments_batch"
            else CrossDomainSensor
        )
        original = getattr(owner, kernel)
        calls = []

        def fails_when_shared(self, rows, *args, **kwargs):
            calls.append(len(rows))
            if len(rows) > max_rows:
                raise ModelError("shared call failed")
            return original(self, rows, *args, **kwargs)

        monkeypatch.setattr(owner, kernel, fails_when_shared)
        with capture_stage_events() as events:
            outcomes = pipeline.analyze_batch(items)
        assert [outcome.verdict for outcome in outcomes] == alone
        assert events.fallback_counts() == {
            f"{stage}_batch:per-request": 1
        }
        assert events.error_counts() == {}
        assert calls == [3 * max_rows] + [max_rows] * 3

    @pytest.mark.parametrize(
        "members, rows, batch_sizes",
        [
            (
                (0, 1, 2),
                [("segments_batch", 2), ("convert_batch", 6)],
                [2, 3],
            ),
            ((1,), [("segments_batch", 1), ("convert_batch", 2)], []),
        ],
    )
    def test_one_call_per_kernel(
        self, pipeline, corpus, members, rows, batch_sizes, monkeypatch
    ):
        # One oracle and two model-segmented requests: the two model
        # rows share one forward, and all six recordings share one
        # sensing call.  A lone request
        # runs the same two calls, and no batch-scope event.
        utterance = corpus.utterance(["s", "aa", "sh", "iy"], rng=3)
        noise = np.random.default_rng(4).normal(
            0.0, 0.01, utterance.waveform.size
        )
        oracle_va = utterance.waveform + noise
        items = [
            BatchAnalysisItem(
                va_audio=oracle_va,
                wearable_audio=0.8 * oracle_va,
                rng=1,
                oracle_utterance=utterance,
            ),
            BatchAnalysisItem(*make_pair(3), rng=3),
            BatchAnalysisItem(*make_pair(4, n_samples=9_000), rng=4),
        ]
        calls = record_kernel_rows(monkeypatch)
        with capture_stage_events() as events:
            outcomes = pipeline.analyze_batch(
                [items[index] for index in members]
            )
        assert all(outcome.ok for outcome in outcomes)
        assert calls == rows
        assert sorted(
            event.batch_size
            for event in events.events
            if event.scope == "batch"
        ) == batch_sizes


def make_request(seed, n_samples=8_000, **kwargs):
    va, wearable = make_pair(seed, n_samples=n_samples)
    kwargs.setdefault("request_id", f"req-{seed}")
    return VerificationRequest(
        va_audio=va, wearable_audio=wearable, seed=seed, **kwargs
    )


class TestExecuteBatchParity:
    """The serving contract: a verdict does not depend on its batch."""

    def _verdicts(self, spec, requests):
        pipeline = spec.build_pipeline(RATE, False)
        batched = execute_batch(
            (pipeline, None, [(request, 0.0) for request in requests])
        )
        singles = [
            execute_batch((pipeline, None, [(request, 0.0)]))[0]
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
        pipeline = PipelineSpec(use_segmenter=False).build_pipeline(
            RATE, False
        )
        good = [
            make_request(seed, n_samples=6_000 + 500 * (seed % 3))
            for seed in range(10, 17)
        ]
        alone = [
            execute_batch((pipeline, None, [(request, 0.0)]))[0]
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
                (pipeline, None, [(request, 0.0) for request in batch])
            )
            assert len(results) == 8
            assert results[3].verdict is None
            assert results[3].error.startswith(error)
            mates = results[:3] + results[4:]
            for request, result, single in zip(good, mates, alone):
                assert result.request_id == request.request_id
                assert result.error is None
                assert result.verdict == single.verdict
