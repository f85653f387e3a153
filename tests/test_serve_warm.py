"""Warm segmenter path: cached training, unchanged scores, timings."""

import numpy as np
import pytest

from repro.core.pipeline import (
    PIPELINE_STAGES,
    BatchAnalysisItem,
    DefensePipeline,
)
from repro.core.segmentation import (
    default_segmenter,
    train_default_segmenter,
)

RECIPE = dict(n_speakers=2, n_per_phoneme=2, epochs=2)


def make_pair(seed, n_samples=8_000):
    rng = np.random.default_rng(seed)
    va = rng.normal(0.0, 0.1, n_samples)
    wearable = 0.8 * va + rng.normal(0.0, 0.02, n_samples)
    return va, wearable


class TestWarmSegmenterCache:
    def test_repeated_calls_share_one_instance(self):
        first = default_segmenter(seed=31, **RECIPE)
        second = default_segmenter(seed=31, **RECIPE)
        assert first is second

    def test_different_recipes_do_not_collide(self):
        base = default_segmenter(seed=31, **RECIPE)
        other_seed = default_segmenter(seed=32, **RECIPE)
        other_size = default_segmenter(
            seed=31, n_speakers=3, n_per_phoneme=2, epochs=2
        )
        assert base is not other_seed
        assert base is not other_size

    def test_warm_scores_match_fresh_training(self):
        """Regression pin: the warm path changes cost, never scores."""
        va, wearable = make_pair(5)
        warm = DefensePipeline(
            segmenter=default_segmenter(seed=31, **RECIPE)
        )
        fresh = DefensePipeline(
            segmenter=train_default_segmenter(seed=31, **RECIPE)
        )
        for rng_seed in (0, 1, 2):
            assert warm.verify(va, wearable, rng=rng_seed) == fresh.verify(
                va, wearable, rng=rng_seed
            )

    def test_warm_pipelines_share_segmenter(self):
        first = DefensePipeline(
            segmenter=default_segmenter(seed=31, **RECIPE)
        )
        second = DefensePipeline(
            segmenter=default_segmenter(seed=31, **RECIPE)
        )
        assert first.segmenter is second.segmenter


class TestVerifyAlias:
    def test_verify_is_analyze(self):
        va, wearable = make_pair(6)
        pipeline = DefensePipeline(segmenter=None)
        assert pipeline.verify(va, wearable, rng=3) == pipeline.analyze(
            va, wearable, rng=3
        )


class TestAnalyzeTimed:
    """Stage timings and degradation of a lone request."""

    def test_reports_every_stage(self):
        va, wearable = make_pair(7)
        pipeline = DefensePipeline(segmenter=None)
        (outcome,) = pipeline.analyze_batch(
            [BatchAnalysisItem(va_audio=va, wearable_audio=wearable, rng=4)]
        )
        verdict, timings = outcome.verdict, outcome.timings
        assert set(timings) == set(PIPELINE_STAGES)
        assert all(seconds >= 0 for seconds in timings.values())
        assert verdict == pipeline.analyze(va, wearable, rng=4)

    def test_skip_segmentation_falls_back_to_full_recording(self):
        va, wearable = make_pair(8)
        pipeline = DefensePipeline(
            segmenter=default_segmenter(seed=31, **RECIPE)
        )
        degraded = pipeline.analyze(
            va, wearable, rng=5, skip_segmentation=True
        )
        baseline = DefensePipeline(
            segmenter=None, config=pipeline.config
        ).analyze(va, wearable, rng=5)
        assert degraded == baseline
        assert degraded.n_segments == 0


class TestPipelineSpecHardening:
    """The randomized-defense knobs ride the serving spec."""

    def test_hardening_defaults_off(self):
        from repro.serve.workers import PipelineSpec

        spec = PipelineSpec(use_segmenter=False)
        assert spec.hardening is None
        pipeline = spec.build_pipeline(16_000.0, False)
        assert pipeline.config.hardening is None

    def test_hardening_knobs_reach_the_pipeline(self):
        from repro.serve.workers import PipelineSpec

        spec = PipelineSpec(
            use_segmenter=False,
            threshold=0.3,
            threshold_jitter=0.05,
            subset_fraction=0.5,
        )
        pipeline = spec.build_pipeline(16_000.0, False)
        hardening = pipeline.config.hardening
        assert hardening is not None
        assert hardening.threshold_jitter == 0.05
        assert hardening.subset_fraction == 0.5

    def test_jitter_without_threshold_fails_at_spec_construction(self):
        from repro.errors import ConfigurationError
        from repro.serve.workers import PipelineSpec

        with pytest.raises(ConfigurationError):
            PipelineSpec(use_segmenter=False, threshold_jitter=0.05)

    def test_hardening_knobs_split_the_fingerprint(self):
        from repro.serve.workers import PipelineSpec

        plain = PipelineSpec(threshold=0.3)
        jittered = PipelineSpec(threshold=0.3, threshold_jitter=0.05)
        subset = PipelineSpec(threshold=0.3, subset_fraction=0.5)
        assert len({
            plain.fingerprint,
            jittered.fingerprint,
            subset.fingerprint,
        }) == 3


#: A changed value for every PipelineSpec field.
_SPEC_CHANGES = {
    "use_segmenter": False,
    "segmenter_seed": 1,
    "n_speakers": 2,
    "n_per_phoneme": 3,
    "epochs": 3,
    "threshold": 0.4,
    "threshold_jitter": 0.05,
    "subset_fraction": 0.5,
    "min_audio_s": 0.5,
    "store_dir": "elsewhere",
    "scenario": "baseline-glass",
}


class TestPipelineSpecFingerprint:
    BASE = dict(threshold=0.3)

    def test_every_field_is_changed(self):
        from dataclasses import fields

        from repro.serve.workers import PipelineSpec

        names = {field.name for field in fields(PipelineSpec)}
        assert names == set(_SPEC_CHANGES)

    @pytest.mark.parametrize("name", sorted(_SPEC_CHANGES))
    def test_every_field_but_store_dir_splits_the_fingerprint(self, name):
        from repro.serve.workers import PipelineSpec

        base = PipelineSpec(**self.BASE)
        changed = PipelineSpec(**{**self.BASE, name: _SPEC_CHANGES[name]})
        assert (changed.fingerprint == base.fingerprint) == (
            name == "store_dir"
        )
