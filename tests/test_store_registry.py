"""Model registry: load-or-train round trips, corruption fallbacks,
and the zero-training warm service start."""

import io

import numpy as np
import pytest

from repro.core.pipeline import DefensePipeline
from repro.core.segmentation import (
    PhonemeSegmenter,
    SegmenterConfig,
    default_segmenter,
    train_default_segmenter,
    training_run_count,
)
from repro.errors import ModelError
from repro.store import (
    ArtifactStore,
    KIND_SEGMENTER,
    ModelRegistry,
    registry_counters,
)
from repro.store import adapters

#: Tiny training recipe shared by the registry tests; cheap to train
#: and still exercises the full save/load format.
RECIPE = dict(n_speakers=2, n_per_phoneme=2, epochs=2)


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "store")


def make_pair(seed, n_samples=8_000):
    rng = np.random.default_rng(seed)
    va = rng.normal(0.0, 0.1, n_samples)
    wearable = 0.8 * va + rng.normal(0.0, 0.02, n_samples)
    return va, wearable


class TestSegmenterArtifact:
    def test_first_call_trains_second_loads(self, registry):
        first, trained = registry.segmenter(seed=31, **RECIPE)
        assert trained
        second, trained = registry.segmenter(seed=31, **RECIPE)
        assert not trained
        assert first is not second

    def test_loaded_predictions_are_bitwise_identical(self, registry):
        trained_model, _ = registry.segmenter(seed=31, **RECIPE)
        loaded_model, _ = registry.segmenter(seed=31, **RECIPE)
        audio = np.random.default_rng(9).normal(0.0, 0.1, 16_000)
        np.testing.assert_array_equal(
            trained_model.frame_probabilities(audio),
            loaded_model.frame_probabilities(audio),
        )
        assert trained_model.segments(audio) == loaded_model.segments(
            audio
        )

    def test_different_recipes_get_different_entries(self, registry):
        registry.segmenter(seed=31, **RECIPE)
        _, trained = registry.segmenter(seed=32, **RECIPE)
        assert trained
        assert len(registry.store.entries()) == 2

    def test_store_loaded_pipeline_matches_fresh_training(self, registry):
        loaded_a, _ = registry.segmenter(seed=31, **RECIPE)
        loaded, _ = registry.segmenter(seed=31, **RECIPE)
        fresh = train_default_segmenter(seed=31, **RECIPE)
        va, wearable = make_pair(5)
        from_store = DefensePipeline(segmenter=loaded)
        from_training = DefensePipeline(segmenter=fresh)
        for rng_seed in (0, 1, 2):
            assert from_store.verify(
                va, wearable, rng=rng_seed
            ) == from_training.verify(va, wearable, rng=rng_seed)

    def test_undecodable_entry_quarantines_and_retrains(self, registry):
        registry.segmenter(seed=31, **RECIPE)
        store = registry.store
        (key,) = [info.key for info in store.entries()]
        # Valid checksum, garbage content: the read path accepts it and
        # the decode step must fall back.
        store.put(key, b"not an npz archive")
        before = training_run_count()
        model, _ = registry.segmenter(seed=31, **RECIPE)
        assert training_run_count() == before + 1
        assert len(store.quarantined()) == 1
        audio = np.random.default_rng(9).normal(0.0, 0.1, 8_000)
        assert model.frame_probabilities(audio).shape[0] > 0

    def test_checksum_corruption_retrains(self, registry):
        registry.segmenter(seed=31, **RECIPE)
        store = registry.store
        (info,) = store.entries()
        payload_path = info.path / "payload.bin"
        raw = bytearray(payload_path.read_bytes())
        raw[100] ^= 0xFF
        payload_path.write_bytes(bytes(raw))
        before = training_run_count()
        _, trained = registry.segmenter(seed=31, **RECIPE)
        assert trained
        assert training_run_count() == before + 1
        assert len(store.quarantined()) == 1
        # The retrained model was re-published and loads cleanly.
        _, trained = registry.segmenter(seed=31, **RECIPE)
        assert not trained

    def test_unusable_store_degrades_to_training(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store root should be")
        registry = ModelRegistry(blocked / "store")
        model, trained = registry.segmenter(seed=31, **RECIPE)
        assert trained
        audio = np.random.default_rng(9).normal(0.0, 0.1, 8_000)
        assert model.frame_probabilities(audio).shape[0] > 0

    def test_counters_track_loads_and_trainings(self, registry):
        before = registry_counters()
        registry.segmenter(seed=31, **RECIPE)
        registry.segmenter(seed=31, **RECIPE)
        after = registry_counters()
        assert after["trained"] == before["trained"] + 1
        assert after["loaded"] == before["loaded"] + 1


class TestLoadWeightsValidation:
    """Satellite: load_weights must reject foreign architectures."""

    def trained_payload(self):
        model = train_default_segmenter(seed=31, **RECIPE)
        return adapters.encode_segmenter(model)

    def test_architecture_mismatch_raises_model_error(self):
        payload = self.trained_payload()
        narrow = PhonemeSegmenter(config=SegmenterConfig(hidden_dim=16))
        with pytest.raises(ModelError, match="hidden_dim"):
            narrow.load_weights(io.BytesIO(payload))

    def test_matching_architecture_loads(self):
        payload = self.trained_payload()
        segmenter = PhonemeSegmenter()
        segmenter.load_weights(io.BytesIO(payload))
        audio = np.random.default_rng(3).normal(0.0, 0.1, 8_000)
        assert segmenter.frame_probabilities(audio).shape[0] > 0

    def test_missing_feature_statistics_raise(self, tmp_path):
        model = train_default_segmenter(seed=31, **RECIPE)
        buffer = io.BytesIO()
        model.save(buffer)
        with np.load(io.BytesIO(buffer.getvalue())) as archive:
            arrays = {
                name: archive[name]
                for name in archive.files
                if name != "_feature_mean"
            }
        stripped = io.BytesIO()
        np.savez(stripped, **arrays)
        with pytest.raises(ModelError, match="_feature_mean"):
            PhonemeSegmenter().load_weights(
                io.BytesIO(stripped.getvalue())
            )


class TestZeroTrainingWarmStart:
    """A warm store turns service start into pure weight loads."""

    # Unique seed: must miss the in-process default_segmenter memo so
    # the store (not the memo) serves the warm start.
    SEED = 4711

    def test_thread_service_starts_without_training(self, tmp_path):
        from repro.serve import (
            PipelineSpec,
            ServiceConfig,
            VerificationRequest,
            VerificationService,
        )

        store_dir = tmp_path / "store"
        # Populate the store out-of-band (the registry bypasses the
        # in-process memo, so this is the only training run).
        ModelRegistry(store_dir).segmenter(seed=self.SEED, **RECIPE)
        spec = PipelineSpec(
            segmenter_seed=self.SEED,
            store_dir=str(store_dir),
            **RECIPE,
        )
        config = ServiceConfig(n_workers=2, worker_mode="thread")
        before = training_run_count()
        with VerificationService(spec, config) as service:
            va, wearable = make_pair(5)
            response = service.verify(
                VerificationRequest(
                    va_audio=va, wearable_audio=wearable, seed=0
                )
            )
        assert training_run_count() == before
        assert response.verdict is not None

    def test_store_backed_verdicts_match_no_store(self, tmp_path):
        """The store changes cost, never verdicts."""
        store_dir = tmp_path / "store"
        va, wearable = make_pair(5)
        with_store = DefensePipeline(
            segmenter=default_segmenter(
                seed=self.SEED, store=str(store_dir), **RECIPE
            )
        )
        fresh = DefensePipeline(
            segmenter=train_default_segmenter(seed=self.SEED, **RECIPE)
        )
        for rng_seed in (0, 1):
            assert with_store.verify(
                va, wearable, rng=rng_seed
            ) == fresh.verify(va, wearable, rng=rng_seed)
