"""Load-or-train segmenter weights: round trips, corruption fallbacks,
and the zero-training warm service start."""

import io
import logging

import numpy as np
import pytest

from repro.core.pipeline import DefensePipeline
from repro.core.segmentation import (
    PhonemeSegmenter,
    SegmenterConfig,
    default_segmenter,
    load_or_train_segmenter,
    train_default_segmenter,
    training_run_count,
)
from repro.errors import ModelError
from repro.store import ArtifactStore

#: Tiny training recipe shared by these tests; cheap to train and
#: still exercises the full save/load format.
RECIPE = dict(n_speakers=2, n_per_phoneme=2, epochs=2)


@pytest.fixture()
def store_dir(tmp_path):
    return tmp_path / "store"


def make_pair(seed, n_samples=8_000):
    rng = np.random.default_rng(seed)
    va = rng.normal(0.0, 0.1, n_samples)
    wearable = 0.8 * va + rng.normal(0.0, 0.02, n_samples)
    return va, wearable


def saved_weights(segmenter):
    buffer = io.BytesIO()
    segmenter.save(buffer)
    return buffer.getvalue()


def quarantined(store):
    """Entries the store has moved aside."""
    quarantine_dir = store.root / "quarantine"
    if not quarantine_dir.is_dir():
        return []
    return sorted(quarantine_dir.iterdir())


class TestSegmenterArtifact:
    def test_first_call_trains_second_loads(self, store_dir):
        before = training_run_count()
        first = load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        assert training_run_count() == before + 1
        second = load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        assert training_run_count() == before + 1
        assert first is not second

    def test_loaded_predictions_are_bitwise_identical(self, store_dir):
        trained_model = load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        loaded_model = load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        audio = np.random.default_rng(9).normal(0.0, 0.1, 16_000)
        np.testing.assert_array_equal(
            trained_model.frame_probabilities(audio),
            loaded_model.frame_probabilities(audio),
        )
        assert trained_model.segments(audio) == loaded_model.segments(
            audio
        )

    def test_different_recipes_get_different_entries(self, store_dir):
        load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        before = training_run_count()
        load_or_train_segmenter(store_dir, seed=32, **RECIPE)
        assert training_run_count() == before + 1
        assert len(ArtifactStore(store_dir).verify()) == 2

    def test_store_loaded_pipeline_matches_fresh_training(self, store_dir):
        load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        loaded = load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        fresh = train_default_segmenter(seed=31, **RECIPE)
        va, wearable = make_pair(5)
        from_store = DefensePipeline(segmenter=loaded)
        from_training = DefensePipeline(segmenter=fresh)
        for rng_seed in (0, 1, 2):
            assert from_store.analyze(
                va, wearable, rng=rng_seed
            ) == from_training.analyze(va, wearable, rng=rng_seed)

    def test_undecodable_entry_quarantines_and_retrains(self, store_dir):
        load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        store = ArtifactStore(store_dir)
        ((fingerprint, _),) = store.verify()
        # Valid checksum, garbage content: the read path accepts it and
        # the decode step must fall back.
        store.put(fingerprint, b"not an npz archive")
        before = training_run_count()
        model = load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        assert training_run_count() == before + 1
        assert len(quarantined(store)) == 1
        audio = np.random.default_rng(9).normal(0.0, 0.1, 8_000)
        assert model.frame_probabilities(audio).shape[0] > 0
        # The retrained weights were re-published and verify cleanly.
        assert store.verify() == [(fingerprint, None)]

    def test_checksum_corruption_retrains(self, store_dir):
        load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        store = ArtifactStore(store_dir)
        ((fingerprint, _),) = store.verify()
        payload_path = store.entry_dir(fingerprint) / "payload.bin"
        raw = bytearray(payload_path.read_bytes())
        raw[100] ^= 0xFF
        payload_path.write_bytes(bytes(raw))
        before = training_run_count()
        load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        assert training_run_count() == before + 1
        assert len(quarantined(store)) == 1
        # The retrained model was re-published and loads cleanly.
        load_or_train_segmenter(store_dir, seed=31, **RECIPE)
        assert training_run_count() == before + 1

    def test_unusable_store_degrades_to_training(self, tmp_path, caplog):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store root should be")
        before = training_run_count()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            model = load_or_train_segmenter(
                blocked / "store", seed=31, **RECIPE
            )
        assert training_run_count() == before + 1
        assert "unusable" in caplog.text
        audio = np.random.default_rng(9).normal(0.0, 0.1, 8_000)
        assert model.frame_probabilities(audio).shape[0] > 0


class TestLoadWeightsValidation:
    """load_weights must reject foreign architectures."""

    def trained_payload(self):
        return saved_weights(train_default_segmenter(seed=31, **RECIPE))

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

    def test_missing_feature_statistics_raise(self):
        with np.load(io.BytesIO(self.trained_payload())) as archive:
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

    def test_thread_service_starts_without_training(self, store_dir):
        from repro.serve import (
            PipelineSpec,
            ServiceConfig,
            VerificationRequest,
            VerificationService,
        )

        # Populate the store out-of-band (load_or_train_segmenter
        # bypasses the in-process memo, so this is the only training).
        load_or_train_segmenter(store_dir, seed=self.SEED, **RECIPE)
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

    def test_store_backed_verdicts_match_no_store(self, store_dir):
        """The store changes cost, never verdicts."""
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
            assert with_store.analyze(
                va, wearable, rng=rng_seed
            ) == fresh.analyze(va, wearable, rng=rng_seed)
