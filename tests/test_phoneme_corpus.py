"""Corpus builder and aligned utterances."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phonemes.corpus import (
    PhonemeInterval,
    SyntheticCorpus,
    Utterance,
)


def test_phoneme_population_count(corpus):
    segments = corpus.phoneme_population("ae", 6, rng=0)
    assert len(segments) == 6
    assert all(segment.symbol == "ae" for segment in segments)


def test_population_rotates_speakers(corpus):
    segments = corpus.phoneme_population("ae", 8, rng=0)
    ids = {segment.speaker_id for segment in segments}
    assert len(ids) == len(corpus.speakers)


def test_population_fixed_duration(corpus):
    segments = corpus.phoneme_population("ae", 3, rng=0, duration_s=0.4)
    for segment in segments:
        assert segment.duration_s == pytest.approx(0.4, abs=0.01)


def test_population_rejects_zero(corpus):
    with pytest.raises(ConfigurationError):
        corpus.phoneme_population("ae", 0)


def test_phoneme_dataset_keys(corpus):
    dataset = corpus.phoneme_dataset(["ae", "s"], 2, rng=1)
    assert set(dataset) == {"ae", "s"}
    assert len(dataset["ae"]) == 2


def test_utterance_alignment_covers_waveform(corpus):
    utterance = corpus.utterance(["hh", "ey", "sp", "s", "ih", "r", "iy"],
                                 rng=2)
    assert utterance.alignment[0].start_s == 0.0
    assert utterance.alignment[-1].end_s == pytest.approx(
        utterance.duration_s, abs=1e-6
    )


def test_utterance_alignment_is_contiguous(corpus):
    utterance = corpus.utterance(["t", "er", "n", "sp", "aa", "n"], rng=3)
    for left, right in zip(utterance.alignment, utterance.alignment[1:]):
        assert right.start_s == pytest.approx(left.end_s, abs=1e-9)


def test_utterance_labels_at(corpus):
    utterance = corpus.utterance(["ae"], rng=4)
    mid = utterance.duration_s / 2
    assert utterance.labels_at(np.array([mid])) == ["ae"]
    assert utterance.labels_at(np.array([utterance.duration_s + 1])) == [
        "sil"
    ]


def test_utterance_rejects_empty_sequence(corpus):
    with pytest.raises(ConfigurationError):
        corpus.utterance([])


def test_utterance_rejects_unknown_symbol(corpus):
    with pytest.raises(ConfigurationError):
        corpus.utterance(["ae", "nope"])


def test_utterance_deterministic(corpus, male_speaker):
    a = corpus.utterance(["ae", "t"], speaker=male_speaker, rng=7)
    b = corpus.utterance(["ae", "t"], speaker=male_speaker, rng=7)
    np.testing.assert_array_equal(a.waveform, b.waveform)


def test_interval_validation():
    with pytest.raises(ConfigurationError):
        PhonemeInterval(symbol="ae", start_s=0.5, end_s=0.5)


def test_empty_speaker_pool_rejected():
    with pytest.raises(ConfigurationError):
        SyntheticCorpus(speakers=[])


class TestUtteranceCache:
    def test_integer_seed_with_speaker_is_cached(self, male_speaker):
        corpus = SyntheticCorpus(speakers=[male_speaker], seed=1)
        first = corpus.utterance(["ae", "t"], speaker=male_speaker, rng=7)
        second = corpus.utterance(["ae", "t"], speaker=male_speaker, rng=7)
        assert second is first
        assert corpus.cache_hits == 1
        assert corpus.cache_misses == 1

    def test_cached_result_matches_uncached_synthesis(self, male_speaker):
        cached = SyntheticCorpus(speakers=[male_speaker], seed=1)
        uncached = SyntheticCorpus(
            speakers=[male_speaker], seed=1, utterance_cache_size=0
        )
        cached.utterance(["ae", "t"], speaker=male_speaker, rng=7)
        a = cached.utterance(["ae", "t"], speaker=male_speaker, rng=7)
        b = uncached.utterance(["ae", "t"], speaker=male_speaker, rng=7)
        np.testing.assert_array_equal(a.waveform, b.waveform)
        assert a.alignment == b.alignment

    def test_cached_waveform_is_read_only(self, male_speaker):
        corpus = SyntheticCorpus(speakers=[male_speaker], seed=1)
        first = corpus.utterance(["ae", "t"], speaker=male_speaker, rng=7)
        before = first.waveform.copy()
        with pytest.raises(ValueError):
            first.waveform *= 2.0
        later = corpus.utterance(["ae", "t"], speaker=male_speaker, rng=7)
        assert corpus.cache_hits == 1
        np.testing.assert_array_equal(later.waveform, before)

    def test_different_seeds_are_distinct_entries(self, male_speaker):
        corpus = SyntheticCorpus(speakers=[male_speaker], seed=1)
        a = corpus.utterance(["ae"], speaker=male_speaker, rng=7)
        b = corpus.utterance(["ae"], speaker=male_speaker, rng=8)
        assert corpus.cache_hits == 0
        assert not np.array_equal(a.waveform, b.waveform)

    def test_generator_rng_bypasses_cache(self, male_speaker):
        corpus = SyntheticCorpus(speakers=[male_speaker], seed=1)
        corpus.utterance(
            ["ae"], speaker=male_speaker, rng=np.random.default_rng(7)
        )
        assert corpus.cache_hits == 0
        assert corpus.cache_misses == 0

    def test_lru_eviction(self, male_speaker):
        corpus = SyntheticCorpus(
            speakers=[male_speaker], seed=1, utterance_cache_size=2
        )
        for seed in (1, 2, 3):
            corpus.utterance(["ae"], speaker=male_speaker, rng=seed)
        # Seed 1 was evicted; seeds 2 and 3 are still resident.
        corpus.utterance(["ae"], speaker=male_speaker, rng=2)
        corpus.utterance(["ae"], speaker=male_speaker, rng=1)
        assert corpus.cache_hits == 1
        assert corpus.cache_misses == 4

    def test_invalid_cache_size(self, male_speaker):
        with pytest.raises(ConfigurationError):
            SyntheticCorpus(
                speakers=[male_speaker], utterance_cache_size=-1
            )
