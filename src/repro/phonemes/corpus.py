"""Synthetic TIMIT-like corpus with time-aligned transcriptions.

This module substitutes for the TIMIT acoustic-phonetic corpus the paper
uses: it builds populations of phoneme sound segments (for the barrier
study and phoneme selection) and whole utterances with time-aligned
phonetic transcriptions (for training/evaluating the BRNN segmenter and
for generating voice commands).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.phonemes.inventory import get_phoneme
from repro.phonemes.speaker import SpeakerProfile, generate_speakers
from repro.phonemes.synthesis import PhonemeSynthesizer
from repro.utils.rng import SeedLike, as_generator, child_rng


@dataclass(frozen=True)
class PhonemeSegment:
    """One synthesized phoneme sound with its provenance."""

    symbol: str
    speaker_id: str
    waveform: np.ndarray
    sample_rate: float

    @property
    def duration_s(self) -> float:
        """Segment duration in seconds."""
        return self.waveform.size / self.sample_rate


@dataclass(frozen=True)
class PhonemeInterval:
    """Time-aligned phonetic label: ``symbol`` spans [start, end) seconds."""

    symbol: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"interval for {self.symbol!r} has non-positive length: "
                f"[{self.start_s}, {self.end_s})"
            )

    @property
    def duration_s(self) -> float:
        """Interval length in seconds."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class Utterance:
    """A synthesized utterance with its time-aligned transcription."""

    waveform: np.ndarray
    sample_rate: float
    alignment: Tuple[PhonemeInterval, ...]
    speaker_id: str
    text: str = ""

    @property
    def duration_s(self) -> float:
        """Utterance duration in seconds."""
        return self.waveform.size / self.sample_rate

    def labels_at(self, times_s: np.ndarray) -> List[str]:
        """Phoneme symbol active at each query time (``"sil"`` if none)."""
        labels = ["sil"] * len(times_s)
        for index, time_s in enumerate(times_s):
            for interval in self.alignment:
                if interval.start_s <= time_s < interval.end_s:
                    labels[index] = interval.symbol
                    break
        return labels


#: Crossfade between adjacent phonemes (seconds) for coarticulation.
_CROSSFADE_S = 0.008


class SyntheticCorpus:
    """Builds populations of phoneme segments and aligned utterances.

    Parameters
    ----------
    speakers:
        Speaker pool; generated (balanced male/female) when omitted.
    synthesizer:
        Shared phoneme synthesizer.
    seed:
        Base seed; all draws derive from it deterministically.
    utterance_cache_size:
        Capacity of the LRU cache for :meth:`utterance` results.  An
        utterance is cacheable only when its draw is fully pinned — the
        caller passes an *integer* seed and an explicit speaker — in
        which case re-synthesis is a pure recomputation.  Campaigns and
        factor sweeps repeat exactly such (phonemes, speaker, seed)
        triples, so the cache removes redundant synthesis without ever
        changing a result.  ``0`` disables caching.  A campaign unit
        reuses its utterances within the unit, which the default
        covers; a factor sweep reuses them one sweep value later and
        sizes its own cache (:func:`repro.eval.experiment.run_factor_sweep`).

    Examples
    --------
    >>> corpus = SyntheticCorpus(n_speakers=4, seed=11)
    >>> segments = corpus.phoneme_population("ae", n_segments=10)
    >>> len(segments)
    10
    """

    def __init__(
        self,
        speakers: Optional[Sequence[SpeakerProfile]] = None,
        synthesizer: Optional[PhonemeSynthesizer] = None,
        n_speakers: int = 10,
        seed: SeedLike = None,
        utterance_cache_size: int = 16,
    ) -> None:
        self._rng = as_generator(seed)
        if speakers is None:
            speakers = generate_speakers(
                n_speakers, rng=child_rng(self._rng, "speakers")
            )
        if not speakers:
            raise ConfigurationError("speaker pool must be non-empty")
        if utterance_cache_size < 0:
            raise ConfigurationError(
                "utterance_cache_size must be >= 0"
            )
        self.speakers: Tuple[SpeakerProfile, ...] = tuple(speakers)
        self.synthesizer = synthesizer or PhonemeSynthesizer()
        self._utterance_cache: "OrderedDict[tuple, Utterance]" = (
            OrderedDict()
        )
        self._utterance_cache_size = int(utterance_cache_size)
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def sample_rate(self) -> float:
        """Audio sampling rate of generated material."""
        return self.synthesizer.sample_rate

    def phoneme_population(
        self,
        symbol: str,
        n_segments: int,
        rng: SeedLike = None,
        duration_s: Optional[float] = None,
    ) -> List[PhonemeSegment]:
        """Synthesize ``n_segments`` renditions of one phoneme.

        Speakers rotate through the pool, mirroring the paper's "100
        sound segments from five males and five females" populations.
        ``duration_s`` fixes the segment length (spectral studies need
        enough samples for stable FFT estimates); the phoneme's natural
        duration range is used when omitted.
        """
        if n_segments <= 0:
            raise ConfigurationError(
                f"n_segments must be > 0, got {n_segments}"
            )
        generator = as_generator(rng) if rng is not None else self._rng
        segments = []
        for index in range(n_segments):
            speaker = self.speakers[index % len(self.speakers)]
            waveform = self.synthesizer.synthesize(
                symbol, speaker, duration_s=duration_s,
                rng=child_rng(generator, f"{symbol}{index}"),
            )
            segments.append(
                PhonemeSegment(
                    symbol=symbol,
                    speaker_id=speaker.speaker_id,
                    waveform=waveform,
                    sample_rate=self.sample_rate,
                )
            )
        return segments

    def phoneme_dataset(
        self,
        symbols: Sequence[str],
        n_per_phoneme: int,
        rng: SeedLike = None,
    ) -> Dict[str, List[PhonemeSegment]]:
        """Populations for many phonemes at once, keyed by symbol."""
        generator = as_generator(rng) if rng is not None else self._rng
        return {
            symbol: self.phoneme_population(
                symbol, n_per_phoneme,
                rng=child_rng(generator, f"pop-{symbol}"),
            )
            for symbol in symbols
        }

    def utterance(
        self,
        phoneme_sequence: Sequence[str],
        speaker: Optional[SpeakerProfile] = None,
        text: str = "",
        rng: SeedLike = None,
    ) -> Utterance:
        """Synthesize an utterance with a time-aligned transcription.

        Adjacent phonemes are joined with a short crossfade to mimic
        coarticulation; the alignment records each phoneme's interval in
        the final waveform (crossfade regions are attributed to the later
        phoneme, as TIMIT's single-boundary alignments do).

        When ``rng`` is an integer seed and ``speaker`` is given, the
        result is memoized in an LRU cache: the same (phonemes, speaker,
        seed) triple always synthesizes the same waveform, so repeated
        commands — across attack kinds, factor-sweep values, or campaign
        re-runs — are served without re-synthesis.
        """
        if not phoneme_sequence:
            raise ConfigurationError("phoneme_sequence must be non-empty")
        cache_key = None
        if (
            self._utterance_cache_size > 0
            and speaker is not None
            and isinstance(rng, (int, np.integer))
        ):
            cache_key = (tuple(phoneme_sequence), speaker, text, int(rng))
            cached = self._utterance_cache.get(cache_key)
            if cached is not None:
                self._utterance_cache.move_to_end(cache_key)
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        generator = as_generator(rng) if rng is not None else self._rng
        if speaker is None:
            speaker = self.speakers[
                int(generator.integers(0, len(self.speakers)))
            ]
        sample_rate = self.sample_rate
        fade = int(round(_CROSSFADE_S * sample_rate))

        pieces: List[np.ndarray] = []
        intervals: List[PhonemeInterval] = []
        total = 0
        for index, symbol in enumerate(phoneme_sequence):
            get_phoneme(symbol)  # Validate early with a clear error.
            piece = self.synthesizer.synthesize(
                symbol, speaker,
                rng=child_rng(generator, f"utt-{index}-{symbol}"),
            )
            start = total
            if pieces and fade > 0 and piece.size > fade:
                # Crossfade into the previous piece; the overlap region
                # is attributed to this (later) phoneme, as in TIMIT's
                # single-boundary alignments.
                ramp = np.linspace(0.0, 1.0, fade)
                overlap = (
                    pieces[-1][-fade:] * (1 - ramp) + piece[:fade] * ramp
                )
                pieces[-1] = np.concatenate([pieces[-1][:-fade], overlap])
                piece = piece[fade:]
                start = total - fade
                previous = intervals[-1]
                intervals[-1] = PhonemeInterval(
                    symbol=previous.symbol,
                    start_s=previous.start_s,
                    end_s=start / sample_rate,
                )
            pieces.append(piece)
            total += piece.size
            intervals.append(
                PhonemeInterval(
                    symbol=symbol,
                    start_s=start / sample_rate,
                    end_s=total / sample_rate,
                )
            )
        waveform = np.concatenate(pieces)
        result = Utterance(
            waveform=waveform,
            sample_rate=sample_rate,
            alignment=tuple(intervals),
            speaker_id=speaker.speaker_id,
            text=text,
        )
        if cache_key is not None:
            # Every hit shares this array: freeze it, so an in-place
            # write raises instead of poisoning later hits.
            waveform.flags.writeable = False
            self._utterance_cache[cache_key] = result
            while len(self._utterance_cache) > self._utterance_cache_size:
                self._utterance_cache.popitem(last=False)
        return result
