"""Barrier-effect-sensitive phoneme segmentation (paper § V-B).

A bidirectional-LSTM detector runs over 14th-order MFCC frames (25 ms
window, 10 ms hop, 40 mel channels limited to 0–900 Hz so thru-barrier
sounds remain featurizable) and labels each frame as *effective*
(barrier-effect-sensitive phoneme) or not.  Consecutive positive frames
are merged into segments, which are then cut out of the recording and
concatenated for cross-domain sensing.

The segmenter trains on labelled phoneme segments drawn from the
synthetic corpus (:meth:`PhonemeSegmenter.train_on_phoneme_segments`):
every frame is labelled 1 when its phoneme is sensitive.  An *oracle*
mode that segments straight from alignments is provided for ablations.
"""

from __future__ import annotations

import copy
import io
import itertools
import threading
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.mel import mfcc
from repro.errors import ConfigurationError, ModelError
from repro.nn.model import (
    SequenceClassifier,
    pack_param_arrays,
    restore_param_arrays,
)
from repro.phonemes.corpus import SyntheticCorpus, Utterance
from repro.phonemes.inventory import PAPER_SELECTED_PHONEMES, get_phoneme
from repro.store import artifact_fingerprint, load_or_create
from repro.utils.rng import SeedLike, as_generator, child_rng
from repro.utils.validation import ensure_1d

# Process-wide count of segmenter training runs.  The artifact-store
# tests and ``make store-smoke`` assert warm starts perform *zero*
# training by reading this counter before and after service startup.
_TRAINING_RUNS = 0
_TRAINING_RUNS_LOCK = threading.Lock()

#: Phoneme segments joined into one pseudo-utterance training example
#: by :meth:`PhonemeSegmenter.train_on_phoneme_segments`.
SEGMENTS_PER_EXAMPLE = 3


def training_run_count() -> int:
    """Segmenter training runs performed by this process so far."""
    with _TRAINING_RUNS_LOCK:
        return _TRAINING_RUNS


def _note_training_run() -> None:
    global _TRAINING_RUNS
    with _TRAINING_RUNS_LOCK:
        _TRAINING_RUNS += 1


def mask_to_segments(
    mask: np.ndarray,
    hop_s: float,
    frame_length_s: float,
    duration_s: float,
    merge_gap_s: float = 0.0,
    min_segment_s: float = 0.0,
) -> List[Tuple[float, float]]:
    """Convert a per-frame boolean mask into merged time segments.

    A run of positive frames ``[first, last]`` spans
    ``first * hop_s`` … ``last * hop_s + frame_length_s`` — the window
    of the *last positive frame*, not of the first negative one (which
    would overshoot every end by one hop), clamped to ``duration_s`` so
    a run reaching the final (possibly zero-padded) analysis frame can
    never extend past the recording.  Runs separated by gaps shorter
    than ``merge_gap_s`` are merged; merged segments shorter than
    ``min_segment_s`` are discarded as spurious.
    """
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size == 0 or duration_s <= 0.0:
        return []
    edges = np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    run_starts = np.flatnonzero(edges == 1)
    run_lasts = np.flatnonzero(edges == -1) - 1  # last positive index
    merged: List[Tuple[float, float]] = []
    for first, last in zip(run_starts, run_lasts):
        begin = float(first * hop_s)
        end = float(min(last * hop_s + frame_length_s, duration_s))
        if end <= begin:
            continue
        if merged and begin - merged[-1][1] <= merge_gap_s:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((begin, end))
    return [
        (begin, end)
        for begin, end in merged
        if end - begin >= min_segment_s
    ]


@dataclass
class SegmenterConfig:
    """Segmentation parameters (defaults follow the paper).

    Attributes
    ----------
    n_mfcc:
        Cepstral coefficients per frame (14).
    n_filters:
        Mel filterbank channels (40).
    frame_length_s / hop_length_s:
        Analysis window and hop (25 ms / 10 ms).
    mfcc_high_hz:
        Upper filterbank edge (900 Hz — informative even thru barriers).
    hidden_dim:
        LSTM units per direction (64).
    decision_threshold:
        Frame probability above which a frame counts as effective.
    min_segment_s:
        Segments shorter than this are discarded as spurious.
    merge_gap_s:
        Positive runs separated by gaps shorter than this are merged.
    """

    n_mfcc: int = 14
    n_filters: int = 40
    frame_length_s: float = 0.025
    hop_length_s: float = 0.010
    mfcc_high_hz: float = 900.0
    hidden_dim: int = 64
    decision_threshold: float = 0.5
    min_segment_s: float = 0.03
    merge_gap_s: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.decision_threshold < 1.0:
            raise ConfigurationError(
                "decision_threshold must lie in (0, 1)"
            )
        # Written as ``not x > 0`` / ``not x >= 0`` so NaN is rejected.
        if not (self.frame_length_s > 0 and self.hop_length_s > 0):
            raise ConfigurationError("frame and hop lengths must be > 0")
        if not (self.min_segment_s >= 0 and self.merge_gap_s >= 0):
            raise ConfigurationError("durations must be >= 0")


class PhonemeSegmenter:
    """Detects and extracts barrier-effect-sensitive phoneme segments.

    Parameters
    ----------
    sensitive_phonemes:
        The phoneme set to detect (defaults to the paper's 31).
    config:
        Feature/model/decision parameters.
    sample_rate:
        Audio sampling rate.
    rng:
        Seed for model initialization.
    """

    def __init__(
        self,
        sensitive_phonemes: Iterable[str] = PAPER_SELECTED_PHONEMES,
        config: Optional[SegmenterConfig] = None,
        sample_rate: float = 16_000.0,
        rng: SeedLike = None,
    ) -> None:
        self.sensitive_phonemes: FrozenSet[str] = frozenset(
            sensitive_phonemes
        )
        if not self.sensitive_phonemes:
            raise ConfigurationError("sensitive phoneme set is empty")
        for symbol in self.sensitive_phonemes:
            get_phoneme(symbol)  # Validate symbols early.
        self.config = config or SegmenterConfig()
        self.sample_rate = float(sample_rate)
        self._rng = as_generator(rng)
        self.model = SequenceClassifier(
            input_dim=self.config.n_mfcc,
            hidden_dim=self.config.hidden_dim,
            n_classes=2,
            rng=child_rng(self._rng, "model"),
        )
        self._feature_mean: Optional[np.ndarray] = None
        self._feature_std: Optional[np.ndarray] = None
        self._trained = False

    # ------------------------------------------------------------------
    # Features and labels
    # ------------------------------------------------------------------

    def features(self, audio: np.ndarray) -> np.ndarray:
        """MFCC frame features for an audio recording."""
        samples = ensure_1d(audio, "audio")
        config = self.config
        coefficients = mfcc(
            samples,
            self.sample_rate,
            n_mfcc=config.n_mfcc,
            n_filters=config.n_filters,
            frame_length_s=config.frame_length_s,
            hop_length_s=config.hop_length_s,
            high_hz=config.mfcc_high_hz,
        )
        if self._feature_mean is not None:
            coefficients = (
                coefficients - self._feature_mean
            ) / self._feature_std
        return coefficients

    def frame_times(self, n_frames: int) -> np.ndarray:
        """Center time (s) of each analysis frame."""
        config = self.config
        return (
            np.arange(n_frames) * config.hop_length_s
            + config.frame_length_s / 2.0
        )

    def frame_labels(self, utterance: Utterance) -> np.ndarray:
        """Ground-truth binary labels per frame from the alignment."""
        n_frames = self.features(utterance.waveform).shape[0]
        times = self.frame_times(n_frames)
        symbols = utterance.labels_at(times)
        return np.array(
            [
                1 if symbol in self.sensitive_phonemes else 0
                for symbol in symbols
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train_on_phoneme_segments(
        self,
        corpus: SyntheticCorpus,
        n_per_phoneme: int = 12,
        symbols: Optional[Sequence[str]] = None,
        epochs: int = 12,
        learning_rate: float = 1e-2,
        rng: SeedLike = None,
    ) -> List[float]:
        """Train on labelled phoneme sound segments (the paper's recipe).

        § V-B trains the BRNN on TIMIT phoneme segments, every frame
        labelled 1 when its phoneme is barrier-effect sensitive and 0
        otherwise; silence segments teach pauses to classify as 0.  The
        segments are shuffled, and the examples alternate between one
        isolated segment and a pseudo-utterance of
        :data:`SEGMENTS_PER_EXAMPLE` joined segments.  Trained on
        isolated segments only, the BLSTM learned to mark every frame
        of a whole utterance effective; trained on pseudo-utterances
        only, it lost accuracy on isolated thru-barrier segments (the
        § V-B protocol of :meth:`classify_segment`).  Each example is
        rendered clean, in-room recorded or thru-barrier in turn
        (channel matching).
        """
        from repro.acoustics.barrier import Barrier
        from repro.acoustics.materials import GLASS_WINDOW
        from repro.acoustics.microphone import (
            Microphone,
            SMART_SPEAKER_MIC,
        )
        from repro.acoustics.propagation import propagate
        from repro.acoustics.spl import db_to_gain
        from repro.phonemes.inventory import COMMON_PHONEMES

        _note_training_run()
        generator = as_generator(rng)
        if symbols is None:
            symbols = list(COMMON_PHONEMES) + ["sp", "sil", "pau"]
        microphone = Microphone(SMART_SPEAKER_MIC)
        barrier = Barrier(GLASS_WINDOW)

        sources: List[np.ndarray] = []
        source_labels: List[int] = []
        for symbol in symbols:
            label = 1 if symbol in self.sensitive_phonemes else 0
            population = corpus.phoneme_population(
                symbol, n_per_phoneme,
                rng=child_rng(generator, f"pop-{symbol}"),
            )
            for segment in population:
                # Natural playback levels around 70-85 dB speech.
                gain = db_to_gain(float(generator.uniform(5.0, 20.0)))
                sources.append(segment.waveform * gain)
                source_labels.append(label)

        order = child_rng(generator, "order").permutation(len(sources))
        sizes = itertools.cycle((1, SEGMENTS_PER_EXAMPLE))
        starts = [0]
        while starts[-1] < order.size:
            starts.append(starts[-1] + next(sizes))
        waveforms: List[np.ndarray] = []
        # Per example: end time (s) of each joined segment, and labels.
        members: List[Tuple[np.ndarray, np.ndarray]] = []
        for group, (start, stop) in enumerate(zip(starts, starts[1:])):
            indices = order[start:stop]
            source = np.concatenate([sources[i] for i in indices])
            ends = np.cumsum([sources[i].size for i in indices])
            members.append(
                (
                    ends / self.sample_rate,
                    np.array([source_labels[i] for i in indices]),
                )
            )
            variant = group % 3
            if variant == 0:
                rendered = source
            elif variant == 1:
                rendered = microphone.capture(
                    propagate(source, self.sample_rate, 2.0),
                    self.sample_rate,
                    rng=child_rng(generator, f"m-{group}"),
                )
            else:
                rendered = microphone.capture(
                    propagate(
                        barrier.transmit(
                            source, self.sample_rate,
                            rng=child_rng(generator, f"b-{group}"),
                        ),
                        self.sample_rate,
                        2.0,
                    ),
                    self.sample_rate,
                    rng=child_rng(generator, f"mb-{group}"),
                )
            waveforms.append(rendered)

        raw_features = [
            mfcc(
                waveform,
                self.sample_rate,
                n_mfcc=self.config.n_mfcc,
                n_filters=self.config.n_filters,
                frame_length_s=self.config.frame_length_s,
                hop_length_s=self.config.hop_length_s,
                high_hz=self.config.mfcc_high_hz,
            )
            for waveform in waveforms
        ]
        stacked = np.vstack(raw_features)
        self._feature_mean = stacked.mean(axis=0)
        self._feature_std = stacked.std(axis=0) + 1e-8
        features = [
            (matrix - self._feature_mean) / self._feature_std
            for matrix in raw_features
        ]
        labels = []
        for matrix, (ends_s, member_labels) in zip(features, members):
            owner = np.searchsorted(
                ends_s, self.frame_times(matrix.shape[0]), side="right"
            )
            labels.append(
                member_labels[np.minimum(owner, member_labels.size - 1)]
                .astype(np.int64)
            )
        history = self.model.fit(
            features,
            labels,
            epochs=epochs,
            batch_size=16,
            learning_rate=learning_rate,
            rng=child_rng(generator, "fit"),
        )
        self._trained = True
        return history

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def classify_segment(self, audio: np.ndarray) -> bool:
        """Classify one phoneme sound segment as effective or not.

        This is the paper's § V-B evaluation protocol: a whole phoneme
        segment is replayed and classified (94 % accuracy without a
        barrier, 91 % with).  The decision pools frame probabilities
        over the segment.
        """
        probabilities = self.frame_probabilities(audio)
        return bool(
            float(np.mean(probabilities)) >= self.config.decision_threshold
        )

    def frame_probabilities(self, audio: np.ndarray) -> np.ndarray:
        """Per-frame probability that the frame is an effective phoneme.

        Delegates to :meth:`frame_probabilities_batch` with a
        single-element batch, so the per-utterance and batched paths
        are one implementation — the parity contract between them is
        structural, not coincidental.
        """
        return self.frame_probabilities_batch([audio])[0]

    def frame_probabilities_batch(
        self, audios: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Per-frame effective-phoneme probabilities for many recordings.

        Variable-length MFCC sequences are right-padded into one
        ``(batch, time, features)`` tensor with a frame-validity mask
        and scored by a **single** masked BLSTM forward pass — the
        vectorized fast path the serving layer's micro-batches ride.
        Both LSTM directions run in one time loop
        (:func:`repro.nn.lstm.stacked_inference`); when every row has
        the same length the all-valid mask is dropped.

        Parity contract: element ``i`` of the result is bitwise equal
        to ``frame_probabilities(audios[i])`` for any batch size and any
        mix of lengths (the masked recurrence freezes state across
        padding, and every matmul runs on the same BLAS kernel family
        regardless of batch size — see
        :meth:`repro.nn.model.SequenceClassifier.forward`).

        Returns one 1-D probability array per input, in order.
        """
        if not self._trained:
            raise ModelError(
                "segmenter is untrained; call train() or use "
                "oracle_segments() for alignment-based segmentation"
            )
        audios = list(audios)
        if not audios:
            return []
        features = [self.features(audio) for audio in audios]
        lengths = [matrix.shape[0] for matrix in features]
        max_time = max(lengths)
        batch = len(features)
        x = np.zeros((batch, max_time, self.config.n_mfcc))
        mask = np.zeros((batch, max_time), dtype=bool)
        for index, matrix in enumerate(features):
            x[index, : matrix.shape[0]] = matrix
            mask[index, : matrix.shape[0]] = True
        probabilities = self.model.predict_proba(x, mask=mask)
        return [
            probabilities[index, :length, 1]
            for index, length in enumerate(lengths)
        ]

    def segments(self, audio: np.ndarray) -> List[Tuple[float, float]]:
        """Sensitive-phoneme segments: :meth:`segments_batch` of one."""
        return self.segments_batch([audio])[0]

    def segments_batch(
        self, audios: Sequence[np.ndarray]
    ) -> List[List[Tuple[float, float]]]:
        """Detected segments for many recordings via one BLSTM forward.

        One list of ``(start_s, end_s)`` pairs per input, in order,
        with the same parity contract as
        :meth:`frame_probabilities_batch`.
        """
        audios = [ensure_1d(audio, "audio") for audio in audios]
        return [
            self._mask_to_segments(
                probabilities >= self.config.decision_threshold,
                samples.size / self.sample_rate,
            )
            for samples, probabilities in zip(
                audios,
                self.frame_probabilities_batch(audios),
            )
        ]

    def with_sensitive_subset(
        self, symbols: Iterable[str]
    ) -> "PhonemeSegmenter":
        """A shallow clone restricted to a subset of the sensitive set.

        Used by the hardened pipeline
        (:class:`~repro.core.hardening.HardeningConfig`) to analyze a
        per-session random subset of the sensitive phonemes.  The clone
        shares this segmenter's trained model and feature statistics —
        inference is read-only, so sharing is safe and the clone costs
        O(1) — but filters alignments (:meth:`oracle_segments`,
        :meth:`frame_labels`) through the subset.  The subset must be a
        non-empty subset of the current sensitive set; anything else
        raises :class:`ConfigurationError`.
        """
        subset = frozenset(symbols)
        if not subset:
            raise ConfigurationError("sensitive subset is empty")
        unknown = subset - self.sensitive_phonemes
        if unknown:
            raise ConfigurationError(
                "subset contains phonemes outside the sensitive set: "
                f"{sorted(unknown)}"
            )
        clone = copy.copy(self)
        clone.sensitive_phonemes = subset
        return clone

    def oracle_segments(
        self, utterance: Utterance
    ) -> List[Tuple[float, float]]:
        """Ground-truth segments straight from the alignment (ablation)."""
        merged: List[Tuple[float, float]] = []
        for interval in utterance.alignment:
            if interval.symbol not in self.sensitive_phonemes:
                continue
            if merged and interval.start_s - merged[-1][1] <= (
                self.config.merge_gap_s
            ):
                merged[-1] = (merged[-1][0], interval.end_s)
            else:
                merged.append((interval.start_s, interval.end_s))
        return [
            (start, end)
            for start, end in merged
            if end - start >= self.config.min_segment_s
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Serialize model weights + feature statistics to ``.npz``.

        ``path`` may be a filesystem path or a binary file object (the
        artifact store serializes into memory buffers).
        """
        if not self._trained:
            raise ModelError("cannot save an untrained segmenter")
        np.savez(
            path,
            **pack_param_arrays(
                self.model.params,
                self.model.input_dim,
                self.model.hidden_dim,
                self.model.n_classes,
                extras={
                    "_feature_mean": self._feature_mean,
                    "_feature_std": self._feature_std,
                },
            ),
        )

    def load_weights(self, path) -> None:
        """Restore weights + feature statistics saved by :meth:`save`.

        The archived (input_dim, hidden_dim, n_classes) triple is
        validated against this segmenter's live model; a mismatch
        raises :class:`ModelError` instead of silently loading weights
        trained for a different architecture.
        """
        with np.load(path) as archive:
            restore_param_arrays(
                archive,
                self.model.params,
                path,
                expected_meta=(
                    self.model.input_dim,
                    self.model.hidden_dim,
                    self.model.n_classes,
                ),
            )
            for name in ("_feature_mean", "_feature_std"):
                if name not in archive:
                    raise ModelError(
                        f"missing feature statistics {name!r} in {path}"
                    )
            self._feature_mean = archive["_feature_mean"]
            self._feature_std = archive["_feature_std"]
        self.model._trained = True
        self._trained = True

    def _mask_to_segments(
        self, mask: np.ndarray, duration_s: float
    ) -> List[Tuple[float, float]]:
        config = self.config
        return mask_to_segments(
            mask,
            hop_s=config.hop_length_s,
            frame_length_s=config.frame_length_s,
            duration_s=duration_s,
            merge_gap_s=config.merge_gap_s,
            min_segment_s=config.min_segment_s,
        )


def train_default_segmenter(
    seed: SeedLike = None,
    n_speakers: int = 8,
    n_per_phoneme: int = 12,
    epochs: int = 12,
) -> PhonemeSegmenter:
    """Train a ready-to-use segmenter with the paper's recipe.

    Takes a few seconds on a laptop; used by examples and benchmarks
    that need the full online pipeline rather than oracle segmentation.
    Callers that construct many pipelines from the same seed should use
    :func:`default_segmenter`, which memoizes the trained model.
    """
    generator = as_generator(seed)
    corpus = SyntheticCorpus(
        n_speakers=n_speakers, seed=child_rng(generator, "corpus")
    )
    segmenter = PhonemeSegmenter(rng=child_rng(generator, "model"))
    segmenter.train_on_phoneme_segments(
        corpus,
        n_per_phoneme=n_per_phoneme,
        epochs=epochs,
        rng=child_rng(generator, "train"),
    )
    return segmenter


# Trained segmenters keyed by their full training recipe.  Training is
# deterministic in the integer seed, so a cached model is bitwise
# identical to a freshly trained one — the warm path changes cost, not
# scores (pinned by tests/test_serve_warm.py).
_WARM_SEGMENTERS: dict = {}
_WARM_LOCK = threading.Lock()
# Per-recipe training locks.  Concurrent misses on the *same* recipe
# must not each train a full BLSTM (and double-count _TRAINING_RUNS);
# concurrent misses on *different* recipes must not serialize behind
# one global lock while a slow training runs.
_RECIPE_LOCKS: dict = {}


def default_segmenter(
    seed: Optional[int] = None,
    n_speakers: int = 8,
    n_per_phoneme: int = 12,
    epochs: int = 12,
    store=None,
) -> PhonemeSegmenter:
    """Memoized :func:`train_default_segmenter`.

    Repeated calls with the same recipe return the *same* trained
    instance, so warm worker pools, examples, and CLI commands stop
    retraining the bidirectional LSTM per invocation.  Inference is
    read-only (the forward pass never consumes model state), so sharing
    one instance across threads is safe.  Only integer (or ``None``)
    seeds are cacheable; pass a ``Generator`` to
    :func:`train_default_segmenter` directly when a one-off model is
    wanted.

    ``store`` (a store directory path) makes misses in the in-process
    memo go through :func:`load_or_train_segmenter`: a published entry
    turns cold start into a weight load, and a miss trains then
    publishes for the next process.
    """
    if seed is not None:
        seed = int(seed)
    key = (seed, int(n_speakers), int(n_per_phoneme), int(epochs))
    with _WARM_LOCK:
        cached = _WARM_SEGMENTERS.get(key)
        if cached is not None:
            return cached
        recipe_lock = _RECIPE_LOCKS.setdefault(key, threading.Lock())
    # Serialize per recipe: exactly one thread trains (or store-loads)
    # a given recipe; the losers of the race block here and then hit
    # the memo instead of redundantly training a full BLSTM each.
    with recipe_lock:
        with _WARM_LOCK:
            cached = _WARM_SEGMENTERS.get(key)
        if cached is not None:
            return cached
        recipe = dict(
            seed=seed,
            n_speakers=n_speakers,
            n_per_phoneme=n_per_phoneme,
            epochs=epochs,
        )
        if store is not None:
            segmenter = load_or_train_segmenter(store, **recipe)
        else:
            segmenter = train_default_segmenter(**recipe)
        with _WARM_LOCK:
            _WARM_SEGMENTERS[key] = segmenter
        return segmenter


def load_or_train_segmenter(
    store,
    seed: Optional[int] = None,
    n_speakers: int = 8,
    n_per_phoneme: int = 12,
    epochs: int = 12,
) -> PhonemeSegmenter:
    """:func:`train_default_segmenter` through the store at ``store``.

    The recipe is fingerprinted; a verified entry loads through
    :meth:`PhonemeSegmenter.load_weights`, and a miss trains (once
    across every process racing on the entry) and publishes the
    :meth:`PhonemeSegmenter.save` archive.  Training is deterministic
    in the integer seed, so a loaded segmenter is bitwise identical to
    a freshly trained one: the store changes cost, never scores.  No
    in-process memo; :func:`default_segmenter` adds that.
    """
    recipe = dict(
        seed=None if seed is None else int(seed),
        n_speakers=int(n_speakers),
        n_per_phoneme=int(n_per_phoneme),
        epochs=int(epochs),
    )
    fingerprint = artifact_fingerprint(
        "segmenter",
        config=SegmenterConfig(),
        sensitive_phonemes=sorted(PAPER_SELECTED_PHONEMES),
        sample_rate=16_000.0,
        **recipe,
    )

    def produce() -> bytes:
        buffer = io.BytesIO()
        train_default_segmenter(**recipe).save(buffer)
        return buffer.getvalue()

    return load_or_create(store, fingerprint, produce, _decode_segmenter)


def _decode_segmenter(payload: bytes) -> PhonemeSegmenter:
    segmenter = PhonemeSegmenter()
    try:
        segmenter.load_weights(io.BytesIO(payload))
    except (OSError, ValueError, KeyError, EOFError) as error:
        raise ModelError(
            f"segmenter payload is not a readable archive: {error}"
        ) from error
    return segmenter


def concatenate_segments(
    audio: np.ndarray,
    segments: Sequence[Tuple[float, float]],
    sample_rate: float,
    fade_s: float = 0.008,
) -> np.ndarray:
    """Cut ``segments`` out of ``audio`` and concatenate them.

    Each segment gets a short raised-cosine fade-in/out so the
    concatenation boundaries do not inject broadband clicks into the
    replay.  Returns an empty array when no segments are given (the
    caller treats that as "nothing to analyze").
    """
    samples = ensure_1d(audio, "audio")
    fade = max(int(round(fade_s * sample_rate)), 0)
    pieces = []
    for start_s, end_s in segments:
        begin = max(int(round(start_s * sample_rate)), 0)
        end = min(int(round(end_s * sample_rate)), samples.size)
        if end <= begin:
            continue
        piece = samples[begin:end].copy()
        ramp_length = min(fade, piece.size // 2)
        if ramp_length > 0:
            ramp = 0.5 * (
                1.0 - np.cos(np.pi * np.arange(ramp_length) / ramp_length)
            )
            piece[:ramp_length] *= ramp
            piece[-ramp_length:] *= ramp[::-1]
        pieces.append(piece)
    if not pieces:
        return np.zeros(0)
    return np.concatenate(pieces)
