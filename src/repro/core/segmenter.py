"""The ``Segmenter`` protocol — the interface the pipeline consumes.

:class:`~repro.core.pipeline.DefensePipeline`, the serving layer, and
the evaluation harness never depend on *how* sensitive-phoneme segments
are found; they call exactly four methods: per-recording and batched
frame probabilities, and per-recording and batched segment extraction.
This module names that contract so segmentation backends are pluggable:

``paper`` / ``fast``
    :class:`~repro.core.segmentation.PhonemeSegmenter` — the paper's
    trained bidirectional-LSTM frame classifier (§ V-B).  The only
    trained component of the defense; the reason the artifact store's
    cold-start machinery exists.
``rd``
    :class:`~repro.core.rate_distortion.RateDistortionSegmenter` — a
    training-free agglomerative segmenter (Qiao et al. 2008) followed
    by a spectral sensitive/non-sensitive rule.  Zero training runs,
    instant worker spin-up.

Persistence (``save`` / ``load_weights``) is deliberately *not* part of
the core protocol: it only makes sense for backends with trained state,
and the artifact store talks to those through the narrower
:class:`PersistentSegmenter` extension.

The module also hosts :func:`mask_to_segments`, the one shared
implementation of the frame-mask → time-segment conversion (merge
gaps, drop spurious runs, clamp to the recording duration) so every
backend emits identically-shaped, in-range segments.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np


@runtime_checkable
class Segmenter(Protocol):
    """What the defense pipeline requires of a segmentation backend.

    Implementations must guarantee two invariants the pipeline and its
    tests rely on:

    * every emitted ``(start_s, end_s)`` pair satisfies
      ``0 <= start_s < end_s <= duration`` of the analyzed recording;
    * ``segments_batch`` / ``frame_probabilities_batch`` return, per
      element, the same result as the sequential method on that element.
    """

    def frame_probabilities(self, audio: np.ndarray) -> np.ndarray:
        """Per-frame probability that the frame is an effective phoneme."""
        ...

    def frame_probabilities_batch(
        self, audios: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Per-frame probabilities for many recordings, in order."""
        ...

    def segments(self, audio: np.ndarray) -> List[Tuple[float, float]]:
        """Sensitive-phoneme segments as ``(start_s, end_s)`` pairs."""
        ...

    def segments_batch(
        self, audios: Sequence[np.ndarray]
    ) -> List[List[Tuple[float, float]]]:
        """Detected segments for many recordings, in order."""
        ...


@runtime_checkable
class PersistentSegmenter(Segmenter, Protocol):
    """A segmenter whose (trained) state round-trips through bytes.

    The artifact store and model registry persist backends through this
    extension; training-free backends need not implement it — their
    recipe *is* their state.
    """

    def save(self, path) -> None:
        """Serialize state to ``path`` (filesystem path or file object)."""
        ...

    def load_weights(self, path) -> None:
        """Restore state saved by :meth:`save`."""
        ...


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
