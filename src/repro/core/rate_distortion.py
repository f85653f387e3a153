"""Training-free rate-distortion phoneme segmentation.

The defense is "training-free" everywhere except the BLSTM phoneme
segmenter — the sole reason the artifact store's cold-start machinery
exists.  This module removes that exception: a rate-distortion
agglomerative segmenter after Qiao et al. 2008 ("Unsupervised optimal
phoneme segmentation") finds phoneme-like boundaries with no model at
all, and a spectral rule then classifies each found segment as
barrier-effect sensitive or not using the same 0–900 Hz observation
that drives the paper's offline phoneme selection (§ V-A): sensitive
phonemes concentrate their energy in the low band that survives
barriers and excites the accelerometer, while the rejected fricatives
(/s/, /z/, /sh/, /th/) live above it.

Algorithm
---------
1. **Front end** — the same 14th-order MFCC frames as the BLSTM backend
   (25 ms window, 10 ms hop, 40 mel channels limited to 0–900 Hz).
2. **Agglomerative merging** — start from one segment per frame and
   repeatedly merge the adjacent pair with the smallest rate-distortion
   increase until the duration-derived segment budget is met.  The
   distortion of a segment ``[s, e)`` is ``(e - s) · log det(I + Σ)``
   with ``Σ`` the segment's feature covariance.  First and second
   cumulative moments (prefix sums of ``x`` and ``x xᵀ``) make any
   segment's mean/covariance an O(1) array expression, so each merge
   step is a constant number of vectorized NumPy ops — batched
   ``slogdet`` over the touched candidates, no per-boundary Python
   loops over frames.
3. **Sensitivity rule** — per frame, the fraction of (full-band)
   spectral power below ``low_band_hz`` gated by a soft speech-activity
   weight; per segment, the mean frame score.  Frames inherit their
   segment's pooled score, which is what
   :meth:`RateDistortionSegmenter.frame_probabilities` reports, so the
   probability → mask → segments path is shared with the BLSTM backend
   (:func:`repro.core.segmenter.mask_to_segments`).

Zero training runs: constructing and using this backend never touches
:func:`repro.core.segmentation.training_run_count`, which is how the
serving layer's instant spin-up contract is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.segmenter import mask_to_segments
from repro.dsp.mel import mfcc
from repro.dsp.windows import frame_signal, get_window
from repro.errors import ConfigurationError
from repro.utils.validation import ensure_1d


@dataclass
class RateDistortionConfig:
    """Parameters of the rate-distortion backend.

    Attributes
    ----------
    n_mfcc / n_filters / frame_length_s / hop_length_s / mfcc_high_hz:
        MFCC front end — identical defaults to
        :class:`~repro.core.segmentation.SegmenterConfig` so the two
        backends see the same frames.
    target_segment_s:
        Expected phoneme duration; the agglomerative merge stops at
        ``round(duration / target_segment_s)`` segments.
    covariance_ridge:
        Diagonal regularizer added to segment covariances before the
        log-determinant (numerical stability for near-degenerate
        segments).
    low_band_hz:
        Band edge of the sensitivity rule: the fraction of spectral
        power at or below this frequency is the frame's raw score.
    activity_range_db:
        Frames quieter than the recording's loudest frame by more than
        this are soft-gated toward zero (silence must not classify as
        sensitive).
    activity_softness_db:
        Width of the soft activity gate (a logistic in dB).
    decision_threshold:
        Pooled segment score at or above which a segment counts as
        sensitive.
    min_segment_s / merge_gap_s:
        Post-processing, as in the BLSTM backend: merge nearby runs,
        drop spurious short ones.
    """

    n_mfcc: int = 14
    n_filters: int = 40
    frame_length_s: float = 0.025
    hop_length_s: float = 0.010
    mfcc_high_hz: float = 900.0
    target_segment_s: float = 0.08
    covariance_ridge: float = 1e-6
    low_band_hz: float = 900.0
    activity_range_db: float = 25.0
    activity_softness_db: float = 3.0
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
        if not self.target_segment_s > 0:
            raise ConfigurationError("target_segment_s must be > 0")
        if not self.covariance_ridge >= 0:
            raise ConfigurationError("covariance_ridge must be >= 0")
        if not (self.min_segment_s >= 0 and self.merge_gap_s >= 0):
            raise ConfigurationError("durations must be >= 0")
        if not (self.activity_range_db > 0 and self.activity_softness_db > 0):
            raise ConfigurationError("activity gate widths must be > 0")


class RateDistortionSegmenter:
    """Training-free sensitive-phoneme segmenter (Qiao et al. 2008).

    Satisfies the :class:`~repro.core.segmenter.Segmenter` protocol.
    Construction is O(1): there is nothing to train, nothing to load,
    and nothing for the artifact store to persist — the configuration
    *is* the model, which is why store fingerprints for this backend
    are config-only.

    Parameters
    ----------
    config:
        Algorithm parameters.
    sample_rate:
        Audio sampling rate.
    """

    def __init__(
        self,
        config: Optional[RateDistortionConfig] = None,
        sample_rate: float = 16_000.0,
    ) -> None:
        self.config = config or RateDistortionConfig()
        if sample_rate <= 0:
            raise ConfigurationError("sample_rate must be > 0")
        self.sample_rate = float(sample_rate)

    # ------------------------------------------------------------------
    # Front end
    # ------------------------------------------------------------------

    def features(self, audio: np.ndarray) -> np.ndarray:
        """MFCC frame features (same framing as the BLSTM backend)."""
        samples = ensure_1d(audio, "audio")
        config = self.config
        return mfcc(
            samples,
            self.sample_rate,
            n_mfcc=config.n_mfcc,
            n_filters=config.n_filters,
            frame_length_s=config.frame_length_s,
            hop_length_s=config.hop_length_s,
            high_hz=config.mfcc_high_hz,
        )

    def frame_times(self, n_frames: int) -> np.ndarray:
        """Center time (s) of each analysis frame."""
        config = self.config
        return (
            np.arange(n_frames) * config.hop_length_s
            + config.frame_length_s / 2.0
        )

    def _frame_power(self, audio: np.ndarray) -> np.ndarray:
        """Full-band power spectra, one row per MFCC frame.

        Mirrors the framing of :func:`repro.dsp.mel.mfcc` exactly
        (same frame/hop/padding/window/FFT length) so the sensitivity
        rule is aligned frame-for-frame with the RD features.
        """
        samples = ensure_1d(audio, "audio")
        config = self.config
        frame_length = max(
            int(round(config.frame_length_s * self.sample_rate)), 1
        )
        hop_length = max(
            int(round(config.hop_length_s * self.sample_rate)), 1
        )
        frames = frame_signal(
            samples, frame_length, hop_length, pad_final=True
        )
        tapered = frames * get_window("hamming", frame_length)[np.newaxis, :]
        n_fft = 1
        while n_fft < frame_length:
            n_fft *= 2
        spectrum = np.fft.rfft(tapered, n=n_fft, axis=1)
        return spectrum.real**2 + spectrum.imag**2

    # ------------------------------------------------------------------
    # Rate-distortion agglomerative merging
    # ------------------------------------------------------------------

    @staticmethod
    def _cumulative_moments(
        features: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Prefix sums of first and second feature moments.

        ``g1[i]`` is the sum of the first ``i`` feature vectors and
        ``g2[i]`` the sum of their outer products, so any segment's
        mean and covariance are O(1) differences of two prefix rows.
        """
        n_frames, dim = features.shape
        g1 = np.zeros((n_frames + 1, dim))
        np.cumsum(features, axis=0, out=g1[1:])
        outer = features[:, :, np.newaxis] * features[:, np.newaxis, :]
        g2 = np.zeros((n_frames + 1, dim, dim))
        np.cumsum(outer, axis=0, out=g2[1:])
        return g1, g2

    def _segment_distortions(
        self,
        g1: np.ndarray,
        g2: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> np.ndarray:
        """Rate-distortion ``len · log det(I + Σ)`` of many segments.

        ``starts``/``ends`` are parallel arrays of frame boundaries
        (``start < end``); the whole batch is one stacked ``slogdet``.
        """
        starts = np.asarray(starts, dtype=np.intp)
        ends = np.asarray(ends, dtype=np.intp)
        lengths = (ends - starts).astype(np.float64)
        mean = (g1[ends] - g1[starts]) / lengths[:, np.newaxis]
        cov = (
            (g2[ends] - g2[starts]) / lengths[:, np.newaxis, np.newaxis]
            - mean[:, :, np.newaxis] * mean[:, np.newaxis, :]
        )
        dim = g1.shape[1]
        eye = np.eye(dim) * (1.0 + self.config.covariance_ridge)
        _, logdet = np.linalg.slogdet(eye + cov)
        # I + Σ has determinant >= 1 for PSD Σ; numerical noise can dip
        # a hair below, never below zero distortion.
        return lengths * np.maximum(logdet, 0.0)

    def boundaries(self, features: np.ndarray) -> np.ndarray:
        """Frame indices of the merged segment boundaries.

        Returns a sorted array ``[0, b_1, ..., n_frames]`` delimiting
        ``k = max(1, round(duration / target_segment_s))`` segments
        (fewer when the recording has fewer frames).
        """
        n_frames = features.shape[0]
        if n_frames == 0:
            return np.array([0], dtype=np.intp)
        duration_s = n_frames * self.config.hop_length_s
        k = int(round(duration_s / self.config.target_segment_s))
        k = max(1, min(k, n_frames))
        g1, g2 = self._cumulative_moments(features)
        bounds = np.arange(n_frames + 1, dtype=np.intp)
        # Distortion of each current segment, and of each candidate
        # merge of two adjacent segments.  After a merge only the two
        # candidates touching the merged segment change, so the loop
        # does O(1) slogdets per iteration.
        seg_rd = self._segment_distortions(g1, g2, bounds[:-1], bounds[1:])
        pair_rd = self._segment_distortions(g1, g2, bounds[:-2], bounds[2:])
        while bounds.size - 1 > k:
            costs = pair_rd - seg_rd[:-1] - seg_rd[1:]
            index = int(np.argmin(costs))
            merged_rd = pair_rd[index]
            bounds = np.delete(bounds, index + 1)
            seg_rd = np.delete(seg_rd, index + 1)
            seg_rd[index] = merged_rd
            pair_rd = np.delete(pair_rd, index)
            touched = [
                j for j in (index - 1, index) if 0 <= j <= bounds.size - 3
            ]
            if touched:
                touched = np.asarray(touched, dtype=np.intp)
                pair_rd[touched] = self._segment_distortions(
                    g1, g2, bounds[touched], bounds[touched + 2]
                )
        return bounds

    # ------------------------------------------------------------------
    # Sensitivity scoring
    # ------------------------------------------------------------------

    def _frame_scores(self, audio: np.ndarray) -> np.ndarray:
        """Per-frame sensitivity score in ``[0, 1]``.

        Low-band power fraction (the barrier-surviving band) weighted
        by a soft speech-activity gate relative to the recording's
        loudest frame.
        """
        config = self.config
        power = self._frame_power(audio)
        n_fft = 2 * (power.shape[1] - 1)
        frequencies = np.fft.rfftfreq(n_fft, d=1.0 / self.sample_rate)
        total = power.sum(axis=1)
        low = power[:, frequencies <= config.low_band_hz].sum(axis=1)
        low_ratio = low / np.maximum(total, 1e-30)
        energy_db = 10.0 * np.log10(np.maximum(total, 1e-30))
        gate_db = energy_db.max() - config.activity_range_db
        activity = 1.0 / (
            1.0
            + np.exp(
                -(energy_db - gate_db) / config.activity_softness_db
            )
        )
        return low_ratio * activity

    # ------------------------------------------------------------------
    # Segmenter protocol
    # ------------------------------------------------------------------

    def frame_probabilities(self, audio: np.ndarray) -> np.ndarray:
        """Per-frame probability that the frame is an effective phoneme.

        Each frame inherits the pooled score of its rate-distortion
        segment, so thresholding these probabilities reproduces the
        per-segment sensitive/non-sensitive decision.
        """
        features = self.features(audio)
        scores = self._frame_scores(audio)
        bounds = self.boundaries(features)
        probabilities = np.empty(features.shape[0], dtype=np.float64)
        for start, end in zip(bounds[:-1], bounds[1:]):
            probabilities[start:end] = float(
                np.mean(scores[start:end])
            )
        return probabilities

    def frame_probabilities_batch(
        self, audios: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Batched :meth:`frame_probabilities`; exact per-element parity.

        The agglomerative merge has no cross-recording state to share,
        so the batched path is the sequential path — parity is
        definitional, not a tolerance.
        """
        return [self.frame_probabilities(audio) for audio in audios]

    def classify_segment(self, audio: np.ndarray) -> bool:
        """Classify one phoneme sound segment as effective or not."""
        scores = self._frame_scores(audio)
        return bool(
            float(np.mean(scores)) >= self.config.decision_threshold
        )

    def segments(self, audio: np.ndarray) -> List[Tuple[float, float]]:
        """Detected sensitive-phoneme segments as (start_s, end_s) pairs."""
        config = self.config
        duration_s = ensure_1d(audio, "audio").size / self.sample_rate
        mask = (
            self.frame_probabilities(audio) >= config.decision_threshold
        )
        return mask_to_segments(
            mask,
            hop_s=config.hop_length_s,
            frame_length_s=config.frame_length_s,
            duration_s=duration_s,
            merge_gap_s=config.merge_gap_s,
            min_segment_s=config.min_segment_s,
        )

    def segments_batch(
        self, audios: Sequence[np.ndarray]
    ) -> List[List[Tuple[float, float]]]:
        """Batched :meth:`segments`; exact per-element parity."""
        return [self.segments(audio) for audio in audios]
