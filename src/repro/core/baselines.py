"""Baseline detectors the paper's evaluation compares against.

* :class:`AudioDomainBaseline` — 2-D correlation computed directly on
  audio-domain spectrograms of the two recordings (no cross-domain
  sensing).  The barrier effect is weak in the audio domain, so this
  baseline performs poorly (AUC ≈ 0.66–0.74 in the paper).
* :class:`VibrationBaselineNoSelection` — the full cross-domain pipeline
  but replaying the *entire* voice command, without sensitive-phoneme
  selection (AUC ≈ 0.83–0.88 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.detector import CorrelationDetector
from repro.core.features import FeatureConfig, VibrationFeatureExtractor
from repro.dsp.correlate import correlation_2d
from repro.dsp.stft import power_spectrogram
from repro.sensing.cross_domain import CrossDomainSensor
from repro.utils.rng import SeedLike, as_generator, child_rng
from repro.utils.validation import ensure_1d


@dataclass
class AudioDomainBaseline:
    """Correlates audio-domain spectrograms of the two recordings.

    Attributes
    ----------
    n_fft / hop_length:
        Audio STFT parameters.
    sample_rate:
        Audio sampling rate.
    """

    n_fft: int = 512
    hop_length: int = 256
    sample_rate: float = 16_000.0
    log_floor_db: float = -45.0

    def score(
        self,
        va_audio: np.ndarray,
        wearable_audio: np.ndarray,
    ) -> float:
        """2-D correlation of normalized audio power spectrograms.

        Recordings are cross-correlation-synchronized first, exactly as
        in the full system, so the baseline differs only in the domain
        the correlation is computed in.
        """
        from repro.core.sync import synchronize_recordings

        va_aligned, wearable_aligned, _ = synchronize_recordings(
            va_audio, wearable_audio, self.sample_rate
        )
        features_va = self._features(va_aligned)
        features_wearable = self._features(wearable_aligned)
        return correlation_2d(features_va, features_wearable)

    def _features(self, audio: np.ndarray) -> np.ndarray:
        """Max-normalized log-power spectrogram, floored at the noise bed.

        Log compression keeps the correlation from being dominated by
        the handful of strongest low-frequency bins (which thru-barrier
        sounds share between devices).
        """
        samples = ensure_1d(audio, "audio")
        spectrogram = power_spectrogram(
            samples, n_fft=self.n_fft, hop_length=self.hop_length
        )
        peak = float(np.max(spectrogram))
        if peak > 0:
            spectrogram = spectrogram / peak
        log_spectrogram = 10.0 * np.log10(spectrogram + 1e-12)
        return np.maximum(log_spectrogram, self.log_floor_db)


@dataclass
class VibrationBaselineNoSelection:
    """Cross-domain detector without sensitive-phoneme selection.

    Synchronizes the recordings, then replays the *whole* voice command
    (weak and over-loud phonemes included) through the wearable and
    correlates the vibration features — the paper's "vibration-domain
    baseline" ablation.
    """

    sensor: CrossDomainSensor = field(default_factory=CrossDomainSensor)
    # The baseline uses the paper's plain Eq. (6) features (linear
    # max-normalized power spectrogram); the full system additionally
    # log-compresses as part of its vibration-domain normalization.
    feature_config: FeatureConfig = field(
        default_factory=lambda: FeatureConfig(
            log_compress=False, hop_length=32
        )
    )
    audio_rate: float = 16_000.0

    def __post_init__(self) -> None:
        from repro.core.sync import SyncConfig, synchronize_recordings

        self._extractor = VibrationFeatureExtractor(
            self.feature_config, sample_rate=self.sensor.vibration_rate
        )
        self._detector = CorrelationDetector()
        self._sync = synchronize_recordings
        self._sync_config = SyncConfig()

    def score(
        self,
        va_audio: np.ndarray,
        wearable_audio: np.ndarray,
        audio_rate: Optional[float] = None,
        rng: SeedLike = None,
    ) -> float:
        """Cross-domain correlation score on the full recordings."""
        generator = as_generator(rng)
        rate = audio_rate or self.audio_rate
        va_aligned, wearable_aligned, _ = self._sync(
            va_audio, wearable_audio, rate, self._sync_config
        )
        vibration_va, vibration_wearable = self.sensor.convert_batch(
            [va_aligned, wearable_aligned],
            rate,
            rngs=[child_rng(generator, "va"), child_rng(generator, "wear")],
        )
        features_va = self._extractor.extract(vibration_va)
        features_wearable = self._extractor.extract(vibration_wearable)
        return self._detector.score(features_va, features_wearable)
