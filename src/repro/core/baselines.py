"""Baseline detectors the paper's evaluation compares against.

* :class:`AudioDomainBaseline` — 2-D correlation computed directly on
  audio-domain spectrograms of the two synchronized recordings (no
  cross-domain sensing).  The barrier effect is weak in the audio
  domain, so this baseline performs poorly (AUC ≈ 0.66–0.74 in the
  paper).
* :class:`VibrationBaselineNoSelection` — the full cross-domain pipeline
  but replaying the *entire* voice command, without sensitive-phoneme
  selection (AUC ≈ 0.83–0.88 in the paper).

Both score the pair the full system synchronized: the campaign's
:class:`~repro.eval.campaign.DetectorBank` hands it over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    """

    n_fft: int = 512
    hop_length: int = 256
    log_floor_db: float = -45.0

    def score(
        self,
        va_aligned: np.ndarray,
        wearable_aligned: np.ndarray,
    ) -> float:
        """2-D correlation of normalized audio power spectrograms.

        The recordings arrive synchronized by the full system, so the
        baseline differs from it only in the domain the correlation is
        computed in.
        """
        return correlation_2d(
            self._features(va_aligned), self._features(wearable_aligned)
        )

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

    Replays the *whole* synchronized voice command (weak and over-loud
    phonemes included) through the wearable and correlates the
    vibration features — the paper's "vibration-domain baseline"
    ablation.
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
        self._extractor = VibrationFeatureExtractor(
            self.feature_config, sample_rate=self.sensor.vibration_rate
        )

    def score(
        self,
        va_aligned: np.ndarray,
        wearable_aligned: np.ndarray,
        rng: SeedLike = None,
    ) -> float:
        """Cross-domain correlation score on the full aligned recordings."""
        generator = as_generator(rng)
        vibration_va, vibration_wearable = self.sensor.convert_batch(
            [va_aligned, wearable_aligned],
            self.audio_rate,
            rngs=[child_rng(generator, "va"), child_rng(generator, "wear")],
        )
        return correlation_2d(
            self._extractor.extract(vibration_va),
            self._extractor.extract(vibration_wearable),
        )
