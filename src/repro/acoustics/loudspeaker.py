"""Loudspeaker playback model (the adversary's attack device).

The paper's attacks replay sounds through a Razer RC30 sound bar placed
10 cm behind the barrier.  The model band-limits playback, rolls off the
low end (small drivers cannot reproduce deep bass), and adds mild
harmonic distortion — the classic replay-attack artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.filters import spectral_filter
from repro.errors import ConfigurationError
from repro.utils.validation import ensure_1d, ensure_2d, ensure_positive


@dataclass(frozen=True)
class LoudspeakerSpec:
    """Static loudspeaker parameters.

    Attributes
    ----------
    name:
        Identifier for reports.
    low_cut_hz:
        −3 dB low-frequency roll-off (small drivers ≈ 120–180 Hz).
    high_cut_hz:
        Upper bandwidth limit.
    harmonic_distortion:
        Amplitude of the quadratic nonlinearity term (0 disables).
    """

    name: str
    low_cut_hz: float = 150.0
    high_cut_hz: float = 16_000.0
    harmonic_distortion: float = 0.03

    def __post_init__(self) -> None:
        if not 0 < self.low_cut_hz < self.high_cut_hz:
            raise ConfigurationError(
                f"{self.name}: need 0 < low_cut_hz < high_cut_hz"
            )
        if not self.harmonic_distortion >= 0:
            raise ConfigurationError(
                f"{self.name}: harmonic_distortion must be >= 0"
            )


#: Sound-bar class playback device (Razer RC30 stand-in).
SOUND_BAR = LoudspeakerSpec(name="sound bar", low_cut_hz=140.0)

#: Smartwatch built-in speaker: tiny driver, strong low-frequency loss.
WEARABLE_SPEAKER = LoudspeakerSpec(
    name="wearable speaker", low_cut_hz=400.0, high_cut_hz=8000.0,
    harmonic_distortion=0.05,
)


class Loudspeaker:
    """Convert a digital signal into an emitted sound field."""

    def __init__(self, spec: LoudspeakerSpec) -> None:
        self.spec = spec

    def frequency_response(self, frequencies: np.ndarray) -> np.ndarray:
        """Linear playback gain at each frequency."""
        frequencies = np.asarray(frequencies, dtype=np.float64)
        safe = np.maximum(frequencies, 1e-3)
        low = 1.0 / (1.0 + (self.spec.low_cut_hz / safe) ** 4)
        high = 1.0 / (1.0 + (safe / self.spec.high_cut_hz) ** 8)
        return np.sqrt(low * high)

    def play(self, signal: np.ndarray, sample_rate: float) -> np.ndarray:
        """Emit one signal through the driver (:meth:`play_batch` of one)."""
        return self.play_batch(ensure_1d(signal)[np.newaxis], sample_rate)[0]

    def play_batch(
        self, signals: np.ndarray, sample_rate: float
    ) -> np.ndarray:
        """Emit a ``(batch, time)`` stack of signals through the driver.

        Applies the band-pass response and a weak memoryless quadratic
        nonlinearity (even-harmonic distortion).  The FFT shaping runs
        along the last axis and the distortion normalizes by each row's
        own peak, so a row's output never depends on its batch-mates.
        """
        samples = ensure_2d(signals, "signals")
        ensure_positive(sample_rate, "sample_rate")
        shaped = spectral_filter(
            samples, sample_rate, self.frequency_response
        )
        if self.spec.harmonic_distortion > 0:
            peaks = np.max(np.abs(shaped), axis=-1, keepdims=True) + 1e-12
            normalized = shaped / peaks
            shaped = peaks * (
                normalized
                + self.spec.harmonic_distortion * normalized**2
            )
        return shaped
