"""Conductive coupling between the wearable's speaker and accelerometer.

When the wearable replays audio, sound energy reaches the accelerometer
as surface vibration through the watch body.  The coupling is strongly
frequency-selective: low-frequency airborne audio (< ~500 Hz) barely
vibrates the stiff case, while higher frequencies (≳1 kHz) couple well
through structural resonances.  The paper leans on exactly this fact —
"the accelerometer can significantly attenuate low-frequency audio
signals ... meanwhile, it captures the high-frequency audio signals"
(§ IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ensure_1d, ensure_2d


@dataclass(frozen=True)
class ConductionPath:
    """Structural coupling response from speaker to accelerometer.

    Attributes
    ----------
    low_corner_hz:
        Frequency below which coupling falls off steeply (case stiffness).
    resonance_hz:
        Structural resonance where coupling peaks.
    resonance_q:
        Sharpness of the resonance peak.
    high_corner_hz:
        Frequency above which coupling rolls off again.
    gain:
        Overall coupling efficiency (vibration amplitude per unit drive).
    """

    low_corner_hz: float = 600.0
    low_rolloff_order: int = 1
    resonance_hz: float = 2200.0
    resonance_q: float = 2.0
    high_corner_hz: float = 5000.0
    gain: float = 0.2
    response_jitter_db: float = 1.5

    def __post_init__(self) -> None:
        if self.response_jitter_db < 0:
            raise ConfigurationError("response_jitter_db must be >= 0")
        if not 0 < self.low_corner_hz < self.resonance_hz:
            raise ConfigurationError(
                "need 0 < low_corner_hz < resonance_hz"
            )
        if self.high_corner_hz <= self.resonance_hz:
            raise ConfigurationError(
                "high_corner_hz must exceed resonance_hz"
            )
        if self.gain <= 0:
            raise ConfigurationError("gain must be > 0")

    def response(self, frequencies: np.ndarray) -> np.ndarray:
        """Linear coupling gain at each frequency."""
        frequencies = np.asarray(frequencies, dtype=np.float64)
        safe = np.maximum(frequencies, 1e-3)
        # High-pass: the stiff case responds weakly (but not zero — loud
        # bass still shakes it a little) below the corner.
        highpass = 1.0 / (
            1.0 + (self.low_corner_hz / safe) ** (2 * self.low_rolloff_order)
        )
        # Resonant emphasis around the structural mode.
        resonance = 1.0 + self.resonance_q / (
            1.0
            + ((safe - self.resonance_hz) / (self.resonance_hz / 4.0)) ** 2
        )
        # Gentle roll-off above the mode.
        lowpass = 1.0 / (1.0 + (safe / self.high_corner_hz) ** 4)
        return self.gain * highpass * resonance * lowpass

    def apply(
        self,
        signal: np.ndarray,
        sample_rate: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Filter one drive signal (:meth:`apply_batch` of one)."""
        return self.apply_batch(
            ensure_1d(signal)[np.newaxis], sample_rate, rngs=[rng]
        )[0]

    def apply_batch(
        self,
        signals: np.ndarray,
        sample_rate: float,
        rngs: Optional[Sequence[SeedLike]] = None,
    ) -> np.ndarray:
        """Filter a ``(batch, time)`` stack of audio-rate drive signals.

        Each replay applies a fresh smooth random ripple to the response
        (``response_jitter_db``): wrist-strap contact shifts slightly
        between replays, so two conversions never see the bit-identical
        coupling.  ``rngs[i]`` supplies row ``i``'s ripple randomness.
        The FFT pair runs once over the whole stack; only the (cheap)
        ripple parameters are drawn per item.
        """
        samples = ensure_2d(signals, "signals")
        n_items = samples.shape[0]
        if rngs is None:
            rngs = [None] * n_items
        if len(rngs) != n_items:
            raise ConfigurationError(
                f"need one rng per signal: got {len(rngs)} rngs for "
                f"{n_items} signals"
            )
        spectrum = np.fft.rfft(samples, axis=-1)
        frequencies = np.fft.rfftfreq(
            samples.shape[-1], d=1.0 / sample_rate
        )
        gain = self.response(frequencies)
        if self.response_jitter_db > 0:
            gains = np.empty((n_items, frequencies.size))
            for index, rng in enumerate(rngs):
                gains[index] = gain * self._response_ripple(
                    frequencies, rng
                )
        else:
            gains = gain[np.newaxis, :]
        return np.fft.irfft(
            spectrum * gains, n=samples.shape[-1], axis=-1
        )

    def _response_ripple(
        self,
        frequencies: np.ndarray,
        rng: SeedLike,
    ) -> np.ndarray:
        """Smooth per-replay log-amplitude ripple (strap contact shift)."""
        generator = as_generator(rng)
        span = max(float(frequencies[-1]), 1.0)
        ripple_db = np.zeros_like(frequencies)
        for _ in range(4):
            center = generator.uniform(200.0, span)
            width = generator.uniform(span / 16.0, span / 6.0)
            amplitude = generator.normal(0.0, self.response_jitter_db)
            ripple_db += amplitude * np.exp(
                -0.5 * ((frequencies - center) / width) ** 2
            )
        return 10.0 ** (ripple_db / 20.0)
