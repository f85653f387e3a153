"""Deterministic and stochastic test-signal generators.

Includes the linear chirp used to characterize the accelerometer response
(paper Fig. 7) and noise sources for ambient rooms and sensor models.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.filters import spectral_filter
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ensure_positive


def _n_samples(duration_s: float, sample_rate: float) -> int:
    ensure_positive(duration_s, "duration_s")
    ensure_positive(sample_rate, "sample_rate")
    count = int(round(duration_s * sample_rate))
    if count <= 0:
        raise ConfigurationError(
            f"duration {duration_s}s at {sample_rate}Hz yields no samples"
        )
    return count


def silence(duration_s: float, sample_rate: float) -> np.ndarray:
    """All-zero signal of the requested duration."""
    return np.zeros(_n_samples(duration_s, sample_rate))


def tone(
    frequency_hz: float,
    duration_s: float,
    sample_rate: float,
    amplitude: float = 1.0,
    phase: float = 0.0,
) -> np.ndarray:
    """Pure sinusoid."""
    ensure_positive(frequency_hz, "frequency_hz")
    count = _n_samples(duration_s, sample_rate)
    t = np.arange(count) / sample_rate
    return amplitude * np.sin(2 * np.pi * frequency_hz * t + phase)


def linear_chirp(
    start_hz: float,
    end_hz: float,
    duration_s: float,
    sample_rate: float,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Linear frequency sweep from ``start_hz`` to ``end_hz``.

    The paper probes the smartwatch accelerometer with a 500–2500 Hz chirp
    (Fig. 7); this generator reproduces that stimulus.
    """
    ensure_positive(start_hz, "start_hz")
    ensure_positive(end_hz, "end_hz")
    count = _n_samples(duration_s, sample_rate)
    t = np.arange(count) / sample_rate
    sweep_rate = (end_hz - start_hz) / duration_s
    phase = 2 * np.pi * (start_hz * t + 0.5 * sweep_rate * t**2)
    return amplitude * np.sin(phase)


def white_noise(
    duration_s: float,
    sample_rate: float,
    amplitude: float = 1.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """Gaussian white noise with standard deviation ``amplitude``."""
    generator = as_generator(rng)
    count = _n_samples(duration_s, sample_rate)
    return amplitude * generator.standard_normal(count)


def pink_noise(
    duration_s: float,
    sample_rate: float,
    amplitude: float = 1.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """Approximate 1/f (pink) noise via spectral shaping of white noise.

    Room ambient noise is closer to pink than white; the paper's rooms
    (offices, apartment) carry low-frequency HVAC/traffic rumble.
    """
    generator = as_generator(rng)
    count = _n_samples(duration_s, sample_rate)
    white = generator.standard_normal(count)

    def shaping_of(frequencies: np.ndarray) -> np.ndarray:
        shaping = np.ones_like(frequencies)
        nonzero = frequencies > 0
        shaping[nonzero] = 1.0 / np.sqrt(frequencies[nonzero])
        return shaping

    shaped = spectral_filter(white, sample_rate, shaping_of)
    rms = float(np.sqrt(np.mean(shaped**2))) + 1e-12
    return amplitude * shaped / rms
