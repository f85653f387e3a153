"""Free-field propagation: spherical spreading and air absorption."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.dsp.filters import fast_length
from repro.utils.validation import ensure_1d, ensure_positive

#: Reference distance (m) at which source SPL is specified.
REFERENCE_DISTANCE_M = 1.0

#: Air absorption in dB per meter per kHz (rough room-condition value).
_AIR_ABSORPTION_DB_PER_M_PER_KHZ = 0.005


def spreading_gain(distance_m: float) -> float:
    """Amplitude gain from spherical spreading relative to 1 m.

    Distances below the reference are clamped so a source right next to a
    microphone does not diverge.
    """
    ensure_positive(distance_m, "distance_m")
    return REFERENCE_DISTANCE_M / max(distance_m, REFERENCE_DISTANCE_M)


def air_absorption(
    frequencies: np.ndarray,
    distance_m: float,
) -> np.ndarray:
    """Linear amplitude gain of atmospheric absorption over a path.

    High frequencies lose slightly more energy in air; the effect is
    small at room scale but contributes to the 5 m degradation seen in
    Fig. 11(c).
    """
    ensure_positive(distance_m, "distance_m")
    frequencies = np.asarray(frequencies, dtype=np.float64)
    loss_db = (
        _AIR_ABSORPTION_DB_PER_M_PER_KHZ
        * (frequencies / 1000.0)
        * distance_m
    )
    return 10.0 ** (-loss_db / 20.0)


def propagate(
    signal: np.ndarray,
    sample_rate: float,
    distance_m: float,
    include_delay: bool = False,
    speed_of_sound: float = 343.0,
) -> np.ndarray:
    """Propagate a signal ``distance_m`` through air.

    Applies spherical-spreading attenuation and frequency-dependent air
    absorption; optionally prepends the acoustic travel delay (used when
    two devices at different distances record the same source).
    """
    (shaped,) = propagate_each(signal, sample_rate, (distance_m,))
    if include_delay:
        delay_samples = int(round(distance_m / speed_of_sound * sample_rate))
        if delay_samples > 0:
            shaped = np.concatenate([np.zeros(delay_samples), shaped])
    return shaped


def propagate_each(
    signal: np.ndarray,
    sample_rate: float,
    distances_m: Sequence[float],
) -> List[np.ndarray]:
    """Propagate one signal to each of ``distances_m``.

    The signal is transformed once, and each distance filters it with
    its own air-absorption gain: entry ``i`` is bitwise
    ``propagate(signal, sample_rate, distances_m[i])``.
    """
    samples = ensure_1d(signal)
    ensure_positive(sample_rate, "sample_rate")
    n_fft = fast_length(samples.size)
    frequencies = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    spectrum = np.fft.rfft(samples, n=n_fft)
    last = len(distances_m) - 1
    shaped = []
    for index, distance in enumerate(distances_m):
        # The last entry filters the shared spectrum in place.
        gained = spectrum if index == last else spectrum.copy()
        gained *= air_absorption(frequencies, distance)
        row = np.fft.irfft(gained, n=n_fft)[: samples.size]
        row *= spreading_gain(distance)
        shaped.append(row)
    return shaped
