"""IIR and FIR filtering helpers built on scipy.signal.

Used for: the wearable's high-pass preprocessing that removes body-motion
interference, barrier/microphone/loudspeaker frequency shaping, and the
anti-aliased decimation path (the accelerometer path deliberately skips it).

Filter *designs* are memoized: a Butterworth design depends only on
``(order, cutoff, btype, rate)``, yet the sensing hot path used to
redesign it on every call.  :func:`butter_sos` caches the section
matrices (read-only, like ``get_window``/``mel_filterbank``), so
repeated filtering pays only the ``sosfiltfilt`` cost.

:func:`butter_lowpass` filters a ``(..., time)`` stack of equal-length
signals along the last axis (a 1-D signal is a stack of one).  scipy
applies the identical per-row arithmetic, so every row is bitwise equal
to filtering it alone — the contract the batched cross-domain sensing
path builds on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple, Union

import numpy as np
from scipy import signal as sp_signal

from repro.errors import ConfigurationError
from repro.utils.validation import (
    ensure_1d,
    ensure_positive,
    ensure_signals,
)


def _validate_cutoff(cutoff_hz: float, sample_rate: float, name: str) -> float:
    ensure_positive(sample_rate, "sample_rate")
    cutoff_hz = float(cutoff_hz)
    if not (0 < cutoff_hz < sample_rate / 2):
        raise ConfigurationError(
            f"{name} must lie strictly inside (0, Nyquist={sample_rate / 2}); "
            f"got {cutoff_hz}"
        )
    return cutoff_hz


@lru_cache(maxsize=128)
def _butter_sos_cached(
    order: int,
    cutoff: Union[float, Tuple[float, float]],
    btype: str,
    sample_rate: float,
) -> np.ndarray:
    sos = sp_signal.butter(
        order,
        list(cutoff) if isinstance(cutoff, tuple) else cutoff,
        btype=btype,
        fs=sample_rate,
        output="sos",
    )
    sos.setflags(write=False)
    return sos


def butter_sos(
    order: int,
    cutoff: Union[float, Tuple[float, float]],
    btype: str,
    sample_rate: float,
) -> np.ndarray:
    """Memoized Butterworth second-order-section design.

    The design is a pure function of its arguments, so the cached matrix
    is bitwise identical to a fresh ``scipy.signal.butter`` call.
    Returns a writable copy (a few dozen floats) because scipy's sosfilt
    kernels reject read-only buffers; the cached master stays frozen.
    """
    if isinstance(cutoff, (tuple, list)):
        cutoff = tuple(float(edge) for edge in cutoff)
    else:
        cutoff = float(cutoff)
    return _butter_sos_cached(
        int(order), cutoff, btype, float(sample_rate)
    ).copy()


def butter_highpass(
    signal: np.ndarray,
    sample_rate: float,
    cutoff_hz: float,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth high-pass filter."""
    samples = ensure_1d(signal)
    cutoff_hz = _validate_cutoff(cutoff_hz, sample_rate, "cutoff_hz")
    sos = butter_sos(order, cutoff_hz, "highpass", sample_rate)
    return _sosfiltfilt_safe(sos, samples)


def butter_lowpass(
    signal: np.ndarray,
    sample_rate: float,
    cutoff_hz: float,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth low-pass along the last axis.

    ``signal`` is one signal or a ``(..., time)`` stack; row ``i`` of a
    stack is bitwise identical to filtering ``signal[i]`` alone.
    """
    samples = ensure_signals(signal, "signal")
    cutoff_hz = _validate_cutoff(cutoff_hz, sample_rate, "cutoff_hz")
    sos = butter_sos(order, cutoff_hz, "lowpass", sample_rate)
    return _sosfiltfilt_safe(sos, samples)


def butter_bandpass(
    signal: np.ndarray,
    sample_rate: float,
    low_hz: float,
    high_hz: float,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth band-pass filter."""
    samples = ensure_1d(signal)
    low_hz = _validate_cutoff(low_hz, sample_rate, "low_hz")
    high_hz = _validate_cutoff(high_hz, sample_rate, "high_hz")
    if low_hz >= high_hz:
        raise ConfigurationError(
            f"low_hz ({low_hz}) must be < high_hz ({high_hz})"
        )
    sos = butter_sos(order, (low_hz, high_hz), "bandpass", sample_rate)
    return _sosfiltfilt_safe(sos, samples)


def fir_lowpass(
    signal: np.ndarray,
    sample_rate: float,
    cutoff_hz: float,
    n_taps: int = 101,
) -> np.ndarray:
    """Linear-phase FIR low-pass filter (Hamming-windowed sinc)."""
    samples = ensure_1d(signal)
    cutoff_hz = _validate_cutoff(cutoff_hz, sample_rate, "cutoff_hz")
    if n_taps < 3 or n_taps % 2 == 0:
        raise ConfigurationError(
            f"n_taps must be an odd integer >= 3, got {n_taps}"
        )
    taps = sp_signal.firwin(n_taps, cutoff_hz, fs=sample_rate)
    filtered = np.convolve(samples, taps, mode="same")
    return filtered


def _sosfiltfilt_safe(sos: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Apply sosfiltfilt along the last axis, falling back to sosfilt
    for very short signals.

    ``sosfiltfilt`` needs a minimum pad length; short vibration snippets
    (a handful of accelerometer samples) would otherwise raise.  The
    decision uses the row length, so a stack of short rows takes the
    same path as each row alone.
    """
    pad_needed = 3 * (2 * sos.shape[0] + 1)
    if samples.shape[-1] <= pad_needed:
        return sp_signal.sosfilt(sos, samples)
    return sp_signal.sosfiltfilt(sos, samples)
