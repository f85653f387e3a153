"""Filtering helpers: IIR/FIR on scipy.signal and one FFT filter kernel.

Used for: the wearable's high-pass preprocessing that removes body-motion
interference, barrier/microphone/loudspeaker frequency shaping, and the
anti-aliased decimation path (the accelerometer path deliberately skips it).

Every frequency-domain filter in the library — device responses, air
and barrier transmission, the conduction paths and the spectrally
shaped noise generators — runs through :func:`spectral_filter`, which
takes its FFT at :func:`fast_length` of the signal rather than at the
raw length, where numpy's FFT falls back to Bluestein's algorithm.

Filter *designs* are memoized: a Butterworth design depends only on
``(order, cutoff, btype, rate)``, yet the sensing hot path used to
redesign it on every call.  :func:`butter_design` caches the section
matrices together with their ``sosfilt_zi`` steady state (read-only,
like ``get_window``/``mel_filterbank``), and every ``butter_*`` helper
filters through the one kernel :func:`zero_phase`, which is bitwise
``scipy.signal.sosfiltfilt`` without scipy's fixed per-call cost.

:func:`butter_lowpass` filters a ``(..., time)`` stack of equal-length
signals along the last axis (a 1-D signal is a stack of one).  scipy
applies the identical per-row arithmetic, so every row is bitwise equal
to filtering it alone — the contract the batched cross-domain sensing
path builds on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np
from scipy import signal as sp_signal
from scipy.fft import next_fast_len

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


class ButterDesign(NamedTuple):
    """A memoized Butterworth design and its zero-phase filtering state.

    ``sos`` and ``zi`` (``scipy.signal.sosfilt_zi(sos)``) are read-only;
    ``edge`` is the pad length ``scipy.signal.sosfiltfilt`` uses by
    default.
    """

    sos: np.ndarray
    zi: np.ndarray
    edge: int


@lru_cache(maxsize=128)
def _butter_design_cached(
    order: int,
    cutoff: Union[float, Tuple[float, float]],
    btype: str,
    sample_rate: float,
) -> ButterDesign:
    sos = sp_signal.butter(
        order,
        list(cutoff) if isinstance(cutoff, tuple) else cutoff,
        btype=btype,
        fs=sample_rate,
        output="sos",
    )
    zi = sp_signal.sosfilt_zi(sos)
    taps = 2 * sos.shape[0] + 1 - min(
        int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum())
    )
    sos.setflags(write=False)
    zi.setflags(write=False)
    return ButterDesign(sos, zi, 3 * taps)


def butter_design(
    order: int,
    cutoff: Union[float, Tuple[float, float]],
    btype: str,
    sample_rate: float,
) -> ButterDesign:
    """Memoized Butterworth second-order sections plus their ``zi``.

    The design is a pure function of its arguments, so the cached
    matrices are bitwise identical to fresh ``scipy.signal.butter`` and
    ``sosfilt_zi`` calls; the per-call cost of designing the filter and
    solving for its steady state is paid once per design.
    """
    if isinstance(cutoff, (tuple, list)):
        cutoff = tuple(float(edge) for edge in cutoff)
    else:
        cutoff = float(cutoff)
    return _butter_design_cached(
        int(order), cutoff, btype, float(sample_rate)
    )


def zero_phase(
    design: ButterDesign,
    samples: np.ndarray,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Forward-backward (zero-phase) filtering along the last axis.

    With ``start=None`` this is ``scipy.signal.sosfiltfilt(sos,
    samples)`` with its default odd extension of ``design.edge``
    samples, bitwise: the same extension, the same steady-state seeds
    ``zi * x[0]`` and ``zi * y[-1]``, and the same two public
    ``sosfilt`` passes, minus scipy's per-call design validation and
    ``sosfilt_zi`` solve.  ``samples`` is one signal or a
    ``(..., time)`` stack; ``sosfilt`` applies the identical per-row
    arithmetic, so each row equals filtering it alone.

    ``start`` (shape ``(..., 1)``) replaces the extension: the forward
    pass starts in the steady state of ``start`` at the first sample
    and the backward pass in that of the forward pass's last output.

    Rows no longer than ``design.edge`` cannot be extended; they take a
    single ``sosfilt`` pass from rest instead, decided on the row length
    so a stack of short rows takes the same path as each row alone.
    """
    sos = design.sos.copy()  # scipy's kernel rejects read-only buffers
    if samples.shape[-1] <= design.edge:
        return sp_signal.sosfilt(sos, samples)
    zi = design.zi.reshape(
        (sos.shape[0],) + (1,) * (samples.ndim - 1) + (2,)
    )
    edge = 0 if start is not None else design.edge
    if edge:
        left = samples[..., :1]
        right = samples[..., -1:]
        samples = np.concatenate(
            (
                2 * left - samples[..., edge:0:-1],
                samples,
                2 * right - samples[..., -2 : -(edge + 2) : -1],
            ),
            axis=-1,
        )
        start = samples[..., :1]
    forward, _ = sp_signal.sosfilt(sos, samples, zi=zi * start)
    backward, _ = sp_signal.sosfilt(
        sos, forward[..., ::-1], zi=zi * forward[..., -1:]
    )
    backward = backward[..., ::-1]
    if edge:
        backward = backward[..., edge:-edge]
    return backward


def fast_length(n: int) -> int:
    """The FFT length a spectral filter runs an ``n``-sample signal at.

    ``scipy.fft.next_fast_len(n)``: the smallest length ``>= n`` whose
    prime factors are all at most 11.  A length with a large prime
    factor sends numpy's FFT to Bluestein's algorithm, several times
    slower than at the next fast length.
    """
    return next_fast_len(n)


def spectral_filter(
    samples: np.ndarray,
    rate: float,
    gain_of: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Multiply the spectrum of each row by a real gain, along the last axis.

    The last axis is zero-padded to ``n_fft = fast_length(n)`` and
    transformed; ``gain_of(rfftfreq(n_fft, 1 / rate))`` returns a
    ``(bins,)`` gain shared by every row or a ``(rows, bins)`` gain, one
    per row.  The inverse transform at ``n_fft`` is trimmed back to the
    ``n`` input samples.  At a length that is already fast this is
    bitwise ``irfft(rfft(x) * gain, n)``; elsewhere the zero pad takes
    the start of the filter's tail, which the raw-length formula wraps
    circularly onto the signal's first samples.  ``samples`` is one
    signal or a ``(..., time)`` stack, and each row of a stack is
    bitwise the 1-D call (with its row of the gain).
    """
    n = samples.shape[-1]
    n_fft = fast_length(n)
    spectrum = np.fft.rfft(samples, n=n_fft, axis=-1)
    spectrum *= gain_of(np.fft.rfftfreq(n_fft, d=1.0 / rate))
    return np.fft.irfft(spectrum, n=n_fft, axis=-1)[..., :n]


def butter_highpass(
    signal: np.ndarray,
    sample_rate: float,
    cutoff_hz: float,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth high-pass filter."""
    samples = ensure_1d(signal)
    cutoff_hz = _validate_cutoff(cutoff_hz, sample_rate, "cutoff_hz")
    design = butter_design(order, cutoff_hz, "highpass", sample_rate)
    return zero_phase(design, samples)


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
    design = butter_design(order, cutoff_hz, "lowpass", sample_rate)
    return zero_phase(design, samples)


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
    design = butter_design(
        order, (low_hz, high_hz), "bandpass", sample_rate
    )
    return zero_phase(design, samples)


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
