"""Cross-correlation alignment and 2-D Pearson correlation.

Two correlation tools drive the defense:

* :func:`cross_correlation_delay` — Eq. (5) of the paper: estimate the
  residual WiFi-synchronization delay between the VA's and wearable's
  microphone recordings and trim it away.
* :func:`correlation_2d` — Eq. (6): the 2-D Pearson correlation between
  two normalized vibration-domain spectrograms, whose value is thresholded
  to decide "thru-barrier attack" vs "legitimate user".
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import fft as sp_fft

from repro.errors import SignalError
from repro.utils.validation import ensure_1d, ensure_2d


def normalized_cross_correlation(
    reference: np.ndarray,
    other: np.ndarray,
    max_lag: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized cross-correlation over lags in ``[-max_lag, max_lag]``.

    Returns ``(lags, values)`` where
    ``values[k] = sum_n reference(n + lags[k]) * other(n)``, normalized
    by the geometric mean of the two signals' energies.  ``max_lag`` is
    clipped to ``min(len(reference), len(other)) - 1``.

    Synchronization runs on every detection, so this is a hot path.
    Only the wanted lags are computed: one ``rfft``/``irfft`` pair gives
    the circular correlation at ``next_fast_len(max(len) + max_lag)``
    points, a length at which no lag in the window wraps onto another,
    instead of a full linear convolution at about twice the recording
    length.  It uses ``scipy.fft``, as that convolution did: numpy's FFT
    plan cache serves the replay's speaker and conduction stages, and
    the correlation's lengths would evict their plans.
    """
    ref = ensure_1d(reference, "reference")
    sig = ensure_1d(other, "other")
    if ref.size == 0:
        raise SignalError(
            "reference must be non-empty for cross-correlation"
        )
    if sig.size == 0:
        raise SignalError("other must be non-empty for cross-correlation")
    if max_lag < 0:
        raise SignalError(f"max_lag must be >= 0, got {max_lag}")
    max_lag = min(max_lag, ref.size - 1, sig.size - 1)
    lags = np.arange(-max_lag, max_lag + 1)
    # circular[k mod n] = sum_j ref[j + k] sig[j]; with both signals
    # zero-padded to n >= max(len) + max_lag, no product in the window
    # wraps, and a negative lag indexes from the end.
    n_fft = sp_fft.next_fast_len(
        max(ref.size, sig.size) + max_lag, real=True
    )
    circular = sp_fft.irfft(
        sp_fft.rfft(ref, n_fft) * np.conj(sp_fft.rfft(sig, n_fft)), n_fft
    )
    values = circular[lags]
    denominator = (
        np.sqrt(float(np.dot(ref, ref)) * float(np.dot(sig, sig)))
        + 1e-12
    )
    return lags, values / denominator


def cross_correlation_delay(
    va_signal: np.ndarray,
    wearable_signal: np.ndarray,
    max_lag: int,
) -> int:
    """Estimate the sample offset between the two recordings (Eq. (5)).

    Returns the lag ``k`` maximizing ``sum_n va(n + k) * wearable(n)``.
    Positive ``k`` means the wearable's content *leads* (the wearable
    started recording after the command onset seen by the VA, so its
    array is missing head samples): aligning requires trimming the first
    ``k`` samples of the VA recording.  Negative ``k`` means the
    wearable's array has extra head content to trim.
    """
    va = ensure_1d(va_signal, "va_signal")
    wearable = ensure_1d(wearable_signal, "wearable_signal")
    if va.size == 0:
        raise SignalError("va_signal must be non-empty to estimate delay")
    if wearable.size == 0:
        raise SignalError(
            "wearable_signal must be non-empty to estimate delay"
        )
    lags, values = normalized_cross_correlation(va, wearable, max_lag)
    return int(lags[int(np.argmax(values))])


def align_by_cross_correlation(
    va_signal: np.ndarray,
    wearable_signal: np.ndarray,
    max_lag: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Trim both recordings so they start at the same voice-command onset.

    Returns ``(va_aligned, wearable_aligned, estimated_delay)`` where both
    outputs have equal length (see :func:`cross_correlation_delay` for the
    delay sign convention).
    """
    va = ensure_1d(va_signal, "va_signal")
    wearable = ensure_1d(wearable_signal, "wearable_signal")
    delay = cross_correlation_delay(va, wearable, max_lag)
    if delay >= 0:
        va_aligned = va[delay:]
        wearable_aligned = wearable
    else:
        wearable_aligned = wearable[-delay:]
        va_aligned = va
    length = min(va_aligned.size, wearable_aligned.size)
    if length == 0:
        raise SignalError("alignment left no overlapping samples")
    return va_aligned[:length].copy(), wearable_aligned[:length].copy(), delay


def correlation_2d(matrix_a: np.ndarray, matrix_b: np.ndarray) -> float:
    """2-D Pearson correlation coefficient between two equal-shape matrices.

    Implements Eq. (6).  Matrices of unequal shape are center-cropped to
    the common overlap first (recordings of the same command can differ by
    a frame after alignment).  Returns a value in [-1, 1]; degenerate
    (constant) inputs yield 0.
    """
    a = ensure_2d(matrix_a, "matrix_a")
    b = ensure_2d(matrix_b, "matrix_b")
    rows = min(a.shape[0], b.shape[0])
    cols = min(a.shape[1], b.shape[1])
    if rows == 0 or cols == 0:
        raise SignalError("matrices have no overlapping region")
    a = a[:rows, :cols]
    b = b[:rows, :cols]
    a_centered = a - a.mean()
    b_centered = b - b.mean()
    numerator = float(np.sum(a_centered * b_centered))
    denominator = float(
        np.sqrt(np.sum(a_centered**2) * np.sum(b_centered**2))
    )
    if denominator <= 1e-15:
        return 0.0
    return numerator / denominator
