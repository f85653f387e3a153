"""Host-speed calibration and the arithmetic that applies it.

The host CPU speeds up and slows down over periods of 10-30 s, so raw
wall-clock figures from two runs of identical code can differ by a
tenth or more.  The benchmark therefore times a fixed *reference
kernel* while the program under test is idle, between short
measurement windows, and rescales every compute-driven time of a window
by ``REF_NOMINAL_S / ref_measured``.  Normalised times read as "seconds
at reference speed".  Timer-driven waits (the scheduler's batching
hold) are not compute and stay unscaled.

The kernel mixes the instruction classes the pipeline spends its time
in: an audio-length real FFT round trip, one zero-phase IIR filter, a
small float64 matmul and a pure-Python loop.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence, Tuple

import numpy as np
from scipy.signal import butter, sosfiltfilt

#: Reference-kernel duration that defines "reference speed" (seconds).
#: A constant of the benchmark: changing it rescales every normalised
#: time, so it changes only together with a new baseline.
REF_NOMINAL_S = 0.0040

#: Kernel calls per speed reading; the reading is their median.  One
#: reading is noisy: regressing window-by-window pipeline time on it
#: flattens to a slope of 0.6-0.8.  Between whole runs taken minutes
#: apart the pipeline's slowdown was 0.8-1.6 times the kernel's (in
#: log terms), so the plain ratio is applied.
REF_CALLS = 25

_AUDIO_SAMPLES = 40_000  # ~2.5 s at 16 kHz, the length of one recording
_MATRIX = 96
_LOOP = 6_000


class ReferenceKernel:
    """Fixed ~4 ms workload whose duration tracks host speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20221)
        self._audio = rng.standard_normal(_AUDIO_SAMPLES)
        freqs = np.fft.rfftfreq(_AUDIO_SAMPLES, d=1.0 / 16_000.0)
        self._response = 1.0 / (1.0 + (freqs / 1_000.0) ** 2)
        self._sos = butter(
            4, 400.0, btype="low", fs=16_000.0, output="sos"
        )
        self._a = rng.standard_normal((_MATRIX, _MATRIX))
        self._b = rng.standard_normal((_MATRIX, _MATRIX))

    def run(self) -> float:
        """One kernel pass; returns a checksum so no work is skipped."""
        shaped = np.fft.irfft(
            np.fft.rfft(self._audio) * self._response, n=_AUDIO_SAMPLES
        )
        smooth = sosfiltfilt(self._sos, shaped)
        product = self._a @ self._b
        for _ in range(3):
            product = np.tanh(product @ self._b) + self._a
        acc = 0.0
        for index in range(_LOOP):
            acc += (index % 7) * 0.5 - acc * 1e-4
        return float(smooth[::4000].sum() + product[0, 0] + acc)

    def seconds(self, calls: int = REF_CALLS) -> float:
        """Median duration of ``calls`` kernel passes (seconds)."""
        durations = []
        for _ in range(calls):
            start = time.perf_counter()
            self.run()
            durations.append(time.perf_counter() - start)
        return statistics.median(durations)


def speed_factor(ref_before_s: float, ref_after_s: float) -> float:
    """Scale for a window bracketed by two reference readings.

    ``< 1`` when the host ran slower than reference speed during the
    window, so multiplying a measured time by it gives the time at
    reference speed.
    """
    return REF_NOMINAL_S / (0.5 * (ref_before_s + ref_after_s))


def normalise_span(total_s: float, wait_s: float, factor: float) -> float:
    """Time at reference speed of a duration holding a timer-driven wait.

    The compute part, ``total_s - wait_s``, scales by ``factor``; the
    wait does not.
    """
    return max(total_s - wait_s, 0.0) * factor + wait_s


def interval_union_s(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def tail_percentile(n: int, beyond: int = 10) -> float:
    """Highest whole percentile that leaves ``beyond`` samples above it.

    Returns 0.0 when ``n`` samples support no tail at all.
    """
    if n <= beyond:
        return 0.0
    return float(math.floor(100.0 * (n - beyond) / n))
