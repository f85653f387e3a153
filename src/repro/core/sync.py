"""Cross-device synchronization (paper § VI-A).

The wearable starts recording when the VA's wake-word trigger message
arrives over WiFi, so its recording lags by the network delay (~100 ms).
The residual offset is estimated with normalized cross-correlation
(Eq. (5)) and trimmed so both recordings start at the same command onset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dsp.correlate import align_by_cross_correlation
from repro.errors import ConfigurationError
from repro.utils.validation import ensure_positive


@dataclass
class SyncConfig:
    """Synchronization parameters.

    Attributes
    ----------
    max_delay_s:
        Largest WiFi/network delay the estimator searches over; local
        networks stay well under 0.5 s.
    min_overlap_s:
        Shortest aligned overlap the estimate is trusted to leave.  A
        correlation peak that would trim the recordings below this is
        treated as a misestimate (narrowband or periodic content can
        fool Eq. (5)) and the recordings pass through untrimmed; ``0``
        disables the guard.
    """

    max_delay_s: float = 0.5
    min_overlap_s: float = 0.25

    def __post_init__(self) -> None:
        ensure_positive(self.max_delay_s, "max_delay_s")
        if not 0 <= self.min_overlap_s < np.inf:
            raise ConfigurationError(
                f"min_overlap_s must be finite and >= 0, got "
                f"{self.min_overlap_s}"
            )


def synchronize_recordings(
    va_audio: np.ndarray,
    wearable_audio: np.ndarray,
    sample_rate: float,
    config: Optional[SyncConfig] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Align the two devices' recordings of the same voice command.

    Returns ``(va_aligned, wearable_aligned, estimated_delay_s)`` with
    equal-length outputs.  Positive delay means the wearable recording
    led the VA's (its extra head samples were trimmed); negative means
    the wearable started late and the VA recording was trimmed instead.
    """
    config = config or SyncConfig()
    if sample_rate <= 0:
        raise ConfigurationError("sample_rate must be > 0")
    max_lag = int(round(config.max_delay_s * sample_rate))
    va_aligned, wearable_aligned, delay = align_by_cross_correlation(
        va_audio, wearable_audio, max_lag
    )
    min_overlap = int(round(config.min_overlap_s * sample_rate))
    if 0 < va_aligned.size < min_overlap:
        va = np.atleast_1d(np.asarray(va_audio))
        wearable = np.atleast_1d(np.asarray(wearable_audio))
        common = min(va.size, wearable.size)
        if common > va_aligned.size:
            return va[:common].copy(), wearable[:common].copy(), 0.0
    return va_aligned, wearable_aligned, delay / sample_rate
