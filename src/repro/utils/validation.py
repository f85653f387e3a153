"""Input-validation helpers shared across the library.

These raise :class:`repro.errors.SignalError` / ``ConfigurationError`` with
actionable messages instead of letting numpy raise opaque shape errors deep
inside a pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SignalError


def ensure_1d(signal: np.ndarray, name: str = "signal") -> np.ndarray:
    """Return ``signal`` as a contiguous 1-D float64 array or raise."""
    array = np.asarray(signal, dtype=np.float64)
    if array.ndim != 1:
        raise SignalError(f"{name} must be 1-D, got shape {array.shape}")
    if array.size == 0:
        raise SignalError(f"{name} must be non-empty")
    return np.ascontiguousarray(array)


def ensure_2d(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``matrix`` as a contiguous 2-D float64 array or raise."""
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2:
        raise SignalError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise SignalError(f"{name} must be non-empty")
    return np.ascontiguousarray(array)


def ensure_signals(signals: np.ndarray, name: str = "signals") -> np.ndarray:
    """Return a ``(..., time)`` stack as a contiguous float64 array or raise.

    A 1-D signal is a stack with no leading axes; every row must be
    non-empty.
    """
    array = np.asarray(signals, dtype=np.float64)
    if array.ndim == 0:
        raise SignalError(f"{name} must have a time axis, got a scalar")
    if array.size == 0:
        raise SignalError(f"{name} must be non-empty")
    return np.ascontiguousarray(array)


def ensure_positive(value: float, name: str) -> float:
    """Validate that a scalar configuration value is strictly positive."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
    return value


def ensure_probability(value: float, name: str) -> float:
    """Validate that a scalar lies in the closed interval [0, 1]."""
    value = float(value)
    if not np.isfinite(value) or value < 0 or value > 1:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return value
