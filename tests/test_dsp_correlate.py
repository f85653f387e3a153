"""Cross-correlation alignment and 2-D correlation."""

import numpy as np
import pytest
from scipy.signal import fftconvolve

from repro.dsp.correlate import (
    align_by_cross_correlation,
    correlation_2d,
    cross_correlation_delay,
    normalized_cross_correlation,
)
from repro.errors import SignalError


def reference_cross_correlation(reference, other, max_lag):
    """The full linear-convolution formula the lag window replaced."""
    max_lag = min(max_lag, reference.size - 1, other.size - 1)
    lags = np.arange(-max_lag, max_lag + 1)
    convolution = fftconvolve(reference, other[::-1], mode="full")
    values = convolution[lags + (other.size - 1)]
    denominator = (
        np.sqrt(
            float(np.dot(reference, reference)) * float(np.dot(other, other))
        )
        + 1e-12
    )
    return lags, values / denominator


def _burst(rng, n=400, offset=100):
    signal = np.zeros(n)
    signal[offset : offset + 100] = rng.standard_normal(100)
    return signal


def test_delay_estimation_positive(rng):
    # Wearable missing head samples: its content leads.
    va = _burst(rng)
    wearable = va[40:]
    delay = cross_correlation_delay(va, wearable, max_lag=80)
    assert delay == 40


def test_delay_estimation_negative(rng):
    va = _burst(rng)
    wearable = np.concatenate([np.zeros(25), va])
    delay = cross_correlation_delay(va, wearable, max_lag=80)
    assert delay == -25


def test_delay_zero_for_identical(rng):
    va = _burst(rng)
    assert cross_correlation_delay(va, va.copy(), max_lag=50) == 0


def test_align_restores_overlap(rng):
    va = _burst(rng)
    wearable = va[40:]
    va_a, wearable_a, delay = align_by_cross_correlation(
        va, wearable, max_lag=80
    )
    assert delay == 40
    assert va_a.size == wearable_a.size
    np.testing.assert_allclose(va_a, wearable_a)


def test_align_noisy_copies(rng):
    va = _burst(rng)
    wearable = va[30:] + 0.05 * rng.standard_normal(va.size - 30)
    va_a, wearable_a, _ = align_by_cross_correlation(va, wearable, 60)
    corr = np.corrcoef(va_a, wearable_a)[0, 1]
    assert corr > 0.9


def test_normalized_cross_correlation_bounds(rng):
    a = rng.standard_normal(200)
    lags, values = normalized_cross_correlation(a, a, max_lag=20)
    assert lags.size == 41
    assert values.max() == pytest.approx(1.0, abs=1e-9)
    assert np.all(values <= 1.0 + 1e-9)


def test_max_lag_negative_rejected(rng):
    with pytest.raises(SignalError):
        normalized_cross_correlation(
            rng.standard_normal(10), rng.standard_normal(10), -1
        )


def test_correlation_2d_identity(rng):
    matrix = rng.standard_normal((8, 12))
    assert correlation_2d(matrix, matrix) == pytest.approx(1.0)


def test_correlation_2d_sign_flip(rng):
    matrix = rng.standard_normal((8, 12))
    assert correlation_2d(matrix, -matrix) == pytest.approx(-1.0)


def test_correlation_2d_independent_near_zero(rng):
    a = rng.standard_normal((30, 30))
    b = rng.standard_normal((30, 30))
    assert abs(correlation_2d(a, b)) < 0.15


def test_correlation_2d_crops_to_overlap(rng):
    a = rng.standard_normal((8, 12))
    b = np.pad(a, ((0, 2), (0, 3)))
    assert correlation_2d(a, b) == pytest.approx(1.0)


def test_correlation_2d_constant_input_is_zero():
    assert correlation_2d(np.ones((4, 4)), np.ones((4, 4))) == 0.0


def test_correlation_2d_scale_invariant(rng):
    a = rng.standard_normal((6, 6))
    assert correlation_2d(a, 3.5 * a + 2.0) == pytest.approx(1.0)


def test_empty_input_raises_signal_error():
    with pytest.raises(SignalError, match="reference"):
        normalized_cross_correlation(np.array([]), np.ones(8), max_lag=4)
    with pytest.raises(SignalError, match="other"):
        normalized_cross_correlation(np.ones(8), np.array([]), max_lag=4)


def test_delay_empty_input_names_argument():
    with pytest.raises(SignalError, match="va_signal"):
        cross_correlation_delay(np.array([]), np.ones(8), max_lag=4)
    with pytest.raises(SignalError, match="wearable_signal"):
        cross_correlation_delay(np.ones(8), np.array([]), max_lag=4)


def test_align_empty_input_raises_signal_error():
    with pytest.raises(SignalError):
        align_by_cross_correlation(np.array([]), np.ones(8), max_lag=4)
    with pytest.raises(SignalError):
        align_by_cross_correlation(np.ones(8), np.array([]), max_lag=4)


def test_align_single_sample_inputs():
    va_a, wearable_a, delay = align_by_cross_correlation(
        np.array([1.0]), np.array([1.0]), max_lag=4
    )
    assert delay == 0
    assert va_a.size == wearable_a.size == 1


def test_align_single_sample_against_long_signal(rng):
    long_signal = _burst(rng)
    va_a, wearable_a, _ = align_by_cross_correlation(
        long_signal, np.array([0.5]), max_lag=10
    )
    assert va_a.size == wearable_a.size == 1


@pytest.mark.parametrize(
    "n_reference, n_other, max_lag",
    [
        (400, 400, 80),
        (4_001, 3_500, 800),  # unequal lengths
        (3_500, 4_001, 800),
        (120, 90, 500),  # max_lag above either length
        (90, 120, 500),
        (257, 257, 0),
        (1, 1, 4),
        (1, 64, 10),
    ],
)
def test_lag_window_matches_full_convolution(
    rng, n_reference, n_other, max_lag
):
    reference = rng.standard_normal(n_reference)
    other = rng.standard_normal(n_other)
    lags, values = normalized_cross_correlation(reference, other, max_lag)
    expected_lags, expected = reference_cross_correlation(
        reference, other, max_lag
    )
    np.testing.assert_array_equal(lags, expected_lags)
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("shift", [-700, -1, 0, 1, 333, 799])
def test_lag_window_delay_matches_full_convolution(rng, shift):
    # A tonal recording and its shifted noisy copy: the peak the lag
    # window finds is the one the full convolution finds.
    t = np.arange(6_000) / 16_000.0
    tonal = np.sin(2 * np.pi * 440.0 * t) * np.hanning(t.size)
    tonal += 0.3 * rng.standard_normal(t.size)
    other = tonal[shift:] if shift >= 0 else np.pad(tonal, (-shift, 0))
    other = other + 0.05 * rng.standard_normal(other.size)
    lags, expected = reference_cross_correlation(tonal, other, 800)
    delay = cross_correlation_delay(tonal, other, 800)
    assert delay == lags[int(np.argmax(expected))] == shift
