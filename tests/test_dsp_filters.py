"""IIR/FIR filter behaviour."""

import numpy as np
import pytest

from repro.dsp.filters import (
    butter_bandpass,
    butter_highpass,
    butter_lowpass,
    fir_lowpass,
)
from repro.dsp.generators import tone
from repro.errors import ConfigurationError

RATE = 1000.0


def _band_rms(signal):
    return float(np.sqrt(np.mean(signal**2)))


def test_highpass_removes_low_tone():
    low = tone(10.0, 1.0, RATE)
    filtered = butter_highpass(low, RATE, 50.0)
    assert _band_rms(filtered) < 0.05 * _band_rms(low)


def test_highpass_keeps_high_tone():
    high = tone(200.0, 1.0, RATE)
    filtered = butter_highpass(high, RATE, 50.0)
    assert _band_rms(filtered) > 0.9 * _band_rms(high)


def test_lowpass_removes_high_tone():
    high = tone(200.0, 1.0, RATE)
    filtered = butter_lowpass(high, RATE, 50.0)
    # Allow for filtfilt edge transients on the finite signal.
    assert _band_rms(filtered) < 0.1 * _band_rms(high)


def test_lowpass_keeps_low_tone():
    low = tone(10.0, 1.0, RATE)
    filtered = butter_lowpass(low, RATE, 50.0)
    assert _band_rms(filtered) > 0.9 * _band_rms(low)


def test_bandpass_selects_band():
    mixture = (
        tone(10.0, 1.0, RATE)
        + tone(100.0, 1.0, RATE)
        + tone(400.0, 1.0, RATE)
    )
    filtered = butter_bandpass(mixture, RATE, 50.0, 200.0)
    in_band = butter_bandpass(tone(100.0, 1.0, RATE), RATE, 50.0, 200.0)
    # Only the 100 Hz component should survive.
    assert _band_rms(filtered) == pytest.approx(
        _band_rms(in_band), rel=0.1
    )


def test_bandpass_rejects_inverted_band():
    with pytest.raises(ConfigurationError):
        butter_bandpass(tone(100.0, 0.1, RATE), RATE, 200.0, 50.0)


@pytest.mark.parametrize("cutoff", [0.0, -10.0, 500.0, 600.0])
def test_invalid_cutoffs_rejected(cutoff):
    with pytest.raises(ConfigurationError):
        butter_lowpass(tone(100.0, 0.1, RATE), RATE, cutoff)


def test_filters_handle_short_signals():
    short = np.ones(5)
    out = butter_highpass(short, RATE, 50.0)
    assert out.shape == short.shape
    assert np.all(np.isfinite(out))


def test_stack_of_short_rows_matches_per_row_filtering():
    # Rows shorter than sosfiltfilt's pad length take the sosfilt path;
    # the decision must follow the row length, not the stack's size.
    stack = np.random.default_rng(3).normal(size=(4, 12))
    filtered = butter_lowpass(stack, RATE, 50.0)
    for row in range(stack.shape[0]):
        np.testing.assert_array_equal(
            filtered[row], butter_lowpass(stack[row], RATE, 50.0)
        )


def test_fir_lowpass_attenuates_high():
    high = tone(300.0, 1.0, RATE)
    filtered = fir_lowpass(high, RATE, 50.0)
    assert _band_rms(filtered) < 0.1 * _band_rms(high)


def test_fir_rejects_even_taps():
    with pytest.raises(ConfigurationError):
        fir_lowpass(tone(100.0, 0.1, RATE), RATE, 50.0, n_taps=10)
