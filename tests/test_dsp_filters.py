"""IIR/FIR filter behaviour and the FFT filter kernel."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.filters import (
    butter_bandpass,
    butter_design,
    butter_highpass,
    butter_lowpass,
    fast_length,
    fir_lowpass,
    spectral_filter,
    zero_phase,
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


#: Every ``(order, cutoff, btype, rate)`` design the library filters
#: with: the accelerometer's DC envelope, noise envelope and 800 Hz band
#: split, the feature high-pass, the demodulation low-pass at the 3x
#: ultrasound rate and the hidden-voice envelope.
LIBRARY_DESIGNS = [
    (6, 5.0, "lowpass", 200.0),
    (2, 8.0, "lowpass", 200.0),
    (4, 800.0, "lowpass", 16_000.0),
    (4, 5.0, "highpass", 200.0),
    (6, 7_000.0, "lowpass", 48_000.0),
    (2, 30.0, "lowpass", 16_000.0),
]


def _scipy_sos(order, cutoff, btype, rate):
    return sp_signal.butter(
        order, cutoff, btype=btype, fs=rate, output="sos"
    )


@pytest.mark.parametrize("design_args", LIBRARY_DESIGNS)
@pytest.mark.parametrize("extra", [1, 2, 517])
@pytest.mark.parametrize("shape", [(), (3,)])
def test_zero_phase_is_bitwise_sosfiltfilt(design_args, extra, shape):
    design = butter_design(*design_args)
    samples = np.random.default_rng(extra).normal(
        size=shape + (design.edge + extra,)
    )
    np.testing.assert_array_equal(
        zero_phase(design, samples),
        sp_signal.sosfiltfilt(_scipy_sos(*design_args), samples),
    )


@pytest.mark.parametrize("design_args", LIBRARY_DESIGNS)
@pytest.mark.parametrize("shape", [(), (3,)])
def test_zero_phase_short_rows_take_one_sosfilt_pass(design_args, shape):
    # At the pad length sosfiltfilt cannot extend the row.
    design = butter_design(*design_args)
    samples = np.random.default_rng(5).normal(size=shape + (design.edge,))
    np.testing.assert_array_equal(
        zero_phase(design, samples),
        sp_signal.sosfilt(_scipy_sos(*design_args), samples),
    )


@pytest.mark.parametrize("design_args", LIBRARY_DESIGNS[:2])
def test_zero_phase_start_replaces_the_extension(design_args):
    # Seeding from the first sample with no extension is scipy's
    # ``padtype=None``.
    design = butter_design(*design_args)
    samples = np.random.default_rng(6).normal(size=(3, 530))
    np.testing.assert_array_equal(
        zero_phase(design, samples, start=samples[:, :1]),
        sp_signal.sosfiltfilt(
            _scipy_sos(*design_args), samples, padtype=None
        ),
    )


def test_butter_design_is_memoized_and_read_only():
    design = butter_design(6, 5.0, "lowpass", 200.0)
    assert butter_design(6, 5, "lowpass", 200) is design
    assert not design.sos.flags.writeable
    assert not design.zi.flags.writeable
    expected = sp_signal.sosfilt_zi(_scipy_sos(6, 5.0, "lowpass", 200.0))
    np.testing.assert_array_equal(design.zi, expected)


# ----------------------------------------------------------------------
# The FFT filter kernel
# ----------------------------------------------------------------------

AUDIO_RATE = 16_000.0


def _smooth_gain(frequencies):
    """A gentle low-pass with a short impulse response."""
    return 1.0 / (1.0 + (frequencies / 2_000.0) ** 2)


def _per_row_gains(rows):
    def gains_of(frequencies):
        return np.stack([
            _smooth_gain(frequencies) * (1.0 + 0.1 * row)
            for row in range(rows)
        ])

    return gains_of


def _raw_filter(samples, gain):
    """``irfft(rfft(x) * gain, n)`` at the signal's own length."""
    n = samples.shape[-1]
    return np.fft.irfft(np.fft.rfft(samples, axis=-1) * gain, n=n, axis=-1)


@pytest.mark.parametrize("n", [12_000, 16_000, 4_032])
@pytest.mark.parametrize("shape", [(), (3,)])
def test_spectral_filter_is_the_raw_formula_at_a_fast_length(n, shape):
    assert fast_length(n) == n
    samples = np.random.default_rng(n).normal(size=shape + (n,))
    frequencies = np.fft.rfftfreq(n, d=1.0 / AUDIO_RATE)
    np.testing.assert_array_equal(
        spectral_filter(samples, AUDIO_RATE, _smooth_gain),
        _raw_filter(samples, _smooth_gain(frequencies)),
    )
    if shape:
        gains_of = _per_row_gains(shape[0])
        np.testing.assert_array_equal(
            spectral_filter(samples, AUDIO_RATE, gains_of),
            _raw_filter(samples, gains_of(frequencies)),
        )


@pytest.mark.parametrize("n", [4_001, 12_000, 12_345])
def test_spectral_filter_rows_match_1d(n):
    stack = np.random.default_rng(n).normal(size=(3, n))
    shared = spectral_filter(stack, AUDIO_RATE, _smooth_gain)
    per_row = spectral_filter(stack, AUDIO_RATE, _per_row_gains(3))
    for row in range(stack.shape[0]):
        assert shared.shape == stack.shape
        np.testing.assert_array_equal(
            shared[row],
            spectral_filter(stack[row], AUDIO_RATE, _smooth_gain),
        )
        np.testing.assert_array_equal(
            per_row[row],
            spectral_filter(
                stack[row],
                AUDIO_RATE,
                lambda frequencies: _per_row_gains(3)(frequencies)[row],
            ),
        )


def test_spectral_filter_does_not_wrap_the_tail_onto_the_start():
    # 4 001 = 4 001 (prime): the kernel pads to 4 032, the raw formula
    # wraps the impulse's right half onto samples 0, 1, 2, ...
    n = 4_001
    assert fast_length(n) == 4_032
    impulse = np.zeros(n)
    impulse[-1] = 1.0
    filtered = spectral_filter(impulse, AUDIO_RATE, _smooth_gain)
    frequencies = np.fft.rfftfreq(n, d=1.0 / AUDIO_RATE)
    wrapped = _raw_filter(impulse, _smooth_gain(frequencies))
    peak = np.abs(filtered).max()
    assert np.abs(wrapped[:8]).max() > 0.1 * peak
    assert np.abs(filtered[:8]).max() < 1e-3 * peak
