"""Accelerometer model: aliasing, DC artifact, noise injection."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.generators import silence, tone
from repro.dsp.spectrum import fft_magnitude
from repro.errors import ConfigurationError
from repro.phonemes import phonemize
from repro.sensing.accelerometer import (
    Accelerometer,
    AccelerometerSpec,
)

AUDIO_RATE = 16_000.0


def _sense(accel, field, drive, rng=0):
    return accel.sense(field, AUDIO_RATE, drive_audio=drive, rng=rng)


def test_output_rate():
    accel = Accelerometer()
    field = tone(1000.0, 1.0, AUDIO_RATE)
    out = _sense(accel, field, field)
    assert out.size == 200


def test_aliasing_folds_content():
    # A 1250 Hz vibration folds to 50 Hz at 200 Hz sampling.
    spec = AccelerometerSpec(
        base_noise_rms=0.0, low_freq_noise_coeff=0.0,
        dc_sensitivity=0.0, lsb=0.0,
    )
    accel = Accelerometer(spec)
    field = tone(1250.0, 2.0, AUDIO_RATE, amplitude=0.1)
    out = _sense(accel, field, silence(2.0, AUDIO_RATE) + 0.0)
    freqs, mags = fft_magnitude(out, 200.0)
    assert freqs[np.argmax(mags)] == pytest.approx(50.0, abs=1.0)


def test_dc_artifact_follows_envelope():
    spec = AccelerometerSpec(
        base_noise_rms=0.0, low_freq_noise_coeff=0.0,
        dc_sensitivity=1.0, lsb=0.0,
    )
    accel = Accelerometer(spec)
    drive = tone(1000.0, 2.0, AUDIO_RATE, amplitude=0.2)
    out = _sense(accel, silence(2.0, AUDIO_RATE) + 0.0, drive)
    # With no field, the output is the near-DC envelope artifact.
    freqs, mags = fft_magnitude(out, 200.0)
    low_band = mags[freqs <= 5.0].sum()
    high_band = mags[freqs > 10.0].sum()
    # Onset/offset transients of the envelope leak a little upward.
    assert low_band > 1.5 * high_band


def test_low_frequency_drive_injects_noise():
    spec = AccelerometerSpec(
        base_noise_rms=0.0, dc_sensitivity=0.0, lsb=0.0
    )
    accel = Accelerometer(spec)
    field = silence(2.0, AUDIO_RATE) + 0.0
    low_drive = tone(200.0, 2.0, AUDIO_RATE, amplitude=0.2)
    high_drive = tone(3000.0, 2.0, AUDIO_RATE, amplitude=0.2)
    noisy = _sense(accel, field, low_drive, rng=1)
    quiet = _sense(accel, field, high_drive, rng=1)
    assert np.std(noisy) > 5 * np.std(quiet)


def test_noise_tracks_envelope_in_time():
    spec = AccelerometerSpec(
        base_noise_rms=0.0, dc_sensitivity=0.0, lsb=0.0
    )
    accel = Accelerometer(spec)
    # Low-frequency drive present only in the second half.
    half = tone(200.0, 1.0, AUDIO_RATE, amplitude=0.3)
    drive = np.concatenate([np.zeros(half.size), half])
    out = _sense(accel, np.zeros(drive.size), drive, rng=2)
    first, second = out[: out.size // 2], out[out.size // 2 :]
    assert np.std(second) > 5 * (np.std(first) + 1e-12)


def test_quantization_applied():
    spec = AccelerometerSpec(
        base_noise_rms=0.0, low_freq_noise_coeff=0.0,
        dc_sensitivity=0.0, lsb=1e-3,
    )
    accel = Accelerometer(spec)
    field = tone(30.0, 1.0, AUDIO_RATE, amplitude=0.01)
    out = _sense(accel, field, field)
    steps = np.round(out / 1e-3)
    np.testing.assert_allclose(out, steps * 1e-3, atol=1e-12)


def test_noise_reproducible_with_seed():
    accel = Accelerometer()
    field = tone(1000.0, 1.0, AUDIO_RATE)
    a = _sense(accel, field, field, rng=7)
    b = _sense(accel, field, field, rng=7)
    np.testing.assert_array_equal(a, b)


def test_invalid_spec_rejected():
    with pytest.raises(ConfigurationError):
        AccelerometerSpec(base_noise_rms=-1.0)
    with pytest.raises(ConfigurationError):
        AccelerometerSpec(sample_rate=0.0)
    # A zero or negative reference made ``sense`` return NaN vibration.
    for reference in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigurationError):
            AccelerometerSpec(noise_envelope_reference=reference)
    # NaN passed every ``x < 0`` check; a NaN lsb skipped quantization.
    for name in (
        "base_noise_rms",
        "low_freq_noise_coeff",
        "dc_sensitivity",
        "noise_envelope_exponent",
        "lsb",
        "dc_bandwidth_hz",
    ):
        with pytest.raises(ConfigurationError, match=name):
            AccelerometerSpec(**{name: float("nan")})
    # The DC envelope is filtered at the sensor rate.
    with pytest.raises(ConfigurationError, match="Nyquist"):
        AccelerometerSpec(dc_bandwidth_hz=100.0)


def _full_rate_envelopes(drive):
    """The audio-rate envelope formula the sensor-rate one replaced.

    Returns the DC envelope (order 6, 5 Hz, of ``|drive|``) and the
    noise envelope (order 2, 8 Hz, of the rectified 800 Hz low band),
    both filtered at the audio rate and then decimated.
    """

    def lowpass(order, cutoff, samples):
        sos = sp_signal.butter(
            order, cutoff, btype="lowpass", fs=AUDIO_RATE, output="sos"
        )
        return sp_signal.sosfiltfilt(sos, samples)

    dc = lowpass(6, 5.0, np.abs(drive))[::80]
    low = lowpass(4, 800.0, drive)
    noise = np.clip(lowpass(2, 8.0, np.abs(low)), 0.0, None)[::80]
    return dc, noise


def _sensed_envelopes(drive, seed=3):
    """Both envelopes read back through :meth:`Accelerometer.sense`."""
    field = np.zeros(drive.size)
    dc_only = AccelerometerSpec(
        base_noise_rms=0.0, low_freq_noise_coeff=0.0,
        dc_sensitivity=1.0, lsb=0.0,
    )
    dc = _sense(Accelerometer(dc_only), field, drive, rng=seed)
    # With unit coefficient, exponent and reference, the noise RMS is
    # sqrt(pi / 2) times the envelope; divide out the row's draws.
    noise_only = AccelerometerSpec(
        base_noise_rms=0.0, low_freq_noise_coeff=1.0, dc_sensitivity=0.0,
        lsb=0.0, noise_envelope_exponent=1.0, noise_envelope_reference=1.0,
    )
    noise = _sense(Accelerometer(noise_only), field, drive, rng=seed)
    draws = np.random.default_rng(seed).standard_normal(noise.size)
    return dc, noise / (np.sqrt(np.pi / 2.0) * draws)


def _speech_drives(corpus):
    commands = (
        "ok google open the garage door",
        "hey siri call mom",
        "alexa unlock the back door",
    )
    return [
        corpus.utterance(phonemize(command), text=command, rng=index)
        .waveform
        for index, command in enumerate(commands)
    ]


def test_sensor_rate_envelopes_match_full_rate_formula(corpus):
    """Away from 0.5 s at each edge, the envelopes computed at 200 Hz
    stay close to the audio-rate formula: the DC term and the noise
    envelope to a small fraction of their peaks, and the DC term's
    content above the feature high-pass (5 Hz, the part that reaches
    the analysis band) to a few percent of its own peak."""
    highpass = sp_signal.butter(
        4, 5.0, btype="highpass", fs=200.0, output="sos"
    )
    interior = slice(100, -100)

    def peak_error(actual, expected):
        actual, expected = actual[interior], expected[interior]
        return np.abs(actual - expected).max() / np.abs(expected).max()

    for drive in _speech_drives(corpus):
        expected_dc, expected_noise = _full_rate_envelopes(drive)
        dc, noise = _sensed_envelopes(drive)
        assert dc.shape == expected_dc.shape
        assert peak_error(dc, expected_dc) < 2e-3
        assert peak_error(noise, expected_noise) < 1e-2
        in_band = sp_signal.sosfiltfilt(highpass, dc)
        expected_in_band = sp_signal.sosfiltfilt(highpass, expected_dc)
        assert peak_error(in_band, expected_in_band) < 5e-2
