"""Cross-domain sensor (speaker replay -> accelerometer)."""

import numpy as np
import pytest

from repro.dsp.generators import tone
from repro.dsp.spectrum import fft_magnitude
from repro.sensing.body_motion import body_motion_interference
from repro.sensing.cross_domain import CrossDomainSensor

AUDIO_RATE = 16_000.0


@pytest.fixture(scope="module")
def sensor():
    return CrossDomainSensor()


def test_vibration_rate(sensor):
    assert sensor.vibration_rate == 200.0


def test_output_length(sensor):
    audio = tone(1000.0, 2.0, AUDIO_RATE)
    vibration = sensor.convert(audio, AUDIO_RATE, rng=0)
    assert vibration.size == 400


def test_high_frequency_audio_produces_stronger_vibration():
    # Use a noise-free sensor so only the deterministic coupling counts.
    from repro.sensing.accelerometer import AccelerometerSpec

    quiet_sensor = CrossDomainSensor(
        accelerometer_spec=AccelerometerSpec(
            base_noise_rms=0.0, low_freq_noise_coeff=0.0,
            dc_sensitivity=0.0, lsb=0.0,
        )
    )
    low = tone(200.0, 1.0, AUDIO_RATE, amplitude=0.1)
    high = tone(2000.0, 1.0, AUDIO_RATE, amplitude=0.1)
    vibration_low = quiet_sensor.convert(low, AUDIO_RATE, rng=1)
    vibration_high = quiet_sensor.convert(high, AUDIO_RATE, rng=1)
    freqs, mag_low = fft_magnitude(vibration_low, 200.0)
    _, mag_high = fft_magnitude(vibration_high, 200.0)
    band = freqs > 10.0
    assert mag_high[band].max() > 5 * mag_low[band].max()


def test_two_conversions_of_same_audio_differ(sensor):
    audio = tone(1500.0, 1.0, AUDIO_RATE, amplitude=0.1)
    a = sensor.convert(audio, AUDIO_RATE, rng=1)
    b = sensor.convert(audio, AUDIO_RATE, rng=2)
    assert not np.allclose(a, b)


def test_conversion_reproducible_with_seed(sensor):
    audio = tone(1500.0, 1.0, AUDIO_RATE, amplitude=0.1)
    np.testing.assert_array_equal(
        sensor.convert(audio, AUDIO_RATE, rng=5),
        sensor.convert(audio, AUDIO_RATE, rng=5),
    )


def test_body_motion_raises_low_frequency_energy(sensor):
    audio = tone(1500.0, 2.0, AUDIO_RATE, amplitude=0.05)
    without = sensor.convert(audio, AUDIO_RATE, rng=3)
    with_motion = sensor.convert(
        audio, AUDIO_RATE, rng=3, include_body_motion=True
    )
    freqs, mag_without = fft_magnitude(without, 200.0)
    _, mag_with = fft_magnitude(with_motion, 200.0)
    low = freqs <= 4.0
    assert mag_with[low].sum() > 2 * mag_without[low].sum()


def test_chirp_response_shape(sensor):
    vibration = sensor.chirp_response(500.0, 2500.0, 2.0, rng=4)
    assert vibration.size == 400
    assert np.all(np.isfinite(vibration))
    # Fig. 7 (the bench_fig7_chirp_response setup): the DC artifact's
    # 0-5 Hz peak dominates every other band by more than 3x.
    vibration = sensor.chirp_response(
        500.0, 2500.0, 3.0, amplitude=0.3, rng=7000
    )
    freqs, mags = fft_magnitude(vibration, 200.0, n_fft=256)
    assert mags[freqs <= 5.0].max() > 3.0 * mags[freqs > 5.0].max()


class TestBodyMotion:
    def test_band_limited(self):
        motion = body_motion_interference(2000, 200.0, rng=0)
        freqs, mags = fft_magnitude(motion, 200.0)
        in_band = mags[(freqs >= 0.2) & (freqs <= 5.0)].sum()
        out_band = mags[freqs > 10.0].sum()
        assert in_band > 3 * out_band

    def test_intensity_calibrated(self):
        motion = body_motion_interference(
            4000, 200.0, intensity=0.05, rng=1
        )
        assert np.sqrt(np.mean(motion**2)) == pytest.approx(
            0.05, rel=0.01
        )

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            body_motion_interference(0, 200.0)
