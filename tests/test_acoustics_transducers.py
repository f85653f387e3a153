"""Microphone and loudspeaker models."""

import numpy as np
import pytest

from repro.acoustics.loudspeaker import (
    Loudspeaker,
    LoudspeakerSpec,
    SOUND_BAR,
    WEARABLE_SPEAKER,
)
from repro.acoustics.microphone import (
    LAPTOP_MIC,
    Microphone,
    MicrophoneSpec,
    PHONE_MIC,
    SMART_SPEAKER_MIC,
    WEARABLE_MIC,
)
from repro.dsp.generators import tone
from repro.errors import ConfigurationError

RATE = 16_000.0


def _rms(x):
    return float(np.sqrt(np.mean(x**2)))


class TestMicrophone:
    def test_capture_preserves_length(self):
        mic = Microphone(SMART_SPEAKER_MIC)
        signal = tone(500.0, 0.25, RATE)
        assert mic.capture(signal, RATE, rng=0).size == signal.size

    def test_far_field_gain_ordering(self):
        signal = tone(500.0, 0.5, RATE, amplitude=0.05)
        smart = Microphone(SMART_SPEAKER_MIC).capture(signal, RATE, rng=0)
        phone = Microphone(PHONE_MIC).capture(signal, RATE, rng=0)
        assert _rms(smart) > _rms(phone)

    def test_noise_floor_present_in_silence(self):
        mic = Microphone(PHONE_MIC)
        recording = mic.capture(np.zeros(8000), RATE, rng=1)
        assert _rms(recording) > 0

    def test_band_edges_attenuate(self):
        mic = Microphone(WEARABLE_MIC)
        in_band = tone(1000.0, 0.5, RATE, amplitude=0.1)
        sub_band = tone(20.0, 0.5, RATE, amplitude=0.1)
        assert _rms(mic.capture(sub_band, RATE, rng=2)) < 0.5 * _rms(
            mic.capture(in_band, RATE, rng=2)
        )

    def test_clipping(self):
        mic = Microphone(SMART_SPEAKER_MIC)
        loud = tone(500.0, 0.1, RATE, amplitude=10.0)
        recording = mic.capture(loud, RATE, rng=3)
        assert np.max(np.abs(recording)) <= SMART_SPEAKER_MIC.clip_level

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            MicrophoneSpec(name="bad", low_cut_hz=500.0,
                           high_cut_hz=100.0)

    def test_all_device_specs_distinct(self):
        specs = [SMART_SPEAKER_MIC, LAPTOP_MIC, PHONE_MIC, WEARABLE_MIC]
        names = {spec.name for spec in specs}
        assert len(names) == 4


class TestLoudspeaker:
    def test_band_limits_low_end(self):
        speaker = Loudspeaker(SOUND_BAR)
        low = tone(40.0, 0.5, RATE)
        mid = tone(1000.0, 0.5, RATE)
        assert _rms(speaker.play(low, RATE)) < 0.2 * _rms(
            speaker.play(mid, RATE)
        )

    def test_wearable_speaker_weaker_bass(self):
        low = tone(250.0, 0.5, RATE)
        sound_bar = Loudspeaker(SOUND_BAR).play(low, RATE)
        wearable = Loudspeaker(WEARABLE_SPEAKER).play(low, RATE)
        assert _rms(wearable) < _rms(sound_bar)

    def test_distortion_adds_second_harmonic(self):
        spec = LoudspeakerSpec(name="distorting",
                               harmonic_distortion=0.2)
        speaker = Loudspeaker(spec)
        out = speaker.play(tone(500.0, 0.5, RATE), RATE)
        from repro.dsp.spectrum import fft_magnitude

        freqs, mags = fft_magnitude(out, RATE)
        fundamental = mags[np.argmin(np.abs(freqs - 500.0))]
        second = mags[np.argmin(np.abs(freqs - 1000.0))]
        assert second > 0.02 * fundamental

    def test_zero_distortion_is_linear(self):
        spec = LoudspeakerSpec(name="clean", harmonic_distortion=0.0)
        speaker = Loudspeaker(spec)
        signal = tone(500.0, 0.25, RATE)
        a = speaker.play(signal, RATE)
        b = speaker.play(2.0 * signal, RATE)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-9)

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            LoudspeakerSpec(name="bad", low_cut_hz=0.0)
        for field in ("low_cut_hz", "harmonic_distortion"):
            with pytest.raises(ConfigurationError):
                LoudspeakerSpec(name="bad", **{field: float("nan")})
