"""Source-filter synthesis behaviour."""

import dataclasses

import numpy as np
import pytest

from repro.dsp.spectrum import band_energy, fft_magnitude
from repro.errors import ConfigurationError
from repro.phonemes.inventory import get_phoneme
from repro.phonemes.synthesis import (
    PhonemeSynthesizer,
    SynthesisConfig,
    _glottal_tilt,
    spectral_envelope,
)
from tests.timing import median_speedup

RATE = 16_000.0


@pytest.fixture(scope="module")
def synth():
    return PhonemeSynthesizer()


def _rms(x):
    return float(np.sqrt(np.mean(x**2)))


def test_vowel_duration_matches_request(synth, male_speaker):
    sound = synth.synthesize("ae", male_speaker, duration_s=0.2, rng=0)
    assert sound.size == pytest.approx(0.2 * RATE, abs=8)


def test_vowel_has_harmonic_peak_at_f0(synth, male_speaker):
    sound = synth.synthesize("ae", male_speaker, duration_s=0.5, rng=1)
    freqs, mags = fft_magnitude(sound, RATE)
    voiced_band = (freqs > 60) & (freqs < 400)
    peak = freqs[voiced_band][np.argmax(mags[voiced_band])]
    # Peak should be near a harmonic of the speaker's F0.
    ratio = peak / male_speaker.f0_hz
    assert abs(ratio - round(ratio)) < 0.15


def test_female_voice_higher_pitch(synth, male_speaker, female_speaker):
    def pitch(speaker):
        sound = synth.synthesize("aa", speaker, duration_s=0.5, rng=2)
        freqs, mags = fft_magnitude(sound, RATE)
        band = (freqs > 60) & (freqs < 300)
        return freqs[band][np.argmax(mags[band])]

    assert pitch(female_speaker) > pitch(male_speaker)


def test_fricative_energy_in_noise_band(synth, male_speaker):
    sound = synth.synthesize("s", male_speaker, duration_s=0.3, rng=3)
    high = band_energy(sound, RATE, 4000.0, 7500.0)
    low = band_energy(sound, RATE, 100.0, 1000.0)
    assert high > 10 * low


def test_weak_phonemes_are_quieter_than_vowels(synth, male_speaker):
    vowel = synth.synthesize("ae", male_speaker, duration_s=0.3, rng=4)
    weak = synth.synthesize("s", male_speaker, duration_s=0.3, rng=4)
    assert _rms(weak) < 0.2 * _rms(vowel)


def test_loud_vowels_are_louder(synth, male_speaker):
    loud = synth.synthesize("aa", male_speaker, duration_s=0.3, rng=5)
    normal = synth.synthesize("ih", male_speaker, duration_s=0.3, rng=5)
    assert _rms(loud) > 1.5 * _rms(normal)


def test_silence_phonemes_near_zero(synth, male_speaker):
    sound = synth.synthesize("sp", male_speaker, duration_s=0.1, rng=6)
    assert _rms(sound) < 1e-4


def test_stop_has_burst_envelope(synth, male_speaker):
    sound = synth.synthesize("t", male_speaker, duration_s=0.06, rng=7)
    first_half = _rms(sound[: sound.size // 2])
    second_half = _rms(sound[sound.size // 2 :])
    assert first_half > 1.5 * second_half


def test_output_is_finite(synth, speakers):
    for speaker in speakers:
        for symbol in ("ae", "s", "t", "m", "hh", "jh"):
            sound = synth.synthesize(symbol, speaker, rng=8)
            assert np.all(np.isfinite(sound))


def test_spectral_envelope_peaks_at_formants(male_speaker):
    phoneme = get_phoneme("ae")
    freqs = np.linspace(50, 4000, 2000)
    envelope = spectral_envelope(phoneme, male_speaker, freqs)
    f1 = phoneme.formants[0] * male_speaker.formant_scale
    peak_freq = freqs[np.argmax(envelope)]
    assert peak_freq == pytest.approx(f1, rel=0.1)


def test_spectral_envelope_scales_with_speaker(female_speaker,
                                               male_speaker):
    phoneme = get_phoneme("iy")
    freqs = np.linspace(50, 4000, 4000)
    env_m = spectral_envelope(phoneme, male_speaker, freqs)
    env_f = spectral_envelope(phoneme, female_speaker, freqs)
    # Female formants sit higher in frequency.
    assert freqs[np.argmax(env_f)] > freqs[np.argmax(env_m)]


def test_reproducible_given_seed(synth, male_speaker):
    a = synth.synthesize("ae", male_speaker, duration_s=0.2, rng=42)
    b = synth.synthesize("ae", male_speaker, duration_s=0.2, rng=42)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ(synth, male_speaker):
    a = synth.synthesize("ae", male_speaker, duration_s=0.2, rng=1)
    b = synth.synthesize("ae", male_speaker, duration_s=0.2, rng=2)
    assert not np.allclose(a, b)


def test_max_harmonics_below_one_rejected():
    with pytest.raises(ConfigurationError, match="max_harmonics"):
        PhonemeSynthesizer(SynthesisConfig(max_harmonics=0))


def _reference_harmonic_series(synth, phoneme, speaker, n_samples,
                               generator):
    """Σ a_k sin(2π f_k·cumsum(vibrato)/rate + φ_k) over an (n, H) sine
    matrix, drawing f0 jitter, then the H phases, then the vibrato
    phase."""
    rate = synth.sample_rate
    f0 = speaker.f0_hz * float(1.0 + generator.normal(0.0, speaker.jitter))
    f0 = float(np.clip(f0, 50.0, 400.0))
    n_harmonics = min(int(rate / 2.0 / f0) - 1, synth.config.max_harmonics)
    t = np.arange(n_samples) / rate
    harmonic_freqs = f0 * np.arange(1, n_harmonics + 1)
    amplitudes = (
        spectral_envelope(phoneme, speaker, harmonic_freqs)
        * _glottal_tilt(harmonic_freqs)
    )
    phases = generator.uniform(0.0, 2 * np.pi, size=n_harmonics)
    vibrato = 1.0 + 0.003 * np.sin(
        2 * np.pi * 5.0 * t + generator.uniform(0, 2 * np.pi)
    )
    phase_matrix = (
        2 * np.pi * np.outer(np.cumsum(vibrato) / rate, harmonic_freqs)
        + phases
    )
    return np.sin(phase_matrix) @ amplitudes


def _steady_speaker(speaker, f0_hz):
    """``speaker`` at exactly ``f0_hz``: no jitter, no breathiness."""
    return dataclasses.replace(
        speaker, f0_hz=f0_hz, jitter=0.0, breathiness=0.0
    )


class TestHarmonicSeries:
    """The Horner-polynomial kernel against the sine-matrix sum."""

    @staticmethod
    def _assert_matches(synth, symbol, speaker, n_samples, seed):
        phoneme = get_phoneme(symbol)
        expected = _reference_harmonic_series(
            synth, phoneme, speaker, n_samples, np.random.default_rng(seed)
        )
        actual = synth._harmonic_series(
            phoneme, speaker, n_samples, np.random.default_rng(seed)
        )
        np.testing.assert_allclose(
            actual, expected, rtol=1e-11,
            atol=1e-11 * np.max(np.abs(expected)),
        )

    # f0 50 and 120 Hz cap at H = 60; 220 Hz gives 35, 400 Hz gives 19.
    @pytest.mark.parametrize("f0_hz", [50.0, 120.0, 220.0, 400.0])
    @pytest.mark.parametrize("n_samples", [8, 101, 3_200, 16_013])
    def test_matches_sine_matrix(self, synth, male_speaker, f0_hz,
                                 n_samples):
        self._assert_matches(
            synth, "aa", _steady_speaker(male_speaker, f0_hz), n_samples, 11
        )

    def test_jittered_speakers_match(self, synth, speakers):
        for index, speaker in enumerate(speakers):
            for symbol in ("aa", "iy", "m", "z"):
                self._assert_matches(synth, symbol, speaker, 2_400, index)

    def test_draw_order(self, synth, male_speaker):
        """After ``synthesize`` of a voiced, noiseless phoneme the
        generator stands where the reference's draws leave it."""
        speaker = _steady_speaker(male_speaker, 120.0)
        phoneme = get_phoneme("aa")
        assert phoneme.noise_band is None or phoneme.noise_gain == 0
        generator = np.random.default_rng(23)
        synth.synthesize("aa", speaker, duration_s=0.2, rng=generator)
        reference = np.random.default_rng(23)
        _reference_harmonic_series(
            synth, phoneme, speaker, int(round(0.2 * RATE)), reference
        )
        assert generator.random() == reference.random()


class TestHarmonicSynthesisSpeedGate:
    """The Horner kernel must be at least 5x as fast as the (n, H) sine
    matrix at n = 3 200, f0 = 120 Hz (H = 60)."""

    def test_horner_beats_sine_matrix(self, synth, male_speaker):
        speaker = _steady_speaker(male_speaker, 120.0)
        phoneme = get_phoneme("aa")
        speedup = median_speedup(
            lambda: _reference_harmonic_series(
                synth, phoneme, speaker, 3_200, np.random.default_rng(0)
            ),
            lambda: synth._harmonic_series(
                phoneme, speaker, 3_200, np.random.default_rng(0)
            ),
        )
        assert speedup >= 5.0, (
            f"Horner harmonic synthesis is {speedup:.2f}x "
            f"the sine matrix (bar 5x)"
        )
