"""Source–filter phoneme synthesis.

The synthesizer generates phoneme sounds at 16 kHz from the inventory's
acoustic parameters and a speaker profile:

* **Voiced sounds** are built as a harmonic series at the speaker's F0
  (with jitter), each harmonic weighted by the phoneme's formant envelope
  and a glottal spectral tilt.  This is additive synthesis of exactly the
  spectrum a glottal-pulse-through-resonators model would produce, which
  gives precise control over the spectral shapes the barrier-effect study
  depends on.  Since harmonic k's phase is k times the fundamental's
  (plus a fixed offset), the sum of sines is the imaginary part of one
  complex polynomial in e^{iθ(t)}, evaluated by Horner's rule.
* **Frication/aspiration** is white noise spectrally shaped into the
  phoneme's noise band (plus formant coloring for voiced fricatives).
* **Stops/affricates** get a burst-like amplitude envelope; other classes
  get a smooth attack/decay envelope.

All amplitudes are relative; absolute sound pressure levels are applied
later by :mod:`repro.acoustics.spl`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.filters import spectral_filter
from repro.errors import ConfigurationError, SynthesisError
from repro.phonemes.inventory import Phoneme, PhonemeClass, get_phoneme
from repro.phonemes.speaker import SpeakerProfile
from repro.utils.rng import SeedLike, as_generator

#: Library-wide audio sampling rate (Hz).
AUDIO_SAMPLE_RATE = 16_000.0

#: Spectral tilt of the glottal source, dB per octave above 100 Hz.
_GLOTTAL_TILT_DB_PER_OCTAVE = -7.0

#: Reference RMS amplitude of a 0 dB-intensity phoneme.
_REFERENCE_RMS = 0.1


def spectral_envelope(
    phoneme: Phoneme,
    speaker: SpeakerProfile,
    frequencies: np.ndarray,
) -> np.ndarray:
    """Formant-resonance amplitude envelope evaluated at ``frequencies``.

    Each formant contributes a Lorentzian resonance peak; formant centers
    are scaled by the speaker's vocal-tract factor and perturbed slightly
    by dialect region.  Returns linear amplitudes (not dB).
    """
    frequencies = np.asarray(frequencies, dtype=np.float64)
    envelope = np.full(frequencies.shape, 1e-3)
    dialect_shift = 1.0 + 0.01 * (speaker.dialect_region - 4.5) / 4.5
    for center, bandwidth, gain in zip(
        phoneme.formants, phoneme.formant_bandwidths, phoneme.formant_gains
    ):
        scaled_center = center * speaker.formant_scale * dialect_shift
        envelope += gain / (
            1.0 + ((frequencies - scaled_center) / bandwidth) ** 2
        )
    return envelope


def _glottal_tilt(frequencies: np.ndarray) -> np.ndarray:
    """Linear-amplitude glottal roll-off above 100 Hz."""
    frequencies = np.maximum(np.asarray(frequencies, dtype=np.float64), 1.0)
    octaves = np.log2(np.maximum(frequencies / 100.0, 1.0))
    return 10.0 ** (_GLOTTAL_TILT_DB_PER_OCTAVE * octaves / 20.0)


@dataclass
class SynthesisConfig:
    """Tunable synthesis constants (defaults fit the paper's setting)."""

    sample_rate: float = AUDIO_SAMPLE_RATE
    reference_rms: float = _REFERENCE_RMS
    max_harmonics: int = 60


class PhonemeSynthesizer:
    """Synthesizes phoneme sounds and whole utterances.

    Parameters
    ----------
    config:
        Optional synthesis constants; defaults are fine for all paper
        experiments.

    Examples
    --------
    >>> from repro.phonemes import PhonemeSynthesizer, generate_speakers
    >>> speaker = generate_speakers(1, rng=7)[0]
    >>> synth = PhonemeSynthesizer()
    >>> sound = synth.synthesize("ae", speaker, rng=7)
    >>> sound.ndim
    1
    """

    def __init__(self, config: Optional[SynthesisConfig] = None) -> None:
        self.config = config or SynthesisConfig()
        if self.config.sample_rate <= 0:
            raise ConfigurationError("sample_rate must be > 0")
        if self.config.max_harmonics < 1:
            raise ConfigurationError("max_harmonics must be >= 1")

    @property
    def sample_rate(self) -> float:
        """Output sampling rate in Hz."""
        return self.config.sample_rate

    def synthesize(
        self,
        symbol: str,
        speaker: SpeakerProfile,
        duration_s: Optional[float] = None,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Synthesize one phoneme sound.

        Parameters
        ----------
        symbol:
            TIMIT phoneme symbol.
        speaker:
            Voice parameters.
        duration_s:
            Segment duration; drawn from the phoneme's typical range when
            omitted.
        rng:
            Seed or generator for jitter, noise, and duration draws.

        Returns
        -------
        numpy.ndarray
            Mono waveform at :attr:`sample_rate`; silent phonemes return
            near-zero samples of the requested duration.
        """
        generator = as_generator(rng)
        phoneme = get_phoneme(symbol)
        if duration_s is None:
            low, high = phoneme.duration_range_s
            duration_s = float(generator.uniform(low, high))
        n_samples = max(int(round(duration_s * self.sample_rate)), 8)

        if not phoneme.is_sounding:
            return 1e-6 * generator.standard_normal(n_samples)

        voiced_part = np.zeros(n_samples)
        noise_part = np.zeros(n_samples)
        if phoneme.voiced and phoneme.formants:
            voiced_part = self._harmonic_series(
                phoneme, speaker, n_samples, generator
            )
        if phoneme.noise_band is not None and phoneme.noise_gain > 0:
            noise_part = phoneme.noise_gain * self._shaped_noise(
                phoneme, speaker, n_samples, generator
            )
        if phoneme.voiced and speaker.breathiness > 0 and phoneme.formants:
            noise_part += speaker.breathiness * self._aspiration(
                phoneme, speaker, n_samples, generator
            )

        waveform = voiced_part + noise_part
        waveform *= self._amplitude_envelope(phoneme, n_samples)
        return self._scale_to_intensity(waveform, phoneme, speaker)

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------

    def _harmonic_series(
        self,
        phoneme: Phoneme,
        speaker: SpeakerProfile,
        n_samples: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """Additive harmonic synthesis shaped by the formant envelope.

        Harmonic k has phase k·θ(t) + φ_k, with θ = 2π·f0·cumsum(vibrato)
        / rate, so the series Σ a_k sin(k·θ + φ_k) is Im(Σ c_k z^k) with
        z = e^{iθ} and c_k = a_k·e^{iφ_k}.  The polynomial is evaluated
        by Horner's rule: one complex ``exp`` per sample and H complex
        multiply-adds per sample, instead of ``sin`` over an (n, H)
        phase matrix.  The draws are f0 jitter, then the H phases, then
        the vibrato phase.
        """
        sample_rate = self.sample_rate
        nyquist = sample_rate / 2.0
        f0 = speaker.f0_hz * float(
            1.0 + generator.normal(0.0, speaker.jitter)
        )
        f0 = float(np.clip(f0, 50.0, 400.0))
        n_harmonics = min(
            int(nyquist / f0) - 1, self.config.max_harmonics
        )
        if n_harmonics < 1:
            raise SynthesisError(
                f"F0 {f0:.1f} Hz leaves no harmonics below Nyquist"
            )
        t = np.arange(n_samples) / sample_rate
        harmonic_freqs = f0 * np.arange(1, n_harmonics + 1)
        amplitudes = (
            spectral_envelope(phoneme, speaker, harmonic_freqs)
            * _glottal_tilt(harmonic_freqs)
        )
        phases = generator.uniform(0.0, 2 * np.pi, size=n_harmonics)
        # Slow vibrato: a few cents of F0 drift across the segment.
        vibrato = 1.0 + 0.003 * np.sin(
            2 * np.pi * 5.0 * t + generator.uniform(0, 2 * np.pi)
        )
        z = np.exp(1j * (2 * np.pi * f0 / sample_rate) * np.cumsum(vibrato))
        coefficients = amplitudes * np.exp(1j * phases)
        # Horner's rule, in place: z·(c_1 + z·(c_2 + … + z·c_H)).
        total = np.full(n_samples, coefficients[-1])
        for coefficient in coefficients[-2::-1]:
            total *= z
            total += coefficient
        total *= z
        return total.imag

    def _shaped_noise(
        self,
        phoneme: Phoneme,
        speaker: SpeakerProfile,
        n_samples: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """White noise band-limited to the phoneme's frication band."""
        low_hz, high_hz = phoneme.noise_band
        nyquist = self.sample_rate / 2.0
        low_hz = min(low_hz, nyquist * 0.95)
        high_hz = min(high_hz, nyquist * 0.999)
        white = generator.standard_normal(n_samples)
        # Raised-cosine band edges avoid ringing from brick-wall masks.
        width = max((high_hz - low_hz) * 0.15, 50.0)

        def gain_of(frequencies: np.ndarray) -> np.ndarray:
            rise = (frequencies - (low_hz - width)) / width
            fall = ((high_hz + width) - frequencies) / width
            return np.clip(rise, 0.0, 1.0) * np.clip(fall, 0.0, 1.0)

        shaped = spectral_filter(white, self.sample_rate, gain_of)
        rms = float(np.sqrt(np.mean(shaped**2))) + 1e-12
        return shaped / rms

    def _aspiration(
        self,
        phoneme: Phoneme,
        speaker: SpeakerProfile,
        n_samples: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """Breathy noise colored by the phoneme's formants."""
        white = generator.standard_normal(n_samples)
        shaped = spectral_filter(
            white,
            self.sample_rate,
            lambda frequencies: spectral_envelope(
                phoneme, speaker, frequencies
            ),
        )
        rms = float(np.sqrt(np.mean(shaped**2))) + 1e-12
        return shaped / rms

    def _amplitude_envelope(
        self, phoneme: Phoneme, n_samples: int
    ) -> np.ndarray:
        """Temporal envelope: burst-like for stops, smooth otherwise."""
        t = np.linspace(0.0, 1.0, n_samples)
        if phoneme.klass is PhonemeClass.STOP:
            # Sharp attack, exponential decay: a release burst.
            return np.exp(-6.0 * t) * (1.0 - np.exp(-80.0 * t))
        if phoneme.klass is PhonemeClass.AFFRICATE:
            return np.exp(-3.0 * t) * (1.0 - np.exp(-40.0 * t))
        attack = np.clip(t / 0.15, 0.0, 1.0)
        release = np.clip((1.0 - t) / 0.2, 0.0, 1.0)
        return np.minimum(attack, release) ** 0.5

    def _scale_to_intensity(
        self,
        waveform: np.ndarray,
        phoneme: Phoneme,
        speaker: SpeakerProfile,
    ) -> np.ndarray:
        """Scale RMS to the phoneme's intensity plus speaker loudness."""
        rms = float(np.sqrt(np.mean(waveform**2)))
        if rms <= 1e-12:
            return waveform
        target_db = phoneme.intensity_db + speaker.loudness_db
        target_rms = self.config.reference_rms * 10.0 ** (target_db / 20.0)
        return waveform * (target_rms / rms)
