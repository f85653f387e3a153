"""Hidden voice attack: obfuscated commands (Carlini et al. style).

Hidden voice commands are engineered to be recognized by machine speech
recognizers while sounding like noise to humans.  Acoustically they keep
the command's temporal envelope and a skeleton of its spectral peaks but
replace the fine structure with wideband noise spanning roughly 0–6 kHz —
the paper notes this wider band makes the barrier's frequency selectivity
*more* visible, which is why its defense reaches ~0 % EER against them.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.attacks.base import AttackKind, AttackSound, IndexedAttackMixin
from repro.dsp.filters import butter_lowpass, fast_length, spectral_filter
from repro.errors import ConfigurationError
from repro.phonemes.commands import VA_COMMANDS, phonemize
from repro.phonemes.corpus import SyntheticCorpus
from repro.phonemes.speaker import SpeakerProfile
from repro.utils.rng import SeedLike, as_generator, child_rng


class HiddenVoiceAttack(IndexedAttackMixin):
    """Generates noise-like obfuscated voice commands."""

    kind = AttackKind.HIDDEN_VOICE

    #: Upper edge of the obfuscated commands' wideband content.
    BANDWIDTH_HZ = 6000.0

    def __init__(
        self,
        corpus: SyntheticCorpus,
        template_speaker: Optional[SpeakerProfile] = None,
        commands: Sequence[str] = VA_COMMANDS,
    ) -> None:
        if not commands:
            raise ConfigurationError("commands must be non-empty")
        self.corpus = corpus
        self.template_speaker = (
            template_speaker or corpus.speakers[0]
        )
        self.commands = tuple(commands)

    def generate(
        self,
        command: Optional[str] = None,
        rng: SeedLike = None,
    ) -> AttackSound:
        """Obfuscate one command into a noise-like attack sound."""
        generator = as_generator(rng)
        if command is None:
            command = self.commands[
                int(generator.integers(0, len(self.commands)))
            ]
        template = self.corpus.utterance(
            phonemize(command),
            speaker=self.template_speaker,
            text=command,
            rng=child_rng(generator, "template"),
        )
        waveform = self._obfuscate(
            template.waveform,
            template.sample_rate,
            child_rng(generator, "noise"),
        )
        return AttackSound(
            kind=self.kind,
            waveform=waveform,
            sample_rate=template.sample_rate,
            utterance=template,
            description=f"hidden voice command for {command!r}",
        )

    def _obfuscate(
        self,
        template: np.ndarray,
        sample_rate: float,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """Replace fine structure with envelope-shaped wideband noise.

        Keeps (a) the command's amplitude envelope and (b) a heavily
        blurred version of its spectral envelope, mixed with flat noise
        up to ``BANDWIDTH_HZ`` — recognizable to machines that track
        coarse spectro-temporal energy, meaningless to human listeners.
        """
        envelope = butter_lowpass(
            np.abs(template), sample_rate, 30.0, order=2
        )
        envelope = np.clip(envelope, 0.0, None)

        noise = generator.standard_normal(template.size)
        template_spectrum = np.abs(
            np.fft.rfft(template, n=fast_length(template.size))
        )
        # Blur the spectral envelope heavily (octave-scale smoothing).
        kernel = np.ones(129) / 129.0
        blurred = np.convolve(template_spectrum, kernel, mode="same")
        blurred /= blurred.max() + 1e-12

        def shaping_of(frequencies: np.ndarray) -> np.ndarray:
            # ``noise`` has the template's length, so the kernel's bins
            # are those of the template spectrum above.
            assert blurred.size == frequencies.size
            band = 1.0 / (1.0 + (frequencies / self.BANDWIDTH_HZ) ** 10)
            return band * (0.5 + 0.5 * blurred)

        shaped = spectral_filter(noise, sample_rate, shaping_of)

        obfuscated = shaped * envelope
        rms_template = float(np.sqrt(np.mean(template**2)))
        rms_obfuscated = float(np.sqrt(np.mean(obfuscated**2))) + 1e-12
        return obfuscated * (rms_template / rms_obfuscated)
