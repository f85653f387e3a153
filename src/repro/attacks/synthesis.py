"""Voice synthesis attack: victim-adapted text-to-speech.

The paper's adversary trains a speaker-adaptive TTS model [Jia et al.
2018] on ~20 victim samples.  The substitution: estimate the victim's
vocal parameters (F0, formant scale, loudness) from a few enrollment
utterances, then re-synthesize the target command through the library's
source–filter engine with typical synthesis artifacts — imperfect
parameter estimates, flattened prosody (reduced jitter), and spectral
smoothing.  The defense never inspects the TTS internals, only the
acoustics of the result, so this preserves the relevant behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.attacks.base import AttackKind, AttackSound, IndexedAttackMixin
from repro.dsp.filters import spectral_filter
from repro.errors import ConfigurationError
from repro.phonemes.commands import VA_COMMANDS, phonemize
from repro.phonemes.corpus import SyntheticCorpus, Utterance
from repro.phonemes.speaker import SpeakerProfile
from repro.utils.rng import SeedLike, as_generator, child_rng, child_seed


@dataclass(frozen=True)
class SpeakerEstimate:
    """Adversary's estimate of the victim's vocal parameters."""

    f0_hz: float
    formant_scale: float
    loudness_db: float


def estimate_speaker(
    enrollment: Sequence[Utterance],
    victim: SpeakerProfile,
    rng: SeedLike = None,
) -> SpeakerEstimate:
    """Estimate vocal parameters from enrollment utterances.

    More enrollment data yields tighter estimates; the residual error
    shrinks with ``1 / sqrt(n)``, modelling TTS adaptation quality.
    """
    if not enrollment:
        raise ConfigurationError("need at least one enrollment utterance")
    generator = as_generator(rng)
    precision = 1.0 / np.sqrt(len(enrollment))
    return SpeakerEstimate(
        f0_hz=float(
            victim.f0_hz * (1.0 + generator.normal(0.0, 0.02 * precision))
        ),
        formant_scale=float(
            victim.formant_scale
            * (1.0 + generator.normal(0.0, 0.015 * precision))
        ),
        loudness_db=float(
            victim.loudness_db + generator.normal(0.0, 1.0 * precision)
        ),
    )


class VoiceSynthesisAttack(IndexedAttackMixin):
    """Synthesizes commands in an (estimated) victim voice."""

    kind = AttackKind.SYNTHESIS

    def __init__(
        self,
        corpus: SyntheticCorpus,
        victim: SpeakerProfile,
        n_enrollment: int = 20,
        commands: Sequence[str] = VA_COMMANDS,
        rng: SeedLike = None,
    ) -> None:
        if not commands:
            raise ConfigurationError("commands must be non-empty")
        if n_enrollment <= 0:
            raise ConfigurationError("n_enrollment must be > 0")
        self.corpus = corpus
        self.victim = victim
        self.commands = tuple(commands)
        generator = as_generator(rng)
        enrollment = [
            corpus.utterance(
                phonemize(
                    self.commands[index % len(self.commands)]
                ),
                speaker=victim,
                # Integer seeds so repeated enrollments (e.g. across the
                # values of a factor sweep) hit the corpus cache.
                rng=child_seed(generator, f"enroll-{index}"),
            )
            for index in range(n_enrollment)
        ]
        estimate = estimate_speaker(
            enrollment, victim, rng=child_rng(generator, "estimate")
        )
        # The cloned voice: victim parameters as estimated, with TTS
        # artifacts — flattened prosody (minimal jitter) and reduced
        # breath noise.
        self.cloned_speaker = replace(
            victim,
            speaker_id=f"{victim.speaker_id}-tts",
            f0_hz=float(np.clip(estimate.f0_hz, 50.0, 400.0)),
            formant_scale=float(
                np.clip(estimate.formant_scale, 0.7, 1.5)
            ),
            loudness_db=estimate.loudness_db,
            jitter=0.002,
            breathiness=max(victim.breathiness * 0.5, 0.02),
        )

    def generate(
        self,
        command: Optional[str] = None,
        rng: SeedLike = None,
    ) -> AttackSound:
        """Synthesize one command in the cloned victim voice."""
        generator = as_generator(rng)
        if command is None:
            command = self.commands[
                int(generator.integers(0, len(self.commands)))
            ]
        utterance = self.corpus.utterance(
            phonemize(command),
            speaker=self.cloned_speaker,
            text=command,
            rng=child_seed(generator, "utterance"),
        )
        waveform = self._spectral_smoothing(
            utterance.waveform, utterance.sample_rate
        )
        return AttackSound(
            kind=self.kind,
            waveform=waveform,
            sample_rate=utterance.sample_rate,
            utterance=utterance,
            description=(
                f"synthesized {self.victim.speaker_id} voice: {command!r}"
            ),
        )

    @staticmethod
    def _spectral_smoothing(
        waveform: np.ndarray, sample_rate: float
    ) -> np.ndarray:
        """Mild high-frequency loss typical of neural vocoders."""
        return spectral_filter(
            waveform,
            sample_rate,
            lambda frequencies: 1.0 / (1.0 + (frequencies / 6500.0) ** 6),
        )
