"""One attack kind → generator dispatch for every campaign."""

from __future__ import annotations

from repro.attacks.base import AttackKind, IndexedAttackMixin
from repro.attacks.hidden_voice import HiddenVoiceAttack
from repro.attacks.random_attack import RandomAttack
from repro.attacks.replay import ReplayAttack
from repro.attacks.synthesis import VoiceSynthesisAttack
from repro.errors import ConfigurationError
from repro.phonemes.corpus import SyntheticCorpus
from repro.phonemes.speaker import SpeakerProfile
from repro.utils.rng import SeedLike


def make_attack_generator(
    kind: AttackKind,
    corpus: SyntheticCorpus,
    victim: SpeakerProfile,
    adversary: SpeakerProfile,
    synthesis_rng: SeedLike = None,
) -> IndexedAttackMixin:
    """The generator of one attack kind against ``victim``.

    Random attacks speak in the adversary's voice, replay and synthesis
    imitate the victim, and hidden-voice commands use no speaker.
    ``synthesis_rng`` seeds the victim-adapted TTS and is read only for
    :attr:`AttackKind.SYNTHESIS`, so a caller that derives it from a
    shared stream should derive it only for that kind.
    """
    if kind is AttackKind.RANDOM:
        return RandomAttack(corpus, adversary)
    if kind is AttackKind.REPLAY:
        return ReplayAttack(corpus, victim)
    if kind is AttackKind.SYNTHESIS:
        return VoiceSynthesisAttack(corpus, victim, rng=synthesis_rng)
    if kind is AttackKind.HIDDEN_VOICE:
        return HiddenVoiceAttack(corpus)
    raise ConfigurationError(f"unsupported attack kind {kind}")
