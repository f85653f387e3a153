"""Attack generators for the four threat-model attacks (paper § II).

Every attack produces an audio waveform to be played by the adversary's
loudspeaker behind the barrier: random (another speaker's voice), replay
(recorded victim audio), voice synthesis (victim-adapted TTS), and hidden
voice (obfuscated wideband commands).
"""

from repro.attacks.base import (
    AttackKind,
    AttackSound,
    IndexedAttackMixin,
    attack_stream,
)
from repro.attacks.random_attack import RandomAttack
from repro.attacks.replay import ReplayAttack
from repro.attacks.synthesis import VoiceSynthesisAttack
from repro.attacks.hidden_voice import HiddenVoiceAttack
from repro.attacks.factory import make_attack_generator
from repro.attacks.scenario import AttackScenario, ThruBarrierChannel

__all__ = [
    "AttackKind",
    "AttackSound",
    "IndexedAttackMixin",
    "attack_stream",
    "RandomAttack",
    "ReplayAttack",
    "VoiceSynthesisAttack",
    "HiddenVoiceAttack",
    "make_attack_generator",
    "AttackScenario",
    "ThruBarrierChannel",
]
