"""Common attack types."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.phonemes.corpus import Utterance
from repro.utils.rng import SeedLike, derive_seed


class AttackKind(enum.Enum):
    """The four thru-barrier attack approaches of the threat model."""

    RANDOM = "random"
    REPLAY = "replay"
    SYNTHESIS = "synthesis"
    HIDDEN_VOICE = "hidden_voice"


def attack_stream(
    seed: SeedLike,
    kind: Union[AttackKind, str],
    index: int,
) -> np.random.Generator:
    """The canonical per-attack RNG stream for scenario-driven attacks.

    Keyed on ``(scenario seed, attack kind, attack index)`` through
    :func:`~repro.utils.rng.derive_seed`, so the ``index``-th attack of
    a kind is the same waveform no matter which worker generates it, in
    which order, or in which process — the reproducibility contract
    red-team populations mapped over a process pool by
    :func:`repro.runtime.map_units` rely on.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    kind_label = kind.value if isinstance(kind, AttackKind) else str(kind)
    return np.random.default_rng(
        derive_seed(seed, "attack", kind_label, index)
    )


class IndexedAttackMixin:
    """Adds indexed, stream-derived generation to an attack generator.

    Every generator in :mod:`repro.attacks` exposes
    ``generate_indexed(seed, index, command=None)``: the per-attack RNG
    stream is derived from ``(seed, self.kind, index)`` via
    :func:`attack_stream`, never from shared mutable generator state,
    so attack ``index`` is bitwise independent of how many attacks were
    generated before it.
    """

    def generate_indexed(
        self,
        seed: SeedLike,
        index: int,
        command: Optional[str] = None,
    ) -> "AttackSound":
        """Generate the ``index``-th attack of this generator's stream."""
        return self.generate(
            command=command,
            rng=attack_stream(seed, self.kind, index),
        )


@dataclass(frozen=True)
class AttackSound:
    """An attack waveform ready for playback behind the barrier.

    Attributes
    ----------
    kind:
        Which attack generated it.
    waveform:
        Audio samples (pre-playback; SPL applied by the scenario).
    sample_rate:
        Sampling rate of ``waveform``.
    utterance:
        The underlying aligned utterance when one exists (clear-voice
        attacks); hidden-voice attacks have none.
    description:
        Human-readable provenance for reports.
    """

    kind: AttackKind
    waveform: np.ndarray
    sample_rate: float
    utterance: Optional[Utterance] = None
    description: str = ""
