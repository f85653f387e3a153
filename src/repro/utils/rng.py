"""Deterministic random-number-generator plumbing.

All stochastic components in the library accept either an integer seed or a
:class:`numpy.random.Generator`.  Experiments are reproducible because every
source of randomness is derived from an explicitly passed seed; nothing in
the library touches numpy's global RNG state.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Seed used when a caller passes ``None``.  Experiments that must be
#: reproducible should always pass their own seed.
DEFAULT_SEED = 0x1CDC5


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so components can
    share one stream when the caller wants correlated draws, or receive
    independent child streams via :func:`child_rng`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def child_seed(rng: np.random.Generator, label: str) -> int:
    """Derive an independent child *seed* keyed by ``label``.

    Consumes exactly one draw from ``rng`` (the same draw
    :func:`child_rng` makes), so ``as_generator(child_seed(rng, label))``
    produces a stream identical to ``child_rng(rng, label)``.  The
    integer form is hashable, which lets caches key synthesized material
    on it (see :meth:`repro.phonemes.corpus.SyntheticCorpus.utterance`).
    """
    label_key = np.frombuffer(label.encode("utf-8"), dtype=np.uint8)
    mix = int(label_key.sum()) + 1000003 * len(label_key)
    return int(rng.integers(0, 2**63 - 1)) ^ mix


def child_rng(rng: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator keyed by ``label``.

    The label is hashed into the child seed so two differently-labelled
    children of the same parent never share a stream, while the derivation
    stays deterministic for a given parent state.
    """
    return np.random.default_rng(child_seed(rng, label))


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` independent generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees
    statistical independence between the returned streams.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**63 - 1))
    elif seed is None:
        base = DEFAULT_SEED
    else:
        base = int(seed)
    sequence = np.random.SeedSequence(base)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def derive_seed(seed: SeedLike, *labels: object) -> int:
    """Derive a stable integer seed from a base seed and a label tuple.

    Used by the evaluation campaign to give every (participant, room,
    attack, trial) combination its own reproducible stream.
    """
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**63 - 1))
    elif seed is None:
        base = DEFAULT_SEED
    else:
        base = int(seed)
    accumulator = base & 0xFFFFFFFFFFFF
    for label in labels:
        for char in str(label):
            accumulator = (accumulator * 1000003 + ord(char)) & 0xFFFFFFFFFFFF
        accumulator = (accumulator * 31 + 17) & 0xFFFFFFFFFFFF
    return accumulator

