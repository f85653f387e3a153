"""Per-attack RNG streams: bitwise reproducibility across executors."""

import numpy as np
import pytest

from repro.attacks import (
    AttackKind,
    HiddenVoiceAttack,
    RandomAttack,
    ReplayAttack,
    VoiceSynthesisAttack,
    attack_stream,
)
from repro.phonemes import SyntheticCorpus
from repro.redteam.campaign import attack_digest_unit
from repro.runtime import map_units

CORPUS = SyntheticCorpus(n_speakers=3, seed=11)


def _generators():
    return {
        AttackKind.REPLAY: ReplayAttack(CORPUS, CORPUS.speakers[0]),
        AttackKind.RANDOM: RandomAttack(CORPUS, CORPUS.speakers[1]),
        AttackKind.HIDDEN_VOICE: HiddenVoiceAttack(CORPUS),
        AttackKind.SYNTHESIS: VoiceSynthesisAttack(
            CORPUS, CORPUS.speakers[0], rng=0
        ),
    }


def test_attack_stream_accepts_kind_or_label():
    a = attack_stream(7, AttackKind.REPLAY, 3)
    b = attack_stream(7, "replay", 3)
    assert a.bit_generator.state == b.bit_generator.state


def test_attack_stream_rejects_negative_index():
    with pytest.raises(ValueError):
        attack_stream(0, AttackKind.REPLAY, -1)


def test_streams_differ_by_seed_kind_and_index():
    base = attack_stream(0, "replay", 0).bit_generator.state
    for other in (
        attack_stream(1, "replay", 0),
        attack_stream(0, "random", 0),
        attack_stream(0, "replay", 1),
    ):
        assert other.bit_generator.state != base


@pytest.mark.parametrize("kind", list(AttackKind))
def test_generate_indexed_is_bitwise_reproducible(kind):
    generator = _generators()[kind]
    a = generator.generate_indexed(5, 2)
    b = generator.generate_indexed(5, 2)
    assert np.array_equal(a.waveform, b.waveform)
    assert a.kind == kind


def test_generate_indexed_varies_with_index():
    generator = _generators()[AttackKind.REPLAY]
    a = generator.generate_indexed(5, 0)
    b = generator.generate_indexed(5, 1)
    assert not np.array_equal(a.waveform, b.waveform)


def test_indexed_attacks_are_order_independent():
    """Stream-per-attack means generation order cannot matter."""
    generator = _generators()[AttackKind.RANDOM]
    forward = [generator.generate_indexed(3, i) for i in range(4)]
    backward = [
        generator.generate_indexed(3, i) for i in reversed(range(4))
    ]
    for a, b in zip(forward, reversed(backward)):
        assert np.array_equal(a.waveform, b.waveform)


@pytest.mark.parametrize("n_workers", [1, 2], ids=["inline", "process"])
def test_digests_are_bitwise_identical_across_executors(n_workers):
    """The determinism contract under process-parallel execution.

    Each unit rebuilds its attack from (seed, kind, index) in whatever
    process it lands in; the SHA-256 of the waveform must not depend on
    the executor, the worker count, or which worker ran it.
    """
    payloads = [
        (7, "replay", index, "ok google turn on the lights")
        for index in range(3)
    ] + [(7, "random", 0, None)]
    digests, fell_back = map_units(attack_digest_unit, payloads, n_workers)
    assert not fell_back
    inline = [attack_digest_unit(payload) for payload in payloads]
    assert digests == inline
    # Distinct indices produce distinct attacks.
    assert len(set(digests)) == len(digests)
