"""Seeded request pool shared by the serve workloads.

Every pack contributes legitimate and replay pairs recorded in Room A
through ``ScenarioSpec.build_attack_scenario``: ``baseline-glass`` is
the paper's thru-barrier condition, ``ultrasound-solid`` the SUAD-style
solid-channel injection.  Requests walk the pool in a fresh seeded
order on every pass, so consecutive requests (and hence micro-batches)
mix packs and classes differently each time; request ``i`` has sensing
seed ``derive_seed(seed, "request", i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.attacks import ReplayAttack
from repro.eval.rooms import ROOM_A
from repro.phonemes import SyntheticCorpus, phonemize
from repro.scenarios import get_scenario
from repro.utils.rng import derive_seed

PACKS = ("baseline-glass", "ultrasound-solid")

#: Commands cycled through the pool (all phonemizable).
COMMANDS = (
    "alexa unlock the back door",
    "ok google open the garage door",
    "ok google lock the front door",
    "ok google turn on the lights",
)


@dataclass(frozen=True)
class PoolItem:
    """One recording pair with its pack and ground truth."""

    pack: str
    is_attack: bool
    va: np.ndarray
    wearable: np.ndarray


def build_pool(seed: int, pairs_per_class: int) -> List[PoolItem]:
    """``pairs_per_class`` legit and attack pairs for each pack."""
    corpus = SyntheticCorpus(n_speakers=2, seed=derive_seed(seed, "corpus"))
    user = corpus.speakers[0]
    replay = ReplayAttack(corpus, user)
    per_pack = {}
    for pack in PACKS:
        scenario = get_scenario(pack).build_attack_scenario(ROOM_A)
        items = []
        for index in range(pairs_per_class):
            command = COMMANDS[index % len(COMMANDS)]
            utterance = corpus.utterance(
                phonemize(command),
                speaker=user,
                text=command,
                rng=derive_seed(seed, pack, "utterance", index),
            )
            va, wearable = scenario.legitimate_recordings(
                utterance,
                spl_db=70.0,
                rng=derive_seed(seed, pack, "legit-rec", index),
            )
            items.append(PoolItem(pack, False, va, wearable))
            attack = replay.generate(
                command=command,
                rng=derive_seed(seed, pack, "attack", index),
            )
            va, wearable = scenario.attack_recordings(
                attack,
                spl_db=get_scenario(pack).attack_spl_db,
                rng=derive_seed(seed, pack, "attack-rec", index),
            )
            items.append(PoolItem(pack, True, va, wearable))
        per_pack[pack] = items
    return [item for pack in PACKS for item in per_pack[pack]]


def pool_index(seed: int, index: int, size: int) -> int:
    """Pool position of request ``index``: pass ``index // size`` visits
    every pair once, in its own seeded order."""
    rounds, position = divmod(index, size)
    order = np.random.default_rng(
        derive_seed(seed, "order", rounds)
    ).permutation(size)
    return int(order[position])


def request_seed(seed: int, index: int, stream: str = "request") -> int:
    """Sensing seed of request ``index`` of ``stream``.

    Measured requests use the ``request`` stream; warm-up and set-up
    requests draw from streams of their own.
    """
    return derive_seed(seed, stream, index)
