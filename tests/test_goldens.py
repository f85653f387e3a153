"""Golden digests of the sensing, channel and pipeline outputs.

Each test hashes the exact bytes (``ndarray.tobytes()``) of an output
and compares the SHA-256 digest with one recorded before the per-item
kernels were folded into the ``(batch, time)`` kernels.  A digest only
matches when every float is bitwise identical, so these tests pin the
refactor to "no numeric change at all", not to a tolerance.

The file also pins the precondition that refactor rests on: numpy's
``rfft``/``irfft`` and scipy's ``sosfiltfilt`` along ``axis=-1`` give
rows bitwise equal to the 1-D calls.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.acoustics.barrier import Barrier
from repro.acoustics.materials import GLASS_WINDOW
from repro.attacks import ReplayAttack
from repro.attacks.scenario import ThruBarrierChannel
from repro.core.segmentation import PhonemeSegmenter
from repro.eval.rooms import ROOM_A
from repro.phonemes import SyntheticCorpus, phonemize
from repro.scenarios import get_scenario
from repro.sensing.cross_domain import CrossDomainSensor

RATE = 16_000.0


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def _speech_like(n: int, seed: int) -> np.ndarray:
    """Deterministic wideband test signal with a speech-ish envelope."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    tone = 0.4 * np.sin(2 * np.pi * 210.0 * t)
    tone += 0.2 * np.sin(2 * np.pi * 1450.0 * t + 0.3)
    noise = 0.05 * rng.standard_normal(n)
    envelope = 0.5 + 0.5 * np.sin(2 * np.pi * 2.5 * t) ** 2
    return (tone + noise) * envelope


CONVERT_GOLDENS = {
    (4_001, False): (
        "5aefc5cb244029164fa771329747d0ff13d0bc92b31d5fecc62bfb819d468b12"
    ),
    (4_001, True): (
        "fb2ac9f4f09885665f005d883655663c67847b4a688439ea373749c5a57962e7"
    ),
    (12_000, False): (
        "b4beceddfdf0d45bb206aa885b555b109d986e96b2f5c50cc37bcd54bf54d2f6"
    ),
    (12_000, True): (
        "534f783252d9df8728d1b9e232a84580e9b763b991d30d8d1e04d4afce8585f1"
    ),
    (16_000, False): (
        "526f223fe79f9671e032b00c903d63abc76e473f825b101563bad720e50ed29c"
    ),
    (16_000, True): (
        "f985cc2970e2311aea6febaed21e3aaf8c5514061200dfe2304bb3b8d6c9ff8f"
    ),
}


@pytest.mark.parametrize("n, body", sorted(CONVERT_GOLDENS))
def test_convert_golden(n, body):
    vibration = CrossDomainSensor().convert(
        _speech_like(n, seed=n), RATE, rng=n + 1, include_body_motion=body
    )
    assert _digest(vibration) == CONVERT_GOLDENS[(n, body)]


def test_convert_batch_mixed_lengths_golden():
    lengths = (4_000, 16_000, 4_000, 12_000, 16_000, 4_001)
    audios = [_speech_like(n, seed=index) for index, n in enumerate(lengths)]
    vibrations = CrossDomainSensor().convert_batch(
        audios,
        RATE,
        rngs=list(range(30, 30 + len(audios))),
        include_body_motion=True,
    )
    assert _digest(*vibrations) == (
        "0111b0aed9f62f348016c6496558297bf55b6763a8f657d2e789851fe12251df"
    )


def test_thru_barrier_transmit_golden():
    channel = ThruBarrierChannel(barrier=Barrier(GLASS_WINDOW))
    field = channel.transmit(
        _speech_like(12_000, seed=4), RATE, spl_db=75.0, rng=5
    )
    assert _digest(field) == (
        "c55f0954690c9aff5e9eb59263d19fdea107934213a34cc449f33491ea1e8637"
    )


def test_ultrasound_injection_transmit_golden():
    channel = get_scenario("ultrasound-solid").build_attack_channel()
    field = channel.transmit(
        _speech_like(12_345, seed=6), RATE, spl_db=75.0, rng=7
    )
    assert _digest(field) == (
        "835709eaef794a1d1080b2fd2c17f0684fb421ef75c5aecd7ab084112971e46e"
    )


# ----------------------------------------------------------------------
# Pipeline scores
# ----------------------------------------------------------------------

PACKS = ("baseline-glass", "ultrasound-solid")
COMMANDS = ("ok google open the garage door", "alexa unlock the back door")


@pytest.fixture(scope="module")
def recordings():
    """``{pack: [(utterance, va, wearable), ...]}``: legit then replay."""
    corpus = SyntheticCorpus(n_speakers=2, seed=11)
    user = corpus.speakers[0]
    replay = ReplayAttack(corpus, user)
    out = {}
    for pack_index, pack in enumerate(PACKS):
        spec = get_scenario(pack)
        scenario = spec.build_attack_scenario(ROOM_A)
        pairs = []
        for index, command in enumerate(COMMANDS):
            seed = 100 * pack_index + 10 * index
            utterance = corpus.utterance(
                phonemize(command), speaker=user, text=command, rng=seed
            )
            va, wearable = scenario.legitimate_recordings(
                utterance, spl_db=70.0, rng=seed + 1
            )
            pairs.append((utterance, va, wearable))
            attack = replay.generate(command=command, rng=seed + 2)
            va, wearable = scenario.attack_recordings(
                attack, spl_db=spec.attack_spl_db, rng=seed + 3
            )
            pairs.append((attack.utterance, va, wearable))
        out[pack] = pairs
    return out


SCORE_GOLDENS = {
    ("baseline-glass", "oracle"): (
        "65e39ac4bbf1f8b381f9a084f2f7f1ec74b49f476008c5ce9b3fd00378b9d13c"
    ),
    ("baseline-glass", "none"): (
        "b6ded6aba34fa81d30910cd564c769f2e0d47e4aa356e807fc9cfd1fdaef6faa"
    ),
    ("ultrasound-solid", "oracle"): (
        "07177fa94cb64353fa37fe1cb3e78d13831ac069b85ec3cc793908546c4f52bc"
    ),
    ("ultrasound-solid", "none"): (
        "04c9b5bc6e581221c8f9eb16cda66263358a58889af0323055277ae99ffcefd6"
    ),
}


@pytest.mark.parametrize("pack, segmentation", sorted(SCORE_GOLDENS))
def test_analyze_scores_golden(recordings, pack, segmentation):
    oracle = segmentation == "oracle"
    pipeline = get_scenario(pack).build_pipeline(
        segmenter=PhonemeSegmenter(rng=0) if oracle else None
    )
    scores = [
        pipeline.analyze(
            va,
            wearable,
            rng=index,
            oracle_utterance=utterance if oracle else None,
        ).score
        for index, (utterance, va, wearable) in enumerate(
            recordings[pack]
        )
    ]
    assert _digest(np.array(scores)) == SCORE_GOLDENS[(pack, segmentation)]


# ----------------------------------------------------------------------
# Row identity of the library kernels along the last axis
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1_000, 4_001, 12_345])
def test_rfft_irfft_rows_match_1d(n):
    stack = np.random.default_rng(n).normal(size=(3, n))
    spectra = np.fft.rfft(stack, axis=-1)
    inverse = np.fft.irfft(spectra, n=n, axis=-1)
    for row in range(stack.shape[0]):
        single = np.fft.rfft(stack[row])
        np.testing.assert_array_equal(spectra[row], single)
        np.testing.assert_array_equal(
            inverse[row], np.fft.irfft(single, n=n)
        )


@pytest.mark.parametrize("order, cutoff", [(2, 8.0), (4, 800.0), (6, 5.0)])
def test_sosfiltfilt_rows_match_1d(order, cutoff):
    sos = sp_signal.butter(
        order, cutoff, btype="lowpass", fs=RATE, output="sos"
    )
    stack = np.random.default_rng(order).normal(size=(3, 8_000))
    filtered = sp_signal.sosfiltfilt(sos, stack, axis=-1)
    for row in range(stack.shape[0]):
        np.testing.assert_array_equal(
            filtered[row], sp_signal.sosfiltfilt(sos, stack[row])
        )
