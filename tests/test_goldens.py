"""Golden digests of the sensing, channel and pipeline outputs.

Each test hashes the exact bytes (``ndarray.tobytes()``) of an output
and compares the SHA-256 digest with one recorded before the per-item
kernels were folded into the ``(batch, time)`` kernels.  A digest only
matches when every float is bitwise identical, so these tests pin the
refactor to "no numeric change at all", not to a tolerance.

The replay later began padding each recording to a fast FFT length.
Recordings already at a fast length (12 000 and 16 000 samples) kept
their digests; the 4 001-sample conversions, the mixed-length batch and
the pipeline scores were re-recorded, and tolerance tests bound how far
they moved from the unpadded replay.

A third re-recording followed when the accelerometer's DC and noise
envelopes moved from the audio rate to the 200 Hz sensor rate: all six
conversions, the mixed-length batch and the four pipeline score sets.
The attack-channel transmit digests do not pass through the
accelerometer and are unchanged; the score tolerance tests against the
unpadded replay hold unedited.

A fourth re-recording followed when every spectral filter in the
library (device responses, air and barrier transmission, the conduction
paths and the shaped noise generators) moved to fast FFT lengths.
Replay inputs already arrive at a fast length, so the six conversions,
the mixed-length batch and the 12 000-sample thru-barrier transmit keep
their digests.  The 12 345-sample ultrasound injection and the four
pipeline score sets were re-recorded: their recordings are synthesized,
captured and transmitted through the new filters.  The unpadded
reference is now the test-side :func:`_unpadded_replay`, since
``sensor.channel.apply`` pads its filters too; its score tuples were
recomputed on the new recordings, and the tolerances are unchanged.

The file also pins the precondition that refactor rests on: numpy's
``rfft``/``irfft``, scipy's ``sosfiltfilt`` and the library's cached
zero-phase kernel along ``axis=-1`` give rows bitwise equal to the 1-D
calls.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.acoustics.barrier import Barrier
from repro.acoustics.loudspeaker import Loudspeaker
from repro.acoustics.materials import GLASS_WINDOW
from repro.attacks import ReplayAttack
from repro.attacks.scenario import ThruBarrierChannel
from repro.core.segmentation import PhonemeSegmenter
from repro.dsp.filters import butter_design, zero_phase
from repro.eval.rooms import ROOM_A
from repro.phonemes import SyntheticCorpus, phonemize
from repro.scenarios import get_scenario
from repro.sensing.cross_domain import CrossDomainSensor
from repro.utils.rng import as_generator

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
        "cbc2e5091e9071b0027ca85d4b84c24077bbb4b6e893be8eda34500ff4df7c23"
    ),
    (4_001, True): (
        "e34b991cf75b600b74a195baf7ccf74c34c9ac94d1e882dc0765596f1cdc65ed"
    ),
    (12_000, False): (
        "503a6ef2d69dd9046d5789a87f128712cb7493de00a79c5522ba190f8a98c9e1"
    ),
    (12_000, True): (
        "b6e0625b5643d555d5de64e2034c0bf7c88e05784f61cc951cb8b815983bb3d1"
    ),
    (16_000, False): (
        "d198ba50f8578014cad4f4453211007c2234a8c6f88d4df96ba029a9ee97d2e5"
    ),
    (16_000, True): (
        "f3cdf168eb869341c00f6d10126ab9d1ae5b029f7730d4fe8a9dc4c7395b5638"
    ),
}


@pytest.mark.parametrize("n, body", sorted(CONVERT_GOLDENS))
def test_convert_golden(n, body):
    vibration = CrossDomainSensor().convert(
        _speech_like(n, seed=n), RATE, rng=n + 1, include_body_motion=body
    )
    assert _digest(vibration) == CONVERT_GOLDENS[(n, body)]


def _unpadded_replay(sensor, audio, rng):
    """The replay with raw-length speaker and conduction filters.

    Before the library's spectral filters moved to fast FFT lengths,
    ``sensor.channel.apply`` was exactly this at every length: both
    filters take ``rfft``/``irfft`` at the recording's own length, so
    each wraps its tail circularly onto the clip's start.  ``rng`` is
    consumed as the channel consumes it (one stream per stage, derived
    up front), and the accelerometer stage runs as in the library.
    """
    speaker, conduction, accelerometer = sensor.channel.stages
    streams = sensor.channel.derive_streams(as_generator(rng))
    n = audio.size
    frequencies = np.fft.rfftfreq(n, d=1.0 / RATE)
    played = np.fft.irfft(
        np.fft.rfft(audio)
        * Loudspeaker(speaker.spec).frequency_response(frequencies),
        n=n,
    )
    distortion = speaker.spec.harmonic_distortion
    if distortion > 0:
        peak = np.max(np.abs(played)) + 1e-12
        played = peak * (played / peak + distortion * (played / peak) ** 2)
    path = conduction.path
    gain = path.response(frequencies)
    if path.response_jitter_db > 0:
        gain = gain * path._response_ripple(frequencies, streams[1])
    coupled = np.fft.irfft(np.fft.rfft(played) * gain, n=n)
    return accelerometer.apply(
        coupled, RATE, rng=streams[2], chain_input=audio
    )


@pytest.mark.parametrize("n", [12_000, 16_000])
def test_unpadded_replay_is_the_channel_at_a_fast_length(n):
    sensor = CrossDomainSensor()
    audio = _speech_like(n, seed=n)
    np.testing.assert_array_equal(
        _unpadded_replay(sensor, audio, rng=n + 1),
        sensor.channel.apply(audio, RATE, rng=n + 1),
    )


@pytest.mark.parametrize("n, bound", [(4_001, 5e-3), (48_397, 1e-3)])
def test_convert_close_to_unpadded_replay(n, bound):
    """The fast-length replay stays close to the unpadded channel.

    The first sample carries the unpadded FFTs' circular wrap-around and
    the last three the decimated zero tail, so both are left out.  The
    rest moves through the 5 Hz DC-envelope filter's edge transient,
    which the silent tail shifts: a 0.25 s clip lies wholly inside it
    (0.4% of the peak at 4 001 samples), a 3 s one only at its end.
    """
    sensor = CrossDomainSensor()
    audio = _speech_like(n, seed=n)
    padded = sensor.convert(audio, RATE, rng=n + 1)
    unpadded = _unpadded_replay(sensor, audio, rng=n + 1)
    assert padded.shape == unpadded.shape
    error = np.abs(padded - unpadded)[1:-3]
    assert error.max() <= bound * np.abs(unpadded).max()


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
        "a0c9dfbcf04d89c5dc81064975c08dfa530058ba3e6d5d1960996ee56bde2d9e"
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
        "c06f740705868e3e6f8bee9d8406b316b6f86867b26e975eb526596ccc1a8742"
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
        "18913034fa734e7e665e7d668d0f71409682c4fd47be9e86826df97719856691"
    ),
    ("baseline-glass", "none"): (
        "9ccc2eea4b0572377b51b58dbd0fba3126cd281ad00ba84b5fb31d8eef8d01dc"
    ),
    ("ultrasound-solid", "oracle"): (
        "71eb009252de335e81359e40f30b8b2c0ec17f4bea133c71a32380e76d9d0560"
    ),
    ("ultrasound-solid", "none"): (
        "402bfb587c5e26eba6c1e553ef579ca26fa51ff2cbbf694d6b21243807037f0e"
    ),
}


#: The same scores with the raw-length replay :func:`_unpadded_replay`
#: in place of ``CrossDomainSensor.convert_batch``, on the same
#: recordings.
UNPADDED_SCORES = {
    ("baseline-glass", "oracle"): (
        0.5971905637763143,
        0.19156602741651824,
        0.7180669838223465,
        0.07201430895635043,
    ),
    ("baseline-glass", "none"): (
        0.6527924926634948,
        0.22984288544021214,
        0.7603009954782444,
        0.168654528688156,
    ),
    ("ultrasound-solid", "oracle"): (
        0.6693887404524852,
        0.6746550015990759,
        0.6408706071956527,
        0.6760182251552064,
    ),
    ("ultrasound-solid", "none"): (
        0.7643487361811404,
        0.7496361861490061,
        0.7446895265604393,
        0.7700162630254115,
    ),
}


@pytest.fixture(scope="module")
def analyze_scores(recordings):
    """``(pack, segmentation) -> scores``, each computed once."""
    cache = {}

    def scores(pack, segmentation):
        if (pack, segmentation) not in cache:
            oracle = segmentation == "oracle"
            pipeline = get_scenario(pack).build_pipeline(
                segmenter=PhonemeSegmenter(rng=0) if oracle else None
            )
            cache[(pack, segmentation)] = np.array([
                pipeline.analyze(
                    va,
                    wearable,
                    rng=index,
                    oracle_utterance=utterance if oracle else None,
                ).score
                for index, (utterance, va, wearable) in enumerate(
                    recordings[pack]
                )
            ])
        return cache[(pack, segmentation)]

    return scores


@pytest.mark.parametrize("pack, segmentation", sorted(SCORE_GOLDENS))
def test_analyze_scores_golden(analyze_scores, pack, segmentation):
    scores = analyze_scores(pack, segmentation)
    assert _digest(scores) == SCORE_GOLDENS[(pack, segmentation)]


@pytest.mark.parametrize("pack, segmentation", sorted(UNPADDED_SCORES))
def test_analyze_scores_close_to_unpadded(
    analyze_scores, pack, segmentation
):
    np.testing.assert_allclose(
        analyze_scores(pack, segmentation),
        UNPADDED_SCORES[(pack, segmentation)],
        rtol=0.0,
        atol=1e-3,
    )


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


@pytest.mark.parametrize(
    "order, cutoff, rate",
    [(2, 8.0, 200.0), (6, 5.0, 200.0), (4, 800.0, RATE)],
)
def test_zero_phase_rows_match_1d(order, cutoff, rate):
    design = butter_design(order, cutoff, "lowpass", rate)
    stack = np.random.default_rng(order).normal(size=(3, 2_000))
    filtered = zero_phase(design, stack)
    seeded = zero_phase(design, stack, start=stack[:, 5:6])
    for row in range(stack.shape[0]):
        np.testing.assert_array_equal(
            filtered[row], zero_phase(design, stack[row])
        )
        np.testing.assert_array_equal(
            seeded[row],
            zero_phase(design, stack[row], start=stack[row, 5:6]),
        )
