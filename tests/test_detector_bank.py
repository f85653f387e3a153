"""The campaign's detector bank: score digests and its one-sync contract.

``TestOneSyncPerPair`` counts the transforms a scored pair costs: one
forward FFT of the padded source for both microphones, one
synchronization for all three detectors.

``TestBankGoldens`` hashes the exact bytes of every score that
:func:`score_campaign_unit` collects (all three detectors) on one small
unit per registered scenario pack, under oracle segmentation.  The
digests were recorded while each detector still synchronized the pair
on its own, so they pin sharing the full system's sync to "no numeric
change at all".
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
import repro.core.sync as sync_module
from repro.acoustics.spl import scale_to_spl
from repro.attacks.base import AttackKind
from repro.attacks.scenario import AttackScenario
from repro.core.segmentation import PhonemeSegmenter
from repro.eval.campaign import (
    CampaignConfig,
    DetectorBank,
    ScoreSet,
    build_campaign_units,
    score_campaign_unit,
)
from repro.eval.participants import ParticipantPool
from repro.eval.rooms import ROOM_A
from repro.phonemes.commands import phonemize
from repro.phonemes.corpus import SyntheticCorpus
from repro.scenarios import get_scenario, list_scenarios

#: SHA-256 of each pack's :class:`ScoreSet` (see :func:`_score_digest`).
BANK_GOLDENS = {
    "baseline-brick": (
        "b55430a5930317d5f1db197fb34f202847ee793898e0f4562553aafae86131ef"
    ),
    "baseline-glass": (
        "2db98d445680c147d9760b1fe64ec168faeb3fdd9eac8741ee3a67a2689fb07a"
    ),
    "baseline-wood": (
        "10518c6ba84113f37e3cb1db90056f5f04062c0e6766be5b7c69f80216137b46"
    ),
    "metamaterial-barrier": (
        "eaed5f27c7163bb9f99eb5404722940f93f15276461735000f9b7793422867ef"
    ),
    "metamaterial-hf-control": (
        "25fcbb910892b81d14b35f86b23738ce2e11a7ad1d8eaf9ae4a534bf25c3b062"
    ),
    "ultrasound-solid": (
        "0f8b1138980d7981c2a9298219bce387cffc6cdd82e6e0b0d114584f387ab33b"
    ),
}


def _sha1(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def _score_digest(scores: ScoreSet, detectors) -> str:
    """Digest of every score, in detector then attack-kind order."""
    hasher = hashlib.sha256()
    for detector in detectors:
        hasher.update(np.asarray(scores.legit[detector], np.float64).tobytes())
    for kind in AttackKind:
        for detector in detectors:
            values = scores.attacks[kind][detector]
            hasher.update(np.asarray(values, np.float64).tobytes())
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def participants():
    return ParticipantPool(n_participants=4, seed=5)


@pytest.fixture(scope="module")
def corpus(participants):
    return SyntheticCorpus(speakers=participants.speakers, seed=5)


class TestBankGoldens:
    @pytest.mark.parametrize("pack", sorted(BANK_GOLDENS))
    def test_unit_scores_bitwise(self, pack, participants, corpus):
        spec = get_scenario(pack)
        config = CampaignConfig(
            n_commands_per_participant=1,
            n_attacks_per_kind=1,
            seed=7,
            scenario=pack,
            attack_spl_db=spec.attack_spl_db,
        )
        (unit, *_) = build_campaign_units(
            spec.rooms()[:1], participants, list(AttackKind), config
        )
        segmenter = PhonemeSegmenter()
        bank = DetectorBank(
            segmenter=segmenter,
            pipeline=spec.build_pipeline(segmenter=segmenter),
        )
        scores = score_campaign_unit(unit, bank, corpus)
        assert _score_digest(scores, bank.detector_names) == (
            BANK_GOLDENS[pack]
        )

    def test_every_pack_is_pinned(self):
        assert sorted(BANK_GOLDENS) == sorted(list_scenarios())


class TestOneSyncPerPair:
    def test_record_both_transforms_the_source_once(
        self, participants, corpus, monkeypatch
    ):
        scenario = AttackScenario(room_config=ROOM_A)
        utterance = corpus.utterance(
            phonemize("play music"), speaker=participants.speakers[0], rng=1
        )
        inputs = []
        rfft = np.fft.rfft

        def recording_rfft(a, *args, **kwargs):
            inputs.append(_sha1(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording_rfft)
        scenario.legitimate_recordings(utterance, spl_db=70.0, rng=2)
        monkeypatch.undo()
        lead = np.zeros(
            int(round(scenario.lead_silence_s * utterance.sample_rate))
        )
        padded = np.concatenate(
            [lead, scale_to_spl(utterance.waveform, 70.0), lead]
        )
        assert inputs.count(_sha1(padded)) == 1

    def test_baselines_score_the_pipelines_aligned_pair(
        self, participants, corpus, monkeypatch
    ):
        scenario = AttackScenario(room_config=ROOM_A)
        utterance = corpus.utterance(
            phonemize("play music"), speaker=participants.speakers[0], rng=1
        )
        va, wearable = scenario.legitimate_recordings(
            utterance, spl_db=70.0, rng=2
        )
        aligned = []
        sync = sync_module.synchronize_recordings

        def recording_sync(*args, **kwargs):
            result = sync(*args, **kwargs)
            aligned.append(result[:2])
            return result

        # The pipeline's import and any call through ``repro.core.sync``.
        monkeypatch.setattr(
            pipeline_module, "synchronize_recordings", recording_sync
        )
        monkeypatch.setattr(
            sync_module, "synchronize_recordings", recording_sync
        )
        bank = DetectorBank(segmenter=None)
        received = {}
        for name in ("vibration_baseline", "audio_baseline"):
            detector = getattr(bank, name)

            def recording_score(
                va_aligned, wearable_aligned, *args,
                _name=name, _score=detector.score, **kwargs
            ):
                received[_name] = (va_aligned, wearable_aligned)
                return _score(va_aligned, wearable_aligned, *args, **kwargs)

            monkeypatch.setattr(detector, "score", recording_score)
        scores = bank.score_all(va, wearable, utterance, True, rng=3)
        assert set(scores) == set(bank.detector_names)
        assert len(aligned) == 1
        va_aligned, wearable_aligned = aligned[0]
        assert set(received) == {"vibration_baseline", "audio_baseline"}
        for pair in received.values():
            assert pair[0] is va_aligned
            assert pair[1] is wearable_aligned


class TestBankAudioRate:
    def test_vibration_baseline_replays_at_the_pipelines_rate(self):
        pipeline = pipeline_module.DefensePipeline(
            config=pipeline_module.DefenseConfig(audio_rate=8_000.0)
        )
        bank = DetectorBank(segmenter=None, pipeline=pipeline)
        assert bank.vibration_baseline.audio_rate == 8_000.0
