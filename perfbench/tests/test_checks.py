"""Correctness checks: a corrupted verdict counts as failed."""

from dataclasses import replace

import numpy as np

from pool import PoolItem, request_seed
from repro.core.pipeline import DefenseVerdict
from repro.serve import RequestStatus, VerificationResponse
from workloads import ServeRecord, check_served, same_score, same_scores

SEED = 7


def _verdict(score):
    return DefenseVerdict(
        score=score,
        is_attack=None,
        n_segments=1,
        analyzed_duration_s=1.0,
        sync_delay_s=0.0,
    )


class _Pipeline:
    """Direct-verify stand-in: the score is a function of the seed."""

    def verify(self, va, wearable, rng):
        return _verdict(float(rng % 1000) / 1000.0)


class _Spec:
    def build_pipeline(self, audio_rate, wearer_moving):
        return _Pipeline()


def _records(n):
    item = PoolItem("baseline-glass", False, np.zeros(4), np.zeros(4))
    records = []
    for index in range(n):
        expected = _Pipeline().verify(None, None, request_seed(SEED, index))
        records.append(
            ServeRecord(
                index=index,
                item=item,
                submitted=0.0,
                done=0.1,
                response=VerificationResponse(
                    request_id=f"r{index}",
                    status=RequestStatus.SERVED,
                    verdict=expected,
                ),
            )
        )
    return records


def test_same_score_is_bitwise():
    response = VerificationResponse(
        request_id="r0", status=RequestStatus.SERVED, verdict=_verdict(0.5)
    )
    assert same_score(response, 0.5)
    assert not same_score(response, np.nextafter(0.5, 1.0))
    failed = VerificationResponse(request_id="r0", status=RequestStatus.FAILED)
    assert not same_score(failed, 0.5)


def test_every_sampled_record_passes_when_untouched():
    records = _records(8)
    assert check_served(_Spec(), records, SEED, first=8) == []


def test_corrupted_verdict_is_counted_as_failed():
    records = _records(8)
    corrupted = records[3]
    corrupted.response = replace(
        corrupted.response,
        verdict=replace(
            corrupted.response.verdict,
            score=corrupted.response.verdict.score + 1e-12,
        ),
    )
    assert check_served(_Spec(), records, SEED, first=8) == [3]


def test_missing_verdict_is_counted_as_failed():
    records = _records(8)
    records[5].response = VerificationResponse(
        request_id="r5", status=RequestStatus.FAILED, error="boom"
    )
    assert check_served(_Spec(), records, SEED, first=8) == [5]


def test_campaign_score_sets_compare_bitwise():
    from repro.attacks.base import AttackKind
    from repro.eval.campaign import ScoreSet

    left, right = ScoreSet(), ScoreSet()
    for scores in (left, right):
        scores.add_legit({"full_system": 0.25})
        scores.add_attack(AttackKind.REPLAY, {"full_system": 0.75})
    assert same_scores(left, right)
    right.attacks[AttackKind.REPLAY]["full_system"][0] += 1e-15
    assert not same_scores(left, right)
