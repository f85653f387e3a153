"""Rooms, participants, reporting, and a miniature campaign."""

import numpy as np
import pytest

from repro.attacks.base import AttackKind
from repro.eval.campaign import (
    AUDIO_BASELINE,
    CampaignConfig,
    DetectorBank,
    FULL_SYSTEM,
    ScoreSet,
    VIBRATION_BASELINE,
)
from repro.eval.participants import ParticipantPool
from repro.eval.reporting import (
    format_roc_summary,
    format_series,
    format_table,
    sparkline,
)
from repro.eval.rooms import ROOM_A, ROOM_B, ROOM_C, ROOM_D, ROOMS
from repro.eval.runner import CampaignRunner
from repro.errors import ConfigurationError


class TestRooms:
    def test_four_rooms(self):
        assert len(ROOMS) == 4

    def test_paper_dimensions(self):
        assert (ROOM_A.width_m, ROOM_A.length_m) == (7.0, 6.0)
        assert (ROOM_B.width_m, ROOM_B.length_m) == (7.0, 7.0)
        assert (ROOM_C.width_m, ROOM_C.length_m) == (6.0, 4.0)
        assert (ROOM_D.width_m, ROOM_D.length_m) == (5.0, 3.0)

    def test_barrier_materials(self):
        assert "glass" in ROOM_A.barrier.name
        assert "wood" in ROOM_B.barrier.name
        assert "wood" in ROOM_C.barrier.name
        assert "glass" in ROOM_D.barrier.name


class TestParticipants:
    def test_pool_size(self):
        pool = ParticipantPool(n_participants=20, seed=1)
        assert len(pool.speakers) == 20

    def test_room_split_matches_paper(self):
        pool = ParticipantPool(n_participants=20, seed=1)
        assignments = pool.room_assignments()
        assert len(assignments["Room A"]) == 10
        assert assignments["Room A"] == assignments["Room B"]
        assert len(assignments["Room C"]) == 5
        assert len(assignments["Room D"]) == 5

    def test_adversaries_exclude_victim(self):
        pool = ParticipantPool(n_participants=5, seed=2)
        victim = pool.speakers[0]
        adversaries = pool.adversaries_for(victim)
        assert len(adversaries) == 4
        assert victim not in adversaries

    def test_too_small_pool(self):
        with pytest.raises(ConfigurationError):
            ParticipantPool(n_participants=1)


class TestReporting:
    def test_format_table(self):
        text = format_table(
            ["a", "b"], [[1, 2], ["xx", "yyy"]], title="T"
        )
        assert "T" in text
        assert "xx" in text
        assert text.count("\n") == 4

    def test_format_series(self):
        text = format_series("x", "y", [1, 2], [0.5, 0.25])
        assert "0.500" in text

    def test_sparkline_length(self):
        line = sparkline(np.linspace(0, 1, 100), width=20)
        assert len(line) == 20

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_format_roc_summary(self):
        from repro.eval.metrics import evaluate_scores

        metrics = evaluate_scores([0.9, 0.8], [0.1, 0.2])
        text = format_roc_summary("demo", {"full": metrics})
        assert "AUC" in text and "full" in text


class TestScoreSet:
    def test_add_and_merge(self):
        a = ScoreSet()
        a.add_legit({"d": 0.9})
        a.add_attack(AttackKind.REPLAY, {"d": 0.1})
        b = ScoreSet()
        b.add_legit({"d": 0.8})
        a.merge(b)
        assert a.legit["d"] == [0.9, 0.8]
        assert a.attacks[AttackKind.REPLAY]["d"] == [0.1]


@pytest.mark.slow
class TestMiniCampaign:
    def test_campaign_produces_separating_scores(self):
        pool = ParticipantPool(n_participants=4, seed=3)
        detectors = DetectorBank(segmenter=None)
        config = CampaignConfig(
            n_commands_per_participant=2, n_attacks_per_kind=2, seed=4
        )
        scores = CampaignRunner(n_workers=1).run(
            [ROOM_A], pool, detectors, [AttackKind.REPLAY], config
        ).scores
        assert len(scores.legit[FULL_SYSTEM]) == 4
        assert len(
            scores.attacks[AttackKind.REPLAY][FULL_SYSTEM]
        ) == 4
        assert set(scores.legit) == {
            FULL_SYSTEM, VIBRATION_BASELINE, AUDIO_BASELINE
        }
        legit_mean = np.mean(scores.legit[FULL_SYSTEM])
        attack_mean = np.mean(
            scores.attacks[AttackKind.REPLAY][FULL_SYSTEM]
        )
        assert legit_mean > attack_mean
