"""The red-team acceptance loop: optimizers win, hardening claws back.

Small-budget end-to-end version of ``bench_redteam_robustness.py``:
one optimizing attacker per detector arm, a shared EER-calibrated
threshold, and held-out evaluation.  The assertions carry slack — the
simulated world is noisy at these episode counts — but the directions
are the PR's acceptance criteria: a budgeted optimizing attacker must
strictly beat the static attack against the deterministic detector,
and the randomized defenses must measurably shrink that advantage.
"""

import numpy as np

from repro.core.hardening import HardeningConfig
from repro.redteam import (
    AttackSpace,
    RedTeamConfig,
    robustness_curve,
)

SPACE = AttackSpace(n_bands=4, n_slices=2)
BUDGET = 10


def _config():
    return RedTeamConfig(
        mode="random",
        population=1,
        space=SPACE,
        n_probe_episodes=1,
        n_eval_episodes=12,
        n_calibration_reps=2,
        seed=3,
        n_workers=1,
        hardening=HardeningConfig(
            threshold_jitter=0.08, subset_fraction=0.5
        ),
    )


def test_optimizer_beats_static_and_hardening_reduces_advantage():
    curve = robustness_curve(_config(), budgets=[0, BUDGET])

    # (a) The optimizing attacker strictly beats the static attack
    # against the unhardened detector at a non-trivial budget.
    static = curve.success_rate("unhardened", 0)
    optimized = curve.success_rate("unhardened", BUDGET)
    assert optimized > static

    # (b) Randomized phoneme selection + threshold jitter measurably
    # reduce that advantage (slack: one eval episode of 12).
    unhardened_advantage = curve.advantage("unhardened")
    hardened_advantage = curve.advantage("hardened")
    assert unhardened_advantage > 0.0
    assert (
        hardened_advantage
        <= unhardened_advantage - 1.0 / 12.0 + 1e-9
    )

    # Curve bookkeeping: budget 0 is always present, both arms share
    # the budget grid, and every rate is a valid probability.
    assert curve.budgets[0] == 0
    for arm in ("unhardened", "hardened"):
        points = curve.arm_points(arm)
        assert [point.budget for point in points] == list(curve.budgets)
        for point in points:
            assert 0.0 <= point.detection_rate <= 1.0
            assert point.success_rate == 1.0 - point.detection_rate


def test_curve_is_deterministic_for_a_fixed_seed():
    a = robustness_curve(_config(), budgets=[0, BUDGET])
    b = robustness_curve(_config(), budgets=[0, BUDGET])
    assert a.threshold == b.threshold
    for pa, pb in zip(a.points, b.points):
        assert pa.arm == pb.arm and pa.budget == pb.budget
        assert pa.mean_score == pb.mean_score
        assert pa.detection_rate == pb.detection_rate
