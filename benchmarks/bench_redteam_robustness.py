"""Red-team robustness: attacker budget vs detection rate, both arms.

The PR-8 headline artifact.  A budgeted CMA-ES attacker shapes the
replay attack's spectral envelope and phoneme timing against the
black-box score oracle; the same population then replays its
best-so-far waveform at every budget checkpoint on held-out episodes
against two deployed detectors:

* **unhardened** — the paper's deterministic detector (fixed EER
  threshold, full sensitive-phoneme set);
* **hardened** — per-session threshold jitter plus a randomized
  sensitive-phoneme subset (``HardeningConfig``).

The curve shows (a) query budget buys the attacker real success
against the deterministic detector, and (b) the randomized defenses
claw a measurable share of that advantage back.
"""

from __future__ import annotations

from benchmarks.conftest import emit, run_once
from repro.core.hardening import HardeningConfig
from repro.redteam import (
    AttackSpace,
    RedTeamConfig,
    format_curve,
    robustness_curve,
)

BUDGETS = (0, 8, 16, 32)
HARDENING = HardeningConfig(threshold_jitter=0.08, subset_fraction=0.5)


def _run_curve():
    config = RedTeamConfig(
        mode="cmaes",
        population=2,
        space=AttackSpace(n_bands=4, n_slices=2),
        n_probe_episodes=1,
        n_eval_episodes=12,
        n_calibration_reps=2,
        seed=3,
        hardening=HARDENING,
        executor="process",
        n_workers=2,
    )
    return robustness_curve(config, BUDGETS)


def test_redteam_robustness(benchmark):
    curve = run_once(benchmark, _run_curve)

    unhardened = curve.advantage("unhardened")
    hardened = curve.advantage("hardened")
    body = format_curve(curve)
    body += (
        "\n\nhardening recovered "
        f"{(unhardened - hardened) * 100:.1f}% success rate "
        "(attacker advantage, unhardened minus hardened)"
    )
    emit("redteam_robustness", body)

    # The acceptance directions, with slack for the small episode
    # counts: budget buys the attacker success against the
    # deterministic detector, and the randomized defenses reduce it.
    assert curve.success_rate(
        "unhardened", max(BUDGETS)
    ) > curve.success_rate("unhardened", 0)
    assert hardened <= unhardened - 1.0 / 12.0 + 1e-9
