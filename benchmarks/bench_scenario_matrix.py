"""Scenario matrix — every registered pack, one ROC row each.

Sweeps the full scenario registry (baselines plus the ultrasound and
metamaterial packs) with the paper-recipe BLSTM segmenting online and
reports AUC/EER per scenario, proving that each registry entry runs
end-to-end from its name alone.  ``REPRO_BENCH_QUICK=1`` shrinks the
campaign to smoke-test size (the CI scenario-smoke job uses it) and
writes the table to the git-ignored ``scenario_matrix_quick.txt``, so a
quick run never overwrites the checked-in full matrix.
"""

from __future__ import annotations

import os

from benchmarks.conftest import emit, run_once
from repro.eval.campaign import (
    CampaignConfig,
    DetectorBank,
    FULL_SYSTEM,
)
from repro.eval.experiment import run_attack_experiment
from repro.eval.reporting import format_table
from repro.scenarios import get_scenario, list_scenarios

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N_COMMANDS = 1 if QUICK else 3
N_ATTACKS = 1 if QUICK else 3


def _run_matrix(segmenter):
    results = {}
    for name in list_scenarios():
        spec = get_scenario(name)
        detectors = DetectorBank(
            segmenter=segmenter,
            pipeline=spec.build_pipeline(segmenter=segmenter),
            include_baselines=False,
        )
        config = CampaignConfig(
            n_commands_per_participant=N_COMMANDS,
            n_attacks_per_kind=N_ATTACKS,
            use_oracle_segmentation=False,
            seed=9500,
            scenario=name,
            attack_spl_db=spec.attack_spl_db,
        )
        result = run_attack_experiment(
            spec.attack_kind,
            rooms=spec.rooms(),
            config=config,
            detectors=detectors,
        )
        results[name] = (spec, result.metrics[FULL_SYSTEM])
    return results


def test_scenario_matrix(benchmark, trained_segmenter):
    results = run_once(
        benchmark, lambda: _run_matrix(trained_segmenter)
    )
    rows = []
    for name, (spec, metrics) in results.items():
        rows.append(
            (
                name,
                spec.attack,
                spec.material or "(room default)",
                f"{metrics.auc:.3f}",
                f"{metrics.eer * 100:.1f}%",
                spec.fingerprint[:10],
            )
        )
    emit(
        "scenario_matrix_quick" if QUICK else "scenario_matrix",
        format_table(
            [
                "scenario",
                "attack",
                "material",
                "AUC",
                "EER",
                "fingerprint",
            ],
            rows,
            title=(
                "Scenario matrix — full-system ROC per registered pack"
                + (" (quick)" if QUICK else "")
            ),
        ),
    )
    assert set(results) == set(list_scenarios())
    # The metamaterial notch kills the thru-barrier attack outright;
    # the control with the notch parked out of band must not.
    meta = results["metamaterial-barrier"][1]
    assert meta.auc >= 0.9
