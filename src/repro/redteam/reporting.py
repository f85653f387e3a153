"""Plain-text report of a red-team robustness curve."""

from __future__ import annotations

from typing import List

from repro.eval.reporting import format_table
from repro.redteam.campaign import CurveResult


def _rate(value: float) -> str:
    return f"{value * 100:.1f}%"


def format_curve(result: CurveResult) -> str:
    """Render a robustness curve: budget vs detection, both arms."""
    config = result.config
    hardening = config.hardening
    lines = [
        (
            f"redteam robustness curve: mode={config.mode} "
            f"kind={config.attack_kind.value} "
            f"population={config.population} seed={config.seed}"
        ),
        (
            f"deployed threshold {result.threshold:.4f}; hardened arm: "
            f"jitter ±{hardening.threshold_jitter:.3f}, phoneme subset "
            f"{hardening.subset_fraction * 100:.0f}% "
            f"(min {hardening.min_subset})"
        ),
    ]
    rows: List[tuple] = []
    for budget in result.budgets:
        cells = {
            arm: next(
                point
                for point in result.points
                if point.arm == arm and point.budget == budget
            )
            for arm in ("unhardened", "hardened")
        }
        rows.append(
            (
                budget,
                _rate(cells["unhardened"].detection_rate),
                _rate(cells["unhardened"].success_rate),
                _rate(cells["hardened"].detection_rate),
                _rate(cells["hardened"].success_rate),
            )
        )
    lines.append(
        format_table(
            [
                "budget",
                "unhardened detect",
                "unhardened success",
                "hardened detect",
                "hardened success",
            ],
            rows,
        )
    )
    lines.append(
        "attacker advantage (best success - static success): "
        f"unhardened {_rate(result.advantage('unhardened'))}, "
        f"hardened {_rate(result.advantage('hardened'))}"
    )
    if any(result.fell_back.values()):
        lines.append(
            "surrogate fell back to gradient-free search: "
            + ", ".join(
                f"{arm} {count} of {config.population} members"
                for arm, count in result.fell_back.items()
            )
        )
    return "\n".join(lines)
