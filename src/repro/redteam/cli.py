"""``repro redteam`` — adaptive-adversary campaigns from the shell.

Subcommands
-----------
``curve``
    Run both detector arms across a budget grid and print the
    budget-vs-detection-rate robustness table (the headline artifact:
    how much query budget buys the attacker, and how much the
    randomized defenses claw back).
"""

from __future__ import annotations

import argparse

from repro.attacks import AttackKind
from repro.core.hardening import HardeningConfig
from repro.errors import ConfigurationError
from repro.redteam.campaign import (
    ATTACKER_MODES,
    DEFAULT_HARDENING,
    RedTeamConfig,
    robustness_curve,
)
from repro.redteam.reporting import format_curve
from repro.redteam.space import AttackSpace


def add_redteam_parser(subparsers) -> None:
    """Attach the ``redteam`` command tree to the root CLI parser."""
    redteam = subparsers.add_parser(
        "redteam", help="adaptive-adversary optimization campaigns"
    )
    actions = redteam.add_subparsers(
        dest="redteam_command", required=True
    )
    curve = actions.add_parser(
        "curve", help="budget-vs-detection robustness table, both arms"
    )
    curve.add_argument(
        "--mode", choices=ATTACKER_MODES, default="cmaes",
        help=(
            "attacker: cmaes / random (gradient-free) or surrogate "
            "(differentiable proxy with gradient-free fallback)"
        ),
    )
    curve.add_argument(
        "--attack", dest="attack_kind",
        choices=["random", "replay", "synthesis", "hidden_voice"],
        default="replay",
        help="static attack the adversary starts from",
    )
    curve.add_argument(
        "--budgets", type=int, nargs="+",
        default=[0, 20, 60, 120],
        help="query-budget grid (0 = static attack, always included)",
    )
    curve.add_argument(
        "--population", type=int, default=2,
        help="independent attacker restarts (best one wins)",
    )
    curve.add_argument(
        "--spl", type=float, default=85.0, metavar="DB",
        help="attack playback level behind the barrier",
    )
    curve.add_argument(
        "--bands", type=int, default=8,
        help="spectral-envelope bands in the attack space",
    )
    curve.add_argument(
        "--slices", type=int, default=4,
        help="temporal slices in the attack space",
    )
    curve.add_argument(
        "--probe-episodes", type=int, default=2,
        help="common-random-number episodes averaged per oracle query",
    )
    curve.add_argument(
        "--eval-episodes", type=int, default=24,
        help="held-out episodes per evaluation point",
    )
    curve.add_argument(
        "--threshold", type=float, default=None,
        help="detector threshold (default: EER calibration)",
    )
    curve.add_argument(
        "--jitter", type=float,
        default=DEFAULT_HARDENING.threshold_jitter, metavar="J",
        help="hardened arm: per-session threshold jitter (+-J)",
    )
    curve.add_argument(
        "--subset-fraction", type=float,
        default=DEFAULT_HARDENING.subset_fraction, metavar="F",
        help="hardened arm: per-session sensitive-phoneme fraction",
    )
    curve.add_argument(
        "--workers", type=int, default=2,
        help=(
            "worker processes for the attacker population "
            "(results are identical for any count)"
        ),
    )
    curve.add_argument("--seed", type=int, default=0)


def cmd_redteam(args: argparse.Namespace) -> int:
    """Run ``redteam curve`` and print its table; returns the exit code."""
    try:
        config = RedTeamConfig(
            mode=args.mode,
            population=args.population,
            attack_kind=AttackKind(args.attack_kind),
            spl_db=args.spl,
            space=AttackSpace(n_bands=args.bands, n_slices=args.slices),
            n_probe_episodes=args.probe_episodes,
            n_eval_episodes=args.eval_episodes,
            seed=args.seed,
            threshold=args.threshold,
            hardening=HardeningConfig(
                threshold_jitter=args.jitter,
                subset_fraction=args.subset_fraction,
            ),
            n_workers=max(args.workers, 1),
        )
        print(
            f"Running both arms x {config.population} {config.mode} "
            f"attacker(s) to budget {max(args.budgets)}..."
        )
        print(format_curve(robustness_curve(config, args.budgets)))
    except ConfigurationError as error:
        raise SystemExit(f"error: {error}") from None
    return 0
