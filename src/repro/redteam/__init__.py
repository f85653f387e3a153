"""Adaptive-adversary red-team suite for the thru-barrier defense.

``repro.redteam`` treats the deployed barrier/sensing pipeline as a
black-box score oracle and runs budgeted optimizing attackers against
it — gradient-free (CMA-ES, random search) over a bounded
spectral-envelope / phoneme-timing shaping space, plus a
surrogate-gradient mode that fits a differentiable proxy and falls
back when the proxy stops transferring.  Campaigns pit attacker
populations against hardened and unhardened detector arms and produce
budget-vs-detection-rate robustness curves.
"""

from repro.redteam.campaign import (
    ATTACKER_MODES,
    DEFAULT_HARDENING,
    AttackerRun,
    AttackerUnit,
    CalibrationOutcome,
    CurvePoint,
    CurveResult,
    RedTeamConfig,
    RedTeamWorld,
    attack_digest_unit,
    build_defense,
    build_world,
    calibrate_detector,
    drive_attacker,
    optimize_attacker_unit,
    resolve_threshold,
    robustness_curve,
)
from repro.redteam.oracle import (
    EvaluationResult,
    OracleConfig,
    ScoreOracle,
)
from repro.redteam.optimizers import (
    OPTIMIZERS,
    CmaEsOptimizer,
    Optimizer,
    RandomSearchOptimizer,
    default_popsize,
    make_optimizer,
)
from repro.redteam.reporting import format_curve
from repro.redteam.space import AttackSpace
from repro.redteam.surrogate import (
    QuadraticProxy,
    SurrogateConfig,
    SurrogateGradientAttacker,
    SurrogateTrace,
)

__all__ = [
    "ATTACKER_MODES",
    "DEFAULT_HARDENING",
    "OPTIMIZERS",
    "AttackSpace",
    "AttackerRun",
    "AttackerUnit",
    "CalibrationOutcome",
    "CmaEsOptimizer",
    "CurvePoint",
    "CurveResult",
    "EvaluationResult",
    "OracleConfig",
    "Optimizer",
    "QuadraticProxy",
    "RandomSearchOptimizer",
    "RedTeamConfig",
    "RedTeamWorld",
    "ScoreOracle",
    "SurrogateConfig",
    "SurrogateGradientAttacker",
    "SurrogateTrace",
    "attack_digest_unit",
    "build_defense",
    "build_world",
    "calibrate_detector",
    "default_popsize",
    "drive_attacker",
    "format_curve",
    "make_optimizer",
    "optimize_attacker_unit",
    "resolve_threshold",
    "robustness_curve",
]
