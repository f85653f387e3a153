"""Evaluation harness: metrics, rooms, participants, campaigns.

Reproduces the paper's evaluation methodology (§ VII-A): score
distributions from legitimate commands and the four attacks, ROC/AUC/EER
metrics, the four room environments, and the factor sweeps of Fig. 11.
"""

from repro.eval.metrics import (
    DetectionMetrics,
    auc_from_scores,
    eer_from_scores,
    evaluate_scores,
    roc_curve,
)
from repro.eval.rooms import ROOM_A, ROOM_B, ROOM_C, ROOM_D, ROOMS
from repro.eval.participants import ParticipantPool
from repro.eval.campaign import (
    CampaignConfig,
    CampaignUnit,
    DetectorBank,
    ScoreSet,
    build_campaign_units,
    score_campaign_unit,
)
from repro.eval.experiment import (
    ExperimentResult,
    run_attack_experiment,
    run_factor_sweep,
)
from repro.eval.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignStats,
    UnitStats,
)
from repro.eval.reporting import (
    format_roc_summary,
    format_runner_stats,
    format_series,
    format_table,
    sparkline,
)
from repro.eval.stats import (
    BootstrapEstimate,
    bootstrap_auc,
    bootstrap_eer,
    bootstrap_metric,
)

__all__ = [
    "DetectionMetrics",
    "auc_from_scores",
    "eer_from_scores",
    "evaluate_scores",
    "roc_curve",
    "ROOM_A",
    "ROOM_B",
    "ROOM_C",
    "ROOM_D",
    "ROOMS",
    "ParticipantPool",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRunner",
    "CampaignStats",
    "CampaignUnit",
    "DetectorBank",
    "ScoreSet",
    "UnitStats",
    "build_campaign_units",
    "score_campaign_unit",
    "ExperimentResult",
    "run_attack_experiment",
    "run_factor_sweep",
    "format_roc_summary",
    "format_runner_stats",
    "format_series",
    "format_table",
    "sparkline",
    "BootstrapEstimate",
    "bootstrap_auc",
    "bootstrap_eer",
    "bootstrap_metric",
]
