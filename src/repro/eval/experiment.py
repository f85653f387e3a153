"""High-level experiments: Fig. 9/10 ROC studies and Fig. 11 sweeps."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackKind
from repro.acoustics.materials import BarrierMaterial
from repro.acoustics.room import RoomConfig
from repro.core.segmentation import PhonemeSegmenter
from repro.errors import ConfigurationError
from repro.eval.campaign import (
    CampaignConfig,
    CampaignUnit,
    DetectorBank,
    ScoreSet,
    build_campaign_units,
)
from repro.eval.metrics import DetectionMetrics, evaluate_scores, roc_curve
from repro.eval.participants import ParticipantPool
from repro.eval.rooms import ROOMS
from repro.eval.runner import CampaignRunner, CampaignStats
from repro.phonemes.corpus import SyntheticCorpus

#: Utterance cache of a factor sweep's corpus.  Every sweep value
#: replays the same commands, so one value's utterances must stay
#: cached until the next value asks for them again.
SWEEP_UTTERANCE_CACHE = 128


@dataclass(frozen=True)
class ExperimentResult:
    """Metrics and raw scores of one attack experiment."""

    attack_kind: AttackKind
    metrics: Dict[str, DetectionMetrics]
    scores: ScoreSet
    stats: Optional[CampaignStats] = None

    def roc(self, detector: str) -> Tuple[np.ndarray, np.ndarray]:
        """(FDR, TDR) ROC series of one detector."""
        _, fdr, tdr = roc_curve(
            self.scores.legit[detector],
            self.scores.attacks[self.attack_kind][detector],
        )
        return fdr, tdr


def _default_pool(seed: int, n_participants: int) -> ParticipantPool:
    return ParticipantPool(n_participants=n_participants, seed=seed)


def _make_runner(
    runner: Optional[CampaignRunner], n_workers: Optional[int]
) -> CampaignRunner:
    if runner is not None:
        return runner
    # Experiments stay serial unless a worker count is requested; an
    # explicit ``CampaignRunner()`` opts into one-worker-per-core.
    return CampaignRunner(n_workers=1 if n_workers is None else n_workers)


def run_attack_experiment(
    attack_kind: AttackKind,
    rooms: Optional[Sequence[RoomConfig]] = None,
    segmenter: Optional[PhonemeSegmenter] = None,
    config: Optional[CampaignConfig] = None,
    pool: Optional[ParticipantPool] = None,
    detectors: Optional[DetectorBank] = None,
    n_workers: Optional[int] = None,
    runner: Optional[CampaignRunner] = None,
) -> ExperimentResult:
    """One Fig. 9/10-style experiment: ROC of all detectors vs one attack.

    With no arguments this runs a scaled-down campaign across all four
    rooms using oracle segmentation (training-free, like the paper's
    core detector; the BRNN segmenter can be passed in for the full
    online pipeline).  ``n_workers`` (or a pre-built ``runner``) shards
    the campaign's room × victim units across a process pool; results
    are identical for any worker count.
    """
    config = config or CampaignConfig()
    rooms = list(rooms) if rooms is not None else list(ROOMS.values())
    pool = pool or _default_pool(config.seed, n_participants=8)
    detectors = detectors or DetectorBank(segmenter=segmenter)
    runner = _make_runner(runner, n_workers)
    result = runner.run(rooms, pool, detectors, [attack_kind], config)
    scores = result.scores
    metrics = {
        detector: evaluate_scores(
            scores.legit[detector],
            scores.attacks[attack_kind][detector],
        )
        for detector in detectors.detector_names
    }
    return ExperimentResult(
        attack_kind=attack_kind,
        metrics=metrics,
        scores=scores,
        stats=result.stats,
    )


def _sweep_value_setup(
    factor: str,
    value: object,
    base_config: CampaignConfig,
    rooms: Optional[Sequence[RoomConfig]],
) -> Tuple[str, CampaignConfig, List[RoomConfig]]:
    """Resolve one sweep value into (label, config, rooms)."""
    if factor == "attack_spl":
        config = replace(base_config, attack_spl_db=float(value))
        sweep_rooms = (
            list(rooms) if rooms is not None else list(ROOMS.values())
        )
        label = f"{float(value):.0f}dB"
    elif factor == "barrier_material":
        if not isinstance(value, BarrierMaterial):
            raise ConfigurationError(
                "barrier_material sweep expects BarrierMaterial values"
            )
        template = (
            list(rooms)[0] if rooms is not None else ROOMS["Room A"]
        )
        config = base_config
        sweep_rooms = [replace(template, barrier=value)]
        label = value.name
    elif factor == "barrier_to_va":
        config = replace(base_config, barrier_to_va_m=float(value))
        sweep_rooms = (
            list(rooms) if rooms is not None else list(ROOMS.values())
        )
        label = f"{float(value):.0f}m"
    elif factor == "room":
        if not isinstance(value, RoomConfig):
            raise ConfigurationError(
                "room sweep expects RoomConfig values"
            )
        config = base_config
        sweep_rooms = [value]
        label = value.name
    else:
        raise ConfigurationError(
            f"unknown factor {factor!r}; expected attack_spl, "
            "barrier_material, barrier_to_va, or room"
        )
    return label, config, sweep_rooms


def run_factor_sweep(
    factor: str,
    values: Sequence,
    attack_kinds: Sequence[AttackKind],
    base_config: Optional[CampaignConfig] = None,
    rooms: Optional[Sequence[RoomConfig]] = None,
    segmenter: Optional[PhonemeSegmenter] = None,
    pool: Optional[ParticipantPool] = None,
    detectors: Optional[DetectorBank] = None,
    n_workers: Optional[int] = None,
    runner: Optional[CampaignRunner] = None,
) -> Dict[object, Dict[AttackKind, Dict[str, DetectionMetrics]]]:
    """Fig. 11-style sweep of one impacting factor.

    Parameters
    ----------
    factor:
        One of ``"attack_spl"`` (Fig. 11a), ``"barrier_material"``
        (11b), ``"barrier_to_va"`` (11c), ``"room"`` (11d).
    values:
        Factor values: SPLs in dB, :class:`BarrierMaterial` objects,
        distances in meters, or :class:`RoomConfig` objects.
    attack_kinds:
        Attacks to evaluate at each factor value.
    n_workers / runner:
        Shard the sweep across a process pool.  The sweep values form a
        second, outer level of fan-out: the room × victim units of
        *every* value are submitted to one pool together, so the pool
        stays saturated even when individual values have few units.

    Returns
    -------
    dict
        ``{value_label: {attack_kind: {detector: metrics}}}``.
    """
    base_config = base_config or CampaignConfig()
    pool = pool or _default_pool(base_config.seed, n_participants=8)
    detectors = detectors or DetectorBank(segmenter=segmenter)
    runner = _make_runner(runner, n_workers)
    corpus = SyntheticCorpus(
        speakers=pool.speakers,
        seed=base_config.seed,
        utterance_cache_size=SWEEP_UTTERANCE_CACHE,
    )

    # Outer fan-out: expand every sweep value into units up front, run
    # them through one pool, then regroup the per-unit results by value.
    labels: List[str] = []
    units_per_value: List[List[CampaignUnit]] = []
    for value in values:
        label, config, sweep_rooms = _sweep_value_setup(
            factor, value, base_config, rooms
        )
        labels.append(label)
        units_per_value.append(
            build_campaign_units(sweep_rooms, pool, attack_kinds, config)
        )
    all_units = [unit for units in units_per_value for unit in units]
    score_sets, _ = runner.run_units(all_units, detectors, corpus)

    results: Dict[object, Dict[AttackKind, Dict[str, DetectionMetrics]]] = {}
    cursor = 0
    for label, units in zip(labels, units_per_value):
        scores = ScoreSet()
        for unit_scores in score_sets[cursor : cursor + len(units)]:
            scores.merge(unit_scores)
        cursor += len(units)
        results[label] = {
            kind: {
                detector: evaluate_scores(
                    scores.legit[detector],
                    scores.attacks[kind][detector],
                )
                for detector in detectors.detector_names
            }
            for kind in attack_kinds
        }
    return results
