"""Parallel campaign execution engine.

Every headline experiment funnels through the campaign's room × victim
units, and every unit derives its own seed from ``(config.seed, room,
victim)`` — so units can be scored in any order, in any process, and
still reproduce the serial run bit for bit.  :class:`CampaignRunner`
exploits that: it shards units across a :class:`repro.runtime.Runtime`
(process pool, thread pool, or inline), folds the per-unit
:class:`ScoreSet`s back together in deterministic unit order with
:meth:`ScoreSet.merge`, and records per-unit wall-clock, throughput,
and per-stage pipeline time from the units' :class:`StageEvent`
streams.

Determinism contract
--------------------
For a fixed ``CampaignConfig.seed``, participant pool, rooms, and attack
kinds, ``CampaignRunner(n_workers=k).run(...)`` returns an identical
:class:`ScoreSet` for every ``k`` **and every executor kind** — the
same detectors, the same score lists in the same order.  The regression
suite (``tests/test_eval_runner.py``, ``tests/test_runtime.py``) pins
this.

Fault tolerance
---------------
If the process pool cannot spawn (restricted environments, unpicklable
detector banks) or workers die mid-campaign,
:meth:`repro.runtime.Runtime.map_units` finishes the remaining units
inline in-process; results are unchanged because units are
order-independent.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.acoustics.room import RoomConfig
from repro.attacks.base import AttackKind
from repro.errors import ConfigurationError
from repro.eval.campaign import (
    CampaignConfig,
    CampaignUnit,
    DetectorBank,
    ScoreSet,
    build_campaign_units,
    score_campaign_unit,
)
from repro.eval.participants import ParticipantPool
from repro.phonemes.corpus import SyntheticCorpus
from repro.runtime import (
    INLINE,
    PROCESS,
    THREAD,
    Runtime,
    capture_stage_events,
    validate_kind,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class UnitStats:
    """Wall-clock accounting for one scored campaign unit.

    ``stage_s`` holds the unit's summed per-stage pipeline seconds
    (from the :class:`~repro.runtime.StageEvent` stream its scoring
    emitted), keyed by :data:`repro.core.pipeline.PIPELINE_STAGES`
    names.
    """

    label: str
    wall_s: float
    n_samples: int
    stage_s: Mapping[str, float] = field(default_factory=dict)

    @property
    def samples_per_s(self) -> float:
        """Scored recordings per second inside this unit."""
        if self.wall_s <= 0:
            return float("inf")
        return self.n_samples / self.wall_s


@dataclass
class CampaignStats:
    """Aggregate timing of one campaign run.

    ``wall_s`` is the caller-observed (outer) wall clock; the per-unit
    walls in ``units`` are measured inside the executing process, so in
    parallel runs their sum exceeds ``wall_s`` — the ratio is the
    realized speedup.
    """

    n_workers: int
    mode: str
    wall_s: float = 0.0
    units: List[UnitStats] = field(default_factory=list)

    @property
    def n_units(self) -> int:
        """Number of campaign units executed."""
        return len(self.units)

    @property
    def n_samples(self) -> int:
        """Total recordings scored across all units."""
        return sum(unit.n_samples for unit in self.units)

    @property
    def samples_per_s(self) -> float:
        """End-to-end throughput in scored recordings per second."""
        if self.wall_s <= 0:
            return float("inf")
        return self.n_samples / self.wall_s

    @property
    def unit_wall_s(self) -> float:
        """Summed in-process unit time (serial-equivalent work)."""
        return sum(unit.wall_s for unit in self.units)

    @property
    def stage_totals(self) -> Dict[str, float]:
        """Summed per-stage pipeline seconds across all units."""
        totals: Dict[str, float] = {}
        for unit in self.units:
            for stage, seconds in unit.stage_s.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals


@dataclass(frozen=True)
class CampaignResult:
    """Scores plus execution statistics of one campaign run."""

    scores: ScoreSet
    stats: CampaignStats


# ----------------------------------------------------------------------
# Worker plumbing.  The runtime initializer parks the (read-only)
# detector bank and corpus in module globals so they are pickled once
# per worker instead of once per unit, and so each worker's corpus
# utterance cache stays warm across the units it executes.  Inline and
# thread execution run the same initializer in-process, so one code
# path serves every executor kind.
# ----------------------------------------------------------------------

_WORKER_DETECTORS: Optional[DetectorBank] = None
_WORKER_CORPUS: Optional[SyntheticCorpus] = None


def _init_worker(detectors: DetectorBank, corpus: SyntheticCorpus) -> None:
    global _WORKER_DETECTORS, _WORKER_CORPUS
    _WORKER_DETECTORS = detectors
    _WORKER_CORPUS = corpus


def _score_unit_in_worker(
    unit: CampaignUnit,
) -> Tuple[ScoreSet, float, Dict[str, float]]:
    """Score one unit, returning its scores, wall time, and per-stage
    pipeline seconds (summed over the unit's recordings)."""
    start = time.perf_counter()
    with capture_stage_events() as captured:
        scores = score_campaign_unit(
            unit, _WORKER_DETECTORS, _WORKER_CORPUS
        )
    return (
        scores,
        time.perf_counter() - start,
        captured.stage_totals(),
    )


class CampaignRunner:
    """Executes campaign units on the unified runtime layer.

    Parameters
    ----------
    n_workers:
        ``1`` runs in-process (serial); ``None`` uses one worker per CPU
        core (``os.cpu_count()``); any other value caps the pool size.
        The worker count never exceeds the number of units.
    executor:
        Executor kind for multi-worker runs: ``"process"`` (default,
        falls back inline if the pool cannot spawn or breaks),
        ``"thread"``, or ``"inline"``.  Single-worker runs are always
        inline.

    Examples
    --------
    >>> runner = CampaignRunner(n_workers=1)
    >>> # result = runner.run(rooms, pool, detectors, kinds, config)
    >>> # result.scores, result.stats.samples_per_s
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        executor: str = PROCESS,
    ) -> None:
        if n_workers is not None and int(n_workers) < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1 (or None), got {n_workers}"
            )
        self.n_workers = None if n_workers is None else int(n_workers)
        self.executor = validate_kind(executor)

    def run(
        self,
        rooms: Sequence[RoomConfig],
        pool: ParticipantPool,
        detectors: DetectorBank,
        attack_kinds: Sequence[AttackKind],
        config: CampaignConfig,
        corpus: Optional[SyntheticCorpus] = None,
    ) -> CampaignResult:
        """Run a full campaign and merge the per-unit score sets."""
        corpus = corpus or SyntheticCorpus(
            speakers=pool.speakers, seed=config.seed
        )
        units = build_campaign_units(rooms, pool, attack_kinds, config)
        score_sets, stats = self.run_units(units, detectors, corpus)
        merged = ScoreSet()
        for scores in score_sets:
            merged.merge(scores)
        return CampaignResult(scores=merged, stats=stats)

    def run_units(
        self,
        units: Sequence[CampaignUnit],
        detectors: DetectorBank,
        corpus: SyntheticCorpus,
    ) -> Tuple[List[ScoreSet], CampaignStats]:
        """Score ``units``, returning per-unit results in input order.

        This is the sharding primitive: callers that need results keyed
        by unit (e.g. factor sweeps fanning several configurations into
        one pool) use this instead of :meth:`run`.
        """
        units = list(units)
        workers = self._resolve_workers(len(units))
        kind = INLINE if workers <= 1 else self.executor
        runtime = Runtime(
            kind,
            n_workers=workers,
            initializer=_init_worker,
            initargs=(detectors, corpus),
        )
        start = time.perf_counter()
        try:
            outputs = runtime.map_units(_score_unit_in_worker, units)
        finally:
            runtime.shutdown()
        score_sets: List[ScoreSet] = []
        unit_stats: List[UnitStats] = []
        for unit, (scores, wall_s, stage_s) in zip(units, outputs):
            score_sets.append(scores)
            unit_stats.append(
                UnitStats(
                    label=unit.label,
                    wall_s=wall_s,
                    n_samples=unit.n_samples,
                    stage_s=stage_s,
                )
            )
        stats = CampaignStats(
            n_workers=workers,
            mode=self._mode_label(runtime),
            wall_s=time.perf_counter() - start,
            units=unit_stats,
        )
        return score_sets, stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _mode_label(runtime: Runtime) -> str:
        """Human-readable execution mode, preserving the historical
        vocabulary (``serial`` / ``process-pool`` /
        ``process-pool+serial-fallback``) plus ``thread-pool``."""
        realized = runtime.realized_kind
        if realized == PROCESS:
            return "process-pool"
        if realized == THREAD:
            return "thread-pool"
        if runtime.fell_back:
            return "process-pool+serial-fallback"
        return "serial"

    def _resolve_workers(self, n_units: int) -> int:
        workers = self.n_workers
        if workers is None:
            workers = os.cpu_count() or 1
        return max(1, min(workers, n_units)) if n_units else 1
