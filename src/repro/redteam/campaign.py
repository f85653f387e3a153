"""Red-team campaigns: populations of optimizing attackers vs the defense.

The loop the curves come from:

1. **World** — a deterministic scenario (Room A, glass window), a
   static base attack generated on its per-attack RNG stream
   (:func:`repro.attacks.attack_stream`), and an oracle-segmentation
   defense pipeline (no training needed — red-team turnaround matters).
2. **Calibration** — an EER threshold fit on legitimate commands over
   a mixed speaking-condition grid (including the paper's hard
   quiet-and-far corner) vs static attack replays.  Both detector arms
   (hardened and unhardened) deploy the *same* base threshold, so the
   curves isolate the effect of the randomized defenses.
3. **Population** — ``population`` independent attackers per arm, each
   with its own member seed, optimized in parallel through
   :func:`repro.runtime.map_units` (a broken process pool finishes
   inline).  Each attacker drives a budgeted
   :class:`~repro.redteam.oracle.ScoreOracle` and records its full
   per-query history, so one run to the maximum budget yields the
   best-so-far snapshot at *every* intermediate budget on the curve.
4. **Evaluation** — each snapshot θ (and the static θ = 0 baseline) is
   replayed on held-out evaluation episodes against the deployed
   detector; the curve plots attacker budget vs detection rate.

Everything is derived from ``RedTeamConfig.seed``; serial and
process-parallel runs produce bitwise-identical histories.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks import (
    AttackKind,
    AttackScenario,
    AttackSound,
    IndexedAttackMixin,
    make_attack_generator,
)
from repro.core.detector import DetectorConfig
from repro.core.hardening import HardeningConfig
from repro.core.pipeline import DefenseConfig, DefensePipeline
from repro.core.segmentation import PhonemeSegmenter
from repro.errors import ConfigurationError
from repro.eval.metrics import eer_from_scores
from repro.eval.rooms import ROOM_A
from repro.phonemes.commands import VA_COMMANDS, phonemize
from repro.phonemes.corpus import SyntheticCorpus
from repro.redteam.oracle import OracleConfig, ScoreOracle
from repro.redteam.optimizers import OPTIMIZERS, make_optimizer
from repro.redteam.space import AttackSpace
from repro.redteam.surrogate import SurrogateGradientAttacker
from repro.runtime import map_units
from repro.utils.rng import derive_seed

#: Attacker modes the campaign accepts (gradient-free registry plus the
#: surrogate-gradient attacker).
ATTACKER_MODES = tuple(sorted(OPTIMIZERS)) + (
    SurrogateGradientAttacker.name,
)

#: Default randomized defenses of the hardened arm: mild threshold
#: jitter plus a 60 % per-session phoneme subset.
DEFAULT_HARDENING = HardeningConfig(
    threshold_jitter=0.04, subset_fraction=0.6
)

#: Speaking-condition grid (SPL dB, user-to-VA distance m) the
#: legitimate calibration scores pool over — from comfortable to the
#: paper's Fig. 11(c) quiet-and-far failure corner.
LEGIT_CONDITIONS: Tuple[Tuple[float, float], ...] = (
    (70.0, 2.0),
    (65.0, 3.0),
    (60.0, 5.0),
)


@dataclass(frozen=True)
class RedTeamConfig:
    """One red-team campaign's full recipe (picklable).

    Attributes
    ----------
    mode:
        Attacker: ``cmaes`` / ``random`` (gradient-free) or
        ``surrogate`` (proxy ascent with gradient-free fallback).
    population:
        Independent attacker restarts (best-of-population wins).
    attack_kind:
        Which static attack the adversary starts from.
    command:
        Target voice command (default: the first VA command).
    spl_db:
        Attack playback level behind the barrier.
    space:
        Attack-space parameterization.
    n_probe_episodes:
        Common-random-number episodes averaged per oracle query.
    n_eval_episodes:
        Held-out episodes per evaluation point.
    seed:
        Root seed; everything below derives from it.
    threshold:
        Detector threshold; ``None`` calibrates at the EER point.
    hardening:
        Randomized defenses of the hardened arm's detector; the
        unhardened arm deploys the paper's deterministic detector.
    n_workers:
        Worker processes for the attacker population (``1`` runs
        inline).
    """

    mode: str = "cmaes"
    population: int = 2
    attack_kind: AttackKind = AttackKind.REPLAY
    command: Optional[str] = None
    spl_db: float = 85.0
    space: AttackSpace = field(default_factory=AttackSpace)
    n_probe_episodes: int = 2
    n_eval_episodes: int = 24
    n_calibration_reps: int = 6
    seed: int = 0
    threshold: Optional[float] = None
    hardening: HardeningConfig = DEFAULT_HARDENING
    n_workers: int = 2

    def __post_init__(self) -> None:
        if self.mode not in ATTACKER_MODES:
            raise ConfigurationError(
                f"mode must be one of {ATTACKER_MODES}, "
                f"got {self.mode!r}"
            )
        if self.population < 1:
            raise ConfigurationError("population must be >= 1")
        if self.n_eval_episodes < 1 or self.n_calibration_reps < 1:
            raise ConfigurationError(
                "need n_eval_episodes >= 1 and n_calibration_reps >= 1"
            )
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")


@dataclass
class RedTeamWorld:
    """The deterministic scenario one campaign plays in."""

    corpus: SyntheticCorpus
    scenario: AttackScenario
    attack: AttackSound
    command: str


def _attack_generator(
    seed: int, kind: AttackKind
) -> Tuple[SyntheticCorpus, IndexedAttackMixin]:
    """The campaign corpus and its ``kind`` generator, from ``seed``.

    Speaker 0 is the victim and speaker 1 the adversary.
    """
    corpus = SyntheticCorpus(
        n_speakers=4, seed=derive_seed(seed, "redteam-corpus")
    )
    generator = make_attack_generator(
        kind,
        corpus,
        victim=corpus.speakers[0],
        adversary=corpus.speakers[1],
        synthesis_rng=derive_seed(seed, "redteam-synth"),
    )
    return corpus, generator


def build_world(config: RedTeamConfig) -> RedTeamWorld:
    """Materialize the campaign scenario from the config seed.

    The static base attack comes off its per-attack RNG stream
    (``generate_indexed(seed, 0)``), so every worker process rebuilds
    bitwise the same waveform.
    """
    corpus, generator = _attack_generator(
        config.seed, config.attack_kind
    )
    command = config.command or VA_COMMANDS[0]
    attack = generator.generate_indexed(
        config.seed, 0, command=command
    )
    scenario = AttackScenario(room_config=ROOM_A)
    return RedTeamWorld(
        corpus=corpus,
        scenario=scenario,
        attack=attack,
        command=command,
    )


def build_defense(
    threshold: Optional[float],
    hardening: Optional[HardeningConfig],
) -> DefensePipeline:
    """The deployed pipeline: oracle segmentation, optional hardening.

    Segmentation runs in oracle-alignment mode (an untrained
    :class:`PhonemeSegmenter` only consults its sensitive set), so
    red-team campaigns never pay BLSTM training and the phoneme-subset
    defense acts exactly where it is defined.
    """
    return DefensePipeline(
        segmenter=PhonemeSegmenter(),
        config=DefenseConfig(
            detector=DetectorConfig(threshold=threshold),
            hardening=hardening,
        ),
    )


# ----------------------------------------------------------------------
# Threshold calibration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationOutcome:
    """EER calibration inputs and resulting operating point."""

    threshold: float
    legit_scores: Tuple[float, ...]
    attack_scores: Tuple[float, ...]


def calibrate_detector(config: RedTeamConfig) -> CalibrationOutcome:
    """EER threshold from legit-vs-static-attack score distributions.

    Legitimate scores pool over :data:`LEGIT_CONDITIONS` (the paper's
    comfortable-to-hard speaking grid); attack scores replay the static
    base attack at the campaign's SPL.  Both distributions are scored
    by the *unhardened* pipeline: the deployed threshold is a property
    of the calibration data, shared by both detector arms.
    """
    world = build_world(config)
    pipeline = build_defense(threshold=None, hardening=None)
    legit: List[float] = []
    utterance = world.attack.utterance
    if utterance is None:
        # Hidden-voice attacks carry no aligned utterance; synthesize
        # the victim's legitimate rendition of the command instead.
        utterance = world.corpus.utterance(
            phonemize(world.command),
            speaker=world.corpus.speakers[0],
            text=world.command,
            rng=derive_seed(config.seed, "redteam-legit-utt"),
        )
    for spl_db, distance_m in LEGIT_CONDITIONS:
        for rep in range(config.n_calibration_reps):
            episode = derive_seed(
                config.seed, "redteam-cal-legit", spl_db, distance_m, rep
            )
            va, wearable = world.scenario.legitimate_recordings(
                utterance,
                spl_db=spl_db,
                user_to_va_m=distance_m,
                rng=np.random.default_rng(episode),
            )
            legit.append(
                pipeline.score(
                    va,
                    wearable,
                    rng=derive_seed(episode, "analysis"),
                    oracle_utterance=utterance,
                )
            )
    attack_oracle = ScoreOracle(
        world.attack,
        world.scenario,
        pipeline,
        config.space,
        OracleConfig(
            spl_db=config.spl_db,
            n_probe_episodes=1,
            seed=derive_seed(config.seed, "redteam-cal-attack"),
        ),
    )
    n_attack = 2 * config.n_calibration_reps
    attack_scores = [
        attack_oracle._episode_score(
            config.space.identity(), "calibration", episode
        )
        for episode in range(n_attack)
    ]
    return CalibrationOutcome(
        threshold=eer_from_scores(legit, attack_scores)[1],
        legit_scores=tuple(legit),
        attack_scores=tuple(attack_scores),
    )


# ----------------------------------------------------------------------
# Attacker population units (module-level: process-pool picklable)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttackerUnit:
    """One population member's work order (picklable).

    ``budget`` is the oracle queries the member may spend and
    ``hardening`` its arm's randomized defenses (``None`` for the
    unhardened arm).
    """

    config: RedTeamConfig
    member: int
    threshold: float
    budget: int
    hardening: Optional[HardeningConfig]


@dataclass
class AttackerRun:
    """One population member's full optimization trace (picklable).

    ``history`` holds every (θ, probe score) pair in query order, which
    is what lets a single max-budget run be sliced into best-so-far
    snapshots at every intermediate budget.
    """

    member: int
    mode: str
    history: List[Tuple[List[float], float]]
    queries_used: int
    fell_back: bool = False

    @property
    def best_score(self) -> float:
        """Best probe score over the whole run (``nan`` if empty)."""
        if not self.history:
            return float("nan")
        return max(score for _, score in self.history)

    def best_at_budget(
        self, space: AttackSpace, budget: int
    ) -> Tuple[np.ndarray, Optional[float]]:
        """Best-so-far (θ, probe score) after ``budget`` queries.

        Budget 0 — and any budget before the first query — degenerates
        to the static attack (θ = 0), by construction of the space.
        """
        best_theta = space.identity()
        best_score: Optional[float] = None
        for theta, score in self.history[: max(budget, 0)]:
            if best_score is None or score > best_score:
                best_score = score
                best_theta = np.asarray(theta, dtype=np.float64)
        return best_theta, best_score


def drive_attacker(
    mode: str,
    space: AttackSpace,
    oracle: ScoreOracle,
    budget: int,
    seed: int,
) -> Tuple[List[Tuple[List[float], float]], bool]:
    """Spend ``budget`` oracle queries under the requested mode.

    Returns the per-query history and whether the surrogate mode fell
    back to gradient-free search.
    """
    history: List[Tuple[List[float], float]] = []
    if budget <= 0:
        return history, False
    if mode == SurrogateGradientAttacker.name:
        attacker = SurrogateGradientAttacker(space, seed=seed)
        attacker.run(oracle, budget)
        history = [
            (theta.tolist(), score)
            for theta, score in attacker.history
        ]
        return history, attacker.trace.fell_back

    optimizer = make_optimizer(mode, space, seed=seed)
    while (oracle.queries_remaining or 0) > 0:
        candidates = optimizer.ask()
        take = candidates[: oracle.queries_remaining]
        scores = [oracle.query(theta) for theta in take]
        history.extend(
            (theta.tolist(), score)
            for theta, score in zip(take, scores)
        )
        if len(take) < len(candidates):
            break  # Budget truncated the generation mid-ask.
        optimizer.tell(candidates, scores)
    return history, False


def optimize_attacker_unit(unit: AttackerUnit) -> AttackerRun:
    """Run one population member against its deployed detector arm."""
    config = unit.config
    world = build_world(config)
    pipeline = build_defense(unit.threshold, unit.hardening)
    member_seed = derive_seed(
        config.seed, "redteam-member", config.mode, unit.member
    )
    oracle = ScoreOracle(
        world.attack,
        world.scenario,
        pipeline,
        config.space,
        OracleConfig(
            spl_db=config.spl_db,
            n_probe_episodes=config.n_probe_episodes,
            budget=unit.budget,
            seed=member_seed,
        ),
    )
    history, fell_back = drive_attacker(
        config.mode, config.space, oracle, unit.budget, member_seed
    )
    return AttackerRun(
        member=unit.member,
        mode=config.mode,
        history=history,
        queries_used=oracle.queries_used,
        fell_back=fell_back,
    )


def attack_digest_unit(
    payload: Tuple[int, str, int, Optional[str]]
) -> str:
    """SHA-256 of the ``index``-th attack waveform of a kind.

    A provenance/reproducibility probe: because every attack is
    generated on its own :func:`~repro.attacks.attack_stream`, the
    digest is a pure function of ``(seed, kind, index, command)`` —
    the determinism tests map this unit inline and over a process pool
    and require bitwise-identical answers.
    """
    seed, kind_value, index, command = payload
    _, generator = _attack_generator(seed, AttackKind(kind_value))
    attack = generator.generate_indexed(seed, index, command=command)
    return hashlib.sha256(
        np.ascontiguousarray(attack.waveform, dtype=np.float64).tobytes()
    ).hexdigest()


# ----------------------------------------------------------------------
# Campaign entry points
# ----------------------------------------------------------------------


def _evaluation_oracle(
    config: RedTeamConfig,
    world: RedTeamWorld,
    pipeline: DefensePipeline,
) -> ScoreOracle:
    """Budget-free oracle on the held-out evaluation episode stream."""
    return ScoreOracle(
        world.attack,
        world.scenario,
        pipeline,
        config.space,
        OracleConfig(
            spl_db=config.spl_db,
            n_probe_episodes=1,
            budget=None,
            seed=derive_seed(config.seed, "redteam-eval"),
        ),
    )


def resolve_threshold(config: RedTeamConfig) -> float:
    """The deployed threshold: configured, or EER-calibrated."""
    if config.threshold is not None:
        return float(config.threshold)
    return calibrate_detector(config).threshold


@dataclass(frozen=True)
class CurvePoint:
    """One (arm, budget) cell of the robustness curve."""

    arm: str
    budget: int
    probe_score: Optional[float]
    mean_score: float
    detection_rate: float
    success_rate: float


@dataclass
class CurveResult:
    """Budget-vs-detection-rate curves, hardened vs unhardened.

    ``fell_back`` counts, per arm, the population members whose
    surrogate attacker fell back to gradient-free search.
    """

    config: RedTeamConfig
    threshold: float
    budgets: Tuple[int, ...]
    points: List[CurvePoint]
    fell_back: Dict[str, int]

    def arm_points(self, arm: str) -> List[CurvePoint]:
        """This arm's cells in ascending budget order."""
        return sorted(
            (point for point in self.points if point.arm == arm),
            key=lambda point: point.budget,
        )

    def success_rate(self, arm: str, budget: int) -> float:
        for point in self.points:
            if point.arm == arm and point.budget == budget:
                return point.success_rate
        raise KeyError(f"no curve point for {arm!r} at budget {budget}")

    def advantage(self, arm: str) -> float:
        """Best-over-budgets success gain vs the static baseline."""
        cells = self.arm_points(arm)
        static = cells[0].success_rate  # Budget 0 row.
        return max(point.success_rate for point in cells) - static


def robustness_curve(
    config: RedTeamConfig,
    budgets: Sequence[int],
) -> CurveResult:
    """Budget-vs-detection-rate table for both detector arms.

    Each arm's population runs **once**, to the maximum budget; the
    per-query histories are then sliced into best-so-far snapshots at
    every requested budget and each snapshot is evaluated on held-out
    episodes against that arm's deployed detector.  Budget 0 is the
    static attack by construction (θ = 0).
    """
    budgets = tuple(sorted({int(budget) for budget in budgets}))
    if not budgets:
        raise ConfigurationError("budgets must be non-empty")
    if budgets[0] != 0:
        budgets = (0,) + budgets
    max_budget = budgets[-1]

    threshold = resolve_threshold(config)
    arms: List[Tuple[str, Optional[HardeningConfig]]] = [
        ("unhardened", None),
        ("hardened", config.hardening),
    ]
    units = [
        AttackerUnit(
            config=config,
            member=member,
            threshold=threshold,
            budget=max_budget,
            hardening=arm_hardening,
        )
        for _, arm_hardening in arms
        for member in range(config.population)
    ]
    runs, _ = map_units(optimize_attacker_unit, units, config.n_workers)

    world = build_world(config)
    points: List[CurvePoint] = []
    fell_back: Dict[str, int] = {}
    for arm_index, (arm, arm_hardening) in enumerate(arms):
        arm_runs = runs[
            arm_index
            * config.population : (arm_index + 1)
            * config.population
        ]
        fell_back[arm] = sum(run.fell_back for run in arm_runs)
        deployed = build_defense(threshold, arm_hardening)
        oracle = _evaluation_oracle(config, world, deployed)
        for budget in budgets:
            best_theta, best_probe = config.space.identity(), None
            for run in arm_runs:
                theta, score = run.best_at_budget(config.space, budget)
                if score is not None and (
                    best_probe is None or score > best_probe
                ):
                    best_theta, best_probe = theta, score
            evaluation = oracle.evaluate(
                best_theta, config.n_eval_episodes
            )
            points.append(
                CurvePoint(
                    arm=arm,
                    budget=budget,
                    probe_score=best_probe,
                    mean_score=evaluation.mean_score,
                    detection_rate=evaluation.detection_rate,
                    success_rate=evaluation.success_rate,
                )
            )
    return CurveResult(
        config=config,
        threshold=threshold,
        budgets=budgets,
        points=points,
        fell_back=fell_back,
    )
