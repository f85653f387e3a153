"""Black-box score oracle wrapping the barrier/sensing simulation.

The attacker's view of the defense: submit a parameter vector θ, hear
back the 2-D correlation score the deployed pipeline computed for the
θ-shaped attack sound played behind the barrier.  Everything inside —
barrier physics, cross-domain sensing, segmentation, hardening — is
opaque; the oracle boundary is exactly the deployed system's public
behaviour, which is what makes red-team numbers honest.

Two episode regimes matter:

* **Probe episodes** (``query``) use *fixed* per-oracle episode seeds —
  common random numbers — so the optimizer sees a smooth objective
  instead of chasing simulation noise.  Every ``query`` counts against
  the attacker's budget.
* **Evaluation episodes** (``evaluate``) use *held-out* episode seeds
  the optimizer never saw, measuring how the optimized θ generalizes
  to fresh sessions (fresh noise, fresh hardening draws).  Evaluation
  is the defender's measurement and does not touch the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.attacks.base import AttackSound
from repro.attacks.scenario import AttackScenario
from repro.core.pipeline import DefensePipeline
from repro.errors import BudgetExceededError, ConfigurationError
from repro.redteam.space import AttackSpace
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class OracleConfig:
    """Query regime of a :class:`ScoreOracle`.

    Attributes
    ----------
    spl_db:
        Playback level of the attack behind the barrier.  Red-team
        runs default to a loud attacker (85 dB) — the contested
        operating point where shaping can actually move the score.
    n_probe_episodes:
        Fixed common-random-number episodes averaged per query.
    budget:
        Maximum number of queries; ``None`` means unlimited.  The
        budget is the curve axis: detection rate vs how many oracle
        calls the attacker may spend.
    seed:
        Base seed for the probe and evaluation episode streams.
    """

    spl_db: float = 85.0
    n_probe_episodes: int = 2
    budget: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_probe_episodes < 1:
            raise ConfigurationError("n_probe_episodes must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError("budget must be >= 0 or None")


@dataclass(frozen=True)
class EvaluationResult:
    """Held-out evaluation of one θ against the deployed detector."""

    scores: List[float]
    detected: List[bool]

    @property
    def n_episodes(self) -> int:
        return len(self.scores)

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.scores))

    @property
    def detection_rate(self) -> float:
        """Fraction of fresh sessions that flagged the attack."""
        return float(np.mean(self.detected))

    @property
    def success_rate(self) -> float:
        """Fraction of fresh sessions the attack slipped through."""
        return 1.0 - self.detection_rate


class ScoreOracle:
    """Budgeted black-box oracle over the deployed defense pipeline.

    Parameters
    ----------
    attack:
        The static base attack the adversary starts from.
    scenario:
        Room/barrier/device layout the attack is played in.
    pipeline:
        The deployed defense (hardened or not).  For detection-rate
        evaluation its detector needs a calibrated threshold.
    space:
        Attack-space parameterization θ lives in.
    config:
        Query regime (SPL, probe episodes, budget, seed).
    """

    def __init__(
        self,
        attack: AttackSound,
        scenario: AttackScenario,
        pipeline: DefensePipeline,
        space: AttackSpace,
        config: Optional[OracleConfig] = None,
    ) -> None:
        self.attack = attack
        self.scenario = scenario
        self.pipeline = pipeline
        self.space = space
        self.config = config or OracleConfig()
        self._queries_used = 0

    @property
    def queries_used(self) -> int:
        """Oracle queries charged against the budget so far."""
        return self._queries_used

    @property
    def queries_remaining(self) -> Optional[int]:
        """Budget left, or ``None`` when unlimited."""
        if self.config.budget is None:
            return None
        return self.config.budget - self._queries_used

    def query(self, params: np.ndarray) -> float:
        """Mean probe score of θ (counts against the budget).

        Averages the deployed pipeline's correlation score over the
        oracle's fixed probe episodes.  Raises
        :class:`BudgetExceededError` once the budget is spent — the
        optimizer drivers use this as their termination signal.
        """
        remaining = self.queries_remaining
        if remaining is not None and remaining <= 0:
            raise BudgetExceededError(
                f"attacker budget of {self.config.budget} oracle "
                f"queries is exhausted"
            )
        self._queries_used += 1
        scores = [
            self._episode_score(params, "probe", episode)
            for episode in range(self.config.n_probe_episodes)
        ]
        return float(np.mean(scores))

    def evaluate(
        self, params: np.ndarray, n_episodes: int
    ) -> EvaluationResult:
        """Held-out evaluation of θ on fresh sessions (budget-free).

        Runs the θ-shaped attack through ``n_episodes`` evaluation
        episodes whose seeds are disjoint from every probe episode, and
        collects the deployed detector's verdicts.  This is the
        defender's measurement — the number the robustness curves
        plot — so it never consumes attacker budget.
        """
        if self.pipeline.config.detector.threshold is None:
            raise ConfigurationError(
                "evaluate needs a calibrated detector threshold; "
                "probe-only oracles can still query scores"
            )
        scores: List[float] = []
        detected: List[bool] = []
        for episode in range(n_episodes):
            verdict = self._episode_verdict(params, "eval", episode)
            scores.append(verdict.score)
            detected.append(bool(verdict.is_attack))
        return EvaluationResult(scores=scores, detected=detected)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _episode_verdict(
        self, params: np.ndarray, phase: str, episode: int
    ):
        """One full session: shape, play thru barrier, analyze."""
        shaped = self.space.mutate(self.attack, params)
        episode_seed = derive_seed(
            self.config.seed, "redteam-episode", phase, episode
        )
        va, wearable = self.scenario.attack_recordings(
            shaped,
            spl_db=self.config.spl_db,
            rng=np.random.default_rng(
                derive_seed(episode_seed, "recordings")
            ),
        )
        return self.pipeline.analyze(
            va,
            wearable,
            rng=derive_seed(episode_seed, "analysis"),
            oracle_utterance=shaped.utterance,
        )

    def _episode_score(
        self, params: np.ndarray, phase: str, episode: int
    ) -> float:
        return self._episode_verdict(params, phase, episode).score
