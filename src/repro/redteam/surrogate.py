"""Surrogate-gradient attacker: fit a cheap proxy, ascend it, verify.

The gradient-free modes treat every oracle call as equally expensive.
This mode spends a warm-up slice of the budget on random probes, fits
a ridge-regularized quadratic proxy of the score surface

    ŝ(θ) = w₀ + w·θ + v·θ²   (diagonal quadratic, closed-form fit)

and then ascends the proxy's analytic gradient from the best probe.
Each ascent proposal is verified with one real oracle query; the
**transfer gap** |ŝ(θ) − s(θ)| tells the attacker whether its proxy
still describes the real surface.  When the gap exceeds the tolerance,
the proxy has stopped transferring — the attacker falls back to the
gradient-free optimizer for the remaining budget (seeded from its best
point so far), exactly the behaviour an adaptive adversary would
implement and the behaviour ISSUE 8's mode (b) specifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.redteam.space import AttackSpace
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class SurrogateConfig:
    """Knobs of the surrogate-gradient attacker.

    Attributes
    ----------
    warmup_fraction:
        Fraction of the budget spent on random probes that train the
        proxy (at least ``2 × dimension + 1`` probes are needed for
        the quadratic fit to be determined).
    learning_rate:
        Ascent step size in dB along the normalized proxy gradient.
    ascent_steps:
        Proxy-gradient steps taken between oracle verifications.
    transfer_tolerance:
        Maximum |proxy − oracle| score discrepancy before the proxy is
        declared non-transferring and the attacker falls back to
        gradient-free search.
    ridge:
        L2 regularization of the proxy fit.
    """

    warmup_fraction: float = 0.35
    learning_rate: float = 2.0
    ascent_steps: int = 3
    transfer_tolerance: float = 0.12
    ridge: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ConfigurationError(
                "warmup_fraction must lie in (0, 1)"
            )
        if self.learning_rate <= 0 or self.ascent_steps < 1:
            raise ConfigurationError(
                "need learning_rate > 0 and ascent_steps >= 1"
            )
        if self.transfer_tolerance <= 0 or self.ridge < 0:
            raise ConfigurationError(
                "need transfer_tolerance > 0 and ridge >= 0"
            )


class QuadraticProxy:
    """Ridge-fit diagonal-quadratic model of the score surface."""

    def __init__(self, space: AttackSpace, ridge: float) -> None:
        self.space = space
        self.ridge = float(ridge)
        self._weights: Optional[np.ndarray] = None

    @property
    def fitted(self) -> bool:
        return self._weights is not None

    def _design(self, thetas: np.ndarray) -> np.ndarray:
        return np.hstack(
            [np.ones((thetas.shape[0], 1)), thetas, thetas**2]
        )

    def fit(
        self, thetas: List[np.ndarray], scores: List[float]
    ) -> None:
        """Closed-form ridge regression on (θ, score) pairs."""
        design = self._design(np.stack(thetas))
        gram = design.T @ design + self.ridge * np.eye(design.shape[1])
        self._weights = np.linalg.solve(
            gram, design.T @ np.asarray(scores, dtype=np.float64)
        )

    def predict(self, theta: np.ndarray) -> float:
        """ŝ(θ) under the fitted proxy."""
        if self._weights is None:
            raise ConfigurationError("proxy is not fitted")
        return float(
            (self._design(theta[None, :]) @ self._weights)[0]
        )

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Analytic ∇ŝ(θ) — the whole point of the differentiable proxy."""
        if self._weights is None:
            raise ConfigurationError("proxy is not fitted")
        dim = self.space.dimension
        linear = self._weights[1 : dim + 1]
        quadratic = self._weights[dim + 1 :]
        return linear + 2.0 * quadratic * theta


@dataclass
class SurrogateTrace:
    """What the surrogate attacker did with its budget (for reports)."""

    warmup_queries: int = 0
    ascent_queries: int = 0
    fallback_queries: int = 0
    fell_back: bool = False
    max_transfer_gap: float = 0.0


class SurrogateGradientAttacker:
    """Budgeted attacker: proxy ascent with gradient-free fallback.

    Drives a :class:`~repro.redteam.oracle.ScoreOracle` directly
    (unlike the ask/tell optimizers, it decides per-query what to
    spend), tracking best-so-far across warm-up, ascent, and any
    fallback phase.
    """

    name = "surrogate"

    def __init__(
        self,
        space: AttackSpace,
        seed: int = 0,
        config: Optional[SurrogateConfig] = None,
    ) -> None:
        self.space = space
        self.seed = int(seed)
        self.config = config or SurrogateConfig()
        self.trace = SurrogateTrace()
        self.best_params = space.identity()
        self.best_score = -np.inf
        self.history: List[Tuple[np.ndarray, float]] = []

    def _note(self, theta: np.ndarray, score: float) -> None:
        self.history.append((np.array(theta), float(score)))
        if score > self.best_score:
            self.best_score = float(score)
            self.best_params = np.array(theta, dtype=np.float64)

    def run(self, oracle, budget: int) -> None:
        """Spend up to ``budget`` oracle queries optimizing θ.

        Phase 1 (warm-up) probes random θ; phase 2 fits the proxy and
        alternates proxy-gradient ascent with single-query
        verification; a transfer gap beyond tolerance triggers phase 3,
        handing the remaining budget to a
        :class:`~repro.redteam.optimizers.CmaEsOptimizer` centred on
        the best point found so far.
        """
        from repro.redteam.optimizers import CmaEsOptimizer

        if budget <= 0:
            return
        config = self.config
        dim = self.space.dimension
        min_fit = 2 * dim + 1
        warmup = min(
            budget,
            max(min_fit, int(round(config.warmup_fraction * budget))),
        )
        rng = np.random.default_rng(
            derive_seed(self.seed, "surrogate-warmup")
        )
        thetas: List[np.ndarray] = [self.space.identity()]
        thetas += [self.space.random(rng) for _ in range(warmup - 1)]
        for theta in thetas:
            self._note(theta, oracle.query(theta))
            self.trace.warmup_queries += 1

        spent = warmup
        if spent >= budget or len(self.history) < min_fit:
            return

        proxy = QuadraticProxy(self.space, config.ridge)
        theta = np.array(self.best_params)
        while spent < budget:
            proxy.fit(
                [pair[0] for pair in self.history],
                [pair[1] for pair in self.history],
            )
            for _ in range(config.ascent_steps):
                gradient = proxy.gradient(theta)
                norm = float(np.linalg.norm(gradient))
                if norm < 1e-12:
                    break
                theta = self.space.clip(
                    theta + config.learning_rate * gradient / norm
                )
            predicted = proxy.predict(theta)
            actual = oracle.query(theta)
            spent += 1
            self.trace.ascent_queries += 1
            self._note(theta, actual)
            gap = abs(predicted - actual)
            self.trace.max_transfer_gap = max(
                self.trace.max_transfer_gap, gap
            )
            if gap > config.transfer_tolerance:
                # The proxy no longer transfers to the real surface:
                # hand the rest of the budget to gradient-free search
                # centred on the best point so far.
                self.trace.fell_back = True
                fallback = CmaEsOptimizer(
                    self.space,
                    seed=derive_seed(self.seed, "surrogate-fallback"),
                )
                fallback.mean = np.array(self.best_params)
                while spent < budget:
                    candidates = fallback.ask()
                    take = candidates[: budget - spent]
                    scores = [oracle.query(c) for c in take]
                    spent += len(take)
                    self.trace.fallback_queries += len(take)
                    for candidate, score in zip(take, scores):
                        self._note(candidate, score)
                    if len(take) == len(candidates):
                        fallback.tell(candidates, scores)
                return
            # Proxy still transferring: restart ascent from the best
            # point (the verified query just joined the training set).
            theta = np.array(self.best_params)
