"""Gradient-free optimizers for the black-box attacker.

Both optimizers speak the ask/tell protocol: ``ask()`` proposes one
generation of candidate θ vectors (clipped into the attack-space box),
``tell(candidates, scores)`` feeds the oracle's answers back.  The
driver loop (:mod:`repro.redteam.campaign`) owns the oracle and the
budget; the optimizers own only search state.

Determinism is structural: every random draw comes from a generator
derived from ``(seed, name, "gen", generation)``, so the candidate
stream is a pure function of the seed and the answers told so far.
Two optimizers with the same seed, told the same scores, propose
bitwise-identical generations, in any process.

:class:`CmaEsOptimizer` is a compact numpy implementation of the
standard (μ/μ_w, λ)-CMA-ES (Hansen's tutorial parameterization):
weighted recombination, cumulative step-size adaptation, rank-one plus
rank-μ covariance updates.  No third-party dependency — the container
has none to offer.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.redteam.space import AttackSpace
from repro.utils.rng import derive_seed


class Optimizer:
    """Ask/tell optimizer over an :class:`AttackSpace` (maximizing)."""

    #: Registry name used by configs and the CLI.
    name: str = "optimizer"

    def __init__(self, space: AttackSpace, seed: int = 0) -> None:
        self.space = space
        self.seed = int(seed)
        self.generation = 0
        self.best_params = space.identity()
        #: Best oracle score seen so far; -inf until the first tell.
        self.best_score = -math.inf

    # -- protocol ------------------------------------------------------

    def ask(self) -> List[np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    def tell(
        self,
        candidates: Sequence[np.ndarray],
        scores: Sequence[float],
    ) -> None:
        """Record oracle answers; subclasses extend with search state."""
        if len(candidates) != len(scores):
            raise ConfigurationError(
                "tell needs one score per candidate"
            )
        for candidate, score in zip(candidates, scores):
            if score > self.best_score:
                self.best_score = float(score)
                self.best_params = np.array(candidate, dtype=np.float64)
        self.generation += 1

    def _generation_rng(self) -> np.random.Generator:
        """The draw stream of the *current* generation.

        Keyed on ``(seed, name, "gen", generation)``, never on shared
        generator state, so the candidate sequence depends only on the
        seed and the scores told.
        """
        return np.random.default_rng(
            derive_seed(self.seed, self.name, "gen", self.generation)
        )


class RandomSearchOptimizer(Optimizer):
    """Uniform random search inside the box bounds.

    The honest baseline for the curve: each generation draws
    ``popsize`` independent uniform candidates; the best-so-far is a
    running maximum.  Strong black-box results must beat it.
    """

    name = "random"

    def __init__(
        self,
        space: AttackSpace,
        seed: int = 0,
        popsize: Optional[int] = None,
    ) -> None:
        super().__init__(space, seed=seed)
        self.popsize = int(
            popsize
            if popsize is not None
            else default_popsize(space.dimension)
        )
        if self.popsize < 1:
            raise ConfigurationError("popsize must be >= 1")

    def ask(self) -> List[np.ndarray]:
        rng = self._generation_rng()
        return [self.space.random(rng) for _ in range(self.popsize)]


class CmaEsOptimizer(Optimizer):
    """(μ/μ_w, λ)-CMA-ES restricted to the attack-space box.

    Maximizes the oracle score; proposals outside the box are clipped
    (the box is generous relative to the search scale, so clipping
    bias stays negligible).
    """

    name = "cmaes"

    def __init__(
        self,
        space: AttackSpace,
        seed: int = 0,
        popsize: Optional[int] = None,
        sigma0: Optional[float] = None,
    ) -> None:
        super().__init__(space, seed=seed)
        dim = space.dimension
        self.popsize = int(
            popsize
            if popsize is not None
            else default_popsize(dim)
        )
        if self.popsize < 2:
            raise ConfigurationError("CMA-ES popsize must be >= 2")
        # A third of the (symmetric) box half-width: wide enough to
        # reach the bounds within a few generations, narrow enough not
        # to waste the first generations on pure clipping.
        self.sigma = float(
            sigma0
            if sigma0 is not None
            else np.mean(space.upper_bounds) / 3.0
        )
        self.mean = space.identity()
        self.cov = np.eye(dim)
        self.path_sigma = np.zeros(dim)
        self.path_cov = np.zeros(dim)

        # Standard strategy parameters (Hansen's tutorial).
        mu = self.popsize // 2
        weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        self._weights = weights / weights.sum()
        self._mu_eff = 1.0 / np.sum(self._weights**2)
        self._c_sigma = (self._mu_eff + 2.0) / (dim + self._mu_eff + 5.0)
        self._d_sigma = (
            1.0
            + 2.0
            * max(0.0, math.sqrt((self._mu_eff - 1.0) / (dim + 1.0)) - 1.0)
            + self._c_sigma
        )
        self._c_cov_path = (4.0 + self._mu_eff / dim) / (
            dim + 4.0 + 2.0 * self._mu_eff / dim
        )
        self._c_rank1 = 2.0 / ((dim + 1.3) ** 2 + self._mu_eff)
        self._c_rank_mu = min(
            1.0 - self._c_rank1,
            2.0
            * (self._mu_eff - 2.0 + 1.0 / self._mu_eff)
            / ((dim + 2.0) ** 2 + self._mu_eff),
        )
        self._chi_n = math.sqrt(dim) * (
            1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim**2)
        )
        self._pending: Optional[List[np.ndarray]] = None

    # -- protocol ------------------------------------------------------

    def ask(self) -> List[np.ndarray]:
        rng = self._generation_rng()
        eigenvalues, eigenvectors = np.linalg.eigh(self.cov)
        eigenvalues = np.maximum(eigenvalues, 1e-20)
        transform = eigenvectors * np.sqrt(eigenvalues)
        raw = [
            self.mean
            + self.sigma
            * transform @ rng.standard_normal(self.space.dimension)
            for _ in range(self.popsize)
        ]
        # Keep the *unclipped* proposals for the update (the strategy's
        # internal geometry), hand the clipped ones to the oracle.
        self._pending = raw
        return [self.space.clip(candidate) for candidate in raw]

    def tell(
        self,
        candidates: Sequence[np.ndarray],
        scores: Sequence[float],
    ) -> None:
        if self._pending is None or len(candidates) != len(self._pending):
            raise ConfigurationError(
                "tell must follow ask with the same candidates"
            )
        dim = self.space.dimension
        order = np.argsort(scores)[::-1]  # maximize
        mu = self._weights.size
        selected = np.stack(
            [self._pending[index] for index in order[:mu]]
        )
        old_mean = self.mean
        self.mean = self._weights @ selected

        # Cumulative step-size adaptation.
        eigenvalues, eigenvectors = np.linalg.eigh(self.cov)
        eigenvalues = np.maximum(eigenvalues, 1e-20)
        inv_sqrt = (
            eigenvectors
            @ np.diag(1.0 / np.sqrt(eigenvalues))
            @ eigenvectors.T
        )
        mean_shift = (self.mean - old_mean) / self.sigma
        self.path_sigma = (
            1.0 - self._c_sigma
        ) * self.path_sigma + math.sqrt(
            self._c_sigma * (2.0 - self._c_sigma) * self._mu_eff
        ) * (inv_sqrt @ mean_shift)

        path_norm = float(np.linalg.norm(self.path_sigma))
        h_sigma = float(
            path_norm
            / math.sqrt(
                1.0
                - (1.0 - self._c_sigma)
                ** (2 * (self.generation + 1))
            )
            < (1.4 + 2.0 / (dim + 1.0)) * self._chi_n
        )
        self.path_cov = (
            1.0 - self._c_cov_path
        ) * self.path_cov + h_sigma * math.sqrt(
            self._c_cov_path * (2.0 - self._c_cov_path) * self._mu_eff
        ) * mean_shift

        # Rank-one + rank-μ covariance update.
        deviations = (selected - old_mean) / self.sigma
        rank_mu = (
            deviations.T * self._weights
        ) @ deviations
        correction = (1.0 - h_sigma) * self._c_cov_path * (
            2.0 - self._c_cov_path
        )
        self.cov = (
            (1.0 - self._c_rank1 - self._c_rank_mu) * self.cov
            + self._c_rank1
            * (
                np.outer(self.path_cov, self.path_cov)
                + correction * self.cov
            )
            + self._c_rank_mu * rank_mu
        )
        # Numerical symmetry guard.
        self.cov = (self.cov + self.cov.T) / 2.0

        self.sigma *= math.exp(
            (self._c_sigma / self._d_sigma)
            * (path_norm / self._chi_n - 1.0)
        )
        self._pending = None
        super().tell(candidates, scores)


#: Optimizer registry: config/CLI mode name → class.
OPTIMIZERS = {
    RandomSearchOptimizer.name: RandomSearchOptimizer,
    CmaEsOptimizer.name: CmaEsOptimizer,
}


def default_popsize(dimension: int) -> int:
    """The standard CMA-ES population heuristic, 4 + ⌊3 ln d⌋."""
    return 4 + int(3 * math.log(max(dimension, 1)))


def make_optimizer(
    mode: str, space: AttackSpace, seed: int = 0
) -> Optimizer:
    """Construct an optimizer by registry name."""
    try:
        factory = OPTIMIZERS[mode]
    except KeyError:
        raise ConfigurationError(
            f"unknown optimizer {mode!r}; "
            f"choose from {sorted(OPTIMIZERS)}"
        ) from None
    return factory(space, seed=seed)
