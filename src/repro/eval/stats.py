"""Uncertainty quantification for detection metrics.

The campaign sizes are finite, so AUC/EER point estimates carry sampling
error.  This module provides nonparametric bootstrap confidence
intervals over the legitimate/attack score sets, so benchmark reports
can state "AUC 0.99 [0.96, 1.00]" instead of a bare number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import CalibrationError
from repro.eval.metrics import auc_from_scores, eer_from_scores
from repro.utils.rng import SeedLike, as_generator
from repro.utils.stats import quantile_values


@dataclass(frozen=True)
class BootstrapEstimate:
    """A point estimate with a bootstrap confidence interval."""

    value: float
    low: float
    high: float
    confidence: float
    n_bootstrap: int

    def __str__(self) -> str:
        return (
            f"{self.value:.3f} [{self.low:.3f}, {self.high:.3f}] "
            f"({self.confidence:.0%} CI, {self.n_bootstrap} resamples)"
        )


def bootstrap_metric(
    legit_scores: Sequence[float],
    attack_scores: Sequence[float],
    metric: Callable[[np.ndarray, np.ndarray], float],
    n_bootstrap: int = 500,
    confidence: float = 0.95,
    rng: SeedLike = None,
) -> BootstrapEstimate:
    """Percentile-bootstrap confidence interval for a score metric.

    Parameters
    ----------
    legit_scores / attack_scores:
        The observed score sets.
    metric:
        Callable mapping ``(legit, attack)`` arrays to a scalar.
    n_bootstrap:
        Number of resamples.
    confidence:
        Interval mass (e.g., 0.95 for a 95 % CI).
    rng:
        Randomness for resampling.
    """
    legit = np.asarray(legit_scores, dtype=np.float64).ravel()
    attack = np.asarray(attack_scores, dtype=np.float64).ravel()
    if legit.size == 0 or attack.size == 0:
        raise CalibrationError("score sets must be non-empty")
    if n_bootstrap <= 0:
        raise CalibrationError("n_bootstrap must be > 0")
    if not 0.0 < confidence < 1.0:
        raise CalibrationError("confidence must lie in (0, 1)")
    generator = as_generator(rng)
    point = float(metric(legit, attack))
    resampled = np.empty(n_bootstrap)
    for index in range(n_bootstrap):
        legit_sample = legit[
            generator.integers(0, legit.size, size=legit.size)
        ]
        attack_sample = attack[
            generator.integers(0, attack.size, size=attack.size)
        ]
        resampled[index] = metric(legit_sample, attack_sample)
    tail = (1.0 - confidence) / 2.0
    low, high = quantile_values(resampled, [tail, 1.0 - tail])
    return BootstrapEstimate(
        value=point,
        low=float(low),
        high=float(high),
        confidence=confidence,
        n_bootstrap=n_bootstrap,
    )


def bootstrap_auc(
    legit_scores: Sequence[float],
    attack_scores: Sequence[float],
    n_bootstrap: int = 500,
    confidence: float = 0.95,
    rng: SeedLike = None,
) -> BootstrapEstimate:
    """Bootstrap CI for the AUC."""
    return bootstrap_metric(
        legit_scores,
        attack_scores,
        auc_from_scores,
        n_bootstrap=n_bootstrap,
        confidence=confidence,
        rng=rng,
    )


def bootstrap_eer(
    legit_scores: Sequence[float],
    attack_scores: Sequence[float],
    n_bootstrap: int = 500,
    confidence: float = 0.95,
    rng: SeedLike = None,
) -> BootstrapEstimate:
    """Bootstrap CI for the EER."""
    return bootstrap_metric(
        legit_scores,
        attack_scores,
        lambda l, a: eer_from_scores(l, a)[0],
        n_bootstrap=n_bootstrap,
        confidence=confidence,
        rng=rng,
    )
