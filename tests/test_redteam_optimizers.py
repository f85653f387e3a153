"""Gradient-free optimizers: ask/tell, convergence, determinism."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.redteam.optimizers import (
    OPTIMIZERS,
    CmaEsOptimizer,
    RandomSearchOptimizer,
    default_popsize,
    make_optimizer,
)
from repro.redteam.space import AttackSpace

SPACE = AttackSpace(n_bands=4, n_slices=2)


def _sphere(target):
    """Maximize -||θ - target||²: smooth, known optimum."""

    def objective(theta):
        return -float(np.sum((theta - target) ** 2))

    return objective


def _drive(optimizer, objective, generations):
    for _ in range(generations):
        candidates = optimizer.ask()
        optimizer.tell(
            candidates, [objective(c) for c in candidates]
        )


@pytest.mark.parametrize("mode", sorted(OPTIMIZERS))
def test_candidates_respect_bounds(mode):
    optimizer = make_optimizer(mode, SPACE, seed=1)
    for candidate in optimizer.ask():
        assert np.all(candidate <= SPACE.upper_bounds + 1e-12)
        assert np.all(candidate >= SPACE.lower_bounds - 1e-12)


@pytest.mark.parametrize("mode", sorted(OPTIMIZERS))
def test_same_seed_is_bitwise_deterministic(mode):
    objective = _sphere(np.full(SPACE.dimension, 2.0))
    a = make_optimizer(mode, SPACE, seed=9)
    b = make_optimizer(mode, SPACE, seed=9)
    _drive(a, objective, 3)
    _drive(b, objective, 3)
    assert a.best_score == b.best_score
    assert np.array_equal(a.best_params, b.best_params)


def test_cmaes_approaches_sphere_optimum():
    target = np.array([4.0, -3.0, 2.0, -1.0, 1.5, -2.5])
    optimizer = CmaEsOptimizer(SPACE, seed=3)
    _drive(optimizer, _sphere(target), 30)
    assert optimizer.best_score > -2.0  # started around -40


def test_cmaes_beats_random_search_on_smooth_objective():
    target = np.array([4.0, -3.0, 2.0, -1.0, 1.5, -2.5])
    cmaes = CmaEsOptimizer(SPACE, seed=3)
    random = RandomSearchOptimizer(
        SPACE, seed=3, popsize=cmaes.popsize
    )
    _drive(cmaes, _sphere(target), 20)
    _drive(random, _sphere(target), 20)
    assert cmaes.best_score > random.best_score


def test_tell_validates_candidate_score_pairing():
    optimizer = RandomSearchOptimizer(SPACE, seed=0)
    candidates = optimizer.ask()
    with pytest.raises(ConfigurationError):
        optimizer.tell(candidates, [0.0])


def test_make_optimizer_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        make_optimizer("gradient-descent", SPACE, seed=0)


def test_default_popsize_grows_with_dimension():
    assert default_popsize(4) < default_popsize(100)
    assert default_popsize(1) >= 4
