"""TDR/FDR/ROC/AUC/EER metrics."""

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.eval.metrics import (
    auc_from_scores,
    eer_from_scores,
    evaluate_scores,
    roc_curve,
)


def test_perfect_separation():
    legit = [0.8, 0.9, 0.85]
    attack = [0.1, 0.2, 0.15]
    assert auc_from_scores(legit, attack) == 1.0
    eer, threshold = eer_from_scores(legit, attack)
    assert eer == 0.0
    assert 0.2 < threshold < 0.8


def test_no_separation():
    scores = [0.5] * 10
    assert auc_from_scores(scores, scores) == pytest.approx(0.5)


def test_inverted_separation():
    legit = [0.1, 0.2]
    attack = [0.8, 0.9]
    assert auc_from_scores(legit, attack) == 0.0


def test_auc_matches_pairwise_probability(rng):
    legit = rng.normal(0.7, 0.1, 50)
    attack = rng.normal(0.3, 0.2, 60)
    auc = auc_from_scores(legit, attack)
    pairwise = np.mean(
        [a < l for a in attack for l in legit]
    )
    assert auc == pytest.approx(pairwise, abs=1e-9)


def test_eer_overlapping_distributions(rng):
    legit = rng.normal(0.6, 0.1, 400)
    attack = rng.normal(0.4, 0.1, 400)
    eer, threshold = eer_from_scores(legit, attack)
    # d' = 2sigma -> EER = Phi(-1) ~ 15.9%.
    assert eer == pytest.approx(0.159, abs=0.04)
    assert threshold == pytest.approx(0.5, abs=0.05)


def test_roc_curve_monotone(rng):
    legit = rng.normal(0.6, 0.1, 100)
    attack = rng.normal(0.4, 0.1, 100)
    thresholds, fdr, tdr = roc_curve(legit, attack)
    assert np.all(np.diff(fdr) >= 0)
    assert np.all(np.diff(tdr) >= 0)
    assert fdr[0] == 0.0 and tdr[-1] == 1.0


def test_roc_endpoints():
    thresholds, fdr, tdr = roc_curve([0.9], [0.1])
    assert fdr[0] == 0.0
    assert fdr[-1] == 1.0
    assert tdr[-1] == 1.0


def test_evaluate_scores_summary(rng):
    legit = rng.normal(0.7, 0.05, 30)
    attack = rng.normal(0.2, 0.05, 30)
    metrics = evaluate_scores(legit, attack)
    assert metrics.auc > 0.99
    assert metrics.eer < 0.05
    assert metrics.n_legit == 30
    assert metrics.n_attack == 30
    assert "AUC" in str(metrics)


def test_empty_scores_rejected():
    with pytest.raises(CalibrationError):
        auc_from_scores([], [0.5])
    with pytest.raises(CalibrationError):
        eer_from_scores([0.5], [])


def test_non_finite_rejected():
    with pytest.raises(CalibrationError):
        auc_from_scores([np.nan], [0.5])
    with pytest.raises(CalibrationError):
        eer_from_scores([0.5, np.inf], [0.1])


def test_eer_threshold_classifies_at_equal_rates(rng):
    legit = rng.normal(0.65, 0.1, 300)
    attack = rng.normal(0.35, 0.1, 300)
    eer, threshold = eer_from_scores(legit, attack)
    fdr = float((legit < threshold).mean())
    fnr = float((attack >= threshold).mean())
    assert abs(fdr - fnr) < 0.05
