"""Detection-threshold calibration.

The detector is training-free, but deployments still need an operating
threshold.  This module calibrates one from score samples: at the EER
point (balanced errors), at a target false-detection rate (usability
first), or at a target true-detection rate (security first) — and can
produce a thresholded pipeline directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import CalibrationError
from repro.eval.metrics import eer_from_scores


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of a threshold calibration.

    Attributes
    ----------
    threshold:
        The chosen detection threshold (scores below ⇒ attack).
    expected_fdr:
        False-detection rate on the calibration legitimate scores.
    expected_tdr:
        True-detection rate on the calibration attack scores.
    strategy:
        Which calibration rule produced it.
    """

    threshold: float
    expected_fdr: float
    expected_tdr: float
    strategy: str

    def __str__(self) -> str:
        return (
            f"threshold {self.threshold:.3f} ({self.strategy}): "
            f"FDR {self.expected_fdr * 100:.1f}%, "
            f"TDR {self.expected_tdr * 100:.1f}%"
        )


def _rates(
    legit: np.ndarray, attack: np.ndarray, threshold: float
) -> tuple:
    fdr = float((legit < threshold).mean())
    tdr = float((attack < threshold).mean())
    return fdr, tdr


def _validate(scores: Sequence[float], name: str) -> np.ndarray:
    array = np.asarray(scores, dtype=np.float64).ravel()
    if array.size == 0:
        raise CalibrationError(f"{name} scores must be non-empty")
    if not np.all(np.isfinite(array)):
        raise CalibrationError(f"{name} scores must be finite")
    return array


def calibrate_eer(
    legit_scores: Sequence[float],
    attack_scores: Sequence[float],
) -> CalibrationReport:
    """Threshold at the equal-error-rate operating point."""
    legit = _validate(legit_scores, "legit")
    attack = _validate(attack_scores, "attack")
    _, threshold = eer_from_scores(legit, attack)
    fdr, tdr = _rates(legit, attack, threshold)
    return CalibrationReport(
        threshold=threshold,
        expected_fdr=fdr,
        expected_tdr=tdr,
        strategy="equal error rate",
    )


def calibrate_max_fdr(
    legit_scores: Sequence[float],
    attack_scores: Sequence[float],
    max_fdr: float = 0.05,
) -> CalibrationReport:
    """Largest threshold keeping the false-detection rate ≤ ``max_fdr``.

    Usability-first: legitimate commands are rejected at most
    ``max_fdr`` of the time; detection power follows from the scores.
    """
    if not 0.0 <= max_fdr <= 1.0:
        raise CalibrationError(
            f"max_fdr must be in [0, 1], got {max_fdr}"
        )
    legit = _validate(legit_scores, "legit")
    attack = _validate(attack_scores, "attack")
    # The largest threshold rejecting at most max_fdr legit samples.
    ordered = np.sort(legit)
    allowed = int(np.floor(max_fdr * ordered.size))
    threshold = float(ordered[allowed]) if allowed < ordered.size else (
        float(ordered[-1]) + 1e-6
    )
    fdr, tdr = _rates(legit, attack, threshold)
    if fdr > max_fdr + 1e-12:
        # Step just below the offending sample.
        threshold = np.nextafter(threshold, -np.inf)
        fdr, tdr = _rates(legit, attack, threshold)
    return CalibrationReport(
        threshold=threshold,
        expected_fdr=fdr,
        expected_tdr=tdr,
        strategy=f"max FDR {max_fdr:.2%}",
    )


def calibrate_min_tdr(
    legit_scores: Sequence[float],
    attack_scores: Sequence[float],
    min_tdr: float = 0.95,
) -> CalibrationReport:
    """Smallest threshold catching at least ``min_tdr`` of attacks.

    Security-first: at least ``min_tdr`` of calibration attacks fall
    below the threshold; false alarms follow from the scores.
    """
    if not 0.0 <= min_tdr <= 1.0:
        raise CalibrationError(
            f"min_tdr must be in [0, 1], got {min_tdr}"
        )
    legit = _validate(legit_scores, "legit")
    attack = _validate(attack_scores, "attack")
    ordered = np.sort(attack)
    needed = int(np.ceil(min_tdr * ordered.size))
    if needed == 0:
        threshold = float(ordered[0]) - 1e-6
    else:
        # Threshold just above the needed-th lowest attack score, so at
        # least `needed` attacks fall below it.
        threshold = float(
            np.nextafter(ordered[needed - 1], np.inf)
        )
    fdr, tdr = _rates(legit, attack, threshold)
    return CalibrationReport(
        threshold=threshold,
        expected_fdr=fdr,
        expected_tdr=tdr,
        strategy=f"min TDR {min_tdr:.2%}",
    )
