"""Normalisation arithmetic and the tail-percentile rule."""

import pytest

from calibrate import (
    REF_NOMINAL_S,
    interval_union_s,
    normalise_span,
    speed_factor,
    tail_percentile,
)
from workloads import Window


def test_speed_factor_uses_mean_of_bracketing_readings():
    assert speed_factor(REF_NOMINAL_S, REF_NOMINAL_S) == pytest.approx(1.0)
    # The host ran at half speed: the kernel took twice as long.
    slow = 2 * REF_NOMINAL_S
    assert speed_factor(slow, slow) == pytest.approx(0.5)
    assert speed_factor(REF_NOMINAL_S, 3 * REF_NOMINAL_S) == pytest.approx(
        0.5
    )
    assert speed_factor(0.5 * REF_NOMINAL_S, 0.5 * REF_NOMINAL_S) > 1.0


def test_compute_scales_and_timer_waits_do_not():
    # A 100 ms request holding 20 ms in the scheduler, on a host at half
    # speed: only the 80 ms of compute halves.
    assert normalise_span(0.100, 0.020, 0.5) == pytest.approx(0.060)
    # Pure waits are unchanged whatever the host speed.
    assert normalise_span(0.020, 0.020, 0.25) == pytest.approx(0.020)
    assert normalise_span(0.050, 0.0, 2.0) == pytest.approx(0.100)


def test_window_normalises_its_wall_minus_hold():
    window = Window(
        factor=0.8, wall_s=2.0, hold_s=0.5, traced=False, records=[]
    )
    assert window.normalised_s == pytest.approx(1.5 * 0.8 + 0.5)


def test_interval_union_merges_overlaps_and_skips_empty():
    assert interval_union_s([]) == 0.0
    assert interval_union_s([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == (
        pytest.approx(3.0)
    )
    assert interval_union_s([(1.0, 1.0), (2.0, 1.5)]) == 0.0
    assert interval_union_s([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "n, expected",
    [(200, 95.0), (210, 95.0), (100, 90.0), (57, 82.0), (10, 0.0), (5, 0.0)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected:
        assert n * (100 - expected) / 100 >= 10
        # One percentile point higher would leave fewer than ten.
        assert n * (100 - expected - 1) / 100 < 10


def test_p95_needs_two_hundred_samples():
    assert tail_percentile(200) == 95.0
    assert tail_percentile(199) < 95.0
