"""Speaker-to-accelerometer conduction path."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sensing.conduction import ConductionPath

RATE = 16_000.0


@pytest.fixture()
def path():
    return ConductionPath(response_jitter_db=0.0)


def test_low_frequencies_suppressed(path):
    freqs = np.array([100.0, 2200.0])
    response = path.response(freqs)
    assert response[0] < 0.1 * response[1]


def test_resonance_peak(path):
    freqs = np.array([1200.0, 2200.0, 4000.0])
    response = path.response(freqs)
    assert response[1] == max(response)


def test_high_frequency_rolloff(path):
    freqs = np.array([2200.0, 7500.0])
    response = path.response(freqs)
    assert response[1] < response[0]


def test_apply_filters_low_tone(path):
    from repro.dsp.generators import tone

    low = tone(150.0, 0.5, RATE)
    high = tone(2200.0, 0.5, RATE)
    low_out = path.apply(low, RATE)
    high_out = path.apply(high, RATE)
    assert np.sqrt(np.mean(low_out**2)) < 0.1 * np.sqrt(
        np.mean(high_out**2)
    )


def test_apply_deterministic_without_jitter(path):
    from repro.dsp.generators import tone

    signal = tone(1000.0, 0.2, RATE)
    np.testing.assert_array_equal(
        path.apply(signal, RATE), path.apply(signal, RATE)
    )


def test_jitter_varies_per_call():
    from repro.dsp.generators import tone

    path = ConductionPath(response_jitter_db=2.0)
    signal = tone(1000.0, 0.2, RATE)
    a = path.apply(signal, RATE, rng=1)
    b = path.apply(signal, RATE, rng=2)
    assert not np.allclose(a, b)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"low_corner_hz": 0.0},
        {"low_corner_hz": 3000.0},   # above resonance
        {"high_corner_hz": 1000.0},  # below resonance
        {"gain": 0.0},
        {"response_jitter_db": -1.0},
        # NaN passed the ordered comparisons; a NaN gain gave NaN output.
        {"gain": float("nan")},
        {"high_corner_hz": float("nan")},
        {"response_jitter_db": float("nan")},
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ConfigurationError):
        ConductionPath(**kwargs)
