"""Attack-space geometry and the θ-parameterized waveform transform."""

import numpy as np
import pytest

from repro.attacks.base import AttackKind, AttackSound
from repro.errors import ConfigurationError
from repro.redteam.space import AttackSpace


def _tone(n=1600, rate=16_000.0):
    t = np.arange(n) / rate
    return np.sin(2 * np.pi * 440.0 * t) + 0.3 * np.sin(
        2 * np.pi * 1200.0 * t
    )


def test_dimension_and_bounds():
    space = AttackSpace(n_bands=6, n_slices=3)
    assert space.dimension == 9
    assert space.upper_bounds.shape == (9,)
    assert np.all(space.lower_bounds == -space.upper_bounds)
    assert np.all(space.upper_bounds[:6] == space.max_band_gain_db)
    assert np.all(space.upper_bounds[6:] == space.max_slice_gain_db)


def test_band_edges_are_log_spaced_and_cover_range():
    space = AttackSpace(n_bands=8, band_low_hz=50.0, band_high_hz=4000.0)
    edges = space.band_edges_hz
    assert edges.shape == (9,)
    assert edges[0] == pytest.approx(50.0)
    assert edges[-1] == pytest.approx(4000.0)
    ratios = edges[1:] / edges[:-1]
    assert np.allclose(ratios, ratios[0])


def test_identity_is_exact_passthrough():
    space = AttackSpace()
    waveform = _tone()
    out = space.apply(waveform, 16_000.0, space.identity())
    assert np.array_equal(out, waveform)


def test_clip_projects_into_box_and_validates_shape():
    space = AttackSpace(n_bands=4, n_slices=2)
    wild = np.array([100.0, -100.0, 0.0, 5.0, 50.0, -50.0])
    clipped = space.clip(wild)
    assert np.all(clipped <= space.upper_bounds)
    assert np.all(clipped >= space.lower_bounds)
    with pytest.raises(ConfigurationError):
        space.clip(np.zeros(5))


def test_band_gain_moves_band_energy():
    space = AttackSpace(n_bands=4, n_slices=0)
    waveform = _tone()
    params = space.identity()
    # 440 Hz falls in band 1 of [50, 150, 447, 1337, 4000].
    params[1] = 12.0
    shaped = space.apply(waveform, 16_000.0, params)
    spectrum_in = np.abs(np.fft.rfft(waveform))
    spectrum_out = np.abs(np.fft.rfft(shaped))
    freqs = np.fft.rfftfreq(waveform.size, d=1 / 16_000.0)
    band = (freqs >= 150.0) & (freqs < 447.0)
    other = (freqs >= 447.0) & (freqs < 1337.0)  # holds the 1200 Hz tone
    gain = spectrum_out[band].sum() / spectrum_in[band].sum()
    assert gain == pytest.approx(10 ** (12.0 / 20.0), rel=1e-6)
    assert spectrum_out[other].sum() == pytest.approx(
        spectrum_in[other].sum(), rel=1e-6
    )


def test_slice_gains_shape_temporal_envelope():
    space = AttackSpace(n_bands=1, n_slices=2)
    waveform = np.ones(1000)
    params = np.array([0.0, -6.0, 6.0])
    shaped = space.apply(waveform, 16_000.0, params)
    # The early half is attenuated, the late half amplified.
    assert shaped[:250].mean() < 1.0 < shaped[750:].mean()
    assert shaped[0] == pytest.approx(10 ** (-6.0 / 20.0))
    assert shaped[-1] == pytest.approx(10 ** (6.0 / 20.0))


def test_mutate_preserves_attack_metadata():
    space = AttackSpace(n_bands=2, n_slices=0)
    attack = AttackSound(
        kind=AttackKind.REPLAY,
        waveform=_tone(),
        sample_rate=16_000.0,
        description="replay of victim",
    )
    params = np.array([6.0, -6.0])
    shaped = space.mutate(attack, params)
    assert shaped.kind == attack.kind
    assert shaped.sample_rate == attack.sample_rate
    assert "redteam-shaped" in shaped.description
    assert not np.array_equal(shaped.waveform, attack.waveform)
    # θ = 0 keeps the waveform bitwise.
    assert np.array_equal(
        space.mutate(attack, space.identity()).waveform,
        attack.waveform,
    )


def test_random_respects_bounds_and_is_seeded():
    space = AttackSpace()
    a = space.random(np.random.default_rng(5))
    b = space.random(np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= space.upper_bounds)


def test_invalid_configs_raise():
    with pytest.raises(ConfigurationError):
        AttackSpace(n_bands=0)
    with pytest.raises(ConfigurationError):
        AttackSpace(band_low_hz=500.0, band_high_hz=100.0)
    with pytest.raises(ConfigurationError):
        AttackSpace(max_band_gain_db=0.0)


def test_describe_mentions_every_band_and_slice():
    space = AttackSpace(n_bands=2, n_slices=2)
    text = space.describe(np.array([1.0, -2.0, 3.0, -4.0]))
    assert "bands[" in text and "slices[" in text
    assert "+1.0dB" in text and "-4.0dB" in text
