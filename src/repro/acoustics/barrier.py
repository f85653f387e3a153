"""Thru-barrier transmission filter (paper Eq. (1)).

A :class:`Barrier` applies its material's frequency-dependent transmission
gain to a signal in the FFT domain, optionally with small random
structural resonances so repeated transmissions are not bit-identical
(real barriers flex and rattle slightly).
"""

from __future__ import annotations

import numpy as np

from repro.acoustics.materials import BarrierMaterial
from repro.dsp.filters import spectral_filter
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ensure_1d, ensure_positive


class Barrier:
    """A physical barrier between the sound source and the room.

    Parameters
    ----------
    material:
        Frequency-selective transmission curve.
    thickness_scale:
        Multiplier on the material's transmission loss in dB (a double
        pane would be ~2.0).  Defaults to 1.0.
    resonance_db:
        Standard deviation (dB) of random per-transmission ripples in the
        transmission curve, modelling structural resonances; 0 disables.

    Examples
    --------
    >>> from repro.acoustics import GLASS_WINDOW, Barrier
    >>> barrier = Barrier(GLASS_WINDOW)
    >>> import numpy as np
    >>> out = barrier.transmit(np.sin(np.arange(1600) * 0.5), 16000.0)
    """

    def __init__(
        self,
        material: BarrierMaterial,
        thickness_scale: float = 1.0,
        resonance_db: float = 1.0,
    ) -> None:
        ensure_positive(thickness_scale, "thickness_scale")
        if resonance_db < 0:
            raise ValueError("resonance_db must be >= 0")
        self.material = material
        self.thickness_scale = float(thickness_scale)
        self.resonance_db = float(resonance_db)

    def transmission_gain(self, frequencies: np.ndarray) -> np.ndarray:
        """Deterministic amplitude gain of the barrier at each frequency.

        Delegates to :meth:`BarrierMaterial.transmission_gain` — the
        single implementation of the loss→gain conversion — so material
        subclasses (metamaterial notches) shape every channel built on
        this barrier.
        """
        return self.material.transmission_gain(
            frequencies, thickness_scale=self.thickness_scale
        )

    def transmit(
        self,
        signal: np.ndarray,
        sample_rate: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Pass ``signal`` through the barrier.

        Applies the material transmission gain in the FFT domain, plus
        smooth random resonance ripples when ``resonance_db > 0``.
        """
        samples = ensure_1d(signal)
        ensure_positive(sample_rate, "sample_rate")

        def gain_of(frequencies: np.ndarray) -> np.ndarray:
            gain = self.transmission_gain(frequencies)
            if self.resonance_db > 0:
                gain = gain * self._resonance_ripple(frequencies, rng)
            return gain

        return spectral_filter(samples, sample_rate, gain_of)

    def _resonance_ripple(
        self,
        frequencies: np.ndarray,
        rng: SeedLike,
    ) -> np.ndarray:
        """Smooth log-amplitude ripple across frequency (structural modes)."""
        generator = as_generator(rng)
        n_modes = 6
        ripple_db = np.zeros_like(frequencies)
        span = max(float(frequencies[-1]), 1.0)
        for _ in range(n_modes):
            center = generator.uniform(100.0, span)
            width = generator.uniform(span / 40.0, span / 10.0)
            amplitude = generator.normal(0.0, self.resonance_db)
            ripple_db += amplitude * np.exp(
                -0.5 * ((frequencies - center) / width) ** 2
            )
        return 10.0 ** (ripple_db / 20.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Barrier(material={self.material.name!r}, "
            f"thickness_scale={self.thickness_scale})"
        )
