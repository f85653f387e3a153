"""Offline barrier-effect-sensitive phoneme selection (paper § V-A).

The selector replays each common phoneme through the attack chain (with a
barrier) and the legitimate chain (without), converts the recordings to
the vibration domain, and computes the third-quartile FFT magnitude
profile ``Q3(p, f)`` per phoneme over the population of renditions.  Two
criteria then pick the sensitive set:

* **Criterion I** — thru-barrier: ``max_f Q3_adv(p, f) < alpha``; the
  phoneme must *not* trigger the accelerometer after passing a barrier.
* **Criterion II** — direct: ``min_f Q3_user(p, f) > alpha``; the phoneme
  must reliably trigger the accelerometer when not blocked.

The sensitive set is the intersection.  With the default simulation
parameters the selector reproduces the paper's outcome: 31 of the 37
common phonemes survive; /s/, /z/, /sh/, /th/ fail Criterion II and
/aa/, /ao/ fail Criterion I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.acoustics.loudspeaker import SOUND_BAR
from repro.acoustics.materials import BarrierMaterial, GLASS_WINDOW
from repro.acoustics.microphone import Microphone, SMART_SPEAKER_MIC
from repro.acoustics.spl import db_to_gain
from repro.channels import (
    AirPropagationStage,
    BarrierStage,
    LoudspeakerStage,
    PropagationChannel,
)
from repro.core.hardening import sample_subset
from repro.dsp.quantiles import spectral_quartile_profile
from repro.errors import ConfigurationError
from repro.phonemes.corpus import SyntheticCorpus
from repro.phonemes.inventory import COMMON_PHONEMES
from repro.sensing.cross_domain import CrossDomainSensor
from repro.utils.rng import SeedLike, as_generator, child_rng, derive_seed


@dataclass
class PhonemeSelectionConfig:
    """Parameters of the offline selection study.

    Attributes
    ----------
    alpha:
        FFT-magnitude threshold separating "triggers the accelerometer"
        from ambient noise (the paper empirically uses 0.015 in its
        measurement units; the default here is calibrated to the
        simulated sensing chain's units the same way).
    playback_spl_db:
        Speech level at which phoneme populations are played (paper: 75
        and 85 dB; profiles are pooled over these levels).
    playback_spl_db_high:
        Second, louder playback level pooled into the study.
    n_segments:
        Renditions per phoneme (paper: 100 from ten speakers).
    barrier_to_mic_m:
        Distance from barrier/source to the recording device (paper: 2 m).
    band_low_hz / band_high_hz:
        Vibration-domain band over which the criteria are evaluated; the
        lowest bins are excluded because the DC-sensitivity artifact
        lives there (the paper's Fig. 6 plots 20–80 Hz).
    n_fft:
        FFT length for the vibration spectra.
    """

    alpha: float = 0.009
    playback_spl_db: float = 75.0
    playback_spl_db_high: float = 85.0
    n_segments: int = 40
    segment_duration_s: float = 0.35
    barrier_to_mic_m: float = 2.0
    band_low_hz: float = 20.0
    band_high_hz: float = 80.0
    n_fft: int = 128

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be > 0")
        if self.n_segments <= 0:
            raise ConfigurationError("n_segments must be > 0")
        if not 0 <= self.band_low_hz < self.band_high_hz:
            raise ConfigurationError("need 0 <= band_low_hz < band_high_hz")


@dataclass(frozen=True)
class PhonemeProfile:
    """Q3 vibration profiles of one phoneme, with and without barrier."""

    symbol: str
    frequencies: np.ndarray
    q3_thru_barrier: np.ndarray
    q3_direct: np.ndarray

    def max_thru_barrier(self) -> float:
        """``max_f Q3_adv`` — the Criterion I statistic."""
        return float(np.max(self.q3_thru_barrier))

    def min_direct(self) -> float:
        """``min_f Q3_user`` — the Criterion II statistic."""
        return float(np.min(self.q3_direct))

@dataclass(frozen=True)
class PhonemeSelectionResult:
    """Outcome of the offline selection study."""

    selected: Tuple[str, ...]
    satisfies_criterion_1: Tuple[str, ...]
    satisfies_criterion_2: Tuple[str, ...]
    profiles: Dict[str, PhonemeProfile]
    alpha: float

    @property
    def rejected(self) -> Tuple[str, ...]:
        """Common phonemes that failed at least one criterion."""
        return tuple(
            symbol for symbol in self.profiles
            if symbol not in self.selected
        )

    def session_subset(
        self,
        nonce: SeedLike,
        fraction: float = 0.6,
        min_size: int = 4,
    ) -> Tuple[str, ...]:
        """A per-session random subset of the sensitive set.

        The randomized-defense entry point
        (:class:`~repro.core.hardening.HardeningConfig`): each
        verification session derives its analyzed phoneme subset from a
        session ``nonce``, so an attacker optimizing its waveform
        against one session's subset faces a different subset — and a
        shifted score surface — on the next.  The draw is keyed on the
        nonce through :func:`~repro.utils.rng.derive_seed`, so the same
        nonce always selects the same subset on every process.
        """
        if not self.selected:
            raise ConfigurationError(
                "selection result has no sensitive phonemes to sample"
            )
        rng = np.random.default_rng(
            derive_seed(nonce, "phoneme-session-subset")
        )
        subset = sample_subset(self.selected, fraction, min_size, rng)
        return tuple(
            symbol for symbol in self.selected if symbol in subset
        )

class PhonemeSelector:
    """Runs the offline barrier-effect-sensitive phoneme selection.

    Parameters
    ----------
    corpus:
        Source of phoneme renditions (defaults to a ten-speaker synthetic
        corpus, mirroring the paper's five-male/five-female study).
    sensor:
        Cross-domain sensor used to produce vibration signals.
    barrier_material:
        Barrier used for the Criterion I (thru-barrier) condition.
    config:
        Study parameters.

    Examples
    --------
    >>> selector = PhonemeSelector(seed=3)
    >>> result = selector.run(["ae", "s"])  # doctest: +SKIP
    """

    def __init__(
        self,
        corpus: Optional[SyntheticCorpus] = None,
        sensor: Optional[CrossDomainSensor] = None,
        barrier_material: BarrierMaterial = GLASS_WINDOW,
        config: Optional[PhonemeSelectionConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        self._rng = as_generator(seed)
        self.corpus = corpus or SyntheticCorpus(
            n_speakers=10, seed=child_rng(self._rng, "corpus")
        )
        self.sensor = sensor or CrossDomainSensor()
        self.barrier_material = barrier_material
        self.config = config or PhonemeSelectionConfig()
        air = AirPropagationStage(self.config.barrier_to_mic_m)
        self._thru_channel = PropagationChannel(
            (
                LoudspeakerStage(SOUND_BAR),
                BarrierStage(material=barrier_material),
                air,
            ),
            name="selection-thru",
        )
        self._direct_channel = PropagationChannel(
            (LoudspeakerStage(SOUND_BAR), air),
            name="selection-direct",
        )
        self._microphone = Microphone(SMART_SPEAKER_MIC)

    def run(
        self,
        symbols: Optional[Sequence[str]] = None,
    ) -> PhonemeSelectionResult:
        """Execute the study over ``symbols`` (default: the 37 common).

        Returns the sensitive set (Criterion I ∩ Criterion II) along with
        per-phoneme Q3 profiles for inspection (Fig. 6).
        """
        if symbols is None:
            symbols = list(COMMON_PHONEMES)
        config = self.config
        profiles: Dict[str, PhonemeProfile] = {}
        criterion_1: List[str] = []
        criterion_2: List[str] = []
        for symbol in symbols:
            profile = self._profile_phoneme(symbol)
            profiles[symbol] = profile
            if profile.max_thru_barrier() < config.alpha:
                criterion_1.append(symbol)
            if profile.min_direct() > config.alpha:
                criterion_2.append(symbol)
        selected = tuple(
            symbol for symbol in symbols
            if symbol in set(criterion_1) and symbol in set(criterion_2)
        )
        return PhonemeSelectionResult(
            selected=selected,
            satisfies_criterion_1=tuple(criterion_1),
            satisfies_criterion_2=tuple(criterion_2),
            profiles=profiles,
            alpha=config.alpha,
        )

    def profile(self, symbol: str) -> PhonemeProfile:
        """Q3 vibration profiles of one phoneme (used for Fig. 6)."""
        return self._profile_phoneme(symbol)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _profile_phoneme(self, symbol: str) -> PhonemeProfile:
        config = self.config
        segments = self.corpus.phoneme_population(
            symbol, config.n_segments,
            rng=child_rng(self._rng, f"select-{symbol}"),
            duration_s=config.segment_duration_s,
        )
        rng = child_rng(self._rng, f"chain-{symbol}")
        vib_thru: List[np.ndarray] = []
        vib_direct: List[np.ndarray] = []
        levels = (config.playback_spl_db, config.playback_spl_db_high)
        for index, segment in enumerate(segments):
            level = levels[index % len(levels)]
            gain = db_to_gain(level - 65.0)
            source = segment.waveform * gain
            sample_rate = segment.sample_rate

            # The barrier stage is PASSTHROUGH, so the channel hands it
            # this exact generator — the pre-refactor ``bar{index}``
            # resonance stream.  The direct channel draws nothing.
            thru_at_mic = self._thru_channel.apply(
                source, sample_rate, rng=child_rng(rng, f"bar{index}")
            )
            direct_at_mic = self._direct_channel.apply(
                source, sample_rate, rng=None
            )
            recorded_thru = self._microphone.capture(
                thru_at_mic, sample_rate, rng=child_rng(rng, f"mt{index}")
            )
            recorded_direct = self._microphone.capture(
                direct_at_mic, sample_rate, rng=child_rng(rng, f"md{index}")
            )
            vib_thru.append(
                self.sensor.convert(
                    recorded_thru, sample_rate,
                    rng=child_rng(rng, f"vt{index}"),
                )
            )
            vib_direct.append(
                self.sensor.convert(
                    recorded_direct, sample_rate,
                    rng=child_rng(rng, f"vd{index}"),
                )
            )

        vibration_rate = self.sensor.vibration_rate
        frequencies, q3_thru = spectral_quartile_profile(
            vib_thru, vibration_rate, config.n_fft
        )
        _, q3_direct = spectral_quartile_profile(
            vib_direct, vibration_rate, config.n_fft
        )
        band = (frequencies >= config.band_low_hz) & (
            frequencies <= config.band_high_hz
        )
        return PhonemeProfile(
            symbol=symbol,
            frequencies=frequencies[band],
            q3_thru_barrier=q3_thru[band],
            q3_direct=q3_direct[band],
        )
