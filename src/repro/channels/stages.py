"""Channel stages: the composable units of a propagation graph.

A :class:`ChannelStage` is one physical transformation of a signal — a
loudspeaker driver, a barrier, an air path, a conduction path, a sensor.
Stages compose into a :class:`~repro.channels.graph.PropagationChannel`,
which replaces the hardwired loudspeaker → barrier and speaker →
conduction → accelerometer chains that used to live inside
``ThruBarrierChannel`` and ``CrossDomainSensor``.

Design rules
------------
* Every stage is a **frozen dataclass wrapping only other frozen
  dataclasses and primitives**, so a whole channel can be fingerprinted
  by :func:`repro.store.fingerprint.canonical_token` and embedded in
  scenario specs and serve batch keys.
* Randomness policy is declared, not improvised: ``rng_label`` is either
  ``None`` (deterministic stage — receives no generator), the
  :data:`PASSTHROUGH` sentinel (receives the channel's generator
  verbatim, preserving legacy bitwise streams), or a string label
  (receives ``child_rng(generator, label)``).  The channel derives every
  stage stream *up front in stage order*, which is what keeps an item's
  output bitwise independent of whatever else shares its batch.
* Every stage implements exactly **one** kernel and inherits the other
  entry point from :class:`StageBase`.  The replay stages (loudspeaker,
  conduction, accelerometer) implement ``apply_batch`` over a
  ``(batch, time)`` stack, and ``apply`` runs it on a batch of one.  The
  attack-side stages implement the row kernel ``apply``, and
  ``apply_batch`` loops over the rows: ``AttackScenario`` transmits one
  recording at a time, so a stack never reaches them in practice.
* ``chain_input`` is the channel's *original* input signal; stages that
  need the pre-chain drive (the accelerometer's DC-envelope artifact)
  declare ``consumes_chain_input = True``.  Such stages must sit before
  any rate- or length-changing stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.acoustics.barrier import Barrier
from repro.acoustics.loudspeaker import Loudspeaker, LoudspeakerSpec
from repro.acoustics.materials import BarrierMaterial
from repro.acoustics.propagation import propagate
from repro.errors import ConfigurationError, SignalError
from repro.sensing.accelerometer import Accelerometer, AccelerometerSpec
from repro.sensing.conduction import ConductionPath
from repro.utils.validation import ensure_1d, ensure_2d, ensure_positive

#: ``rng_label`` sentinel: the stage receives the channel's generator
#: verbatim instead of a derived child stream.  Used by the barrier stage
#: so the refactored ``ThruBarrierChannel.transmit`` feeds the caller's
#: rng straight through, exactly as the pre-refactor code did.
PASSTHROUGH = "<passthrough>"


@runtime_checkable
class ChannelStage(Protocol):
    """One composable transformation in a propagation channel."""

    def apply(
        self,
        signal: np.ndarray,
        rate: float,
        rng: Optional[np.random.Generator] = None,
        chain_input: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Transform ``signal`` (1-D) sampled at ``rate``."""
        ...

    def apply_batch(
        self,
        signals: np.ndarray,
        rate: float,
        rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
        chain_inputs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Transform a ``(batch, time)`` stack, bitwise equal per row."""
        ...

    def output_rate(self, rate: float) -> float:
        """Sampling rate of the output given input rate ``rate``."""
        ...


class StageBase:
    """Shared stage behavior: identity rate and the two kernel adapters.

    A subclass overrides exactly one of :meth:`apply` and
    :meth:`apply_batch`; the inherited one adapts to it.  Overriding
    neither would make the two adapters call each other forever.
    """

    #: Randomness policy — see module docstring.
    rng_label: Optional[str] = None
    #: Whether :meth:`apply` wants the channel's original input signal.
    consumes_chain_input: bool = False

    def output_rate(self, rate: float) -> float:
        return rate

    def apply(
        self,
        signal: np.ndarray,
        rate: float,
        rng: Optional[np.random.Generator] = None,
        chain_input: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One row through :meth:`apply_batch` as a batch of one."""
        return self.apply_batch(
            ensure_1d(signal)[np.newaxis],
            rate,
            rngs=[rng],
            chain_inputs=(
                None
                if chain_input is None
                else ensure_1d(chain_input, "chain_input")[np.newaxis]
            ),
        )[0]

    def apply_batch(
        self,
        signals: np.ndarray,
        rate: float,
        rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
        chain_inputs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Each row of a ``(batch, time)`` stack through :meth:`apply`."""
        samples = ensure_2d(signals, "signals")
        n_items = samples.shape[0]
        if rngs is None:
            rngs = [None] * n_items
        if len(rngs) != n_items:
            raise ConfigurationError(
                f"need one rng per signal: got {len(rngs)} rngs for "
                f"{n_items} signals"
            )
        chain = (
            ensure_2d(chain_inputs, "chain_inputs")
            if chain_inputs is not None
            else None
        )
        rows = [
            self.apply(
                samples[index],
                rate,
                rng=rngs[index],
                chain_input=None if chain is None else chain[index],
            )
            for index in range(n_items)
        ]
        return np.stack(rows)


# ----------------------------------------------------------------------
# Adapters over the existing physics pieces
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoudspeakerStage(StageBase):
    """Playback through a driver (band shaping + harmonic distortion)."""

    spec: LoudspeakerSpec

    def apply_batch(self, signals, rate, rngs=None, chain_inputs=None):
        return Loudspeaker(self.spec).play_batch(signals, rate)


@dataclass(frozen=True)
class BarrierStage(StageBase):
    """Thru-barrier transmission (Eq. (1)) with structural resonances.

    The stage's randomness policy is :data:`PASSTHROUGH`: the resonance
    ripple consumes the channel's generator directly, preserving the
    exact stream the pre-refactor ``ThruBarrierChannel`` produced.
    """

    material: BarrierMaterial
    thickness_scale: float = 1.0
    resonance_db: float = 1.0

    rng_label = PASSTHROUGH

    def apply(self, signal, rate, rng=None, chain_input=None):
        barrier = Barrier(
            self.material,
            thickness_scale=self.thickness_scale,
            resonance_db=self.resonance_db,
        )
        return barrier.transmit(signal, rate, rng=rng)


@dataclass(frozen=True)
class AirPropagationStage(StageBase):
    """Free-field air path: spherical spreading + air absorption."""

    distance_m: float

    def __post_init__(self) -> None:
        ensure_positive(self.distance_m, "distance_m")

    def apply(self, signal, rate, rng=None, chain_input=None):
        return propagate(signal, rate, self.distance_m)


@dataclass(frozen=True)
class ConductionStage(StageBase):
    """Structural coupling from the wearable's speaker to its sensor."""

    path: ConductionPath = field(default_factory=ConductionPath)

    rng_label = "strap"

    def apply_batch(self, signals, rate, rngs=None, chain_inputs=None):
        return self.path.apply_batch(signals, rate, rngs=rngs)


@dataclass(frozen=True)
class AccelerometerStage(StageBase):
    """MEMS sampling: aliasing, DC artifact, noise injection, LSB.

    Consumes ``chain_input`` (the channel's original audio) as the drive
    signal for the DC-envelope and noise-injection artifacts, so it must
    come before any stage that changes the sampling rate or length.
    """

    spec: AccelerometerSpec = field(default_factory=AccelerometerSpec)

    rng_label = "sense"
    consumes_chain_input = True

    def output_rate(self, rate: float) -> float:
        return self.spec.sample_rate

    def apply_batch(self, signals, rate, rngs=None, chain_inputs=None):
        drives = signals if chain_inputs is None else chain_inputs
        return Accelerometer(self.spec).sense_batch(
            signals, rate, drive_audios=drives, rngs=rngs
        )


# ----------------------------------------------------------------------
# Ultrasound injection stages (the ``ultrasound-solid`` scenario pack)
# ----------------------------------------------------------------------

#: Ultrasonic transducer: narrow band around the carrier, no audible
#: leakage below ~15 kHz (the attack is inaudible by construction).
ULTRASONIC_TRANSDUCER = LoudspeakerSpec(
    name="ultrasonic transducer",
    low_cut_hz=15_000.0,
    high_cut_hz=23_000.0,
    harmonic_distortion=0.0,
)


@dataclass(frozen=True)
class UltrasoundCarrierStage(StageBase):
    """Amplitude-modulate the command onto an ultrasonic carrier.

    Upsamples the baseband audio by ``oversample`` (16 kHz → 48 kHz for
    the default factor 3) so the carrier fits under Nyquist, then emits
    ``(1 + depth * m(t)) * cos(2π f_c t)`` with ``m`` peak-normalized
    and the result calibrated to ``carrier_spl_db``.  Ultrasonic attack
    transducers are driven very hard (≳110 dB SPL at the source) —
    inaudible because all the energy sits above hearing — which is what
    lets the lossy square-law demodulation still produce an audible
    command on the far side.  Deterministic: the modulator has no
    physical noise source.
    """

    carrier_hz: float = 21_000.0
    oversample: int = 3
    modulation_depth: float = 0.8
    carrier_spl_db: float = 106.0

    def __post_init__(self) -> None:
        ensure_positive(self.carrier_hz, "carrier_hz")
        if self.oversample < 2:
            raise ConfigurationError("oversample must be >= 2")
        if not 0 < self.modulation_depth <= 1:
            raise ConfigurationError("modulation_depth must be in (0, 1]")

    def output_rate(self, rate: float) -> float:
        return rate * self.oversample

    def apply(self, signal, rate, rng=None, chain_input=None):
        from repro.acoustics.spl import scale_to_spl
        from repro.dsp.resample import resample_poly_safe

        samples = ensure_1d(signal)
        ensure_positive(rate, "rate")
        high_rate = rate * self.oversample
        if self.carrier_hz >= high_rate / 2.0:
            raise SignalError(
                f"carrier {self.carrier_hz} Hz exceeds Nyquist at "
                f"oversampled rate {high_rate} Hz"
            )
        upsampled = resample_poly_safe(samples, rate, high_rate)
        peak = float(np.max(np.abs(upsampled))) + 1e-12
        message = upsampled / peak
        t = np.arange(upsampled.size) / high_rate
        carrier = np.cos(2.0 * np.pi * self.carrier_hz * t)
        modulated = (1.0 + self.modulation_depth * message) * carrier
        return scale_to_spl(modulated, self.carrier_spl_db)


@dataclass(frozen=True)
class SolidConductionStage(StageBase):
    """Structure-borne path through the barrier (SUAD-style injection).

    A contact transducer drives the barrier material directly; solids
    damp far less than air at ultrasonic frequencies, so the carrier
    survives where the airborne thru-barrier path would kill it.  The
    model is a flat coupling loss plus a mild frequency- and
    path-length-dependent damping term.
    """

    coupling_loss_db: float = 12.0
    damping_db_per_khz_m: float = 0.25
    path_m: float = 1.0

    def __post_init__(self) -> None:
        if self.coupling_loss_db < 0 or self.damping_db_per_khz_m < 0:
            raise ConfigurationError("solid-path losses must be >= 0 dB")
        ensure_positive(self.path_m, "path_m")

    def gain(self, frequencies: np.ndarray) -> np.ndarray:
        """Linear amplitude gain of the solid path at each frequency."""
        frequencies = np.asarray(frequencies, dtype=np.float64)
        loss_db = self.coupling_loss_db + (
            self.damping_db_per_khz_m * (frequencies / 1000.0) * self.path_m
        )
        return 10.0 ** (-loss_db / 20.0)

    def apply(self, signal, rate, rng=None, chain_input=None):
        samples = ensure_1d(signal)
        ensure_positive(rate, "rate")
        spectrum = np.fft.rfft(samples)
        frequencies = np.fft.rfftfreq(samples.size, d=1.0 / rate)
        return np.fft.irfft(
            spectrum * self.gain(frequencies), n=samples.size
        )


@dataclass(frozen=True)
class NonlinearDemodulationStage(StageBase):
    """Square-law demodulation at the receiving surface.

    Mechanical nonlinearity of the barrier/air interface demodulates the
    AM ultrasound back to baseband (``x + a·x²`` keeps the ``(1+m)²``
    envelope term), which is then low-passed, DC-removed, and decimated
    back to the audio rate — the audible command materializes *inside*
    the room with no airborne path through the barrier.
    """

    oversample: int = 3
    quadratic_gain: float = 0.8
    output_lowpass_hz: float = 7_000.0

    def __post_init__(self) -> None:
        if self.oversample < 2:
            raise ConfigurationError("oversample must be >= 2")
        ensure_positive(self.quadratic_gain, "quadratic_gain")
        ensure_positive(self.output_lowpass_hz, "output_lowpass_hz")

    def output_rate(self, rate: float) -> float:
        return rate / self.oversample

    def apply(self, signal, rate, rng=None, chain_input=None):
        from repro.dsp.filters import butter_lowpass
        from repro.dsp.resample import resample_poly_safe

        samples = ensure_1d(signal)
        ensure_positive(rate, "rate")
        squared = samples + self.quadratic_gain * samples**2
        baseband = butter_lowpass(
            squared, rate, self.output_lowpass_hz, order=6
        )
        baseband = baseband - float(np.mean(baseband))
        return resample_poly_safe(baseband, rate, rate / self.oversample)
