"""MEMS accelerometer model with the artifacts the paper depends on.

Four phenomena of commercial wearable accelerometers are reproduced:

1. **Low sampling rate with aliasing** — 200 Hz sampling of a conductive
   vibration whose content extends to kilohertz folds everything into
   0–100 Hz (paper § IV-B, "ambiguous signal conversion").
2. **DC sensitivity artifact** — the sensor is designed for body motion
   and responds strongly below 5 Hz; audio stimulation produces a strong
   envelope-following near-DC component (paper Fig. 7).
3. **Low-frequency amplifier noise injection** — when the drive sound is
   dominated by low frequencies, the readout amplifier injects extra
   random noise [Wu et al., APCCAS 2016]; the detector exploits the
   resulting decorrelation (paper § VI-C).
4. **Quantization** — the digital output has a finite LSB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dsp.filters import butter_lowpass
from repro.dsp.resample import alias_decimate
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ensure_1d, ensure_2d, ensure_positive

#: Default accelerometer sampling rate (Hz) of commercial wearables.
VIBRATION_SAMPLE_RATE = 200.0


@dataclass(frozen=True)
class AccelerometerSpec:
    """Static accelerometer parameters.

    Attributes
    ----------
    sample_rate:
        Output sampling rate (200 Hz on Fossil Gen 5 / Moto 360).
    base_noise_rms:
        Sensor self-noise RMS (output units), always present.
    low_freq_noise_coeff:
        Extra injected-noise RMS per unit RMS of low-frequency drive
        content (below :attr:`low_freq_cutoff_hz`) — phenomenon 3 above.
    low_freq_cutoff_hz:
        Boundary below which drive content counts as "low-frequency" for
        noise injection.
    dc_sensitivity:
        Gain of the envelope-following near-DC artifact — phenomenon 2.
    dc_bandwidth_hz:
        Bandwidth of the DC artifact (paper observes 0–5 Hz).
    lsb:
        Quantization step of the digital output.
    """

    sample_rate: float = VIBRATION_SAMPLE_RATE
    base_noise_rms: float = 2.0e-4
    low_freq_noise_coeff: float = 0.05
    low_freq_cutoff_hz: float = 800.0
    noise_envelope_exponent: float = 0.6
    noise_envelope_reference: float = 0.05
    dc_sensitivity: float = 0.30
    dc_bandwidth_hz: float = 5.0
    lsb: float = 1.0e-5

    def __post_init__(self) -> None:
        ensure_positive(self.sample_rate, "sample_rate")
        if self.base_noise_rms < 0 or self.low_freq_noise_coeff < 0:
            raise ConfigurationError("noise parameters must be >= 0")
        ensure_positive(self.low_freq_cutoff_hz, "low_freq_cutoff_hz")
        ensure_positive(self.dc_bandwidth_hz, "dc_bandwidth_hz")
        if self.lsb < 0:
            raise ConfigurationError("lsb must be >= 0")


class Accelerometer:
    """Sample a conductive vibration field into a digital vibration signal."""

    def __init__(self, spec: AccelerometerSpec = AccelerometerSpec()) -> None:
        self.spec = spec

    @property
    def sample_rate(self) -> float:
        """Output sampling rate (Hz)."""
        return self.spec.sample_rate

    def sense(
        self,
        vibration_field: np.ndarray,
        field_rate: float,
        drive_audio: np.ndarray,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Digitize one vibration field (:meth:`sense_batch` of one)."""
        return self.sense_batch(
            ensure_1d(vibration_field, "vibration_field")[np.newaxis],
            field_rate,
            ensure_1d(drive_audio, "drive_audio")[np.newaxis],
            rngs=[rng],
        )[0]

    def sense_batch(
        self,
        vibration_fields: np.ndarray,
        field_rate: float,
        drive_audios: np.ndarray,
        rngs: Optional[Sequence[SeedLike]] = None,
    ) -> np.ndarray:
        """Digitize a ``(batch, time)`` stack of vibration fields.

        Parameters
        ----------
        vibration_fields:
            Conductive vibration at the sensor, at audio rate (already
            shaped by :class:`~repro.sensing.conduction.ConductionPath`).
        field_rate:
            Sampling rate of the fields (must be an integer multiple of
            the sensor rate).
        drive_audios:
            The audio signals being replayed, one row per field; used to
            derive the DC envelope artifact and the low-frequency noise
            injection.
        rngs:
            Noise randomness, one stream per row.

        Returns
        -------
        numpy.ndarray
            Vibration samples at :attr:`sample_rate`, one row per field.
            All deterministic steps (envelope filters, decimation,
            noise-level synthesis, quantization) run along the last
            axis; only the Gaussian noise draws happen per row, so a
            row never depends on its batch-mates.
        """
        fields = ensure_2d(vibration_fields, "vibration_fields")
        drives = ensure_2d(drive_audios, "drive_audios")
        if fields.shape != drives.shape:
            raise ConfigurationError(
                f"vibration_fields {fields.shape} and drive_audios "
                f"{drives.shape} must have matching shapes"
            )
        ensure_positive(field_rate, "field_rate")
        n_items = fields.shape[0]
        if rngs is None:
            rngs = [None] * n_items
        if len(rngs) != n_items:
            raise ConfigurationError(
                f"need one rng per field: got {len(rngs)} rngs for "
                f"{n_items} fields"
            )
        spec = self.spec

        # Phenomenon 2: envelope-following near-DC response.  The sensor's
        # DC sensitivity is sharply confined below ~5 Hz (Fig. 7), so a
        # steep filter keeps the artifact out of the analysis band.
        envelope = butter_lowpass(
            np.abs(drives), field_rate, spec.dc_bandwidth_hz, order=6
        )
        analog = fields + spec.dc_sensitivity * envelope

        # Phenomenon 1: raw decimation — content above Nyquist folds in.
        sampled = alias_decimate(analog, field_rate, spec.sample_rate)

        # Phenomenon 3: low-frequency drive content injects amplifier
        # noise.  The injection tracks the *instantaneous* low-frequency
        # envelope (the amplifier misbehaves while the low-frequency
        # sound is present, not on average), so the noise power follows
        # the syllabic envelope of the replayed command.
        low_content = butter_lowpass(
            drives, field_rate, spec.low_freq_cutoff_hz, order=4
        )
        envelope_lf = butter_lowpass(
            np.abs(low_content), field_rate, 8.0, order=2
        )
        envelope_lf = np.clip(envelope_lf, 0.0, None)
        envelope_sampled = alias_decimate(
            envelope_lf, field_rate, spec.sample_rate
        )
        # |lowpassed(|x|)| underestimates the RMS envelope by the
        # rectified-Gaussian factor sqrt(pi / 2).  The injected noise
        # grows *sublinearly* with drive level (the amplifier's noise
        # mechanisms saturate), so louder low-frequency sounds enjoy a
        # relatively better signal-to-injected-noise ratio.
        envelope_rms = np.sqrt(np.pi / 2.0) * envelope_sampled
        reference = spec.noise_envelope_reference
        scaled = (
            reference
            * (envelope_rms / reference) ** spec.noise_envelope_exponent
        )
        noise_rms_t = spec.base_noise_rms + (
            spec.low_freq_noise_coeff * scaled
        )
        noise = np.empty_like(sampled)
        for index, rng in enumerate(rngs):
            noise[index] = as_generator(rng).standard_normal(
                sampled.shape[-1]
            )
        sampled = sampled + noise_rms_t * noise

        # Phenomenon 4: quantization.
        if spec.lsb > 0:
            sampled = np.round(sampled / spec.lsb) * spec.lsb
        return sampled
