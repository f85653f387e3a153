"""Cross-domain sensor: replay audio on the wearable, read the vibration.

This composes the full §IV-A chain — wearable built-in speaker playback →
conductive coupling through the watch body → accelerometer sampling with
aliasing, DC artifact, low-frequency noise injection, and optional body
motion — as a :class:`~repro.channels.PropagationChannel` of three
stages.  The output is the vibration-domain signal the defense analyzes.

Scenario packs can substitute a custom replay channel (extra stages,
different specs) via the ``channel`` field without touching this class;
body-motion interference stays a sensor-level concern because it is
additive at the vibration rate regardless of the channel's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.acoustics.loudspeaker import LoudspeakerSpec, WEARABLE_SPEAKER
from repro.sensing.accelerometer import AccelerometerSpec
from repro.sensing.body_motion import body_motion_interference
from repro.sensing.conduction import ConductionPath
from repro.utils.rng import SeedLike, as_generator, child_rng
from repro.utils.validation import ensure_1d, ensure_positive

#: Nominal audio rate used to report :attr:`CrossDomainSensor
#: .vibration_rate` for channels whose output rate depends on the input
#: rate.  The default chain ends in an accelerometer stage whose output
#: rate is fixed, so the nominal rate is irrelevant there.
NOMINAL_AUDIO_RATE = 16_000.0


@dataclass
class CrossDomainSensor:
    """Converts audio recordings into vibration-domain signals.

    Parameters
    ----------
    speaker_spec:
        Built-in speaker model (defaults to a smartwatch driver).
    conduction:
        Speaker-to-sensor structural coupling.
    accelerometer_spec:
        Sensor model.
    body_motion_intensity:
        RMS of wrist-motion interference added when
        ``include_body_motion=True`` at conversion time.
    channel:
        Replay propagation channel.  ``None`` builds the paper's default
        speaker → conduction → accelerometer chain from the spec fields
        above; scenario packs pass a custom channel here.

    Examples
    --------
    >>> from repro.sensing import CrossDomainSensor
    >>> import numpy as np
    >>> sensor = CrossDomainSensor()
    >>> audio = np.sin(2 * np.pi * 1200.0 * np.arange(16000) / 16000.0)
    >>> vibration = sensor.convert(audio, 16000.0, rng=3)
    >>> vibration.size
    200
    """

    speaker_spec: LoudspeakerSpec = field(
        default_factory=lambda: WEARABLE_SPEAKER
    )
    conduction: ConductionPath = field(default_factory=ConductionPath)
    accelerometer_spec: AccelerometerSpec = field(
        default_factory=AccelerometerSpec
    )
    body_motion_intensity: float = 0.02
    #: A :class:`repro.channels.PropagationChannel`; ``None`` builds the
    #: default chain.  (Typed loosely to avoid a package import cycle —
    #: ``repro.channels`` stage adapters import the sensing specs.)
    channel: Optional[object] = None

    def __post_init__(self) -> None:
        from repro.channels.graph import PropagationChannel
        from repro.channels.stages import (
            AccelerometerStage,
            ConductionStage,
            LoudspeakerStage,
        )

        if self.channel is None:
            self.channel = PropagationChannel(
                stages=(
                    LoudspeakerStage(self.speaker_spec),
                    ConductionStage(self.conduction),
                    AccelerometerStage(self.accelerometer_spec),
                ),
                name="wearable-replay",
            )

    @property
    def vibration_rate(self) -> float:
        """Sampling rate (Hz) of the produced vibration signals."""
        return self.channel.output_rate(NOMINAL_AUDIO_RATE)

    def convert(
        self,
        audio: np.ndarray,
        audio_rate: float,
        rng: SeedLike = None,
        include_body_motion: bool = False,
    ) -> np.ndarray:
        """Replay ``audio`` through the wearable and record the vibration.

        Parameters
        ----------
        audio:
            Audio-domain recording to replay.
        audio_rate:
            Sampling rate of ``audio`` (must be an integer multiple of
            the accelerometer rate, e.g. 16 kHz → 200 Hz).
        rng:
            Randomness for sensor noise; each call draws fresh noise —
            two conversions of the *same* audio still differ, exactly as
            two physical replays would.
        include_body_motion:
            Add wrist-motion interference (the user is wearing the watch
            while it replays).

        Returns
        -------
        numpy.ndarray
            Vibration signal at :attr:`vibration_rate`.
        """
        return self.convert_batch(
            [audio],
            audio_rate,
            rngs=[rng],
            include_body_motion=include_body_motion,
        )[0]

    def convert_batch(
        self,
        audios: Sequence[np.ndarray],
        audio_rate: float,
        rngs: Optional[Sequence[SeedLike]] = None,
        include_body_motion: bool = False,
    ) -> List[np.ndarray]:
        """Replay a batch of recordings; vectorize the whole §IV-A chain.

        The one implementation behind :meth:`convert`.  ``rngs[i]`` is
        item ``i``'s seed or generator; its child streams (one per
        stochastic channel stage, then ``body``) are derived in that
        order from it alone, so item ``i`` of the result is **bitwise
        identical** whatever else shares the batch.

        The channel groups recordings of equal length into dense
        ``(batch, time)`` stacks and pushes them through each stage's
        ``apply_batch``.  Grouping by *exact* length (instead of
        right-padding to the batch maximum) is what keeps items
        independent: padding would change the FFT length and the
        ``sosfiltfilt`` edge extension, perturbing every sample in the
        padded rows.

        Returns
        -------
        list of numpy.ndarray
            Vibration signals at :attr:`vibration_rate`, one per input,
            in input order.
        """
        ensure_positive(audio_rate, "audio_rate")
        items = [ensure_1d(audio, "audio") for audio in audios]
        if rngs is None:
            rngs = [None] * len(items)
        if len(rngs) != len(items):
            raise ValueError(
                f"need one rng per audio: got {len(rngs)} rngs for "
                f"{len(items)} audios"
            )
        want_body = include_body_motion and self.body_motion_intensity > 0

        # One generator per item, shared between the channel's up-front
        # stream derivation and the (later) body stream, so each parent
        # consumes draws in a fixed order: channel stages first, then
        # body.
        generators = [as_generator(rng) for rng in rngs]
        converted = self.channel.apply_batch(
            items, audio_rate, rngs=generators
        )
        if want_body:
            vibration_rate = self.channel.output_rate(audio_rate)
            body_rngs = [
                child_rng(generator, "body") for generator in generators
            ]
            for index, vibration in enumerate(converted):
                converted[index] = vibration + body_motion_interference(
                    vibration.size,
                    vibration_rate,
                    intensity=self.body_motion_intensity,
                    rng=body_rngs[index],
                )
        return converted

    def chirp_response(
        self,
        start_hz: float,
        end_hz: float,
        duration_s: float,
        audio_rate: float = 16_000.0,
        amplitude: float = 0.3,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Vibration response to an audio chirp (reproduces Fig. 7)."""
        from repro.dsp.generators import linear_chirp

        chirp = amplitude * linear_chirp(
            start_hz, end_hz, duration_s, audio_rate
        )
        return self.convert(chirp, audio_rate, rng=rng)
