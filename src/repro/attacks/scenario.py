"""Scenario plumbing: who stands where, and what each device records.

:class:`ThruBarrierChannel` models the adversary's acoustic path
(loudspeaker 10 cm behind the barrier → barrier transmission → room) and
:class:`AttackScenario` produces the paired (VA, wearable) recordings the
defense consumes, for both legitimate commands spoken inside the room and
attacks played behind the barrier.

The wearable's recording is started by the WiFi trigger message, so it
lags the VA's by the (jittered) network delay — the paper's residual
synchronization error that the cross-correlation alignment removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.acoustics.barrier import Barrier
from repro.acoustics.loudspeaker import SOUND_BAR, LoudspeakerSpec
from repro.acoustics.microphone import (
    Microphone,
    MicrophoneSpec,
    SMART_SPEAKER_MIC,
    WEARABLE_MIC,
)
from repro.acoustics.propagation import propagate_each
from repro.acoustics.room import Room, RoomConfig
from repro.acoustics.spl import scale_to_spl
from repro.attacks.base import AttackSound
from repro.channels.graph import PropagationChannel
from repro.channels.stages import BarrierStage, LoudspeakerStage
from repro.errors import ConfigurationError
from repro.phonemes.corpus import Utterance
from repro.utils.rng import SeedLike, as_generator, child_rng
from repro.utils.validation import ensure_positive


@dataclass
class ThruBarrierChannel:
    """Adversary's acoustic path: loudspeaker → barrier → room interior.

    Attributes
    ----------
    barrier:
        The room barrier the sound must pass.
    loudspeaker_spec:
        The adversary's playback device (defaults to a sound bar).
    speaker_to_barrier_m:
        Loudspeaker standoff (paper: 10 cm; below the 1 m propagation
        reference, so it contributes no extra attenuation).
    """

    barrier: Barrier
    loudspeaker_spec: LoudspeakerSpec = field(
        default_factory=lambda: SOUND_BAR
    )
    speaker_to_barrier_m: float = 0.1

    def __post_init__(self) -> None:
        ensure_positive(self.speaker_to_barrier_m, "speaker_to_barrier_m")
        self._channel = PropagationChannel(
            stages=(
                LoudspeakerStage(self.loudspeaker_spec),
                BarrierStage(
                    material=self.barrier.material,
                    thickness_scale=self.barrier.thickness_scale,
                    resonance_db=self.barrier.resonance_db,
                ),
            ),
            name="thru-barrier",
        )

    def transmit(
        self,
        waveform: np.ndarray,
        sample_rate: float,
        spl_db: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Sound field just inside the barrier for playback at ``spl_db``."""
        calibrated = scale_to_spl(waveform, spl_db)
        return self._channel.apply(calibrated, sample_rate, rng=rng)


@dataclass
class AttackScenario:
    """One experimental layout: room, distances, devices.

    Attributes
    ----------
    room_config:
        Room geometry, barrier material, ambient level.
    barrier_to_va_m:
        Distance from the barrier to the VA device (paper default: 2 m;
        swept 3–5 m in Fig. 11(c)).
    barrier_to_wearable_m:
        Distance from the barrier to the user's wearable (paper: 2 m).
    user_to_va_m:
        Distance from the speaking user to the VA device (paper: users
        speak at several distances; default 2 m).
    user_to_wearable_m:
        Mouth-to-wrist distance of the user (≈0.4 m).
    va_mic / wearable_mic:
        Microphone models of the two devices.
    wifi_delay_s / wifi_jitter_s:
        Mean and spread of the wake-word trigger network delay.
    """

    room_config: RoomConfig
    barrier_to_va_m: float = 2.0
    barrier_to_wearable_m: float = 2.0
    user_to_va_m: float = 2.0
    user_to_wearable_m: float = 0.4
    va_mic: MicrophoneSpec = field(
        default_factory=lambda: SMART_SPEAKER_MIC
    )
    wearable_mic: MicrophoneSpec = field(
        default_factory=lambda: WEARABLE_MIC
    )
    wifi_delay_s: float = 0.1
    wifi_jitter_s: float = 0.03
    lead_silence_s: float = 0.25
    #: Override for the adversary's injection channel — any object with
    #: ``transmit(waveform, sample_rate, spl_db, rng)``, e.g. a
    #: :class:`repro.channels.InjectionChannel` from a scenario pack.
    #: ``None`` builds the classic thru-barrier channel from the room's
    #: barrier material.
    attack_channel: Optional[object] = None

    def __post_init__(self) -> None:
        for name in (
            "barrier_to_va_m",
            "barrier_to_wearable_m",
            "user_to_va_m",
            "user_to_wearable_m",
        ):
            ensure_positive(getattr(self, name), name)
        if self.wifi_delay_s < 0 or self.wifi_jitter_s < 0:
            raise ConfigurationError("WiFi delay parameters must be >= 0")
        self.room = Room(self.room_config)
        if self.attack_channel is not None:
            self.channel = self.attack_channel
        else:
            self.channel = ThruBarrierChannel(
                barrier=Barrier(self.room_config.barrier)
            )
        self._va_microphone = Microphone(self.va_mic)
        self._wearable_microphone = Microphone(self.wearable_mic)

    # ------------------------------------------------------------------
    # Recording generation
    # ------------------------------------------------------------------

    def attack_recordings(
        self,
        attack: AttackSound,
        spl_db: float = 75.0,
        rng: SeedLike = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(VA, wearable) recordings of an attack behind the barrier."""
        generator = as_generator(rng)
        interior = self.channel.transmit(
            attack.waveform,
            attack.sample_rate,
            spl_db,
            rng=child_rng(generator, "barrier"),
        )
        return self._record_both(
            interior,
            attack.sample_rate,
            source_to_va_m=self.barrier_to_va_m,
            source_to_wearable_m=self.barrier_to_wearable_m,
            generator=generator,
        )

    def legitimate_recordings(
        self,
        utterance: Utterance,
        spl_db: float = 70.0,
        rng: SeedLike = None,
        user_to_va_m: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(VA, wearable) recordings of the user speaking in the room.

        ``user_to_va_m`` overrides the scenario's default distance for
        this call only, so callers sampling several speaking distances
        never have to mutate (and risk leaking state through) a shared
        scenario object.
        """
        generator = as_generator(rng)
        if user_to_va_m is None:
            user_to_va_m = self.user_to_va_m
        else:
            ensure_positive(user_to_va_m, "user_to_va_m")
        source = scale_to_spl(utterance.waveform, spl_db)
        return self._record_both(
            source,
            utterance.sample_rate,
            source_to_va_m=user_to_va_m,
            source_to_wearable_m=self.user_to_wearable_m,
            generator=generator,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record_both(
        self,
        source: np.ndarray,
        sample_rate: float,
        source_to_va_m: float,
        source_to_wearable_m: float,
        generator: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        lead = np.zeros(int(round(self.lead_silence_s * sample_rate)))
        padded = np.concatenate([lead, source, lead])

        at_va, at_wearable = propagate_each(
            padded, sample_rate, (source_to_va_m, source_to_wearable_m)
        )
        at_va = self.room.add_reverberation(
            at_va, sample_rate, rng=child_rng(generator, "reverb-va")
        )
        at_wearable = self.room.add_reverberation(
            at_wearable, sample_rate,
            rng=child_rng(generator, "reverb-wear"),
        )
        at_va = at_va + self.room.ambient_noise(
            at_va.size / sample_rate, sample_rate,
            rng=child_rng(generator, "amb-va"),
        )[: at_va.size]
        at_wearable = at_wearable + self.room.ambient_noise(
            at_wearable.size / sample_rate, sample_rate,
            rng=child_rng(generator, "amb-wear"),
        )[: at_wearable.size]

        va_recording = self._va_microphone.capture(
            at_va, sample_rate, rng=child_rng(generator, "mic-va")
        )
        wearable_recording = self._wearable_microphone.capture(
            at_wearable, sample_rate, rng=child_rng(generator, "mic-wear")
        )

        # The wearable starts recording only when the WiFi trigger
        # arrives; it misses the first ``delay`` of the command.
        delay_s = max(
            0.0,
            self.wifi_delay_s
            + float(generator.normal(0.0, self.wifi_jitter_s)),
        )
        delay_samples = int(round(delay_s * sample_rate))
        if delay_samples > 0:
            wearable_recording = wearable_recording[delay_samples:]
        return va_recording, wearable_recording
