"""String-keyed scenario registry.

A :class:`ScenarioSpec` composes one named evaluation condition out of
pure data: attack kind × barrier material × attack-side channel graph ×
replay-side channel graph × detector configuration.  Because every field
is a frozen dataclass or primitive, a spec fingerprints deterministically
through :func:`repro.store.artifact_fingerprint` — the same
scheme that keys trained artifacts — and travels across process
boundaries by *name* (workers re-resolve the spec from the registry on
import, so campaign units stay picklable).

Scenario packs register themselves at import time
(:mod:`repro.scenarios.packs`); user code adds new conditions with
:func:`register_scenario` and wires them through the evaluate/serve
CLIs with ``--scenario <name>`` — zero core edits required.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.acoustics.materials import BarrierMaterial, get_material
from repro.attacks.base import AttackKind
from repro.channels.graph import InjectionChannel, PropagationChannel
from repro.channels.stages import ChannelStage
from repro.errors import ConfigurationError
from repro.store import artifact_fingerprint


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fingerprintable evaluation condition.

    Attributes
    ----------
    name:
        Registry key (also the CLI ``--scenario`` value).
    description:
        One-line summary for ``--scenario`` help text and reports.
    attack:
        :class:`~repro.attacks.base.AttackKind` value naming the attack
        sound family the adversary plays.
    material:
        :data:`~repro.acoustics.materials.MATERIALS` key overriding the
        barrier material of every evaluation room; ``None`` keeps each
        room's own barrier.
    attack_stages:
        Custom attack-side channel stages.  Empty means the classic
        loudspeaker → barrier thru-barrier channel built from the room's
        (possibly overridden) material.
    sensor_stages:
        Custom replay-side channel stages for the wearable's
        cross-domain sensor.  Empty means the paper's default speaker →
        conduction → accelerometer chain.
    attack_spl_db:
        Playback level of the attack device.
    wearer_moving:
        Evaluate with body-motion interference on the wearable.
    detector_threshold:
        Optional fixed verdict threshold; ``None`` leaves the detector
        in scoring mode (the harness calibrates at the EER point).
    tags:
        Free-form labels for filtering in reports.
    """

    name: str
    description: str
    attack: str = AttackKind.REPLAY.value
    material: Optional[str] = None
    attack_stages: Tuple[ChannelStage, ...] = ()
    sensor_stages: Tuple[ChannelStage, ...] = ()
    attack_spl_db: float = 75.0
    wearer_moving: bool = False
    detector_threshold: Optional[float] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        valid_kinds = {kind.value for kind in AttackKind}
        if self.attack not in valid_kinds:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown attack "
                f"{self.attack!r}; known: {sorted(valid_kinds)}"
            )
        if self.material is not None:
            get_material(self.material)  # raises with the known list
        if self.attack_spl_db <= 0:
            raise ConfigurationError(
                f"scenario {self.name!r}: attack_spl_db must be > 0"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def attack_kind(self) -> AttackKind:
        """The attack family as an enum member."""
        return AttackKind(self.attack)

    @property
    def fingerprint(self) -> str:
        """Deterministic hex fingerprint of the full condition.

        Uses the store's canonical-token scheme, so the fingerprint is
        stable across processes and Python hash seeds and changes
        whenever any stage parameter, material, or detector knob does.
        """
        return artifact_fingerprint("scenario", spec=self)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    def barrier_material(self) -> Optional[BarrierMaterial]:
        """The overriding material, or ``None`` for room defaults."""
        if self.material is None:
            return None
        return get_material(self.material)

    def rooms(self) -> List["RoomConfig"]:  # noqa: F821
        """Evaluation rooms, with the material override applied."""
        from repro.eval.rooms import ROOMS

        rooms = list(ROOMS.values())
        override = self.barrier_material()
        if override is None:
            return rooms
        return [replace(room, barrier=override) for room in rooms]

    def build_attack_channel(self) -> Optional[InjectionChannel]:
        """The custom injection channel, or ``None`` for thru-barrier."""
        if not self.attack_stages:
            return None
        return InjectionChannel(
            channel=PropagationChannel(
                stages=tuple(self.attack_stages),
                name=f"{self.name}-attack",
            )
        )

    def build_attack_scenario(
        self, room_config: "RoomConfig", **kwargs  # noqa: F821
    ) -> "AttackScenario":  # noqa: F821
        """An :class:`~repro.attacks.scenario.AttackScenario` for a room.

        Applies the material override to the room and installs the
        custom injection channel when the spec defines one; extra
        keyword arguments (distances, mics) pass through.
        """
        from repro.attacks.scenario import AttackScenario

        override = self.barrier_material()
        if override is not None:
            room_config = replace(room_config, barrier=override)
        return AttackScenario(
            room_config=room_config,
            attack_channel=self.build_attack_channel(),
            **kwargs,
        )

    def build_sensor(self) -> "CrossDomainSensor":  # noqa: F821
        """The wearable's cross-domain sensor for this scenario."""
        from repro.sensing.cross_domain import CrossDomainSensor

        if not self.sensor_stages:
            return CrossDomainSensor()
        return CrossDomainSensor(
            channel=PropagationChannel(
                stages=tuple(self.sensor_stages),
                name=f"{self.name}-replay",
            )
        )

    def build_defense_config(self, **overrides) -> "DefenseConfig":  # noqa: F821
        """A :class:`~repro.core.pipeline.DefenseConfig` for the spec."""
        from repro.core.detector import DetectorConfig
        from repro.core.pipeline import DefenseConfig

        settings = dict(
            detector=DetectorConfig(threshold=self.detector_threshold),
            wearer_moving=self.wearer_moving,
        )
        settings.update(overrides)
        return DefenseConfig(**settings)

    def build_pipeline(
        self, segmenter=None, **config_overrides
    ) -> "DefensePipeline":  # noqa: F821
        """A full defense pipeline wired for this scenario."""
        from repro.core.pipeline import DefensePipeline

        return DefensePipeline(
            segmenter=segmenter,
            sensor=self.build_sensor(),
            config=self.build_defense_config(**config_overrides),
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    spec: ScenarioSpec, replace_existing: bool = False
) -> ScenarioSpec:
    """Add ``spec`` to the registry under its name.

    Re-registering an identical spec is a no-op (imports must stay
    idempotent); a *different* spec under a taken name raises unless
    ``replace_existing`` is set.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and not replace_existing:
        if existing == spec:
            return spec
        raise ConfigurationError(
            f"scenario {spec.name!r} is already registered with a "
            "different spec; pass replace_existing=True to override"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name with a helpful error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {list(list_scenarios())}"
        ) from None


def list_scenarios() -> Tuple[str, ...]:
    """Sorted names of every registered scenario."""
    return tuple(sorted(_REGISTRY))
