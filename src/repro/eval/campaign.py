"""Data-collection campaign: generate recordings, score them (§ VII-A).

The campaign mirrors the paper's protocol: in each room, every assigned
participant takes a turn as the legitimate user (speaking commands at
several distances and natural volumes) and as the victim of attacks
launched behind the room's barrier at configurable SPLs, with the
remaining participants serving as adversaries.  Every sample is scored
by a bank of detectors (the full system plus the two baselines), and the
resulting score sets feed the ROC/AUC/EER metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackKind
from repro.attacks.factory import make_attack_generator
from repro.attacks.scenario import AttackScenario
from repro.acoustics.room import RoomConfig
from repro.core.baselines import (
    AudioDomainBaseline,
    VibrationBaselineNoSelection,
)
from repro.core.pipeline import BatchAnalysisItem, DefensePipeline
from repro.core.segmentation import PhonemeSegmenter
from repro.errors import ConfigurationError
from repro.eval.participants import ParticipantPool
from repro.phonemes.commands import VA_COMMANDS, phonemize
from repro.phonemes.corpus import SyntheticCorpus, Utterance
from repro.phonemes.speaker import SpeakerProfile
from repro.utils.rng import (
    SeedLike,
    as_generator,
    child_rng,
    child_seed,
    derive_seed,
)

#: Detector keys used throughout the evaluation.
FULL_SYSTEM = "full_system"
VIBRATION_BASELINE = "vibration_baseline"
AUDIO_BASELINE = "audio_baseline"


@dataclass
class CampaignConfig:
    """Size and condition parameters of a campaign run.

    The defaults are scaled down from the paper's five-month campaign to
    laptop-friendly sizes; benchmarks scale them up via parameters.
    """

    n_commands_per_participant: int = 4
    n_attacks_per_kind: int = 4
    user_spl_range: Tuple[float, float] = (65.0, 75.0)
    user_distances_m: Tuple[float, ...] = (1.0, 2.0, 3.0)
    attack_spl_db: float = 75.0
    barrier_to_va_m: float = 2.0
    barrier_to_wearable_m: float = 2.0
    use_oracle_segmentation: bool = True
    seed: int = 0
    #: Name of a registered :class:`repro.scenarios.ScenarioSpec`.  When
    #: set, every campaign unit builds its :class:`AttackScenario`
    #: through the spec (material override + custom injection channel).
    #: A *name*, not a spec object, so units stay picklable across the
    #: process pool — workers re-resolve it from the registry on import.
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_commands_per_participant <= 0:
            raise ConfigurationError(
                "n_commands_per_participant must be > 0"
            )
        if self.n_attacks_per_kind <= 0:
            raise ConfigurationError("n_attacks_per_kind must be > 0")
        if not self.user_distances_m:
            raise ConfigurationError("user_distances_m must be non-empty")
        if self.scenario is not None:
            from repro.scenarios import get_scenario

            get_scenario(self.scenario)  # raises with the known list


class DetectorBank:
    """The full system plus baselines, scored on one synchronized pair."""

    def __init__(
        self,
        segmenter: Optional[PhonemeSegmenter],
        pipeline: Optional[DefensePipeline] = None,
        include_baselines: bool = True,
    ) -> None:
        self.pipeline = pipeline or DefensePipeline(segmenter=segmenter)
        self.include_baselines = include_baselines
        # The vibration baseline replays on the same wearable, at the
        # same audio rate, as the full system, so a scenario's sensor
        # reaches both detectors.
        self.vibration_baseline = (
            VibrationBaselineNoSelection(
                sensor=self.pipeline.sensor,
                audio_rate=self.pipeline.config.audio_rate,
            )
            if include_baselines
            else None
        )
        self.audio_baseline = (
            AudioDomainBaseline() if include_baselines else None
        )

    @property
    def detector_names(self) -> List[str]:
        """Keys under which scores are reported."""
        names = [FULL_SYSTEM]
        if self.include_baselines:
            names += [VIBRATION_BASELINE, AUDIO_BASELINE]
        return names

    def score_all(
        self,
        va_recording: np.ndarray,
        wearable_recording: np.ndarray,
        utterance: Optional[Utterance],
        use_oracle: bool,
        rng: SeedLike,
    ) -> Dict[str, float]:
        """Score one recording pair with every detector in the bank."""
        generator = as_generator(rng)
        item = BatchAnalysisItem(
            va_recording,
            wearable_recording,
            rng=child_rng(generator, "full"),
            oracle_utterance=utterance if use_oracle else None,
        )
        (outcome,) = self.pipeline.analyze_batch([item])
        if outcome.error is not None:
            raise outcome.error
        scores = {FULL_SYSTEM: outcome.verdict.score}
        if self.include_baselines:
            aligned = outcome.aligned
            scores[VIBRATION_BASELINE] = self.vibration_baseline.score(
                *aligned, rng=child_rng(generator, "vib")
            )
            scores[AUDIO_BASELINE] = self.audio_baseline.score(*aligned)
        return scores


@dataclass
class ScoreSet:
    """Scores collected by a campaign, split by detector and attack."""

    legit: Dict[str, List[float]] = field(default_factory=dict)
    attacks: Dict[AttackKind, Dict[str, List[float]]] = field(
        default_factory=dict
    )

    def add_legit(self, scores: Dict[str, float]) -> None:
        """Record one legitimate sample's scores."""
        for detector, value in scores.items():
            self.legit.setdefault(detector, []).append(value)

    def add_attack(
        self, kind: AttackKind, scores: Dict[str, float]
    ) -> None:
        """Record one attack sample's scores."""
        bucket = self.attacks.setdefault(kind, {})
        for detector, value in scores.items():
            bucket.setdefault(detector, []).append(value)

    def merge(self, other: "ScoreSet") -> None:
        """Fold another score set into this one."""
        for detector, values in other.legit.items():
            self.legit.setdefault(detector, []).extend(values)
        for kind, buckets in other.attacks.items():
            target = self.attacks.setdefault(kind, {})
            for detector, values in buckets.items():
                target.setdefault(detector, []).extend(values)


@dataclass(frozen=True)
class CampaignUnit:
    """One independently-seeded room × victim cell of a campaign.

    Units are the sharding granularity of the evaluation: every unit
    derives its own seed from ``(config.seed, room, victim)``, so units
    can be scored in any order — or in parallel worker processes — and
    still produce exactly the scores of a serial run.
    """

    room: RoomConfig
    victim: SpeakerProfile
    adversary: SpeakerProfile
    attack_kinds: Tuple[AttackKind, ...]
    config: CampaignConfig
    seed: int

    @property
    def n_samples(self) -> int:
        """Number of scored recordings this unit produces."""
        return self.config.n_commands_per_participant + (
            self.config.n_attacks_per_kind * len(self.attack_kinds)
        )

    @property
    def label(self) -> str:
        """Short human-readable unit identifier."""
        return f"{self.room.name}/{self.victim.speaker_id}"


def build_campaign_units(
    rooms: Sequence[RoomConfig],
    pool: ParticipantPool,
    attack_kinds: Sequence[AttackKind],
    config: CampaignConfig,
) -> List[CampaignUnit]:
    """Expand a campaign into its independently-executable units.

    For each room, each assigned participant takes a turn as victim with
    the next participant in the pool as the adversary (the paper's
    take-turns protocol); the unit order is deterministic.
    """
    units: List[CampaignUnit] = []
    assignments = pool.room_assignments([room.name for room in rooms])
    for room in rooms:
        for victim_index, victim in enumerate(assignments[room.name]):
            adversaries = pool.adversaries_for(victim)
            adversary = adversaries[victim_index % len(adversaries)]
            units.append(
                CampaignUnit(
                    room=room,
                    victim=victim,
                    adversary=adversary,
                    attack_kinds=tuple(attack_kinds),
                    config=config,
                    seed=derive_seed(
                        config.seed, room.name, victim.speaker_id
                    ),
                )
            )
    return units


def score_campaign_unit(
    unit: CampaignUnit,
    detectors: DetectorBank,
    corpus: SyntheticCorpus,
) -> ScoreSet:
    """Score one room × victim cell; the campaign's pure unit of work.

    The legitimate and attack passes draw from *separate* generators
    derived from the unit seed, so changing the number of legitimate
    samples can never shift the attack scores (and vice versa).
    """
    if unit.config.scenario is not None:
        from repro.scenarios import get_scenario

        scenario = get_scenario(unit.config.scenario).build_attack_scenario(
            unit.room,
            barrier_to_va_m=unit.config.barrier_to_va_m,
            barrier_to_wearable_m=unit.config.barrier_to_wearable_m,
        )
    else:
        scenario = AttackScenario(
            room_config=unit.room,
            barrier_to_va_m=unit.config.barrier_to_va_m,
            barrier_to_wearable_m=unit.config.barrier_to_wearable_m,
        )
    scores = ScoreSet()
    legit_rng = np.random.default_rng(derive_seed(unit.seed, "legit"))
    attack_rng = np.random.default_rng(derive_seed(unit.seed, "attacks"))
    _score_legitimate(
        scores, scenario, corpus, unit.victim, detectors, unit.config,
        legit_rng,
    )
    _score_attacks(
        scores,
        scenario,
        corpus,
        unit.victim,
        unit.adversary,
        unit.attack_kinds,
        detectors,
        unit.config,
        attack_rng,
    )
    return scores


def _score_legitimate(
    scores: ScoreSet,
    scenario: AttackScenario,
    corpus: SyntheticCorpus,
    victim: SpeakerProfile,
    detectors: DetectorBank,
    config: CampaignConfig,
    rng: np.random.Generator,
) -> None:
    for index in range(config.n_commands_per_participant):
        command = VA_COMMANDS[
            int(rng.integers(0, len(VA_COMMANDS)))
        ]
        utterance = corpus.utterance(
            phonemize(command),
            speaker=victim,
            text=command,
            # Integer seed (not a Generator) so the corpus can memoize.
            rng=child_seed(rng, f"legit-utt-{index}"),
        )
        distance = config.user_distances_m[
            index % len(config.user_distances_m)
        ]
        spl = float(rng.uniform(*config.user_spl_range))
        va_rec, wearable_rec = scenario.legitimate_recordings(
            utterance,
            spl_db=spl,
            rng=child_rng(rng, f"legit-rec-{index}"),
            # Per-call distance: mutating the shared scenario here leaked
            # the last legitimate distance into later passes.
            user_to_va_m=distance,
        )
        scores.add_legit(
            detectors.score_all(
                va_rec,
                wearable_rec,
                utterance,
                config.use_oracle_segmentation,
                rng=child_rng(rng, f"legit-score-{index}"),
            )
        )


def _score_attacks(
    scores: ScoreSet,
    scenario: AttackScenario,
    corpus: SyntheticCorpus,
    victim: SpeakerProfile,
    adversary: SpeakerProfile,
    attack_kinds: Sequence[AttackKind],
    detectors: DetectorBank,
    config: CampaignConfig,
    rng: np.random.Generator,
) -> None:
    generators = {
        kind: make_attack_generator(
            kind,
            corpus,
            victim,
            adversary,
            synthesis_rng=(
                child_rng(rng, "tts")
                if kind is AttackKind.SYNTHESIS
                else None
            ),
        )
        for kind in attack_kinds
    }
    for kind, generator in generators.items():
        for index in range(config.n_attacks_per_kind):
            attack = generator.generate(
                rng=child_rng(rng, f"{kind.value}-gen-{index}")
            )
            va_rec, wearable_rec = scenario.attack_recordings(
                attack,
                spl_db=config.attack_spl_db,
                rng=child_rng(rng, f"{kind.value}-rec-{index}"),
            )
            scores.add_attack(
                kind,
                detectors.score_all(
                    va_rec,
                    wearable_rec,
                    attack.utterance,
                    config.use_oracle_segmentation,
                    rng=child_rng(rng, f"{kind.value}-score-{index}"),
                ),
            )
