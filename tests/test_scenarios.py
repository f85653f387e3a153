"""Scenario-registry round-trip tests.

Every registered scenario must build end-to-end from its name alone:
resolve, fingerprint deterministically, construct its attack scenario
and defense pipeline, and produce one verdict.  That is the registry's
whole contract — a scenario that needs hand-holding outside the spec is
not a registry entry.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.fft import next_fast_len

from repro.acoustics.materials import (
    GLASS_WINDOW,
    META_NOTCH_HF,
    META_NOTCH_SPEECH,
    MetamaterialBarrier,
    get_material,
    list_materials,
)
from repro.attacks import (
    HiddenVoiceAttack,
    RandomAttack,
    ReplayAttack,
    VoiceSynthesisAttack,
)
from repro.attacks.base import AttackKind
from repro.errors import ConfigurationError
from repro.eval.campaign import CampaignConfig
from repro.eval.rooms import ROOM_A
from repro.phonemes import SyntheticCorpus, phonemize
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.serve import PipelineSpec

EXPECTED_SCENARIOS = {
    "baseline-glass",
    "baseline-wood",
    "baseline-brick",
    "ultrasound-solid",
    "metamaterial-barrier",
    "metamaterial-hf-control",
}


class TestRegistry:
    def test_builtin_packs_registered(self):
        assert EXPECTED_SCENARIOS.issubset(set(list_scenarios()))

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_scenario("no-such-scenario")
        message = str(excinfo.value)
        assert "no-such-scenario" in message
        assert "ultrasound-solid" in message

    def test_reregistering_identical_spec_is_noop(self):
        spec = get_scenario("baseline-glass")
        assert register_scenario(spec) is spec

    def test_conflicting_name_rejected(self):
        taken = get_scenario("baseline-glass")
        conflicting = ScenarioSpec(
            name=taken.name,
            description="different condition under a taken name",
            material="brick_wall",
        )
        with pytest.raises(ConfigurationError):
            register_scenario(conflicting)

    def test_invalid_attack_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", description="d", attack="laser")

    def test_invalid_material_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", description="d", material="cardboard")


class TestFingerprints:
    def test_deterministic_and_distinct(self):
        prints = {}
        for name in list_scenarios():
            spec = get_scenario(name)
            assert spec.fingerprint == spec.fingerprint
            assert spec.fingerprint == get_scenario(name).fingerprint
            prints[name] = spec.fingerprint
        assert len(set(prints.values())) == len(prints)

    def test_fingerprint_tracks_parameters(self):
        base = get_scenario("baseline-glass")
        tweaked = ScenarioSpec(
            name="tweaked",
            description=base.description,
            attack=base.attack,
            material=base.material,
            attack_spl_db=base.attack_spl_db + 5.0,
        )
        assert tweaked.fingerprint != base.fingerprint


class TestEveryScenarioRuns:
    """Each registry entry produces a verdict from its name alone."""

    @pytest.fixture(scope="class")
    def attack_sound(self):
        corpus = SyntheticCorpus(n_speakers=2, seed=0)
        return ReplayAttack(corpus, corpus.speakers[0]).generate_indexed(
            3, 0
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_one_verdict(self, name, attack_sound):
        spec = get_scenario(name)
        scenario = spec.build_attack_scenario(ROOM_A)
        va, wearable = scenario.attack_recordings(
            attack_sound, spl_db=spec.attack_spl_db, rng=11
        )
        pipeline = spec.build_pipeline(segmenter=None)
        verdict = pipeline.analyze(va, wearable, rng=5)
        assert np.isfinite(verdict.score)
        assert -1.0 <= verdict.score <= 1.0


class TestFastFftLengths:
    """Generating and replaying recordings never runs an FFT at a slow
    length.

    Every ``np.fft.rfft``/``irfft`` call made while synthesizing an
    utterance, generating an attack, recording both through a pack's
    scenario and replaying the wearable recording is logged with its
    transform length; each must be a fast length, where numpy's FFT
    does not fall back to Bluestein's algorithm.
    """

    COMMAND = "ok google open the garage door"

    @pytest.fixture()
    def fft_lengths(self, monkeypatch):
        lengths = []

        def logged(transform, inverse):
            def call(a, n=None, axis=-1, *args, **kwargs):
                if n is None:
                    bins = np.shape(a)[axis]
                    n = 2 * (bins - 1) if inverse else bins
                lengths.append(n)
                return transform(a, n, axis, *args, **kwargs)

            return call

        monkeypatch.setattr(np.fft, "rfft", logged(np.fft.rfft, False))
        monkeypatch.setattr(np.fft, "irfft", logged(np.fft.irfft, True))
        return lengths

    @staticmethod
    def _record_and_replay(spec, utterance, attack, seed):
        scenario = spec.build_attack_scenario(ROOM_A)
        sensor = spec.build_sensor()
        legit = scenario.legitimate_recordings(
            utterance, spl_db=70.0, rng=seed
        )
        spoofed = scenario.attack_recordings(
            attack, spl_db=spec.attack_spl_db, rng=seed + 1
        )
        for _, wearable in (legit, spoofed):
            sensor.convert(wearable, 16_000.0, rng=seed + 2)

    @staticmethod
    def _slow(lengths):
        assert lengths
        return sorted({n for n in lengths if next_fast_len(n) != n})

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_each_pack(self, name, fft_lengths):
        corpus = SyntheticCorpus(n_speakers=2, seed=1)
        user = corpus.speakers[0]
        utterance = corpus.utterance(
            phonemize(self.COMMAND), speaker=user, text=self.COMMAND, rng=2
        )
        attack = ReplayAttack(corpus, user).generate(
            command=self.COMMAND, rng=3
        )
        self._record_and_replay(get_scenario(name), utterance, attack, 4)
        assert self._slow(fft_lengths) == []

    def test_each_attack_family(self, fft_lengths):
        corpus = SyntheticCorpus(n_speakers=2, seed=1)
        user, adversary = corpus.speakers
        generators = {
            AttackKind.RANDOM: RandomAttack(corpus, adversary),
            AttackKind.REPLAY: ReplayAttack(corpus, user),
            AttackKind.SYNTHESIS: VoiceSynthesisAttack(corpus, user, rng=5),
            AttackKind.HIDDEN_VOICE: HiddenVoiceAttack(corpus),
        }
        assert set(generators) == set(AttackKind)
        spec = get_scenario("baseline-glass")
        utterance = corpus.utterance(
            phonemize(self.COMMAND), speaker=user, text=self.COMMAND, rng=2
        )
        for seed, generator in enumerate(generators.values()):
            attack = generator.generate(command=self.COMMAND, rng=seed)
            self._record_and_replay(spec, utterance, attack, 10 * seed)
        assert self._slow(fft_lengths) == []


class TestCampaignAndServingWiring:
    def test_campaign_config_validates_scenario(self):
        CampaignConfig(scenario="baseline-glass")
        with pytest.raises(ConfigurationError):
            CampaignConfig(scenario="no-such-scenario")

    def test_pipeline_spec_validates_scenario(self):
        with pytest.raises(ConfigurationError):
            PipelineSpec(scenario="no-such-scenario")

    def test_pipeline_spec_builds_scenario_sensor(self):
        spec = PipelineSpec(
            use_segmenter=False, scenario="metamaterial-barrier"
        )
        pipeline = spec.build_pipeline(
            audio_rate=16_000.0, wearer_moving=False
        )
        assert pipeline.sensor is not None


class TestMetamaterials:
    def test_notch_deepens_loss_at_notch(self):
        freqs = np.array([125.0, 250.0, 500.0, 2500.0])
        host = GLASS_WINDOW.transmission_loss_db(freqs)
        meta = META_NOTCH_SPEECH.transmission_loss_db(freqs)
        extra = meta - host
        assert extra[1] > 25.0  # deep at the 250 Hz notch center
        assert extra[1] > extra[0]
        assert extra[1] > extra[3]

    def test_hf_control_notch_out_of_band(self):
        freqs = np.array([250.0, 2500.0])
        speech = META_NOTCH_SPEECH.transmission_loss_db(freqs)
        control = META_NOTCH_HF.transmission_loss_db(freqs)
        assert speech[0] > control[0]  # speech notch bites at 250 Hz
        assert control[1] > speech[1]  # control notch bites at 2.5 kHz

    def test_registry_keys(self):
        names = list_materials()
        assert "meta_speech_notch" in names
        assert "meta_hf_notch" in names
        assert isinstance(
            get_material("meta_speech_notch"), MetamaterialBarrier
        )
