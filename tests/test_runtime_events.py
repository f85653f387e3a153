"""StageEvent observability: emission, aggregation, sink parity."""

import numpy as np
import pytest

from repro.attacks.base import AttackKind
from repro.core.pipeline import (
    FALLBACK_FULL_RECORDING,
    BatchAnalysisItem,
    DefenseConfig,
    DefensePipeline,
    PIPELINE_STAGES,
)
from repro.errors import SignalError
from repro.eval.campaign import CampaignConfig, DetectorBank
from repro.eval.participants import ParticipantPool
from repro.eval.reporting import (
    format_runner_stats,
    format_service_metrics,
)
from repro.eval.rooms import ROOM_A
from repro.eval.runner import CampaignRunner
from repro.phonemes.corpus import SyntheticCorpus
from repro.runtime import (
    StageEvent,
    StageEventAggregator,
    capture_stage_events,
)
from repro.serve.metrics import MetricsCollector
from repro.dsp.generators import white_noise

RATE = 16_000.0


@pytest.fixture()
def pipeline():
    return DefensePipeline(segmenter=None)


@pytest.fixture()
def recordings():
    rng = np.random.default_rng(5)
    burst = white_noise(1.0, RATE, amplitude=0.05, rng=rng)
    return burst, burst[400:].copy()


class _TinySegmenter:
    """Stub segmenter yielding one sub-millisecond segment."""

    def segments_batch(self, audios):
        return [[(0.0, 0.001)] for _ in audios]


class _HalfSecondSegmenter:
    """Stub segmenter yielding one half-second segment."""

    def segments_batch(self, audios):
        return [[(0.0, 0.5)] for _ in audios]


#: Longer than the recordings: any segment material is too short.
LONG_MIN_AUDIO = DefenseConfig(audio_rate=RATE, min_audio_s=10.0)


def timed_verdict(pipeline, va, wearable, **kwargs):
    """A lone request's verdict and stage timings."""
    (outcome,) = pipeline.analyze_batch(
        [BatchAnalysisItem(va_audio=va, wearable_audio=wearable, **kwargs)]
    )
    assert outcome.ok
    return outcome.verdict, outcome.timings


class TestPipelineEmission:
    def test_analyze_emits_every_stage_in_order(
        self, pipeline, recordings
    ):
        va, wearable = recordings
        with capture_stage_events() as captured:
            verdict, timings = timed_verdict(
                pipeline, va, wearable, rng=0
            )
        stages = [
            event.stage for event in captured.events
            if event.scope == "pipeline"
        ]
        assert tuple(stages) == PIPELINE_STAGES
        assert set(timings) == set(PIPELINE_STAGES)
        assert all(
            event.ok and event.wall_s >= 0.0
            for event in captured.events
        )

    def test_min_audio_full_recording_annotation(self, recordings):
        # Segment material that fits the STFT but not min_audio_s falls
        # back to the full recordings: one annotated segment event, and
        # the verdict of the segmenter-free pipeline.
        va, wearable = recordings
        pipeline = DefensePipeline(
            segmenter=_HalfSecondSegmenter(), config=LONG_MIN_AUDIO
        )
        with capture_stage_events() as captured:
            verdict = pipeline.analyze(va, wearable, rng=0)
        segment_events = [
            e for e in captured.events if e.stage == "segment"
        ]
        assert len(segment_events) == 1
        assert segment_events[0].fallback == FALLBACK_FULL_RECORDING
        full = DefensePipeline(segmenter=None, config=LONG_MIN_AUDIO)
        assert verdict == full.analyze(va, wearable, rng=0)
        assert verdict.n_segments == 0

    def test_full_recording_annotation(self, recordings):
        va, wearable = recordings
        pipeline = DefensePipeline(segmenter=_TinySegmenter())
        with capture_stage_events() as captured:
            pipeline.analyze(va, wearable, rng=0)
        segment_events = [
            e for e in captured.events if e.stage == "segment"
        ]
        assert segment_events[0].fallback == FALLBACK_FULL_RECORDING

    def test_failing_stage_emits_error_event(self, pipeline):
        with capture_stage_events() as captured:
            with pytest.raises(SignalError):
                pipeline.analyze(np.zeros(0), np.zeros(0), rng=0)
        errors = [e for e in captured.events if e.error is not None]
        assert len(errors) == 1
        assert errors[0].error == "SignalError"
        assert not errors[0].ok

    def test_batch_outcomes_carry_events(self, pipeline, recordings):
        va, wearable = recordings
        items = [
            BatchAnalysisItem(va_audio=va, wearable_audio=wearable, rng=i)
            for i in range(2)
        ]
        outcomes = pipeline.analyze_batch(items)
        for outcome in outcomes:
            assert outcome.ok
            stages = {
                e.stage for e in outcome.events
                if e.scope == "pipeline"
            }
            assert stages == set(PIPELINE_STAGES)


class TestAggregator:
    def _events(self):
        return [
            StageEvent(stage="sync", wall_s=0.010),
            StageEvent(stage="sync", wall_s=0.030),
            StageEvent(
                stage="segment", wall_s=0.0, fallback="full-recording"
            ),
            StageEvent(stage="detect", wall_s=0.020, error="SignalError"),
        ]

    def test_stage_totals_and_counts(self):
        aggregator = StageEventAggregator()
        for event in self._events():
            aggregator.emit(event)
        assert aggregator.stage_totals()["sync"] == pytest.approx(0.040)
        assert aggregator.fallback_counts() == {
            "segment:full-recording": 1
        }
        assert aggregator.error_counts() == {"detect:SignalError": 1}

    def test_events_are_picklable(self):
        import pickle

        event = StageEvent(
            stage="segment", wall_s=0.5, fallback="full-recording"
        )
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event


@pytest.fixture(scope="module")
def campaign_stats():
    pool = ParticipantPool(n_participants=2, seed=41)
    detectors = DetectorBank(segmenter=None, include_baselines=False)
    config = CampaignConfig(
        n_commands_per_participant=1, n_attacks_per_kind=1, seed=42
    )
    corpus = SyntheticCorpus(speakers=pool.speakers, seed=config.seed)
    result = CampaignRunner(n_workers=1).run(
        [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
        corpus=corpus,
    )
    return result.stats


class TestSinkParity:
    """Acceptance: the same run's stage set must reach both reporting
    surfaces — serve metrics and campaign stats — identically."""

    def test_stage_set_parity_between_serve_and_eval(
        self, pipeline, recordings, campaign_stats
    ):
        va, wearable = recordings
        with capture_stage_events() as captured:
            _, timings = timed_verdict(pipeline, va, wearable, rng=0)
        collector = MetricsCollector()
        collector.record_served(
            total_s=sum(timings.values()),
            queue_wait_s=0.0,
            stage_timings_s=timings,
        )
        collector.record_stage_events(captured.events)
        snapshot = collector.snapshot()
        serve_stages = set(snapshot.stage_latency)
        eval_stages = set(campaign_stats.stage_totals)
        assert serve_stages == set(PIPELINE_STAGES)
        assert eval_stages == set(PIPELINE_STAGES)
        assert serve_stages == eval_stages

    def test_campaign_units_record_stage_seconds(self, campaign_stats):
        for unit in campaign_stats.units:
            assert set(unit.stage_s) == set(PIPELINE_STAGES)
            assert all(v >= 0.0 for v in unit.stage_s.values())

    def test_runner_stats_formatting_includes_stages(
        self, campaign_stats
    ):
        text = format_runner_stats(campaign_stats)
        assert "stages: " in text
        for stage in PIPELINE_STAGES:
            assert stage in text

    def test_service_metrics_formatting_includes_fallbacks(
        self, recordings
    ):
        va, wearable = recordings
        pipeline = DefensePipeline(
            segmenter=_HalfSecondSegmenter(), config=LONG_MIN_AUDIO
        )
        with capture_stage_events() as captured:
            _, timings = timed_verdict(pipeline, va, wearable, rng=0)
        collector = MetricsCollector()
        collector.record_served(
            total_s=sum(timings.values()),
            queue_wait_s=0.0,
            stage_timings_s=timings,
        )
        collector.record_stage_events(captured.events)
        snapshot = collector.snapshot()
        assert snapshot.stage_fallbacks == {
            "segment:full-recording": 1
        }
        text = format_service_metrics(snapshot)
        assert "fallbacks: segment:full-recording x1" in text
