"""End-to-end defense pipeline — the library's main entry point.

Composes the whole §IV-C architecture: cross-device synchronization →
sensitive-phoneme segmentation on the VA recording → segment extraction
from both recordings → cross-domain sensing on the wearable → vibration
feature extraction → 2-D-correlation attack detection.

The architecture is realized as a line of composable stage objects
(:mod:`repro.core.stages`); this module drives them through one loop
that owns wall-clock timing, fallback annotation, and
:class:`~repro.runtime.events.StageEvent` emission.  Events reach both
the pipeline's own ``sink`` (when wired) and any ambient sink installed
with :func:`repro.runtime.capture_stage_events`, so shared pipeline
instances stay observable without mutable per-call state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detector import CorrelationDetector, DetectorConfig
from repro.core.features import FeatureConfig, VibrationFeatureExtractor
from repro.core.hardening import HardeningConfig
from repro.core.segmentation import PhonemeSegmenter, default_segmenter
from repro.core.stages import (
    Stage,
    StageContext,
    default_stages,
    stages_after_sync,
)
from repro.core.sync import SyncConfig
from repro.errors import ConfigurationError
from repro.phonemes.corpus import Utterance
from repro.runtime.events import StageEvent, StageEventSink, emit_event
from repro.sensing.cross_domain import CrossDomainSensor
from repro.utils.rng import SeedLike, as_generator, child_rng


@dataclass
class DefenseConfig:
    """Pipeline-level configuration.

    Attributes
    ----------
    audio_rate:
        Audio sampling rate of the device recordings.
    detector:
        Detector (threshold) configuration.
    features:
        Vibration feature configuration.
    sync:
        Synchronization configuration.
    min_audio_s:
        Minimum concatenated-segment duration required for a reliable
        verdict; shorter material falls back to the full recording.
    wearer_moving:
        Simulate the user wearing (and moving) the watch during the
        replay: body-motion interference (0.3-3.5 Hz) is added to the
        accelerometer readings, which the feature extractor's high-pass
        and artifact crop must absorb.
    hardening:
        Optional randomized defenses against adaptive attackers
        (per-session threshold jitter and phoneme-subset selection;
        see :class:`~repro.core.hardening.HardeningConfig`).  ``None``
        — the default — runs the deterministic paper detector and
        consumes no extra RNG draws, so existing determinism contracts
        are unchanged.
    """

    audio_rate: float = 16_000.0
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    sync: SyncConfig = field(default_factory=SyncConfig)
    min_audio_s: float = 0.25
    wearer_moving: bool = False
    hardening: Optional[HardeningConfig] = None

    def __post_init__(self) -> None:
        if not 0 < self.audio_rate < math.inf:
            raise ConfigurationError(
                f"audio_rate must be finite and > 0, got {self.audio_rate}"
            )
        if self.min_audio_s < 0:
            raise ConfigurationError("min_audio_s must be >= 0")
        if (
            self.hardening is not None
            and self.hardening.randomizes_threshold
            and self.detector.threshold is None
        ):
            raise ConfigurationError(
                "hardening.threshold_jitter requires a calibrated "
                "detector threshold (DetectorConfig.threshold)"
            )


@dataclass(frozen=True)
class DefenseVerdict:
    """Outcome of analyzing one voice command.

    Attributes
    ----------
    score:
        2-D correlation between the devices' vibration features (higher
        = more likely legitimate).
    is_attack:
        Thresholded decision, or ``None`` when no threshold configured.
    n_segments:
        Number of sensitive-phoneme segments used.
    analyzed_duration_s:
        Total duration of audio material fed to cross-domain sensing.
    sync_delay_s:
        Estimated cross-device recording offset that was corrected.
    """

    score: float
    is_attack: Optional[bool]
    n_segments: int
    analyzed_duration_s: float
    sync_delay_s: float


#: Stage keys reported by :meth:`DefensePipeline.analyze_timed`, in
#: execution order.  The serving layer aggregates latency percentiles
#: per stage under these names.
PIPELINE_STAGES: Tuple[str, ...] = (
    "sync",
    "segment",
    "sense",
    "features",
    "detect",
)


@dataclass
class BatchAnalysisItem:
    """One request of a :meth:`DefensePipeline.analyze_batch` call.

    Mirrors the keyword arguments of :meth:`DefensePipeline.analyze`
    so a micro-batch is simply a list of what would otherwise be N
    separate calls.
    """

    va_audio: np.ndarray
    wearable_audio: np.ndarray
    rng: SeedLike = None
    oracle_utterance: Optional[Utterance] = None
    skip_segmentation: bool = False


@dataclass
class BatchAnalysisOutcome:
    """Per-request result of :meth:`DefensePipeline.analyze_batch`.

    Exactly one of ``verdict`` / ``error`` is set: a failing request
    records its exception here instead of raising, so one bad request
    never aborts its batch-mates (error isolation).  ``events`` carries
    the request's :class:`StageEvent` stream (timings, fallbacks, and
    — for a failed request — the error class of the stage that raised).
    """

    verdict: Optional[DefenseVerdict] = None
    timings: Dict[str, float] = field(default_factory=dict)
    error: Optional[Exception] = None
    events: List[StageEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether this request produced a verdict."""
        return self.error is None and self.verdict is not None


class DefensePipeline:
    """Training-free thru-barrier attack detection system.

    Parameters
    ----------
    segmenter:
        The paper's BLSTM phoneme segmenter
        (:class:`~repro.core.segmentation.PhonemeSegmenter`), or
        ``None`` to analyze full recordings with the pipeline's own
        ``config.features``.  This differs from
        :class:`~repro.core.baselines.VibrationBaselineNoSelection`,
        which uses linear (not log-compressed) features at
        ``hop_length=32``.
    sensor:
        Cross-domain sensor of the user's wearable.
    config:
        Pipeline configuration.
    sink:
        Optional :class:`StageEventSink` receiving every stage event
        this instance emits (in addition to any ambient sink).

    Examples
    --------
    >>> pipeline = DefensePipeline(segmenter=None)
    >>> # verdict = pipeline.analyze(va_rec, wearable_rec, rng=0)
    """

    def __init__(
        self,
        segmenter: Optional[PhonemeSegmenter] = None,
        sensor: Optional[CrossDomainSensor] = None,
        config: Optional[DefenseConfig] = None,
        sink: Optional[StageEventSink] = None,
    ) -> None:
        self.segmenter = segmenter
        self.sensor = sensor or CrossDomainSensor()
        self.config = config or DefenseConfig()
        self.sink = sink
        self.detector = CorrelationDetector(self.config.detector)
        self._extractor = VibrationFeatureExtractor(
            self.config.features, sample_rate=self.sensor.vibration_rate
        )

    @classmethod
    def warm(
        cls,
        seed: Optional[int] = None,
        sensor: Optional[CrossDomainSensor] = None,
        config: Optional[DefenseConfig] = None,
        n_speakers: int = 8,
        n_per_phoneme: int = 12,
        epochs: int = 12,
        store=None,
    ) -> "DefensePipeline":
        """Pipeline backed by a cached (memoized) trained segmenter.

        Repeated calls with the same training recipe share one trained
        bidirectional-LSTM instance instead of retraining per pipeline
        — the construction path for serving workers and repeated CLI
        invocations.  Scores are bitwise identical to a pipeline built
        around a fresh ``train_default_segmenter(seed)`` because
        training is deterministic in the seed.

        ``store`` (an :class:`repro.store.ArtifactStore` or a store
        directory) additionally persists the trained weights across
        processes: in-process memo misses load from the store instead
        of retraining, and a cold store is populated exactly once even
        under concurrent starts.
        """
        return cls(
            segmenter=default_segmenter(
                seed=seed,
                n_speakers=n_speakers,
                n_per_phoneme=n_per_phoneme,
                epochs=epochs,
                store=store,
            ),
            sensor=sensor,
            config=config,
        )

    def analyze(
        self,
        va_audio: np.ndarray,
        wearable_audio: np.ndarray,
        rng: SeedLike = None,
        oracle_utterance: Optional[Utterance] = None,
        skip_segmentation: bool = False,
    ) -> DefenseVerdict:
        """Analyze one voice command captured by both devices.

        Parameters
        ----------
        va_audio / wearable_audio:
            The two devices' recordings at ``config.audio_rate``.
        rng:
            Randomness for the cross-domain sensing replays.
        oracle_utterance:
            When given (ablation/testing), segments come from the
            utterance's ground-truth alignment instead of the BRNN.
        skip_segmentation:
            Bypass phoneme segmentation and analyze the full recordings
            (the fallback path short material already takes).  The
            serving layer uses this to degrade gracefully when a
            request's deadline has expired.

        Returns
        -------
        DefenseVerdict
        """
        verdict, _ = self.analyze_timed(
            va_audio,
            wearable_audio,
            rng=rng,
            oracle_utterance=oracle_utterance,
            skip_segmentation=skip_segmentation,
        )
        return verdict

    # ``verify`` is the serving layer's vocabulary for the same
    # operation: one request in, one verdict out.  perfbench's
    # served-score check (``check_served``) calls it by this name.
    verify = analyze

    def analyze_timed(
        self,
        va_audio: np.ndarray,
        wearable_audio: np.ndarray,
        rng: SeedLike = None,
        oracle_utterance: Optional[Utterance] = None,
        skip_segmentation: bool = False,
    ) -> Tuple[DefenseVerdict, Dict[str, float]]:
        """:meth:`analyze`, plus per-stage wall-clock seconds.

        Runs :meth:`analyze_batch` on a batch of one and re-raises the
        request's error.  The returned dict has one entry per
        :data:`PIPELINE_STAGES` key.
        """
        (outcome,) = self.analyze_batch(
            [
                BatchAnalysisItem(
                    va_audio=va_audio,
                    wearable_audio=wearable_audio,
                    rng=rng,
                    oracle_utterance=oracle_utterance,
                    skip_segmentation=skip_segmentation,
                )
            ]
        )
        if outcome.error is not None:
            raise outcome.error
        return outcome.verdict, outcome.timings

    def analyze_batch(
        self,
        items: Sequence[BatchAnalysisItem],
    ) -> List[BatchAnalysisOutcome]:
        """Analyze a micro-batch with vectorized segmentation and sensing.

        The one implementation behind :meth:`analyze` and
        :meth:`analyze_timed`, which run it on a batch of one.

        The two hottest stages are hoisted out of the per-request loop
        whenever two or more requests share them (a lone request runs
        them in its own stage, through the same batch-of-one kernel):

        * **segmentation** — every batch member that needs model-based
          segmentation contributes its (synced) VA recording to a
          single
          :meth:`~repro.core.segmentation.PhonemeSegmenter.segments_batch`
          call;
        * **cross-domain sensing** — after material extraction, the
          whole batch's ``replay-va`` and ``replay-wearable``
          conversions become one
          :meth:`~repro.sensing.cross_domain.CrossDomainSensor.convert_batch`
          call.  Each request's child RNG streams are derived first
          (``replay-va`` then ``replay-wearable``), so no vibration
          signal depends on its batch-mates.

        Everything request-specific (synchronization, oracle
        segmentation, material extraction, feature extraction,
        detection) runs per request through the stage objects, with the
        request's own RNG stream, so each verdict is bitwise identical
        whatever else shares the batch.

        Per-request semantics preserved:

        * **stage timings** — per-request dicts with the usual
          :data:`PIPELINE_STAGES` keys; the shared batched
          segmentation and sensing costs are amortized equally across
          the requests that used them;
        * **deadline checks** — callers mark expired requests with
          ``skip_segmentation=True``;
        * **error isolation** — a failing request records its
          exception in its own :class:`BatchAnalysisOutcome` and
          never disturbs batch-mates; if a *batched* call itself
          fails, that stage falls back to per-request execution
          (sequential ``segments`` / ``convert`` with the
          already-derived streams) so healthy requests still complete.
          A lone request is never retried: it raised in its own stage.
        """
        items = list(items)
        outcomes = [BatchAnalysisOutcome() for _ in items]
        contexts: List[Optional[StageContext]] = []
        sync_stage = tuple(
            s for s in default_stages() if s.name == "sync"
        )

        for index, item in enumerate(items):
            outcome = outcomes[index]
            try:
                ctx = StageContext(
                    pipeline=self,
                    va_audio=item.va_audio,
                    wearable_audio=item.wearable_audio,
                    generator=as_generator(item.rng),
                    oracle_utterance=item.oracle_utterance,
                    skip_segmentation=item.skip_segmentation,
                )
                self._run_stages(
                    ctx, sync_stage, outcome.timings, outcome.events
                )
            except Exception as error:  # noqa: BLE001 — isolated per item
                outcome.error = error
                contexts.append(None)
                continue
            contexts.append(ctx)

        # One vectorized BLSTM forward for every request that needs
        # model-based segmentation.
        batched_indices = [
            index
            for index, item in enumerate(items)
            if contexts[index] is not None
            and not item.skip_segmentation
            and item.oracle_utterance is None
            and self.segmenter is not None
        ]
        segment_lists: Dict[int, List[Tuple[float, float]]] = {}
        shared_segment_s = 0.0
        if len(batched_indices) > 1:
            batch_fallback: Optional[str] = None
            start = time.perf_counter()
            try:
                found = self.segmenter.segments_batch(
                    [
                        contexts[index].va_aligned
                        for index in batched_indices
                    ]
                )
                segment_lists.update(zip(batched_indices, found))
            except Exception:  # noqa: BLE001 — isolate per request
                batch_fallback = "per-request"
                for index in batched_indices:
                    try:
                        segment_lists[index] = self.segmenter.segments(
                            contexts[index].va_aligned
                        )
                    except Exception as error:  # noqa: BLE001
                        outcomes[index].error = error
            batch_wall = time.perf_counter() - start
            shared_segment_s = batch_wall / len(batched_indices)
            self._emit(
                StageEvent(
                    stage="segment_batch",
                    wall_s=batch_wall,
                    batch_size=len(batched_indices),
                    fallback=batch_fallback,
                    scope="batch",
                )
            )

        # Per-request segmentation / material extraction (respecting the
        # pre-seeded segment lists), so the sensing hoist below sees the
        # final audio material of every healthy request.
        segment_stages = tuple(
            s for s in stages_after_sync() if s.name == "segment"
        )
        post_segment_stages = tuple(
            s for s in stages_after_sync() if s.name != "segment"
        )
        for index in range(len(items)):
            outcome = outcomes[index]
            ctx = contexts[index]
            if outcome.error is not None or ctx is None:
                continue
            if index in segment_lists:
                ctx.segments = segment_lists[index]
                ctx.extra_stage_s["segment"] = shared_segment_s
            try:
                self._run_stages(
                    ctx, segment_stages, outcome.timings, outcome.events
                )
            except Exception as error:  # noqa: BLE001 — isolated
                outcome.error = error

        # One vectorized cross-domain sensing pass per replay direction
        # for every request still healthy.  The child streams are
        # derived per request (``replay-va`` then ``replay-wearable``)
        # *before* the batched calls, so a
        # batch-level failure can fall back to per-request conversion
        # inside SenseStage without perturbing any stream.
        self._sense_batch(contexts, outcomes)

        for index in range(len(items)):
            outcome = outcomes[index]
            ctx = contexts[index]
            if outcome.error is not None or ctx is None:
                continue
            try:
                self._run_stages(
                    ctx,
                    post_segment_stages,
                    outcome.timings,
                    outcome.events,
                )
                outcome.verdict = self._verdict_from(ctx)
            except Exception as error:  # noqa: BLE001 — isolated
                outcome.error = error
        return outcomes

    def _sense_batch(
        self,
        contexts: Sequence[Optional[StageContext]],
        outcomes: Sequence[BatchAnalysisOutcome],
    ) -> None:
        """Vectorized sensing across a batch's healthy requests.

        Pre-seeds ``vibration_va`` / ``vibration_wearable`` (and the
        amortized ``sense`` timing share) on each surviving context.  On
        failure of a batched conversion nothing is pre-seeded beyond the
        derived RNG streams, and :class:`~repro.core.stages.SenseStage`
        converts per request with those exact streams — bitwise the same
        result, minus the speedup.  A lone healthy request is left to
        :class:`~repro.core.stages.SenseStage`, whose ``convert`` is
        the same kernel on a batch of one.
        """
        config = self.config
        sensed = [
            ctx
            for ctx, outcome in zip(contexts, outcomes)
            if ctx is not None and outcome.error is None
        ]
        if len(sensed) < 2:
            return
        for ctx in sensed:
            ctx.sense_rng_va = child_rng(ctx.generator, "replay-va")
            ctx.sense_rng_wearable = child_rng(
                ctx.generator, "replay-wearable"
            )
        fallback: Optional[str] = None
        start = time.perf_counter()
        try:
            vibrations = self.sensor.convert_batch(
                [ctx.va_material for ctx in sensed]
                + [ctx.wearable_material for ctx in sensed],
                config.audio_rate,
                rngs=[ctx.sense_rng_va for ctx in sensed]
                + [ctx.sense_rng_wearable for ctx in sensed],
                include_body_motion=config.wearer_moving,
            )
        except Exception:  # noqa: BLE001 — SenseStage falls back
            fallback = "per-request"
        batch_wall = time.perf_counter() - start
        if fallback is None:
            shared_sense_s = batch_wall / len(sensed)
            for row, ctx in enumerate(sensed):
                ctx.vibration_va = vibrations[row]
                ctx.vibration_wearable = vibrations[len(sensed) + row]
                ctx.extra_stage_s["sense"] = shared_sense_s
        self._emit(
            StageEvent(
                stage="sense_batch",
                wall_s=batch_wall,
                batch_size=len(sensed),
                fallback=fallback,
                scope="batch",
            )
        )

    def score(
        self,
        va_audio: np.ndarray,
        wearable_audio: np.ndarray,
        rng: SeedLike = None,
        oracle_utterance: Optional[Utterance] = None,
    ) -> float:
        """Correlation score only (used by the evaluation harness)."""
        return self.analyze(
            va_audio, wearable_audio, rng=rng,
            oracle_utterance=oracle_utterance,
        ).score

    # ------------------------------------------------------------------
    # Stage driver
    # ------------------------------------------------------------------

    def _emit(self, event: StageEvent) -> None:
        emit_event(event, sink=self.sink)

    def _run_stages(
        self,
        ctx: StageContext,
        stages: Sequence[Stage],
        timings: Dict[str, float],
        events: List[StageEvent],
    ) -> None:
        """Run ``stages`` over ``ctx``, timing and emitting each one.

        A stage's wall time includes any amortized share recorded for
        it in ``ctx.extra_stage_s`` (the batched segmentation forward).
        On stage failure an ``error`` event is emitted (and recorded in
        ``events``) before the exception propagates.
        """
        for stage in stages:
            start = time.perf_counter()
            try:
                stage.run(ctx)
            except Exception as error:
                wall = time.perf_counter() - start
                wall += ctx.extra_stage_s.pop(stage.name, 0.0)
                event = StageEvent(
                    stage=stage.name,
                    wall_s=wall,
                    fallback=ctx.fallbacks.get(stage.name),
                    error=type(error).__name__,
                )
                events.append(event)
                self._emit(event)
                raise
            wall = time.perf_counter() - start
            wall += ctx.extra_stage_s.pop(stage.name, 0.0)
            event = StageEvent(
                stage=stage.name,
                wall_s=wall,
                fallback=ctx.fallbacks.get(stage.name),
            )
            timings[stage.name] = wall
            events.append(event)
            self._emit(event)

    def _verdict_from(self, ctx: StageContext) -> DefenseVerdict:
        return DefenseVerdict(
            score=ctx.score,
            is_attack=ctx.is_attack,
            n_segments=ctx.n_segments,
            analyzed_duration_s=(
                ctx.va_material.size / self.config.audio_rate
            ),
            sync_delay_s=ctx.delay_s,
        )

    # ------------------------------------------------------------------
    # Component helpers used by the stage objects
    # ------------------------------------------------------------------

    def _find_segments(
        self,
        va_audio: np.ndarray,
        oracle_utterance: Optional[Utterance],
        segmenter: Optional[PhonemeSegmenter] = None,
    ) -> List[Tuple[float, float]]:
        """Locate sensitive segments with ``segmenter`` (default: own).

        The hardened segment stage passes a per-session subset clone
        (:meth:`~repro.core.segmentation.PhonemeSegmenter.with_sensitive_subset`)
        here; every other caller uses the pipeline's own segmenter.
        """
        if segmenter is None:
            segmenter = self.segmenter
        if segmenter is None:
            return []
        if oracle_utterance is not None:
            # Oracle segments are timed relative to the utterance start;
            # locate that start inside the (synced) VA recording first.
            offset_s = self._locate_utterance(va_audio, oracle_utterance)
            return [
                (start + offset_s, end + offset_s)
                for start, end in segmenter.oracle_segments(
                    oracle_utterance
                )
            ]
        return segmenter.segments(va_audio)

    def _locate_utterance(
        self,
        va_audio: np.ndarray,
        utterance: Utterance,
    ) -> float:
        """Offset (s) of the utterance onset within the VA recording."""
        from repro.dsp.correlate import cross_correlation_delay

        max_lag = min(
            va_audio.size - 1,
            int(round(1.5 * self.config.audio_rate)),
        )
        delay = cross_correlation_delay(
            va_audio, utterance.waveform, max_lag
        )
        return max(0.0, -delay / self.config.audio_rate)
