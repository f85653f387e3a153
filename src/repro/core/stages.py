"""Composable stage objects behind :class:`~repro.core.pipeline.DefensePipeline`.

The §IV-C architecture is a straight line — synchronize → segment →
sense → extract features → detect — and each arrow is one small object
here with a ``name`` and a ``run(context)`` method.  The pipeline
drives them through a single loop that owns timing, fallback
annotation, and :class:`~repro.runtime.events.StageEvent` emission, so
per-stage observability and degradation are uniform policies instead of
hand-rolled ``try/except`` blocks inside one long method.

A :class:`StageContext` carries the request through the line: the
immutable inputs, the pipeline's components, and the products each
stage leaves for the next.  Stages communicate *only* through the
context, which is what makes the batched path able to pre-seed
``segments`` from a shared vectorized forward and then run the very
same stage objects per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.segmentation import concatenate_segments
from repro.core.sync import synchronize_recordings
from repro.errors import SignalError
from repro.phonemes.corpus import Utterance
from repro.utils.rng import child_rng

#: Fallback annotation when a request skipped segmentation because its
#: deadline had already expired (serving degradation).
FALLBACK_DEADLINE_SKIP = "deadline-skip"
#: Fallback annotation when segmentation yielded too little material
#: and the analysis used the full recordings instead.
FALLBACK_FULL_RECORDING = "full-recording"


@dataclass
class StageContext:
    """Mutable state threaded through the stage line for one request.

    ``pipeline`` exposes the components (segmenter, sensor, feature
    extractor, detector, config); everything else is either request
    input or a product written by an earlier stage.
    """

    pipeline: "object"
    va_audio: np.ndarray
    wearable_audio: np.ndarray
    generator: "object"
    oracle_utterance: Optional[Utterance] = None
    skip_segmentation: bool = False

    # -- products --------------------------------------------------------
    va_aligned: Optional[np.ndarray] = None
    wearable_aligned: Optional[np.ndarray] = None
    delay_s: float = 0.0
    #: ``None`` until segmentation ran; the batched path pre-seeds this
    #: from the shared vectorized forward.
    segments: Optional[List[Tuple[float, float]]] = None
    va_material: Optional[np.ndarray] = None
    wearable_material: Optional[np.ndarray] = None
    n_segments: int = 0
    #: Child RNG streams for the two sensing replays, derived by
    #: ``analyze_batch`` (``replay-va`` then ``replay-wearable``) before
    #: its batched sensing pass, so a failed pass can fall back to
    #: per-request conversion without perturbing the stream.
    sense_rng_va: Optional["object"] = None
    sense_rng_wearable: Optional["object"] = None
    #: ``None`` until sensing ran; the batched path pre-seeds these from
    #: the shared vectorized conversion.
    vibration_va: Optional[np.ndarray] = None
    vibration_wearable: Optional[np.ndarray] = None
    features_va: Optional[np.ndarray] = None
    features_wearable: Optional[np.ndarray] = None
    score: float = 0.0
    is_attack: Optional[bool] = None

    # -- bookkeeping the driver folds into StageEvents -------------------
    #: Extra seconds to attribute to a stage beyond its own wall time
    #: (this request's amortized share of a batched forward).
    extra_stage_s: Dict[str, float] = field(default_factory=dict)
    #: ``{stage: fallback-name}`` annotations recorded by stages.
    fallbacks: Dict[str, str] = field(default_factory=dict)


class Stage:
    """One named step of the defense line."""

    name: str = "stage"

    def run(self, ctx: StageContext) -> None:  # pragma: no cover
        raise NotImplementedError


def min_material_samples(pipeline) -> float:
    """Fewest VA-timeline audio samples worth sending downstream.

    Segment material must satisfy ``min_audio_s`` *and* survive
    cross-domain conversion with at least one full STFT window
    (``n_fft`` at the sensor's vibration rate); anything shorter raises
    in feature extraction, so the full-recording fallback is the right
    degradation for it.
    """
    config = pipeline.config
    return max(
        config.min_audio_s * config.audio_rate,
        config.features.n_fft
        * config.audio_rate
        / pipeline.sensor.vibration_rate,
    )


class SyncStage(Stage):
    """Cross-device synchronization of the two recordings."""

    name = "sync"

    def run(self, ctx: StageContext) -> None:
        config = ctx.pipeline.config
        ctx.va_aligned, ctx.wearable_aligned, ctx.delay_s = (
            synchronize_recordings(
                ctx.va_audio,
                ctx.wearable_audio,
                config.audio_rate,
                config.sync,
            )
        )


class SegmentStage(Stage):
    """Sensitive-phoneme segmentation plus material extraction.

    The ``segment`` timing has always covered finding the segments *and*
    cutting the material, so both live in one stage.  Respects segments
    pre-seeded by the batched path, annotates the deadline-skip and
    full-recording fallbacks, and raises :class:`SignalError` on empty
    recordings.
    """

    name = "segment"

    def run(self, ctx: StageContext) -> None:
        pipeline = ctx.pipeline
        if ctx.segments is None:
            if ctx.skip_segmentation:
                ctx.segments = []
                ctx.fallbacks[self.name] = FALLBACK_DEADLINE_SKIP
            else:
                ctx.segments = pipeline._find_segments(
                    ctx.va_aligned,
                    ctx.oracle_utterance,
                    segmenter=self._session_segmenter(ctx),
                )
        config = pipeline.config
        segments = ctx.segments
        if segments:
            va_material = concatenate_segments(
                ctx.va_aligned, segments, config.audio_rate
            )
            wearable_material = concatenate_segments(
                ctx.wearable_aligned, segments, config.audio_rate
            )
            if va_material.size >= min_material_samples(pipeline):
                ctx.va_material = va_material
                ctx.wearable_material = wearable_material
                ctx.n_segments = len(segments)
                return
            ctx.fallbacks[self.name] = FALLBACK_FULL_RECORDING
        if ctx.va_aligned.size == 0 or ctx.wearable_aligned.size == 0:
            raise SignalError("cannot analyze empty recordings")
        ctx.va_material = np.asarray(ctx.va_aligned)
        ctx.wearable_material = np.asarray(ctx.wearable_aligned)
        ctx.n_segments = 0

    @staticmethod
    def _session_segmenter(ctx: StageContext):
        """The segmenter this session's request should use.

        With subset hardening enabled, a per-session random phoneme
        subset is drawn from the request's RNG stream (label
        ``harden-subset``) and applied through an O(1) clone.  Subset
        hardening acts on the alignment/selection layer, so it applies
        only where the sensitive set is consulted at inference time —
        the oracle-alignment path; the BLSTM's online frame classifier
        bakes the training-time set into its weights.  Everywhere else the pipeline's own segmenter is
        returned and **no draw is consumed**, which also keeps a
        request's analysis bitwise independent of its batch (batched
        pre-seeded segments never reach this hook).
        """
        pipeline = ctx.pipeline
        hardening = pipeline.config.hardening
        segmenter = pipeline.segmenter
        if (
            hardening is None
            or not hardening.randomizes_subset
            or segmenter is None
            or ctx.oracle_utterance is None
        ):
            return segmenter
        subset = hardening.session_subset(
            segmenter.sensitive_phonemes,
            child_rng(ctx.generator, "harden-subset"),
        )
        return segmenter.with_sensitive_subset(subset)


class SenseStage(Stage):
    """Cross-domain sensing: audio material → wearable vibrations.

    Consumes the request's RNG streams in the library-wide order
    (``replay-va`` then ``replay-wearable``).  ``analyze_batch``
    normally pre-seeds both vibrations from its batched sensing pass;
    when that pass failed, this converts the request alone with the
    streams the pass had already derived, so the result is the same.
    Both recordings go through one ``convert_batch`` call, so the two
    equal-length rows share one ``(2, time)`` stack.
    """

    name = "sense"

    def run(self, ctx: StageContext) -> None:
        if (
            ctx.vibration_va is not None
            and ctx.vibration_wearable is not None
        ):
            # Pre-seeded by the batched sensing pass; the replay draws
            # were already consumed when its streams were derived.
            return
        pipeline = ctx.pipeline
        config = pipeline.config
        rng_va = ctx.sense_rng_va
        rng_wearable = ctx.sense_rng_wearable
        if rng_va is None or rng_wearable is None:
            rng_va = child_rng(ctx.generator, "replay-va")
            rng_wearable = child_rng(ctx.generator, "replay-wearable")
        ctx.vibration_va, ctx.vibration_wearable = (
            pipeline.sensor.convert_batch(
                [ctx.va_material, ctx.wearable_material],
                config.audio_rate,
                rngs=[rng_va, rng_wearable],
                include_body_motion=config.wearer_moving,
            )
        )


class FeatureStage(Stage):
    """Vibration feature extraction for both devices."""

    name = "features"

    def run(self, ctx: StageContext) -> None:
        extractor = ctx.pipeline._extractor
        ctx.features_va = extractor.extract(ctx.vibration_va)
        ctx.features_wearable = extractor.extract(ctx.vibration_wearable)


class DetectStage(Stage):
    """2-D correlation scoring and (when calibrated) the decision."""

    name = "detect"

    def run(self, ctx: StageContext) -> None:
        pipeline = ctx.pipeline
        ctx.score = pipeline.detector.score(
            ctx.features_va, ctx.features_wearable
        )
        if pipeline.config.detector.threshold is not None:
            detector = pipeline.detector
            hardening = pipeline.config.hardening
            if hardening is not None and hardening.randomizes_threshold:
                # Per-session jittered operating point; the draw comes
                # from the request's RNG stream (after the sense-stage
                # draws) so hardened runs stay seed-reproducible.
                detector = detector.with_randomized_threshold(
                    child_rng(ctx.generator, "harden-threshold"),
                    hardening.threshold_jitter,
                )
            ctx.is_attack = detector.decide(ctx.score)


def default_stages() -> Tuple[Stage, ...]:
    """The canonical stage line, in execution order."""
    return (
        SyncStage(),
        SegmentStage(),
        SenseStage(),
        FeatureStage(),
        DetectStage(),
    )


def stages_after_sync() -> Tuple[Stage, ...]:
    """The line minus synchronization (the batched path runs sync
    per request before the shared segmentation forward)."""
    return tuple(s for s in default_stages() if s.name != "sync")
