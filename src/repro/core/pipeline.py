"""End-to-end defense pipeline — the library's main entry point.

Composes the whole §IV-C architecture: cross-device synchronization →
sensitive-phoneme segmentation on the VA recording → segment extraction
from both recordings → cross-domain sensing on the wearable → vibration
feature extraction → 2-D-correlation attack detection.

:meth:`DefensePipeline.analyze_batch` runs that line once over a batch,
one private method per stage, and reports each request's stages as
:class:`~repro.runtime.events.StageEvent` records to the ambient sink
installed with :func:`repro.runtime.capture_stage_events`, so shared
pipeline instances stay observable without mutable per-call state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detector import CorrelationDetector, DetectorConfig
from repro.core.features import FeatureConfig, VibrationFeatureExtractor
from repro.core.hardening import HardeningConfig
from repro.core.segmentation import PhonemeSegmenter, concatenate_segments
from repro.core.sync import SyncConfig, synchronize_recordings
from repro.dsp.correlate import cross_correlation_delay
from repro.errors import ConfigurationError, SignalError
from repro.phonemes.corpus import Utterance
from repro.runtime.events import StageEvent, emit_event
from repro.sensing.cross_domain import CrossDomainSensor
from repro.utils.rng import SeedLike, as_generator, child_rng, child_seed


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


#: Stage keys of every healthy :class:`BatchAnalysisOutcome`'s
#: ``timings``, in execution order.  The serving layer aggregates
#: latency percentiles per stage under these names.
PIPELINE_STAGES: Tuple[str, ...] = (
    "sync",
    "segment",
    "sense",
    "features",
    "detect",
)

#: Fallback annotation when segmentation yielded too little material
#: and the analysis used the full recordings instead.
FALLBACK_FULL_RECORDING = "full-recording"
#: Fallback annotation of a shared kernel call that failed and was
#: retried one request at a time.
FALLBACK_PER_REQUEST = "per-request"


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


@dataclass
class BatchAnalysisOutcome:
    """Per-request result of :meth:`DefensePipeline.analyze_batch`.

    Exactly one of ``verdict`` / ``error`` is set: a failing request
    records its exception here instead of raising, so one bad request
    never aborts its batch-mates (error isolation).  ``events`` carries
    the request's :class:`StageEvent` stream (timings, fallbacks, and
    — for a failed request — the error class of the stage that raised).
    ``aligned`` is the (VA, wearable) pair the ``sync`` stage produced,
    which the campaign's baseline detectors score as well.
    """

    verdict: Optional[DefenseVerdict] = None
    timings: Dict[str, float] = field(default_factory=dict)
    error: Optional[Exception] = None
    events: List[StageEvent] = field(default_factory=list)
    aligned: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def ok(self) -> bool:
        """Whether this request produced a verdict."""
        return self.error is None and self.verdict is not None


@dataclass
class _Request:
    """One request's state on its way down the stage line.

    ``pair`` holds the request's current (VA, wearable) signals; each
    stage replaces it with its product: aligned recordings, segment
    material, vibrations, then feature matrices.
    """

    item: BatchAnalysisItem
    outcome: BatchAnalysisOutcome = field(
        default_factory=BatchAnalysisOutcome
    )
    generator: Optional[np.random.Generator] = None
    pair: Optional[Tuple[np.ndarray, np.ndarray]] = None
    delay_s: float = 0.0
    #: Segments found by the shared model forward, else ``None``.
    segments: Optional[List[Tuple[float, float]]] = None
    n_segments: int = 0
    analyzed_s: float = 0.0
    #: ``replay-va`` and ``replay-wearable`` child seeds, derived before
    #: the shared sensing call so a per-request retry replays the
    #: same streams.
    replay_seeds: Tuple[int, int] = (0, 0)
    #: This request's amortized share of each shared kernel call.
    shared_s: Dict[str, float] = field(default_factory=dict)
    #: Fallback annotation of the stage being run.
    fallback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.outcome.error is None


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
    ) -> None:
        self.segmenter = segmenter
        self.sensor = sensor or CrossDomainSensor()
        self.config = config or DefenseConfig()
        self.detector = CorrelationDetector(self.config.detector)
        self._extractor = VibrationFeatureExtractor(
            self.config.features, sample_rate=self.sensor.vibration_rate
        )

    def analyze(
        self,
        va_audio: np.ndarray,
        wearable_audio: np.ndarray,
        rng: SeedLike = None,
        oracle_utterance: Optional[Utterance] = None,
    ) -> DefenseVerdict:
        """Analyze one voice command captured by both devices.

        Runs :meth:`analyze_batch` on a batch of one and re-raises the
        request's error.

        Parameters
        ----------
        va_audio / wearable_audio:
            The two devices' recordings at ``config.audio_rate``.
        rng:
            Randomness for the cross-domain sensing replays.
        oracle_utterance:
            When given (ablation/testing), segments come from the
            utterance's ground-truth alignment instead of the BRNN.

        Returns
        -------
        DefenseVerdict
        """
        (outcome,) = self.analyze_batch(
            [
                BatchAnalysisItem(
                    va_audio=va_audio,
                    wearable_audio=wearable_audio,
                    rng=rng,
                    oracle_utterance=oracle_utterance,
                )
            ]
        )
        if outcome.error is not None:
            raise outcome.error
        return outcome.verdict

    # ``verify`` is an alias kept for perfbench's served-score check
    # (``check_served``), which calls the pipeline by this name.
    verify = analyze

    def analyze_batch(
        self,
        items: Sequence[BatchAnalysisItem],
    ) -> List[BatchAnalysisOutcome]:
        """Analyze a micro-batch; the one implementation behind
        :meth:`analyze`.

        The five :data:`PIPELINE_STAGES` run in order over the batch's
        healthy requests.  The two hottest are one shared kernel call
        each, for a batch of one too:

        * **segmentation** — every request that needs the BLSTM (no
          oracle utterance) contributes its
          synced VA recording to one
          :meth:`~repro.core.segmentation.PhonemeSegmenter.segments_batch`
          call;
        * **cross-domain sensing** — every healthy request's VA and
          wearable material go through one
          :meth:`~repro.sensing.cross_domain.CrossDomainSensor.convert_batch`
          call, each row replayed with its request's own child seed.

        Everything else runs per request.  A request's RNG stream is
        drawn in a fixed order (``harden-subset``, ``replay-va``,
        ``replay-wearable``, ``harden-threshold``, the hardening labels
        only when enabled), so each verdict is bitwise identical
        whatever else shares the batch.

        Per-request semantics:

        * **stage timings** — a healthy outcome's ``timings`` has the
          :data:`PIPELINE_STAGES` keys; a shared call's wall time is
          amortized equally across the requests in it;
        * **error isolation** — a failing request records its
          exception and one error event, naming the stage, in its own
          :class:`BatchAnalysisOutcome`; its batch-mates still
          complete.  A shared call that fails for two or more requests
          is retried one request at a time (fallback ``per-request``),
          so only a request that fails alone fails; a lone request is
          not retried.
        """
        requests = [_Request(item) for item in items]
        self._each(requests, "sync", self._sync)
        self._shared(
            "segment",
            [r for r in requests if r.ok and self._uses_model(r.item)],
            self._find_segments,
        )
        self._each(requests, "segment", self._segment)
        sensed = [r for r in requests if r.ok]
        for request in sensed:
            request.replay_seeds = (
                child_seed(request.generator, "replay-va"),
                child_seed(request.generator, "replay-wearable"),
            )
        self._shared("sense", sensed, self._convert)
        # Sensing is all shared: each request's ``sense`` event reports
        # its share of the call.
        self._each(requests, "sense", lambda request: None)
        self._each(requests, "features", self._features)
        self._each(requests, "detect", self._detect)
        return [request.outcome for request in requests]

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

    def _each(
        self,
        requests: Sequence[_Request],
        stage: str,
        run: Callable[[_Request], None],
    ) -> None:
        """Run one stage over every healthy request, timing each.

        A request's wall time includes its share of the stage's shared
        kernel call, if it was in one.
        """
        for request in requests:
            if not request.ok:
                continue
            start = time.perf_counter()
            try:
                run(request)
            except Exception as error:  # noqa: BLE001 — isolated
                request.outcome.error = error
            wall = time.perf_counter() - start
            wall += request.shared_s.get(stage, 0.0)
            self._record(request, stage, wall)

    def _shared(
        self,
        stage: str,
        requests: Sequence[_Request],
        kernel: Callable[[Sequence[_Request]], None],
    ) -> None:
        """Run ``kernel`` once over ``requests``; amortize its wall time.

        A call shared by two or more requests emits a batch-scope
        ``<stage>_batch`` event.  If it fails, each request is retried
        alone (fallback ``per-request``) and only a request that fails
        by itself fails; a lone request's error is its own.  A failed
        request's error event names ``stage``.
        """
        if not requests:
            return
        fallback = None
        start = time.perf_counter()
        try:
            kernel(requests)
        except Exception as error:  # noqa: BLE001 — isolated
            if len(requests) == 1:
                requests[0].outcome.error = error
            else:
                fallback = FALLBACK_PER_REQUEST
                for request in requests:
                    try:
                        kernel([request])
                    except Exception as retry_error:  # noqa: BLE001
                        request.outcome.error = retry_error
        wall = time.perf_counter() - start
        if len(requests) > 1:
            emit_event(
                StageEvent(
                    stage=f"{stage}_batch",
                    wall_s=wall,
                    batch_size=len(requests),
                    fallback=fallback,
                    scope="batch",
                )
            )
        share = wall / len(requests)
        for request in requests:
            request.shared_s[stage] = share
            if not request.ok:
                self._record(request, stage, share)

    @staticmethod
    def _record(request: _Request, stage: str, wall_s: float) -> None:
        """Report one stage of ``request``: timing and event."""
        error = request.outcome.error
        if error is None:
            request.outcome.timings[stage] = wall_s
        event = StageEvent(
            stage=stage,
            wall_s=wall_s,
            fallback=request.fallback,
            error=None if error is None else type(error).__name__,
        )
        request.fallback = None
        request.outcome.events.append(event)
        emit_event(event)

    # ------------------------------------------------------------------
    # Stages and shared kernels
    # ------------------------------------------------------------------

    def _sync(self, request: _Request) -> None:
        """Seed the request's stream and align its two recordings."""
        item = request.item
        config = self.config
        request.generator = as_generator(item.rng)
        va, wearable, request.delay_s = synchronize_recordings(
            item.va_audio, item.wearable_audio, config.audio_rate, config.sync
        )
        request.pair = request.outcome.aligned = (va, wearable)

    def _uses_model(self, item: BatchAnalysisItem) -> bool:
        return self.segmenter is not None and item.oracle_utterance is None

    def _find_segments(self, requests: Sequence[_Request]) -> None:
        found = self.segmenter.segments_batch(
            [request.pair[0] for request in requests]
        )
        for request, segments in zip(requests, found):
            request.segments = segments

    def _segment(self, request: _Request) -> None:
        """Cut the sensitive-phoneme material out of both recordings.

        Annotates the full-recording fallback and raises
        :class:`SignalError` on empty recordings.  The material must
        satisfy ``min_audio_s`` *and* survive cross-domain conversion
        with at least one full STFT window (``n_fft`` at the sensor's
        vibration rate); anything shorter would raise in feature
        extraction, so the full recordings are used instead.
        """
        item = request.item
        config = self.config
        segments = request.segments
        if segments is None:
            if (
                item.oracle_utterance is not None
                and self.segmenter is not None
            ):
                segments = self._oracle_segments(request)
            else:
                segments = []
        va, wearable = request.pair
        material = None
        if segments:
            material = (
                concatenate_segments(va, segments, config.audio_rate),
                concatenate_segments(wearable, segments, config.audio_rate),
            )
            min_samples = max(
                config.min_audio_s * config.audio_rate,
                config.features.n_fft
                * config.audio_rate
                / self.sensor.vibration_rate,
            )
            if material[0].size >= min_samples:
                request.n_segments = len(segments)
            else:
                material = None
                request.fallback = FALLBACK_FULL_RECORDING
        if material is None:
            if va.size == 0 or wearable.size == 0:
                raise SignalError("cannot analyze empty recordings")
            material = (np.asarray(va), np.asarray(wearable))
        request.pair = material
        request.analyzed_s = material[0].size / config.audio_rate

    def _oracle_segments(
        self, request: _Request
    ) -> List[Tuple[float, float]]:
        """Ground-truth segments, located in the synced VA recording.

        With subset hardening enabled, a per-session phoneme subset is
        drawn from the request's stream (label ``harden-subset``) and
        applied through an O(1) clone.  Subset hardening acts on the
        alignment layer, so only this oracle path consults it; the
        BLSTM's frame classifier bakes the training-time set into its
        weights, and no other path consumes the draw.
        """
        segmenter = self.segmenter
        hardening = self.config.hardening
        if hardening is not None and hardening.randomizes_subset:
            segmenter = segmenter.with_sensitive_subset(
                hardening.session_subset(
                    segmenter.sensitive_phonemes,
                    child_rng(request.generator, "harden-subset"),
                )
            )
        # Oracle segments are timed relative to the utterance start;
        # locate that start inside the (synced) VA recording first.
        va = request.pair[0]
        utterance = request.item.oracle_utterance
        rate = self.config.audio_rate
        max_lag = min(va.size - 1, int(round(1.5 * rate)))
        delay = cross_correlation_delay(va, utterance.waveform, max_lag)
        offset_s = max(0.0, -delay / rate)
        return [
            (start + offset_s, end + offset_s)
            for start, end in segmenter.oracle_segments(utterance)
        ]

    def _convert(self, requests: Sequence[_Request]) -> None:
        """Replay every request's material through the wearable.

        One ``convert_batch`` call holds the VA rows, then the wearable
        rows, so a request's two equal-length rows share a stack.
        """
        config = self.config
        vibrations = self.sensor.convert_batch(
            [request.pair[0] for request in requests]
            + [request.pair[1] for request in requests],
            config.audio_rate,
            rngs=[request.replay_seeds[0] for request in requests]
            + [request.replay_seeds[1] for request in requests],
            include_body_motion=config.wearer_moving,
        )
        n = len(requests)
        for row, request in enumerate(requests):
            request.pair = (vibrations[row], vibrations[n + row])

    def _features(self, request: _Request) -> None:
        extract = self._extractor.extract
        request.pair = (extract(request.pair[0]), extract(request.pair[1]))

    def _detect(self, request: _Request) -> None:
        """2-D correlation score, the decision when calibrated, verdict."""
        score = self.detector.score(*request.pair)
        is_attack = None
        if self.config.detector.threshold is not None:
            detector = self.detector
            hardening = self.config.hardening
            if hardening is not None and hardening.randomizes_threshold:
                # Per-session jittered operating point, drawn after the
                # sensing replays so hardened runs stay reproducible.
                detector = detector.with_randomized_threshold(
                    child_rng(request.generator, "harden-threshold"),
                    hardening.threshold_jitter,
                )
            is_attack = detector.decide(score)
        request.outcome.verdict = DefenseVerdict(
            score=score,
            is_attack=is_attack,
            n_segments=request.n_segments,
            analyzed_duration_s=request.analyzed_s,
            sync_delay_s=request.delay_s,
        )
