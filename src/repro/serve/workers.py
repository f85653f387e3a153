"""Warm pipeline recipe and batch execution for the verification service.

The service is expensive to make ready: the defense's
bidirectional-LSTM segmenter must be trained (or loaded from the weight
store) before the first verdict.  :meth:`PipelineSpec.build_pipeline`
does that once, when the service starts; every worker thread then runs
its batches through that one
:class:`~repro.core.pipeline.DefensePipeline`.  LSTM inference is
read-only, so sharing it across threads is safe.  Per-request
determinism is preserved: a verdict depends only on the pipeline spec,
the recordings, and the request's integer seed, so any worker returns
bitwise the same answer as a direct ``DefensePipeline.analyze`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.detector import DetectorConfig
from repro.core.hardening import HardeningConfig
from repro.core.pipeline import (
    BatchAnalysisItem,
    DefenseConfig,
    DefensePipeline,
)
from repro.core.segmentation import PhonemeSegmenter, default_segmenter
from repro.errors import ConfigurationError
from repro.runtime import StageEvent, capture_stage_events
from repro.serve.request import VerificationRequest


@dataclass(frozen=True)
class PipelineSpec:
    """Recipe for building a warm verification pipeline.

    Attributes
    ----------
    use_segmenter:
        Use the BLSTM phoneme segmenter (the full system); ``False``
        serves the no-selection fallback only.
    segmenter_seed:
        Seed of the segmenter training recipe.
    n_speakers / n_per_phoneme / epochs:
        Training-set sizing (scaled down for smokes, paper-sized for
        real serving).
    threshold:
        Optional detector threshold; ``None`` reports scores only.
    threshold_jitter:
        Randomized-defense knob: per-session uniform jitter (±) applied
        to the decision threshold (requires ``threshold``).  ``0.0``
        deploys the paper's deterministic detector.
    subset_fraction:
        Randomized-defense knob: fraction of the sensitive-phoneme set
        each session's segmentation restricts itself to.  ``1.0``
        disables subset hardening.
    min_audio_s:
        Minimum concatenated-segment material before the pipeline
        falls back to full recordings.
    store_dir:
        Weight-store directory consulted before training; ``None``
        trains in-process.
    scenario:
        Name of a registered :class:`repro.scenarios.ScenarioSpec`
        selecting the replay-side channel graph (the wearable sensor
        model) the pipeline serves with.
    """

    use_segmenter: bool = True
    segmenter_seed: int = 0
    n_speakers: int = 8
    n_per_phoneme: int = 12
    epochs: int = 12
    threshold: Optional[float] = None
    threshold_jitter: float = 0.0
    subset_fraction: float = 1.0
    min_audio_s: float = 0.25
    store_dir: Optional[str] = None
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            from repro.scenarios import get_scenario

            get_scenario(self.scenario)  # raises with the known list
        # Build the hardening config eagerly so invalid knobs fail at
        # spec construction, not at service start.
        self.hardening

    @property
    def hardening(self) -> Optional[HardeningConfig]:
        """The spec's randomized defenses (``None`` when both are off)."""
        if self.threshold_jitter == 0.0 and self.subset_fraction == 1.0:
            return None
        if self.threshold_jitter and self.threshold is None:
            raise ConfigurationError(
                "threshold_jitter requires a detector threshold"
            )
        return HardeningConfig(
            threshold_jitter=self.threshold_jitter,
            subset_fraction=self.subset_fraction,
        )

    def build_segmenter(self) -> Optional[PhonemeSegmenter]:
        """Load or train the BLSTM segmenter (memoized per recipe).

        With ``store_dir`` set, the artifact store is consulted first:
        a warm entry loads in milliseconds, a cold one trains exactly
        once across every concurrently-starting process (file lock)
        and is published for the next service start.
        """
        if not self.use_segmenter:
            return None
        return default_segmenter(
            seed=self.segmenter_seed,
            n_speakers=self.n_speakers,
            n_per_phoneme=self.n_per_phoneme,
            epochs=self.epochs,
            store=self.store_dir,
        )

    def build_pipeline(
        self, audio_rate: float, wearer_moving: bool
    ) -> DefensePipeline:
        """The pipeline for recordings at ``audio_rate``.

        ``wearer_moving`` simulates body motion during the wearable
        replay.  The service builds one pipeline, at 16 kHz with a
        still wearer, when it starts.
        """
        sensor = None
        if self.scenario is not None:
            from repro.scenarios import get_scenario

            sensor = get_scenario(self.scenario).build_sensor()
        return DefensePipeline(
            segmenter=self.build_segmenter(),
            sensor=sensor,
            config=DefenseConfig(
                audio_rate=float(audio_rate),
                detector=DetectorConfig(threshold=self.threshold),
                hardening=self.hardening,
                min_audio_s=self.min_audio_s,
                wearer_moving=bool(wearer_moving),
            ),
        )



@dataclass
class WorkerResult:
    """Per-request outcome returned by a worker.

    ``events`` carries the request's :class:`StageEvent` stream (stage
    timings, fallback annotations, error classes), which the service
    feeds into its metrics sink.
    """

    request_id: str
    verdict: object = None
    stage_timings_s: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    events: List[StageEvent] = field(default_factory=list)


def execute_batch(
    payload: Tuple[
        DefensePipeline,
        None,
        List[Tuple[VerificationRequest, float]],
    ],
) -> List[WorkerResult]:
    """Run one micro-batch on the service's warm pipeline.

    ``payload`` is the pipeline, ``None``, and ``(request,
    age_at_dispatch_s)`` pairs.  Only the requests are read here; the
    tuple keeps its three slots because perfbench's span attributes
    unpack ``payload[2]`` as those pairs.  Every batch, a batch of one
    included, is one
    :meth:`~repro.core.pipeline.DefensePipeline.analyze_batch` call: a
    single masked BLSTM segmentation forward and one bucketed sensing
    pass shared by the whole batch, with verdicts bitwise identical to
    serving each request alone.  A request that fails inside the batch
    fails alone; its batch-mates still get their verdicts.
    """
    pipeline, _, items = payload
    requests = [request for request, _ in items]
    with capture_stage_events() as captured:
        outcomes = pipeline.analyze_batch(
            [
                BatchAnalysisItem(
                    va_audio=request.va_audio,
                    wearable_audio=request.wearable_audio,
                    rng=int(request.seed),
                    oracle_utterance=request.oracle_utterance,
                )
                for request in requests
            ]
        )
    results = [
        WorkerResult(
            request_id=request.request_id,
            verdict=outcome.verdict,
            stage_timings_s=outcome.timings,
            error=(
                None
                if outcome.error is None
                else f"{type(outcome.error).__name__}: {outcome.error}"
            ),
            events=list(outcome.events),
        )
        for request, outcome in zip(requests, outcomes)
    ]
    # Batch-scoped events (the shared segmentation and sensing calls)
    # belong to the batch, not any one request; attach them once so the
    # service's sink counts each shared call exactly once.
    batch_events = [e for e in captured.events if e.scope == "batch"]
    if batch_events and results:
        results[0].events.extend(batch_events)
    return results
