"""Warm persistent worker pool for the verification service.

Workers are expensive to make ready: the defense's bidirectional-LSTM
segmenter must be trained before the first verdict.  The pool therefore
trains **once per worker at startup** via a pool initializer — not per
request, as the one-shot CLI paths used to — and keeps the resulting
:class:`~repro.core.pipeline.DefensePipeline` instances alive across
batches.  Per-request determinism is preserved: a verdict depends only
on the pipeline spec, the recordings, and the request's integer seed,
so any worker (thread or process, warm or cold) returns bitwise the
same answer as a direct ``DefensePipeline.analyze`` call.

Execution runs on the unified :class:`repro.runtime.Runtime`:

``thread``
    Workers share this process's memoized segmenter (training happens
    once per process).  LSTM inference is read-only, so sharing is
    safe.
``process``
    Each worker process builds the warm pipeline in its initializer.
    A warm-up probe forces spawn/initializer failures to surface at
    start, where they raise: hosts that cannot spawn processes serve
    with the default ``thread`` mode.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.detector import DetectorConfig
from repro.core.hardening import HardeningConfig
from repro.core.pipeline import (
    BatchAnalysisItem,
    DefenseConfig,
    DefensePipeline,
)
from repro.core.segmentation import PhonemeSegmenter, default_segmenter
from repro.errors import ConfigurationError
from repro.runtime import (
    PROCESS,
    THREAD,
    Runtime,
    StageEvent,
    capture_stage_events,
)
from repro.serve.request import VerificationRequest
from repro.store import artifact_fingerprint

@dataclass(frozen=True)
class PipelineSpec:
    """Picklable recipe for building a warm verification pipeline.

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
        Artifact-store directory workers consult before training (a
        plain string so the spec stays picklable for process-pool
        initializers); ``None`` trains in-process as before.
    scenario:
        Name of a registered :class:`repro.scenarios.ScenarioSpec`
        selecting the replay-side channel graph (the wearable sensor
        model) workers serve with.  A *name*, not a spec, so the spec
        stays picklable; workers re-resolve it from the registry.
        Part of the fingerprint — different channel graphs produce
        different verdicts and must never share a batch class.
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
        # spec construction, not in a worker initializer.
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

    @property
    def fingerprint(self) -> str:
        """Stable config hash (part of the batch-compatibility key).

        Covers every field except ``store_dir``: where the weights come
        from never changes a verdict (store loads are bitwise identical
        to fresh training), so it must not split batch classes.
        """
        return artifact_fingerprint(
            "pipeline", spec=replace(self, store_dir=None)
        )

    def build_segmenter(self) -> Optional[PhonemeSegmenter]:
        """Load or train the BLSTM segmenter (memoized per recipe).

        With ``store_dir`` set, the artifact store is consulted first:
        a warm entry loads in milliseconds, a cold one trains exactly
        once across every concurrently-starting worker (cross-process
        file lock) and is published for the next service start.
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
        """Pipeline for one batch-compatibility class."""
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
    """Picklable per-request outcome returned by a worker.

    ``events`` carries the request's :class:`StageEvent` stream (stage
    timings, fallback annotations, error classes), which the service
    feeds into its metrics sink.
    """

    request_id: str
    verdict: object = None
    stage_timings_s: Dict[str, float] = field(default_factory=dict)
    exec_s: float = 0.0
    error: Optional[str] = None
    events: List[StageEvent] = field(default_factory=list)


# ----------------------------------------------------------------------
# Worker-process / worker-thread pipeline cache.  The pool initializer
# trains the segmenter eagerly (warm start); batches then reuse
# per-(spec, rate, motion) pipelines.  Keys include the spec
# fingerprint so several services with different specs can coexist in
# one process (thread mode) without crosstalk.
# ----------------------------------------------------------------------

_WORKER_PIPELINES: Dict[
    Tuple[str, float, bool], DefensePipeline
] = {}
_WORKER_LOCK = threading.Lock()


def _init_worker(spec: PipelineSpec) -> None:
    """Pool initializer: make the worker warm before the first batch."""
    # Train eagerly so the first request does not pay the cost; the
    # result is memoized by default_segmenter for this process.
    spec.build_segmenter()


def _worker_pipeline(
    spec: PipelineSpec, key: Tuple[float, bool]
) -> DefensePipeline:
    cache_key = (spec.fingerprint,) + key
    with _WORKER_LOCK:
        pipeline = _WORKER_PIPELINES.get(cache_key)
        if pipeline is None:
            pipeline = _WORKER_PIPELINES[cache_key] = (
                spec.build_pipeline(*key)
            )
        return pipeline


def execute_batch(
    payload: Tuple[
        PipelineSpec,
        Tuple[float, bool],
        List[Tuple[VerificationRequest, float]],
    ],
) -> List[WorkerResult]:
    """Run one micro-batch on this worker's warm pipeline.

    ``payload`` is the pipeline spec, the batch key, and
    ``(request, age_at_dispatch_s)`` pairs; the age is not read here
    (perfbench's span attributes unpack the pairs).  Every batch, a
    batch of one included, is one
    :meth:`~repro.core.pipeline.DefensePipeline.analyze_batch` call: a
    single masked BLSTM segmentation forward and one bucketed sensing
    pass shared by the whole batch, with verdicts bitwise identical to
    serving each request alone.  A request that fails inside the batch
    fails alone; its batch-mates still get their verdicts.
    """
    spec, key, items = payload
    requests = [request for request, _ in items]
    pipeline = _worker_pipeline(spec, key)
    start = time.perf_counter()
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
    exec_s = time.perf_counter() - start
    results = [
        WorkerResult(
            request_id=request.request_id,
            verdict=outcome.verdict,
            stage_timings_s=outcome.timings,
            exec_s=exec_s / len(requests),
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


class WarmWorkerPool:
    """Persistent executor whose workers hold trained pipelines.

    A thin façade over :class:`repro.runtime.Runtime`: the pool picks
    the warm-up probe and the worker initializer, and the runtime owns
    pool construction.

    Parameters
    ----------
    spec:
        Pipeline recipe every worker warms up with.
    n_workers:
        Pool size (>= 1).
    mode:
        ``"thread"`` (default) or ``"process"``; a process pool that
        cannot spawn raises from :meth:`start`.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        n_workers: int = 2,
        mode: str = "thread",
    ) -> None:
        if int(n_workers) < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if mode not in (THREAD, PROCESS):
            raise ConfigurationError(
                f"mode must be 'thread' or 'process', got {mode!r}"
            )
        self.spec = spec
        self.n_workers = int(n_workers)
        self.mode = mode
        self._runtime: Optional[Runtime] = None

    def start(self) -> None:
        """Spawn the executor and warm every worker.

        The runtime probes every worker with one empty batch, so each
        worker's initializer (segmenter training or store load) runs
        here rather than on the first request.  In process mode this
        also surfaces spawn and initializer failures here, instead of
        mid-traffic.
        """
        if self._runtime is not None:
            return
        runtime = Runtime(
            kind=self.mode,
            n_workers=self.n_workers,
            initializer=_init_worker,
            initargs=(self.spec,),
            probe=(
                execute_batch,
                ((self.spec, (16_000.0, False), []),),
            ),
        )
        runtime.start()
        self._runtime = runtime

    def submit(
        self,
        key: Hashable,
        requests: List[VerificationRequest],
        ages_s: List[float],
    ):
        """Dispatch one micro-batch; returns the executor future."""
        if self._runtime is None:
            raise ConfigurationError("pool not started; call start()")
        items = list(zip(requests, ages_s))
        return self._runtime.submit(execute_batch, (self.spec, key, items))

    def shutdown(self, wait: bool = True) -> None:
        """Stop the executor (idempotent)."""
        if self._runtime is not None:
            self._runtime.shutdown(wait=wait)
            self._runtime = None
