"""The benchmark's workloads and the measurement loop they share.

Each run alternates short measurement windows with readings of the
reference kernel (:mod:`calibrate`), taken while the program is idle.
A window's compute-driven times are scaled by the speed factor of the
two readings that bracket it.  In a traced run every other window runs
with the span wrappers installed, so the same run yields the traced
per-layer figures and the untraced throughput they are compared with.

``serve-single`` / ``serve-batch8``
    One ``VerificationService`` (thread mode, one worker, batches of up
    to 8, default ``max_wait_s``, fast BLSTM recipe).  One generator
    thread — the caller's — keeps 1 or 8 requests outstanding through
    ``service.submit`` futures: a closed loop.
``campaign``
    ``CampaignRunner(n_workers=1)`` over ``build_campaign_units`` of
    both packs, the way ``repro evaluate --segmenter fast --scenario X``
    builds them, one unit per ``run_units`` call.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from calibrate import (
    ReferenceKernel,
    interval_union_s,
    normalise_span,
    speed_factor,
)
from pool import PACKS, PoolItem, build_pool, pool_index, request_seed
from spans import Span, Tracer, instrument

#: Length of one measurement window (seconds), well under the host's
#: 10-30 s drift period.
WINDOW_S = 2.0
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Legit and attack pairs per pack in the serve pool.
PAIRS_PER_CLASS = 8
#: Campaign units per pack whose scores feed the quality metrics.
QUALITY_UNITS_PER_PACK = 4
#: Fast BLSTM recipe, as ``--segmenter fast``.  Set-up ``k`` trains it
#: with segmenter seed ``k``, so every set-up trains afresh and the
#: system measured (the last one) is the same whatever the run's seed.
FAST_RECIPE = dict(n_speakers=2, n_per_phoneme=3, epochs=3)


@dataclass
class Window:
    """One measurement window and the records it produced."""

    factor: float
    wall_s: float
    hold_s: float
    traced: bool
    records: list
    spans: List[Span] = field(default_factory=list)

    @property
    def normalised_s(self) -> float:
        return normalise_span(self.wall_s, self.hold_s, self.factor)

    @property
    def items(self) -> int:
        """Requests served or samples scored in the window."""
        return sum(record.n_items for record in self.records)


@dataclass
class Setup:
    """Timed set-ups of one run."""

    raw_s: List[float] = field(default_factory=list)
    normalised_s: List[float] = field(default_factory=list)
    warmup_s: List[float] = field(default_factory=list)


@dataclass
class RunResult:
    """Everything a workload hands to the reporting code."""

    workload: str
    setup: Setup
    windows: List[Window]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    quality: Dict[str, Tuple[List[float], List[float]]]
    context: Dict[str, object]
    latencies: List[Tuple[float, float]]
    extra: Dict[str, object] = field(default_factory=dict)

    def untraced(self) -> List[Window]:
        return [window for window in self.windows if not window.traced]

    def traced(self) -> List[Window]:
        return [window for window in self.windows if window.traced]


def time_setups(
    kernel: ReferenceKernel,
    build: Callable[[int], object],
    teardown: Callable[[object], None],
    warmup_of: Callable[[object], float],
) -> Tuple[Setup, object]:
    """Build the system ``SETUP_REPS`` times; keep the last one running."""
    setup = Setup()
    system = None
    for rep in range(SETUP_REPS):
        if system is not None:
            teardown(system)
        before = kernel.seconds()
        start = time.perf_counter()
        system = build(rep)
        raw = time.perf_counter() - start
        factor = speed_factor(before, kernel.seconds())
        setup.raw_s.append(raw)
        setup.normalised_s.append(raw * factor)
        setup.warmup_s.append(warmup_of(system) * factor)
    return setup, system


def measure(
    kernel: ReferenceKernel,
    seconds: float,
    run_window: Callable[[float], Tuple[list, float]],
    enough: Callable[[int], bool],
    tracer: Optional[Tracer],
) -> List[Window]:
    """Alternate windows and kernel readings for ``seconds``.

    ``run_window(deadline)`` works until ``deadline`` and returns its
    records and the timer-driven wait they contain.  The loop goes on
    past ``seconds`` only while ``enough(records so far)`` is false, or
    while a traced run has no traced window yet.  With a ``tracer``,
    odd windows run instrumented.
    """
    windows: List[Window] = []
    reading = kernel.seconds()
    end = time.perf_counter() + seconds
    count = 0
    while (
        time.perf_counter() < end
        or not enough(count)
        or (tracer is not None and len(windows) < 2)
    ):
        traced = tracer is not None and len(windows) % 2 == 1
        scope = instrument(tracer) if traced else contextlib.nullcontext()
        with scope:
            start = time.perf_counter()
            records, hold_s = run_window(start + WINDOW_S)
            wall = time.perf_counter() - start
        spans = tracer.drain() if traced else []
        after = kernel.seconds()
        windows.append(
            Window(
                factor=speed_factor(reading, after),
                wall_s=wall,
                hold_s=hold_s,
                traced=traced,
                records=records,
                spans=spans,
            )
        )
        reading = after
        count += len(records)
    return windows


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------


@dataclass
class ServeRecord:
    """One request as the generator saw it."""

    index: int
    item: PoolItem
    submitted: float
    done: float = 0.0
    response: object = None
    n_items = 1

    @property
    def latency_s(self) -> float:
        return self.done - self.submitted


def request_stream(
    pool: List[PoolItem], seed: int, stream: str = "request"
) -> Callable[[], Tuple[int, PoolItem, object]]:
    """Callable returning ``(index, item, request)`` of ``stream`` in turn."""
    from repro.serve import VerificationRequest

    counter = itertools.count()

    def next_request():
        index = next(counter)
        item = pool[pool_index(seed, index, len(pool))]
        return index, item, VerificationRequest(
            va_audio=item.va,
            wearable_audio=item.wearable,
            seed=request_seed(seed, index, stream),
            request_id=f"{stream}-{index}",
        )

    return next_request


def closed_loop(
    service,
    next_request: Callable[[], Tuple[int, PoolItem, object]],
    outstanding: int,
    deadline: float,
) -> List[ServeRecord]:
    """Keep ``outstanding`` requests in flight until ``deadline``, drain."""
    pending: Dict[object, ServeRecord] = {}
    records: List[ServeRecord] = []
    stopping = False
    while True:
        while not stopping and len(pending) < outstanding:
            index, item, request = next_request()
            record = ServeRecord(index, item, time.perf_counter())
            pending[service.submit(request)] = record
        if not pending:
            return records
        done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
        now = time.perf_counter()
        for future in done:
            record = pending.pop(future)
            record.done = now
            record.response = future.result()
            records.append(record)
        stopping = stopping or now >= deadline


def hold_of(records: List[ServeRecord]) -> float:
    """Window time during which requests sat in the scheduler's hold."""
    return interval_union_s(
        [
            (record.submitted, record.submitted + record.response.queue_wait_s)
            for record in records
        ]
    )


def run_serve(
    workload: str,
    seed: int,
    seconds: float,
    outstanding: int,
    tracer: Optional[Tracer],
) -> RunResult:
    from repro.serve import (
        PipelineSpec,
        RequestStatus,
        ServiceConfig,
        VerificationService,
    )

    pool = build_pool(seed, PAIRS_PER_CLASS)
    kernel = ReferenceKernel()
    kernel.seconds()
    config = ServiceConfig(
        n_workers=1, worker_mode="thread", max_batch_size=8
    )
    specs: List[PipelineSpec] = []

    def build(rep: int):
        # Ready means the first verdict is back: a thread-mode pool runs
        # its initializer (segmenter training) on the first submission.
        spec = PipelineSpec(segmenter_seed=rep, **FAST_RECIPE)
        specs.append(spec)
        service = VerificationService(spec, config)
        service.start()
        service.verify(request_stream(pool, seed, "setup")()[2])
        return service

    setup, service = time_setups(
        kernel, build, lambda svc: svc.stop(), lambda svc: svc.warmup_s
    )
    spec = specs[-1]
    try:
        next_warmup = request_stream(pool, seed, "warmup")
        for _ in range(2):
            closed_loop(service, next_warmup, outstanding, 0.0)
        next_request = request_stream(pool, seed)
        quality_count = 2 * len(pool)

        def run_window(deadline):
            records = closed_loop(service, next_request, outstanding, deadline)
            return records, hold_of(records)

        windows = measure(
            kernel,
            seconds,
            run_window,
            lambda count: count >= quality_count,
            tracer,
        )
        service_metrics = service.metrics()
    finally:
        service.stop()

    records = sorted(
        (record for window in windows for record in window.records),
        key=lambda record: record.index,
    )
    unserved = {
        record.index
        for record in records
        if record.response.status is not RequestStatus.SERVED
    }
    mismatched = check_served(spec, records, seed, quality_count)
    quality: Dict[str, Tuple[List[float], List[float]]] = {
        pack: ([], []) for pack in PACKS
    }
    for record in records[:quality_count]:
        if record.response.verdict is None:
            continue
        legit, attacks = quality[record.item.pack]
        (attacks if record.item.is_attack else legit).append(
            record.response.verdict.score
        )
    latencies = [
        (
            normalise_span(
                record.latency_s, record.response.queue_wait_s, window.factor
            ),
            record.latency_s,
        )
        for window in windows
        if not window.traced
        for record in window.records
    ]
    return RunResult(
        workload=workload,
        setup=setup,
        windows=windows,
        attempted=len(records),
        failed=len(unserved | set(mismatched)),
        checks={
            "all served": not unserved,
            "verdicts match direct verify": not mismatched,
        },
        quality=quality,
        context={
            "loop": f"closed, {outstanding} outstanding, 1 generator thread",
            "pool": (
                f"{len(pool)} pairs: {PAIRS_PER_CLASS} legit + "
                f"{PAIRS_PER_CLASS} replay per pack ({', '.join(PACKS)})"
            ),
            "checked": f"{CHECK_SAMPLE} seeded requests of the first "
            f"{quality_count}",
        },
        latencies=latencies,
        extra={"service_metrics": service_metrics},
    )


#: Served requests re-run through a direct ``verify`` per run.
CHECK_SAMPLE = 8


def check_served(
    spec, records: List[ServeRecord], seed: int, first: int
) -> List[int]:
    """Indices whose served score is not bitwise the direct score.

    Checks a fixed seeded sample of the first ``first`` request indices;
    a request without a verdict counts as a mismatch.
    """
    served = {record.index: record for record in records}
    picks = np.random.default_rng(seed).choice(
        first, size=min(CHECK_SAMPLE, first), replace=False
    )
    pipeline = spec.build_pipeline(16_000.0, False)
    mismatched = []
    for index in sorted(int(pick) for pick in picks):
        record = served[index]
        expected = pipeline.verify(
            record.item.va,
            record.item.wearable,
            rng=request_seed(seed, index),
        ).score
        if not same_score(record.response, expected):
            mismatched.append(index)
    return mismatched


def same_score(response, expected: float) -> bool:
    """Whether a response carries a verdict bitwise equal to ``expected``."""
    verdict = getattr(response, "verdict", None)
    if verdict is None:
        return False
    return (
        np.float64(verdict.score).tobytes()
        == np.float64(expected).tobytes()
    )


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------


@dataclass
class UnitRecord:
    """One campaign unit scored inside a window."""

    index: int
    pack: str
    unit: object
    scores: object
    stats: object
    sample_s: List[float]

    @property
    def n_items(self) -> int:
        return self.unit.n_samples


def run_campaign(
    workload: str, seed: int, seconds: float, tracer: Optional[Tracer]
) -> RunResult:
    from repro.attacks.base import AttackKind
    from repro.core.segmentation import default_segmenter
    from repro.eval.campaign import (
        FULL_SYSTEM,
        CampaignConfig,
        DetectorBank,
        build_campaign_units,
        score_campaign_unit,
    )
    from repro.eval.participants import ParticipantPool
    from repro.eval.runner import CampaignRunner
    from repro.phonemes.corpus import SyntheticCorpus
    from repro.scenarios import get_scenario
    from repro.utils.rng import derive_seed

    participants = ParticipantPool(n_participants=8, seed=seed)
    per_pack = {}
    for pack in PACKS:
        scenario = get_scenario(pack)
        config = CampaignConfig(
            n_commands_per_participant=2,
            n_attacks_per_kind=2,
            seed=seed,
            scenario=pack,
            attack_spl_db=scenario.attack_spl_db,
        )
        per_pack[pack] = build_campaign_units(
            scenario.rooms(), participants, [AttackKind.REPLAY], config
        )
    order = [
        (pack, per_pack[pack][position])
        for position in range(len(per_pack[PACKS[0]]))
        for pack in PACKS
    ]
    kernel = ReferenceKernel()
    kernel.seconds()
    build_s: List[float] = []

    def build(rep: int):
        start = time.perf_counter()
        segmenter = default_segmenter(seed=rep, **FAST_RECIPE)
        build_s.append(time.perf_counter() - start)
        banks = {
            pack: DetectorBank(
                segmenter=segmenter,
                pipeline=get_scenario(pack).build_pipeline(
                    segmenter=segmenter
                ),
            )
            for pack in PACKS
        }
        corpus = SyntheticCorpus(speakers=participants.speakers, seed=seed)
        return banks, corpus

    setup, (banks, corpus) = time_setups(
        kernel, build, lambda system: None, lambda system: build_s[-1]
    )
    # Per-sample latency: each sample ends when the bank has scored it.
    marks: List[float] = []
    for bank in banks.values():
        bank.score_all = _marking(bank.score_all, marks)
    runner = CampaignRunner(n_workers=1)
    warm_config = CampaignConfig(
        n_commands_per_participant=1,
        n_attacks_per_kind=1,
        seed=derive_seed(seed, "warmup"),
        scenario=PACKS[0],
    )
    warm_unit = build_campaign_units(
        get_scenario(PACKS[0]).rooms()[:1],
        participants,
        [AttackKind.REPLAY],
        warm_config,
    )[0]
    warm_corpus = SyntheticCorpus(
        speakers=participants.speakers, seed=derive_seed(seed, "warmup")
    )
    runner.run_units([warm_unit], banks[PACKS[0]], warm_corpus)
    counter = itertools.count()

    corpora = {0: corpus}

    def run_window(deadline):
        records = []
        while not records or time.perf_counter() < deadline:
            index = next(counter)
            rounds, position = divmod(index, len(order))
            pack, unit = order[position]
            # A repeated pass gets a fresh corpus, so its utterances are
            # generated again rather than served from the first pass's
            # cache: every pass does the same work.
            if rounds not in corpora:
                corpora[rounds] = SyntheticCorpus(
                    speakers=participants.speakers, seed=seed
                )
            if tracer is not None:
                tracer.set_trace_id(f"{pack}/{unit.label}")
            marks[:] = [time.perf_counter()]
            (scores,), stats = runner.run_units(
                [unit], banks[pack], corpora[rounds]
            )
            records.append(
                UnitRecord(
                    index, pack, unit, scores, stats.units[0],
                    list(np.diff(marks)),
                )
            )
        return records, 0.0

    quality_units = QUALITY_UNITS_PER_PACK * len(PACKS)
    windows = measure(
        kernel,
        seconds,
        run_window,
        lambda count: count >= quality_units,
        tracer,
    )
    records = sorted(
        (record for window in windows for record in window.records),
        key=lambda record: record.index,
    )
    bad_units = {
        record.index
        for record in records
        if not scores_complete(record.scores, record.unit.n_samples)
    }
    pick = int(np.random.default_rng(seed).integers(quality_units))
    recheck = records[pick]
    direct = score_campaign_unit(recheck.unit, banks[recheck.pack], corpus)
    matches = same_scores(direct, recheck.scores)
    checks = {
        "every sample scored by every detector": not bad_units,
        "runner scores match direct unit scoring": matches,
    }
    if not matches:
        bad_units.add(recheck.index)
    quality = {pack: ([], []) for pack in PACKS}
    for record in records[:quality_units]:
        legit, attacks = quality[record.pack]
        legit.extend(record.scores.legit[FULL_SYSTEM])
        attacks.extend(record.scores.attacks[AttackKind.REPLAY][FULL_SYSTEM])
    samples_failed = sum(
        record.unit.n_samples
        for record in records
        if record.index in bad_units
    )
    latencies = [
        (sample_s * window.factor, sample_s)
        for window in windows
        if not window.traced
        for record in window.records
        for sample_s in record.sample_s
    ]
    return RunResult(
        workload=workload,
        setup=setup,
        windows=windows,
        attempted=sum(record.unit.n_samples for record in records),
        failed=samples_failed,
        checks=checks,
        quality=quality,
        context={
            "loop": "inline campaign, one unit per run_units call",
            "pool": (
                f"{len(order)} units ({len(per_pack[PACKS[0]])} per pack), "
                "2 legit + 2 replay samples each, oracle segmentation"
            ),
            "checked": f"unit {pick} re-scored directly",
        },
        latencies=latencies,
        extra={"corpora": list(corpora.values())},
    )


def _marking(score_all, marks: List[float]):
    """``score_all`` that appends its completion time to ``marks``."""

    def marked(*args, **kwargs):
        scores = score_all(*args, **kwargs)
        marks.append(time.perf_counter())
        return scores

    return marked


def scores_complete(scores, n_samples: int) -> bool:
    """Every detector scored every sample with a finite value."""
    from repro.attacks.base import AttackKind

    legit = scores.legit
    attacks = scores.attacks.get(AttackKind.REPLAY, {})
    for detector, values in legit.items():
        both = list(values) + list(attacks.get(detector, []))
        if len(both) != n_samples or not np.all(np.isfinite(both)):
            return False
    return bool(legit)


def same_scores(left, right) -> bool:
    """Bitwise equality of two campaign score sets."""

    def flat(scores):
        rows = sorted(scores.legit.items())
        for kind, buckets in sorted(
            scores.attacks.items(), key=lambda pair: pair[0].value
        ):
            rows += [
                ((kind.value, name), values)
                for name, values in sorted(buckets.items())
            ]
        return [
            (key, np.asarray(values, dtype=np.float64).tobytes())
            for key, values in rows
        ]

    return flat(left) == flat(right)
