"""Serving latency/throughput: percentiles vs offered load.

Not a paper figure — this measures the online verification service
(`repro.serve`) itself.  A closed-loop load generator drives the warm
worker pool at increasing client concurrency; for each level the table
reports throughput and client-side p50/p95/p99 latency, plus the
server-side per-stage breakdown at the highest level.  The acceptance bar is accounting, not speed: every issued request must
reach exactly one terminal state and none may fail.

Worker count defaults to min(4, cores); override with
``REPRO_BENCH_SERVE_WORKERS``.  Concurrency levels default to
(1, 4, 8); override with ``REPRO_BENCH_SERVE_CONCURRENCY``
(comma-separated).
"""

from __future__ import annotations

import os

from benchmarks.conftest import emit, run_once
from repro.eval.reporting import format_service_metrics, format_table
from repro.serve import (
    LoadgenConfig,
    PipelineSpec,
    ServiceConfig,
    VerificationService,
    build_recording_pool,
    run_loadgen,
)

N_REQUESTS = 60


def _worker_count():
    spec = os.environ.get("REPRO_BENCH_SERVE_WORKERS", "")
    if spec:
        return int(spec)
    return min(4, os.cpu_count() or 1)


def _concurrency_levels():
    spec = os.environ.get("REPRO_BENCH_SERVE_CONCURRENCY", "")
    if spec:
        return [int(token) for token in spec.split(",")]
    return [1, 4, 8]


def _sweep(levels, n_workers):
    spec = PipelineSpec(
        segmenter_seed=9200, n_speakers=2, n_per_phoneme=3, epochs=3
    )
    pool = build_recording_pool(seed=9201, pool_size=6)
    runs = {}
    for concurrency in levels:
        config = ServiceConfig(n_workers=n_workers, max_batch_size=8)
        with VerificationService(spec, config) as service:
            report = run_loadgen(
                service,
                LoadgenConfig(
                    n_requests=N_REQUESTS,
                    concurrency=concurrency,
                    seed=9202,
                ),
                pool=pool,
            )
            runs[concurrency] = (report, service.metrics())
    return runs


def test_serving_throughput(benchmark):
    levels = sorted(set(_concurrency_levels()))
    n_workers = _worker_count()
    runs = run_once(benchmark, lambda: _sweep(levels, n_workers))

    rows = []
    for concurrency in levels:
        report, metrics = runs[concurrency]
        # Accounting invariants: nothing dropped-but-reported-served.
        assert report.n_issued == N_REQUESTS
        assert report.n_served == N_REQUESTS
        assert report.n_failed == 0
        assert metrics.n_resolved == metrics.n_submitted == N_REQUESTS
        rows.append(
            (
                concurrency,
                report.n_served,
                f"{report.throughput_rps:.2f}",
                f"{report.latency_percentile(50) * 1e3:.1f}",
                f"{report.latency_percentile(95) * 1e3:.1f}",
                f"{report.latency_percentile(99) * 1e3:.1f}",
                f"{metrics.mean_batch_size:.2f}",
            )
        )
    body = format_table(
        [
            "clients",
            "served",
            "req/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "batch",
        ],
        rows,
        title=(
            f"serving throughput — {N_REQUESTS} requests/level, "
            f"{n_workers} warm worker(s), {os.cpu_count() or 1} core(s)"
        ),
    )
    body += "\n\nserver-side breakdown at the highest load:\n\n"
    body += format_service_metrics(runs[levels[-1]][1])
    emit("serving_throughput", body)
