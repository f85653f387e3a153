"""Batched vs sequential inference throughput (not a paper figure).

Measures the vectorized micro-batch fast path end-to-end: the masked
BLSTM segmentation stage (`PhonemeSegmenter.segments_batch` vs a
sequential `segments` loop), the cross-domain sensing stage
(`CrossDomainSensor.convert_batch` vs a sequential `convert` loop),
and the full pipeline (`DefensePipeline.analyze_batch` vs an
`analyze_timed` loop, i.e. batches of one) at batch sizes 1/4/8/16.
The acceptance bar: batched segmentation at
batch 8 must be at least 2x the sequential throughput (the vectorized
forward amortizes Python-level recurrence overhead across the batch).

Runs two ways:

* under pytest-benchmark (``make bench``), emitting
  ``benchmarks/results/batched_inference.txt``;
* as a plain script — ``python benchmarks/bench_batched_inference.py
  [--quick]`` — for the ``perf-smoke`` CI job, which only gates that
  batched beats sequential at batch 8 (exit status 1 otherwise).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode: make repo imports work
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_ROOT))
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np

from benchmarks.conftest import emit, run_once
from repro.core.pipeline import BatchAnalysisItem, DefensePipeline
from repro.core.segmentation import default_segmenter
from repro.eval.reporting import format_table
from repro.sensing.cross_domain import CrossDomainSensor

AUDIO_RATE = 16_000.0
BATCH_SIZES = (1, 4, 8, 16)
SPEEDUP_TARGET = 2.0  # batched vs sequential segmentation at batch 8


def _segmenter():
    # Tiny deterministic recipe (memoized): enough to exercise the real
    # BLSTM forward without minutes of training.
    return default_segmenter(
        seed=9300, n_speakers=2, n_per_phoneme=3, epochs=3
    )


def _recordings(n, seed=9301):
    """Ragged-length noise pairs; noise fully exercises the model."""
    generator = np.random.default_rng(seed)
    pairs = []
    for index in range(n):
        n_samples = 6_000 + 500 * (index % 5)
        va = generator.normal(0.0, 0.1, n_samples)
        wearable = 0.8 * va + generator.normal(0.0, 0.02, n_samples)
        pairs.append((va, wearable))
    return pairs


def _timed(func, rounds):
    """(total_s, per-round seconds) with one untimed warmup call."""
    func()
    laps = []
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        laps.append(time.perf_counter() - start)
    return sum(laps), laps


def measure_segmentation(segmenter, batch_sizes, rounds):
    """Rows of (batch, seq req/s, batched req/s, speedup)."""
    rows = []
    speedups = {}
    for batch in batch_sizes:
        audios = [va for va, _ in _recordings(batch)]
        seq_total, _ = _timed(
            lambda: [segmenter.segments(audio) for audio in audios],
            rounds,
        )
        bat_total, _ = _timed(
            lambda: segmenter.segments_batch(audios), rounds
        )
        n = batch * rounds
        speedup = seq_total / bat_total
        speedups[batch] = speedup
        rows.append(
            (
                batch,
                f"{n / seq_total:.1f}",
                f"{n / bat_total:.1f}",
                f"{speedup:.2f}x",
            )
        )
    return rows, speedups


def measure_sensing(batch_sizes, rounds):
    """Rows of (batch, seq req/s, batched req/s, speedup) for the
    cross-domain sensing stage (`convert_batch` vs a `convert` loop,
    same per-item rng streams — results are bitwise identical)."""
    sensor = CrossDomainSensor()
    rows = []
    for batch in batch_sizes:
        audios = [va for va, _ in _recordings(batch)]
        seeds = list(range(batch))
        seq_total, _ = _timed(
            lambda: [
                sensor.convert(audio, AUDIO_RATE, rng=seed)
                for audio, seed in zip(audios, seeds)
            ],
            rounds,
        )
        bat_total, _ = _timed(
            lambda: sensor.convert_batch(
                audios, AUDIO_RATE, rngs=seeds
            ),
            rounds,
        )
        n = batch * rounds
        rows.append(
            (
                batch,
                f"{n / seq_total:.1f}",
                f"{n / bat_total:.1f}",
                f"{seq_total / bat_total:.2f}x",
            )
        )
    return rows


def measure_end_to_end(segmenter, batch_sizes, rounds):
    """Rows of (batch, seq/batched req/s, seq/batched p95 ms)."""
    pipeline = DefensePipeline(segmenter=segmenter)
    rows = []
    for batch in batch_sizes:
        pairs = _recordings(batch)
        items = [
            BatchAnalysisItem(
                va_audio=va, wearable_audio=wearable, rng=index
            )
            for index, (va, wearable) in enumerate(pairs)
        ]

        def sequential():
            latencies = []
            for index, (va, wearable) in enumerate(pairs):
                start = time.perf_counter()
                pipeline.analyze_timed(va, wearable, rng=index)
                latencies.append(time.perf_counter() - start)
            return latencies

        seq_latencies = []
        sequential()  # warmup
        seq_total = 0.0
        for _ in range(rounds):
            start = time.perf_counter()
            seq_latencies.extend(sequential())
            seq_total += time.perf_counter() - start

        bat_total, laps = _timed(
            lambda: pipeline.analyze_batch(items), rounds
        )
        # Batch members finish together: per-request latency is the
        # whole batch wall clock.
        bat_latencies = [lap for lap in laps for _ in range(batch)]
        n = batch * rounds
        rows.append(
            (
                batch,
                f"{n / seq_total:.1f}",
                f"{n / bat_total:.1f}",
                f"{np.percentile(seq_latencies, 95) * 1e3:.1f}",
                f"{np.percentile(bat_latencies, 95) * 1e3:.1f}",
            )
        )
    return rows


def run_sweep(batch_sizes=BATCH_SIZES, rounds=5):
    segmenter = _segmenter()
    seg_rows, speedups = measure_segmentation(
        segmenter, batch_sizes, rounds
    )
    sense_rows = measure_sensing(batch_sizes, rounds)
    e2e_rows = measure_end_to_end(segmenter, batch_sizes, rounds)
    return seg_rows, speedups, sense_rows, e2e_rows


def render(seg_rows, sense_rows, e2e_rows, rounds):
    body = format_table(
        ["batch", "seq req/s", "batched req/s", "speedup"],
        seg_rows,
        title=(
            f"segmentation stage — one masked BLSTM forward per batch, "
            f"{rounds} round(s)"
        ),
    )
    body += "\n\n"
    body += format_table(
        ["batch", "seq req/s", "batched req/s", "speedup"],
        sense_rows,
        title=(
            "sensing stage — vectorized replay chain "
            "(convert_batch vs convert loop)"
        ),
    )
    body += "\n\n"
    body += format_table(
        [
            "batch",
            "seq req/s",
            "batched req/s",
            "seq p95 ms",
            "batched p95 ms",
        ],
        e2e_rows,
        title="end-to-end pipeline — analyze_batch vs sequential loop",
    )
    return body


def test_batched_inference(benchmark):
    rounds = 5
    seg_rows, speedups, sense_rows, e2e_rows = run_once(
        benchmark, lambda: run_sweep(rounds=rounds)
    )
    emit(
        "batched_inference",
        render(seg_rows, sense_rows, e2e_rows, rounds),
    )
    assert speedups[8] >= SPEEDUP_TARGET, (
        f"batched segmentation at batch 8 is only {speedups[8]:.2f}x "
        f"sequential (target {SPEEDUP_TARGET}x)"
    )


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="sequential vs batched inference throughput"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI smoke: batch sizes (1, 8), 2 rounds, and only gate "
            "that batched beats sequential at batch 8"
        ),
    )
    args = parser.parse_args(argv)

    batch_sizes = (1, 8) if args.quick else BATCH_SIZES
    rounds = 2 if args.quick else 5
    seg_rows, speedups, sense_rows, e2e_rows = run_sweep(
        batch_sizes=batch_sizes, rounds=rounds
    )
    print(render(seg_rows, sense_rows, e2e_rows, rounds))

    target = 1.0 if args.quick else SPEEDUP_TARGET
    if speedups[8] < target:
        print(
            f"FAIL: batched segmentation at batch 8 is "
            f"{speedups[8]:.2f}x sequential (target >= {target}x)"
        )
        return 1
    print(
        f"OK: batched segmentation at batch 8 is {speedups[8]:.2f}x "
        f"sequential (target >= {target}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
