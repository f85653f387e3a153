"""Cross-domain sensing throughput: convert_batch vs convert (not a
paper figure).

The sensing stage replays each recording through the wearable's
speaker → strap → accelerometer chain (§IV-A) twice per request — once
for the VA microphone recording, once for the wearable one — and used
to dominate the serving hot path.  `CrossDomainSensor.convert_batch`
pushes a whole micro-batch through the chain as dense ``(batch, time)``
arrays (grouped by padded recording length, which depends on each
recording's own length alone, so results stay bitwise identical to the
sequential path; see DESIGN.md § "Sensing hot path").

Measures sequential vs batched conversions at batch sizes 1/4/8/16,
for both the still-wearer and wearer-moving (body-motion) paths, and
verifies bitwise parity on every measured batch.  Acceptance bar:
batched must reach ``SPEEDUP_TARGET`` x sequential at batch 8.

Those recordings are 16 000 + 800·k samples long, all lengths numpy's
FFT handles fast.  Real segment material is not: a second table replays
``RAGGED_LENGTHS`` (each with a prime factor in the thousands) through
the unpadded channel and through ``convert``, which pads each recording
to a fast FFT length first.  That table is reported, not gated.

Runs two ways:

* under pytest-benchmark (``make bench``), emitting
  ``benchmarks/results/sense_throughput.txt``;
* as a plain script — ``python benchmarks/bench_sense_throughput.py
  [--quick]`` — for the ``sense-smoke`` CI job, which gates bitwise
  parity plus batched >= sequential at batch 8 (exit status 1
  otherwise).
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
from scipy.fft import next_fast_len

from benchmarks.conftest import emit, run_once
from repro.eval.reporting import format_table
from repro.sensing.cross_domain import CrossDomainSensor

AUDIO_RATE = 16_000.0
BATCH_SIZES = (1, 4, 8, 16)
SPEEDUP_TARGET = 1.1  # batched vs sequential sensing at batch 8
#: Segment-material lengths from the serve pool (about 3 s of audio)
#: whose FFTs would fall back to Bluestein's algorithm unpadded.
RAGGED_LENGTHS = (40_726, 42_293, 45_311, 46_353, 48_397, 50_234)


def _audios(n, seed=9400):
    """Ragged one-second-ish recordings spanning four length buckets."""
    generator = np.random.default_rng(seed)
    return [
        generator.normal(0.0, 0.1, 16_000 + 800 * (index % 4))
        for index in range(n)
    ]


def _timed(func, rounds):
    """Total seconds over ``rounds`` calls, with one untimed warmup."""
    func()
    total = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        total += time.perf_counter() - start
    return total


def _measure(sensor, batch, rounds, include_body_motion):
    audios = _audios(batch)
    seeds = list(range(batch))
    sequential = lambda: [  # noqa: E731 - tiny timed closure
        sensor.convert(
            audio,
            AUDIO_RATE,
            rng=seed,
            include_body_motion=include_body_motion,
        )
        for audio, seed in zip(audios, seeds)
    ]
    batched = lambda: sensor.convert_batch(  # noqa: E731
        audios,
        AUDIO_RATE,
        rngs=seeds,
        include_body_motion=include_body_motion,
    )
    # Parity gate: batched output must equal sequential bitwise.
    for single, together in zip(sequential(), batched()):
        np.testing.assert_array_equal(single, together)
    seq_total = _timed(sequential, rounds)
    bat_total = _timed(batched, rounds)
    return seq_total, bat_total


def run_sweep(batch_sizes=BATCH_SIZES, rounds=5):
    sensor = CrossDomainSensor()
    tables = {}
    speedups = {}
    for label, moving in (("still", False), ("wearer-moving", True)):
        rows = []
        for batch in batch_sizes:
            seq_total, bat_total = _measure(
                sensor, batch, rounds, include_body_motion=moving
            )
            n = batch * rounds
            speedup = seq_total / bat_total
            if label == "still":
                speedups[batch] = speedup
            rows.append(
                (
                    batch,
                    f"{n / seq_total:.1f}",
                    f"{n / bat_total:.1f}",
                    f"{speedup:.2f}x",
                )
            )
        tables[label] = rows
    return tables, speedups


def _largest_prime_factor(n):
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


def run_ragged(lengths=RAGGED_LENGTHS, rounds=3):
    """Unpadded channel vs fast-length ``convert`` at ragged lengths."""
    sensor = CrossDomainSensor()
    generator = np.random.default_rng(9500)
    rows = []
    for seed, n in enumerate(lengths):
        audio = generator.normal(0.0, 0.1, n)
        unpadded = _timed(
            lambda: sensor.channel.apply(audio, AUDIO_RATE, rng=seed),
            rounds,
        )
        padded = _timed(
            lambda: sensor.convert(audio, AUDIO_RATE, rng=seed), rounds
        )
        rows.append(
            (
                n,
                _largest_prime_factor(n),
                next_fast_len(n),
                f"{rounds / unpadded:.1f}",
                f"{rounds / padded:.1f}",
                f"{unpadded / padded:.2f}x",
            )
        )
    return rows


def render_ragged(rows, rounds):
    return format_table(
        [
            "length",
            "largest prime",
            "padded to",
            "unpadded conv/s",
            "convert conv/s",
            "speedup",
        ],
        rows,
        title=(
            "cross-domain sensing at ragged lengths — unpadded channel "
            f"vs fast-length convert, {rounds} round(s)"
        ),
    )


def render(tables, rounds):
    blocks = []
    for label, rows in tables.items():
        blocks.append(
            format_table(
                ["batch", "seq conv/s", "batched conv/s", "speedup"],
                rows,
                title=(
                    f"cross-domain sensing ({label}) — "
                    f"convert_batch vs convert loop, {rounds} round(s)"
                ),
            )
        )
    return "\n\n".join(blocks)


def test_sense_throughput(benchmark):
    rounds = 5
    tables, speedups = run_once(
        benchmark, lambda: run_sweep(rounds=rounds)
    )
    ragged = run_ragged()
    emit(
        "sense_throughput",
        render(tables, rounds) + "\n\n" + render_ragged(ragged, 3),
    )
    assert speedups[8] >= SPEEDUP_TARGET, (
        f"batched sensing at batch 8 is only {speedups[8]:.2f}x "
        f"sequential (target {SPEEDUP_TARGET}x)"
    )


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="sequential vs batched cross-domain sensing"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI smoke: batch sizes (1, 8), 2 rounds, and only gate "
            "parity plus batched >= sequential at batch 8"
        ),
    )
    args = parser.parse_args(argv)

    batch_sizes = (1, 8) if args.quick else BATCH_SIZES
    rounds = 2 if args.quick else 5
    tables, speedups = run_sweep(batch_sizes=batch_sizes, rounds=rounds)
    print(render(tables, rounds))
    if not args.quick:
        print()
        print(render_ragged(run_ragged(), 3))

    target = 1.0 if args.quick else SPEEDUP_TARGET
    if speedups[8] < target:
        print(
            f"FAIL: batched sensing at batch 8 is "
            f"{speedups[8]:.2f}x sequential (target >= {target}x)"
        )
        return 1
    print(
        f"OK: batched sensing at batch 8 is {speedups[8]:.2f}x "
        f"sequential (target >= {target}x); bitwise parity held"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
