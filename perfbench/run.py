"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-single --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (and writes the run's spans under ``.perfbench/``).
Context lines (raw wall-clock values, the host speed factor, the
request counts) come first; the last line of standard output is the
JSON result.  The exit code is non-zero when a correctness check fails,
and 2 when the program's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from statistics import median

#: BLAS/OpenMP pools are pinned to one thread before NumPy loads, so the
#: program and the reference kernel each use one core of a 2-core host.
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_PIN)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")

WORKLOADS = ("serve-single", "serve-batch8", "campaign")

#: End-to-end metrics: name -> unit.  Times are normalised to reference
#: speed (see calibrate.py).
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "auc.baseline-glass": "ratio",
    "one_minus_eer.baseline-glass": "ratio",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "serve.hold_ms": "ms",
    "serve.pool_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.batch_size": "count",
    "serve.unattributed_ms": "ms",
    "core.sync_ms": "ms",
    "core.segment_ms": "ms",
    "core.sense_ms": "ms",
    "core.features_ms": "ms",
    "core.detect_ms": "ms",
    "core.fallbacks": "per100",
    "segmenter.forward_ms": "ms",
    "segmenter.rows_per_forward": "count",
    "sensing.convert_ms": "ms",
    "sensing.audio_samples": "count",
    "channels.rows_per_bucket": "count",
    "channels.loudspeaker_ms": "ms",
    "channels.conduction_ms": "ms",
    "channels.accelerometer_ms": "ms",
    "channels.attack_loudspeaker_ms": "ms",
    "channels.barrier_ms": "ms",
    "channels.ultrasound_carrier_ms": "ms",
    "channels.solid_conduction_ms": "ms",
    "channels.demodulation_ms": "ms",
    "acoustics.recordings_ms": "ms",
    "attacks.generate_ms": "ms",
    "phonemes.utterance_ms": "ms",
    "phonemes.cache_hit_ratio": "ratio",
    "eval.full_system_ms": "ms",
    "eval.vibration_baseline_ms": "ms",
    "eval.audio_baseline_ms": "ms",
    "eval.unit_s": "s",
    "quality.auc.ultrasound-solid": "ratio",
    "quality.eer.baseline-glass": "ratio",
    "quality.eer.ultrasound-solid": "ratio",
    "setup.warmup_s": "s",
    "bench.speed_factor": "x",
    "bench.trace_overhead": "x",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, tracer):
    from workloads import run_campaign, run_serve

    if workload == "serve-single":
        return run_serve(workload, seed, seconds, 1, tracer)
    if workload == "serve-batch8":
        return run_serve(workload, seed, seconds, 8, tracer)
    return run_campaign(workload, seed, seconds, tracer)


def quality_figures(result):
    """AUC and EER per pack from the run's fixed quality set."""
    from repro.eval.metrics import evaluate_scores

    return {
        pack: evaluate_scores(legit, attacks)
        for pack, (legit, attacks) in result.quality.items()
    }


def throughput(windows):
    """Items per normalised second, and per raw second."""
    items = sum(window.items for window in windows)
    return (
        items / sum(window.normalised_s for window in windows),
        items / sum(window.wall_s for window in windows),
    )


def end_to_end(result, quality, lines):
    from calibrate import tail_percentile
    from repro.utils.stats import percentile

    normalised, raw = throughput(result.untraced())
    latencies = [pair[0] for pair in result.latencies]
    raw_latencies = [pair[1] for pair in result.latencies]
    factors = [window.factor for window in result.untraced()]
    tail = tail_percentile(len(latencies))
    per = "request" if result.workload != "campaign" else "sample"
    lines += [
        f"throughput_per_s {normalised:.3f} (raw {raw:.3f}; "
        f"speed factor median {median(factors):.3f}, "
        f"min {min(factors):.3f}, max {max(factors):.3f})",
        f"latency per {per}: n={len(latencies)}, p50 "
        f"{1e3 * percentile(latencies, 50):.2f} ms "
        f"(raw {1e3 * percentile(raw_latencies, 50):.2f})"
        + (
            f", p{tail:.0f} {1e3 * percentile(latencies, tail):.2f} ms "
            f"(raw {1e3 * percentile(raw_latencies, tail):.2f}) with "
            f"10+ beyond"
            if tail
            else ", too few for a tail percentile"
        ),
        f"setup_s {median(result.setup.normalised_s):.4f} "
        f"(raw {median(result.setup.raw_s):.4f}; "
        f"{len(result.setup.raw_s)} set-ups)",
    ]
    for pack, figures in quality.items():
        lines.append(
            f"quality {pack}: auc {figures.auc:.4f} eer {figures.eer:.4f} "
            f"({figures.n_legit} legit, {figures.n_attack} attack)"
        )
    glass = quality["baseline-glass"]
    return {
        "throughput_per_s": normalised,
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "setup_s": median(result.setup.normalised_s),
        "peak_rss_mb": peak_rss_mb(),
        "auc.baseline-glass": glass.auc,
        "one_minus_eer.baseline-glass": 1.0 - glass.eer,
    }


def per_layer(result, quality, lines):
    from layers import campaign_metrics, serve_metrics, span_metrics

    traced = result.traced()
    n_items = sum(window.items for window in traced)
    values = {name: 0.0 for name in PER_LAYER}
    values.update(span_metrics(traced, n_items))
    if result.workload == "campaign":
        values.update(campaign_metrics(traced, result.extra["corpora"]))
    else:
        values.update(
            serve_metrics(traced, result.extra["service_metrics"])
        )
    untraced_rate, _ = throughput(result.untraced())
    traced_rate, _ = throughput(traced)
    values.update(
        {
            "quality.auc.ultrasound-solid": quality["ultrasound-solid"].auc,
            "quality.eer.baseline-glass": quality["baseline-glass"].eer,
            "quality.eer.ultrasound-solid": quality["ultrasound-solid"].eer,
            "setup.warmup_s": median(result.setup.warmup_s),
            "bench.speed_factor": median(
                [window.factor for window in result.windows]
            ),
            "bench.trace_overhead": untraced_rate / traced_rate,
        }
    )
    lines.append(
        f"traced windows {len(traced)} ({n_items} items), untraced "
        f"{len(result.untraced())}"
    )
    return values


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(result, seed: int) -> str:
    from spans import write_spans as dump

    directory = os.path.join(ROOT, ".perfbench")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-{result.workload}-{seed}.jsonl")
    spans, factors = [], {}
    for window in result.traced():
        spans.extend(window.spans)
        factors.update({span.span_id: window.factor for span in window.spans})
    dump(path, spans, factors)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(
            f"error: program sources not found under {SOURCES}; run from "
            "the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SOURCES)
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    result = run_workload(args.workload, args.seed, args.seconds, tracer)
    quality = quality_figures(result)
    pin = " ".join(f"{key}={value}" for key, value in BLAS_PIN.items())
    lines = [
        f"workload {result.workload} seed {args.seed} cores "
        f"{os.cpu_count()} blas pin {pin}",
        *(f"{key}: {value}" for key, value in result.context.items()),
        f"windows {len(result.windows)}, attempted {result.attempted}, "
        f"failed {result.failed}",
    ]
    if args.trace:
        values = per_layer(result, quality, lines)
        lines.append(f"spans written to {write_spans(result, args.seed)}")
        units = PER_LAYER
    else:
        values = end_to_end(result, quality, lines)
        units = END_TO_END
    correct = result.failed == 0 and all(result.checks.values())
    lines += [
        f"check {name}: {'ok' if ok else 'FAILED'}"
        for name, ok in result.checks.items()
    ]
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
