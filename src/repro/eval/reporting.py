"""Plain-text reporting helpers for benchmarks and examples.

Benchmarks print the same rows/series the paper's tables and figures
report; these helpers format them consistently without any plotting
dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width ASCII table."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(
        " | ".join(
            header.ljust(width) for header, width in zip(headers, widths)
        )
    )
    lines.append(separator)
    for row in rendered_rows:
        lines.append(
            " | ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            )
        )
    return "\n".join(lines)


def format_series(
    x_label: str,
    y_label: str,
    x_values: Sequence[object],
    y_values: Sequence[float],
    title: str = "",
    y_format: str = "{:.3f}",
) -> str:
    """Render an (x, y) series as the rows behind a figure panel."""
    rows = [
        (x, y_format.format(y)) for x, y in zip(x_values, y_values)
    ]
    return format_table([x_label, y_label], rows, title=title)


def format_roc_summary(
    title: str,
    metrics_by_detector: Mapping[str, object],
    paper_auc: Mapping[str, float] = None,
    paper_eer: Mapping[str, float] = None,
) -> str:
    """Render the AUC/EER comparison block of a Fig. 9/10 panel."""
    headers = ["detector", "AUC", "EER"]
    if paper_auc:
        headers += ["paper AUC", "paper EER"]
    rows = []
    for detector, metrics in metrics_by_detector.items():
        row = [
            detector,
            f"{metrics.auc:.3f}",
            f"{metrics.eer * 100:.1f}%",
        ]
        if paper_auc:
            row += [
                f"{paper_auc.get(detector, float('nan')):.3f}",
                f"{paper_eer.get(detector, float('nan')) * 100:.1f}%",
            ]
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_runner_stats(stats, max_units: int = 12) -> str:
    """Render a :class:`repro.eval.runner.CampaignStats` block.

    Shows the end-to-end wall clock, throughput, and realized speedup
    (summed per-unit time over outer wall time), followed by the
    slowest per-unit rows (all rows when there are at most
    ``max_units``).
    """
    lines = [
        (
            f"campaign: {stats.n_units} units, {stats.n_samples} samples "
            f"in {stats.wall_s:.2f}s "
            f"({stats.samples_per_s:.2f} samples/s, "
            f"{stats.n_workers} worker(s), {stats.mode})"
        )
    ]
    if stats.units and stats.wall_s > 0:
        lines.append(
            f"unit work {stats.unit_wall_s:.2f}s -> speedup "
            f"{stats.unit_wall_s / stats.wall_s:.2f}x"
        )
    stage_totals = getattr(stats, "stage_totals", None) or {}
    if stage_totals:
        from repro.core.pipeline import PIPELINE_STAGES

        ordered = [
            stage for stage in PIPELINE_STAGES if stage in stage_totals
        ] + [
            stage for stage in sorted(stage_totals)
            if stage not in PIPELINE_STAGES
        ]
        lines.append(
            "stages: "
            + ", ".join(
                f"{stage} {stage_totals[stage]:.2f}s"
                for stage in ordered
            )
        )
    units = sorted(stats.units, key=lambda u: u.wall_s, reverse=True)
    shown = units[:max_units]
    if shown:
        rows = [
            (
                unit.label,
                f"{unit.wall_s:.2f}",
                unit.n_samples,
                f"{unit.samples_per_s:.2f}",
            )
            for unit in shown
        ]
        title = (
            "per-unit wall clock"
            if len(shown) == len(units)
            else f"slowest {len(shown)} of {len(units)} units"
        )
        lines.append(
            format_table(
                ["unit", "wall s", "samples", "samples/s"],
                rows,
                title=title,
            )
        )
    return "\n".join(lines)


def format_service_metrics(metrics) -> str:
    """Render a :class:`repro.serve.metrics.ServiceMetrics` snapshot.

    Mirrors :func:`format_runner_stats`: a headline counters block
    followed by a fixed-width latency-percentile table with one row per
    pipeline stage plus queue wait and end-to-end latency (all in
    milliseconds).
    """
    degraded = (
        f" ({metrics.n_degraded} degraded)" if metrics.n_degraded else ""
    )
    lines = [
        (
            f"service: {metrics.n_submitted} submitted, "
            f"{metrics.n_served} served{degraded}, "
            f"{metrics.n_rejected} rejected, {metrics.n_shed} shed, "
            f"{metrics.n_failed} failed"
        ),
        (
            f"batches: {metrics.n_batches} "
            f"(mean size {metrics.mean_batch_size:.2f}); "
            f"queue depth {metrics.queue_depth}; "
            f"{metrics.wall_s:.2f}s wall, "
            f"{metrics.throughput_rps:.2f} req/s"
        ),
    ]
    stage_fallbacks = getattr(metrics, "stage_fallbacks", None) or {}
    if stage_fallbacks:
        lines.append(
            "fallbacks: "
            + ", ".join(
                f"{key} x{count}"
                for key, count in sorted(stage_fallbacks.items())
            )
        )
    rows = []

    def add_row(label, summary):
        if summary is None:
            return
        rows.append(
            (
                label,
                summary.count,
                f"{summary.p50_s * 1e3:.1f}",
                f"{summary.p95_s * 1e3:.1f}",
                f"{summary.p99_s * 1e3:.1f}",
            )
        )

    from repro.core.pipeline import PIPELINE_STAGES

    ordered = [
        stage for stage in PIPELINE_STAGES
        if stage in metrics.stage_latency
    ] + [
        stage for stage in sorted(metrics.stage_latency)
        if stage not in PIPELINE_STAGES
    ]
    for stage in ordered:
        add_row(stage, metrics.stage_latency[stage])
    add_row("queue-wait", metrics.queue_wait)
    add_row("total", metrics.total_latency)
    if rows:
        lines.append(
            format_table(
                ["stage", "n", "p50 ms", "p95 ms", "p99 ms"],
                rows,
                title="latency percentiles",
            )
        )
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Tiny unicode sparkline for quick visual sanity checks."""
    blocks = "▁▂▃▄▅▆▇█"
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return ""
    if array.size > width:
        indices = np.linspace(0, array.size - 1, width).astype(int)
        array = array[indices]
    low, high = float(array.min()), float(array.max())
    span = high - low if high > low else 1.0
    return "".join(
        blocks[int((value - low) / span * (len(blocks) - 1))]
        for value in array
    )
