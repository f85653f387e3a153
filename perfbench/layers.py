"""Per-layer metrics of a traced run.

Every figure comes from the traced windows only, scaled by each
window's speed factor (timer-driven holds excepted).  "Per request"
means per served request on the serve workloads and per scored sample
on ``campaign``.  A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from repro.utils.stats import percentile
from spans import Span, self_times

PIPELINE_STAGES = ("sync", "segment", "sense", "features", "detect")
REPLAY_STAGES = ("loudspeaker", "conduction", "accelerometer")
ATTACK_STAGES = (
    "barrier",
    "ultrasound_carrier",
    "solid_conduction",
    "demodulation",
)
#: Layers whose own time is reported as self time.
SELF_LAYERS = (
    "acoustics.recordings",
    "attacks.generate",
    "phonemes.utterance",
)
#: Detectors whose whole scoring call is reported (inclusive time).
DETECTORS = ("full_system", "vibration_baseline", "audio_baseline")


def _ms(seconds: float, count: int) -> float:
    return 1e3 * seconds / count if count else 0.0


def _is_replay(channel_name: str) -> bool:
    return channel_name.endswith("replay")


def span_metrics(windows, n_items: int) -> Dict[str, float]:
    """Layer times attributed from the traced windows' spans."""
    totals: Dict[str, float] = {}
    forwards: List[int] = []
    buckets: List[float] = []
    conversions = samples = 0

    def add(key: str, seconds: float) -> None:
        totals[key] = totals.get(key, 0.0) + seconds

    for window in windows:
        spans: List[Span] = window.spans
        by_id = {span.span_id: span for span in spans}
        own = self_times(spans)
        for span in spans:
            scaled_self = own[span.span_id] * window.factor
            scaled = span.duration * window.factor
            parent = by_id.get(span.parent_id)
            name = span.name
            if name == "segmenter.forward":
                add(name, scaled)
                forwards.append(int(span.attrs["rows"]))
            elif name == "sensing.convert":
                if parent is None or parent.name != name:
                    add(name, scaled)
                    conversions += int(span.attrs["conversions"])
                    samples += int(span.attrs["samples"])
            elif name == "channels.channel":
                if "buckets" in span.attrs:  # an apply_batch call
                    buckets.append(span.attrs["rows"] / span.attrs["buckets"])
            elif name.startswith("channels."):
                channel = _channel_of(span, by_id)
                side = "replay" if _is_replay(channel) else "attack"
                add(f"{side}.{name}", scaled_self)
            elif name in SELF_LAYERS:
                add(name, scaled_self)
            elif name.startswith("eval."):
                if parent is None or parent.name != name:
                    add(name, scaled)
            elif name == "serve.execute_batch":
                add(name, scaled)
    out = {
        "segmenter.forward_ms": _ms(
            totals.get("segmenter.forward", 0.0), n_items
        ),
        "segmenter.rows_per_forward": (
            sum(forwards) / len(forwards) if forwards else 0.0
        ),
        "sensing.convert_ms": _ms(totals.get("sensing.convert", 0.0), n_items),
        "sensing.audio_samples": samples / conversions if conversions else 0.0,
        "channels.rows_per_bucket": (
            sum(buckets) / len(buckets) if buckets else 0.0
        ),
    }
    for stage in REPLAY_STAGES:
        out[f"channels.{stage}_ms"] = _ms(
            totals.get(f"replay.channels.{stage}", 0.0), n_items
        )
    out["channels.attack_loudspeaker_ms"] = _ms(
        totals.get("attack.channels.loudspeaker", 0.0), n_items
    )
    for stage in ATTACK_STAGES:
        out[f"channels.{stage}_ms"] = _ms(
            totals.get(f"attack.channels.{stage}", 0.0), n_items
        )
    for layer in SELF_LAYERS:
        out[f"{layer}_ms"] = _ms(totals.get(layer, 0.0), n_items)
    for detector in DETECTORS:
        out[f"eval.{detector}_ms"] = _ms(
            totals.get(f"eval.{detector}", 0.0), n_items
        )
    return out


def _channel_of(span: Span, by_id: Dict[int, Span]) -> str:
    """Name of the propagation channel a stage span ran inside."""
    parent = by_id.get(span.parent_id)
    while parent is not None:
        if parent.name == "channels.channel":
            return str(parent.attrs["channel"])
        parent = by_id.get(parent.parent_id)
    return ""


def serve_metrics(windows, service_metrics) -> Dict[str, float]:
    """Serve-layer and pipeline-stage figures from traced responses."""
    holds, pool_waits, unattributed = [], [], []
    stage_s = {stage: 0.0 for stage in PIPELINE_STAGES}
    exec_s: List[float] = []
    served = 0
    for window in windows:
        starts = {}
        for span in window.spans:
            if span.name == "serve.execute_batch":
                exec_s.append(span.duration * window.factor)
                for request_id in span.attrs["requests"]:
                    starts[request_id] = span.start
        for record in window.records:
            response = record.response
            if response.verdict is None:
                continue
            served += 1
            wait = response.queue_wait_s
            holds.append(wait)
            dispatched = record.submitted + wait
            started = starts.get(response.request_id)
            if started is not None:
                pool_waits.append(
                    max(started - dispatched, 0.0) * window.factor
                )
            timings = response.stage_timings_s
            for stage in PIPELINE_STAGES:
                stage_s[stage] += timings.get(stage, 0.0) * window.factor
            unattributed.append(
                (response.total_s - wait - sum(timings.values()))
                * window.factor
            )
    out = {
        "serve.hold_ms": 1e3 * percentile(holds, 50) if holds else 0.0,
        "serve.pool_wait_ms": (
            1e3 * percentile(pool_waits, 50) if pool_waits else 0.0
        ),
        "serve.exec_ms": 1e3 * sum(exec_s) / len(exec_s) if exec_s else 0.0,
        "serve.batch_size": float(service_metrics.mean_batch_size),
        "serve.unattributed_ms": (
            1e3 * percentile(unattributed, 50) if unattributed else 0.0
        ),
    }
    for stage in PIPELINE_STAGES:
        out[f"core.{stage}_ms"] = _ms(stage_s[stage], served)
    n_fallbacks = sum(service_metrics.stage_fallbacks.values())
    out["core.fallbacks"] = (
        100.0 * n_fallbacks / service_metrics.n_served
        if service_metrics.n_served
        else 0.0
    )
    return out


def campaign_metrics(windows, corpora) -> Dict[str, float]:
    """Campaign-runner figures from the traced windows' unit stats."""
    stage_s = {stage: 0.0 for stage in PIPELINE_STAGES}
    unit_s: List[float] = []
    samples = 0
    for window in windows:
        for record in window.records:
            stats = record.stats
            unit_s.append(stats.wall_s * window.factor)
            samples += stats.n_samples
            for stage in PIPELINE_STAGES:
                stage_s[stage] += (
                    stats.stage_s.get(stage, 0.0) * window.factor
                )
    out = {
        f"core.{stage}_ms": _ms(stage_s[stage], samples)
        for stage in PIPELINE_STAGES
    }
    out["eval.unit_s"] = median(unit_s) if unit_s else 0.0
    hits = sum(corpus.cache_hits for corpus in corpora)
    lookups = hits + sum(corpus.cache_misses for corpus in corpora)
    out["phonemes.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return out
