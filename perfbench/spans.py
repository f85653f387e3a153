"""Span recording around the program's public entry points.

Tracing lives entirely in the benchmark: :func:`instrument` swaps
selected functions and methods of the program for wrappers that open a
span around each call, and restores the originals on exit.  A span has
a name, start, end, the span that was open on the same thread when it
started (its parent), the current trace id (a serve batch or a campaign
unit) and a few attributes.  Spans stay in memory and are written out
when the run ends.

A span's *self time* is its duration minus the part of it that its
child spans cover; ``StageBase.apply_batch`` loops over ``apply``, so
nesting is real and self time is what attributes work to one layer.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from calibrate import interval_union_s


@dataclass
class Span:
    """One timed call of a wrapped entry point."""

    span_id: int
    parent_id: Optional[int]
    name: str
    trace_id: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe in-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace_id(self, trace_id: str) -> None:
        """Trace id of the root spans this thread opens from now on.

        Child spans inherit their parent's id; a root span opened with
        no id set gets one of its own.
        """
        self._local.trace_id = trace_id

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent_id, trace_id = stack[-1].span_id, stack[-1].trace_id
        else:
            parent_id = None
            trace_id = getattr(self._local, "trace_id", "") or f"t{span_id}"
        span = Span(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            trace_id=trace_id,
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(span)

    def drain(self) -> List[Span]:
        """Remove and return every finished span."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``{span_id: self seconds}`` — duration minus child coverage."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end)
            )
    out = {}
    for span in spans:
        covered = interval_union_s(
            [
                (max(start, span.start), min(end, span.end))
                for start, end in children.get(span.span_id, [])
            ]
        )
        out[span.span_id] = max(span.duration - covered, 0.0)
    return out


def write_spans(path, spans: List[Span], factors: Dict[int, float]) -> None:
    """One JSON object per span, with its window's speed factor."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            row = asdict(span)
            row["factor"] = factors.get(span.span_id, 1.0)
            handle.write(json.dumps(row, default=str) + "\n")


# ----------------------------------------------------------------------
# Instrumentation of the program's public entry points
# ----------------------------------------------------------------------

#: Span names of the channel stages, keyed by stage class name.
STAGE_SPANS = {
    "LoudspeakerStage": "channels.loudspeaker",
    "BarrierStage": "channels.barrier",
    "ConductionStage": "channels.conduction",
    "AccelerometerStage": "channels.accelerometer",
    "UltrasoundCarrierStage": "channels.ultrasound_carrier",
    "SolidConductionStage": "channels.solid_conduction",
    "NonlinearDemodulationStage": "channels.demodulation",
}


def _wrap(
    tracer: Tracer, function: Callable, name: str, attrs_of
) -> Callable:
    def wrapper(*args, **kwargs):
        attrs = attrs_of(*args, **kwargs) if attrs_of else {}
        with tracer.span(name, **attrs):
            return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper


def _length(value) -> int:
    return int(getattr(value, "size", 0))


def _targets():
    """``(owner, attribute, span name, attrs_of)`` for every wrapper."""
    from repro.attacks.hidden_voice import HiddenVoiceAttack
    from repro.attacks.random_attack import RandomAttack
    from repro.attacks.replay import ReplayAttack
    from repro.attacks.scenario import AttackScenario
    from repro.attacks.synthesis import VoiceSynthesisAttack
    from repro.channels import stages
    from repro.channels.graph import PropagationChannel
    from repro.core.baselines import (
        AudioDomainBaseline,
        VibrationBaselineNoSelection,
    )
    from repro.core.pipeline import DefensePipeline
    from repro.core.segmentation import PhonemeSegmenter
    from repro.phonemes.corpus import SyntheticCorpus
    from repro.sensing.cross_domain import CrossDomainSensor
    from repro.serve import workers

    def batch_attrs(payload):
        return {
            "batch_size": len(payload[2]),
            "requests": [request.request_id for request, _ in payload[2]],
        }

    def channel_attrs(channel, signal, *_a, **_k):
        return {"channel": channel.name}

    def channel_batch_attrs(channel, signals, *_a, **_k):
        lengths = {_length(signal) for signal in signals}
        return {
            "channel": channel.name,
            "rows": len(signals),
            "buckets": len(lengths),
        }

    def convert_attrs(sensor, audio, *_a, **_k):
        return {"conversions": 1, "samples": _length(audio)}

    def convert_batch_attrs(sensor, audios, *_a, **_k):
        return {
            "conversions": len(audios),
            "samples": sum(_length(audio) for audio in audios),
        }

    targets = [
        (workers, "execute_batch", "serve.execute_batch", batch_attrs),
        (
            PhonemeSegmenter,
            "frame_probabilities_batch",
            "segmenter.forward",
            lambda segmenter, audios, *a, **k: {"rows": len(audios)},
        ),
        (CrossDomainSensor, "convert", "sensing.convert", convert_attrs),
        (
            CrossDomainSensor,
            "convert_batch",
            "sensing.convert",
            convert_batch_attrs,
        ),
        (PropagationChannel, "apply", "channels.channel", channel_attrs),
        (
            PropagationChannel,
            "apply_batch",
            "channels.channel",
            channel_batch_attrs,
        ),
        (AttackScenario, "attack_recordings", "acoustics.recordings", None),
        (
            AttackScenario,
            "legitimate_recordings",
            "acoustics.recordings",
            None,
        ),
        (SyntheticCorpus, "utterance", "phonemes.utterance", None),
        (DefensePipeline, "score", "eval.full_system", None),
        (
            VibrationBaselineNoSelection,
            "score",
            "eval.vibration_baseline",
            None,
        ),
        (AudioDomainBaseline, "score", "eval.audio_baseline", None),
    ]
    for attack in (
        ReplayAttack,
        RandomAttack,
        VoiceSynthesisAttack,
        HiddenVoiceAttack,
    ):
        targets.append((attack, "generate", "attacks.generate", None))
    for class_name, span_name in STAGE_SPANS.items():
        stage = getattr(stages, class_name)
        targets.append((stage, "apply", span_name, None))
        targets.append((stage, "apply_batch", span_name, None))
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the ``with`` block, then restore it."""
    saved = []
    try:
        for owner, attribute, name, attrs_of in _targets():
            own = attribute in vars(owner)
            original = getattr(owner, attribute)
            saved.append((owner, attribute, own, original))
            setattr(owner, attribute, _wrap(tracer, original, name, attrs_of))
        yield tracer
    finally:
        for owner, attribute, own, original in reversed(saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
