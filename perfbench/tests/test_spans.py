"""Span nesting, self time, and wrapper install/restore."""

import pytest

from layers import span_metrics
from spans import Span, Tracer, instrument, self_times
from workloads import Window


def test_child_spans_nest_and_inherit_the_trace_id():
    tracer = Tracer()
    tracer.set_trace_id("unit-1")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id == "unit-1"
    assert {span.name for span in tracer.drain()} == {"outer", "inner"}
    assert tracer.drain() == []


def test_self_time_subtracts_child_coverage_once():
    spans = [
        Span(1, None, "parent", "t", start=0.0, end=10.0),
        Span(2, 1, "child", "t", start=1.0, end=4.0),
        # Overlapping children are covered once, not twice.
        Span(3, 1, "child", "t", start=3.0, end=5.0),
        Span(4, 2, "grandchild", "t", start=1.5, end=2.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(0.5)


def test_stage_self_time_is_split_by_channel_side():
    spans = [
        Span(1, None, "channels.channel", "t", 0.0, 1.0,
             {"channel": "wearable-replay", "rows": 2, "buckets": 2}),
        Span(2, 1, "channels.loudspeaker", "t", 0.0, 0.4),
        Span(3, None, "channels.channel", "t", 1.0, 2.0,
             {"channel": "thru-barrier"}),
        Span(4, 3, "channels.loudspeaker", "t", 1.0, 1.2),
        Span(5, 3, "channels.barrier", "t", 1.2, 1.8),
    ]
    window = Window(
        factor=0.5, wall_s=2.0, hold_s=0.0, traced=True, records=[],
        spans=spans,
    )
    out = span_metrics([window], n_items=2)
    assert out["channels.loudspeaker_ms"] == pytest.approx(1e3 * 0.2 / 2)
    assert out["channels.attack_loudspeaker_ms"] == pytest.approx(
        1e3 * 0.1 / 2
    )
    assert out["channels.barrier_ms"] == pytest.approx(1e3 * 0.3 / 2)
    assert out["channels.rows_per_bucket"] == pytest.approx(1.0)


def test_instrument_wraps_and_restores_entry_points():
    from repro.channels.stages import BarrierStage, StageBase
    from repro.sensing.cross_domain import CrossDomainSensor
    from repro.serve import workers

    originals = (
        CrossDomainSensor.convert,
        workers.execute_batch,
        BarrierStage.apply,
    )
    assert "apply_batch" not in vars(BarrierStage)
    tracer = Tracer()
    with instrument(tracer):
        assert CrossDomainSensor.convert.__wrapped__ is originals[0]
        assert workers.execute_batch.__wrapped__ is originals[1]
        assert "apply_batch" in vars(BarrierStage)
    assert (
        CrossDomainSensor.convert,
        workers.execute_batch,
        BarrierStage.apply,
    ) == originals
    assert "apply_batch" not in vars(BarrierStage)
    assert BarrierStage.apply_batch is StageBase.apply_batch
