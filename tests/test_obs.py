"""The observability plane: exact quantiles, metrics, tracing, profiling, alerts."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.reduce import (
    FrameReducer,
    column_quantiles,
    column_summary,
    frame_quantiles,
    quantile_label,
    reduce_frame,
    valid_values,
)
from repro.errors import StatsError
from repro.frame import Frame
from repro.market.anomalies import AnomalyKind
from repro.obs import Tracer
from repro.obs.alerts import (
    AlertEngine,
    DriftRule,
    ThresholdRule,
    classify_failure,
    default_watch_rules,
)
from repro.obs.profile import aggregate_spans, load_events, render_profile
from repro.obs.trace import JsonlSink, NullSpan, tracing_env_enabled

settings.register_profile(
    "repro-obs", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-obs")


# --------------------------------------------------------------------------- #
# Exact quantiles
# --------------------------------------------------------------------------- #
QS = (0.5, 0.9, 0.99)


def gathered(*chunks) -> dict:
    """Quantiles over the valid values of several chunks, gathered in order."""
    parts = [valid_values(np.asarray(chunk, dtype=np.float64)) for chunk in chunks]
    return column_quantiles(np.concatenate(parts) if parts else np.empty(0))


def expected(values) -> dict:
    return {quantile_label(q): float(np.quantile(values, q)) for q in QS}


class TestQuantileLabel:
    def test_common_labels(self):
        assert quantile_label(0.5) == "p50"
        assert quantile_label(0.9) == "p90"
        assert quantile_label(0.99) == "p99"

    def test_fractional_label_has_no_dots(self):
        assert "." not in quantile_label(0.999)


class TestQuantileSketchExactPhase:
    """Quantiles equal ``np.quantile`` over the finite, unmasked values."""

    def test_matches_numpy_exactly_below_buffer(self):
        values = np.random.default_rng(7).normal(size=200)
        assert column_quantiles(values.copy()) == expected(values)
        frame = Frame.from_dict({"value": values.tolist()})
        assert frame_quantiles(frame)["value"] == expected(values)

    def test_skips_none_nan_and_masked(self):
        frame = Frame.from_dict({"value": [1.0, None, float("nan"), float("inf"), 3.0]})
        assert frame_quantiles(frame)["value"] == expected([1.0, 3.0])
        mask = np.array([False, True, False])
        assert valid_values(np.array([1.0, 2.0, 3.0]), mask).tolist() == [1.0, 3.0]

    def test_empty_sketch_estimates_nan(self):
        # No valid value at all: None, like an empty accumulator's fields.
        assert column_quantiles(np.empty(0)) == {"p50": None, "p90": None, "p99": None}
        frame = Frame.from_dict({"value": [None, float("nan")], "other": [1.0, 2.0]})
        assert set(frame_quantiles(frame)) == {"other"}
        assert reduce_frame(frame).to_records()[0]["p50"] is None

    def test_validation(self):
        with pytest.raises(StatsError):
            FrameReducer(quantiles=(1.5,))
        with pytest.raises(StatsError):
            FrameReducer(quantiles=(0.0,))


class TestQuantileSketchCompressed:
    """Long streams stay exact, and chunking cannot move a quantile."""

    def test_estimates_converge_on_large_stream(self):
        values = np.random.default_rng(11).normal(loc=5.0, scale=2.0, size=20_000)
        assert column_quantiles(values.copy()) == expected(values)

    def test_chunking_is_bit_invariant(self):
        """Shard boundaries must not be observable in the quantiles."""
        values = np.random.default_rng(3).normal(size=1500)
        chunks = [values[start : start + 113] for start in range(0, len(values), 113)]
        whole = frame_quantiles(Frame.from_dict({"value": values.tolist()}))["value"]
        assert gathered(*chunks) == whole == expected(values)


class TestQuantileSketchMerge:
    """Quantiles over shards are quantiles over the union of their values."""

    def test_exact_merge_equals_sorted_union(self):
        union = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert gathered([5.0, 1.0, 3.0], [2.0, 4.0]) == expected(union)

    def test_merge_with_empty_is_identity(self):
        assert gathered([1.0, 2.0, 3.0], []) == gathered([1.0, 2.0, 3.0])

    def test_compressed_merge_is_deterministic_and_close(self):
        rng = np.random.default_rng(17)
        left, right = rng.normal(size=2000), rng.normal(size=3000)
        first, second = gathered(left, right), gathered(left, right)
        assert first == second == expected(np.concatenate([left, right]))

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=0, max_size=80,
        ),
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=0, max_size=80,
        ),
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=80,
        ),
    )
    def test_exact_merge_associativity_vs_sorted_array(self, xs, ys, zs):
        """Any grouping of shards gives ``np.quantile`` of the union."""
        union = np.array(sorted(xs + ys + zs))
        want = expected(union)
        assert gathered(xs, ys, zs) == gathered(xs + ys, zs) == gathered(xs, ys + zs) == want
        assert frame_quantiles(Frame.from_dict({"v": xs + ys + zs}))["v"] == want


# --------------------------------------------------------------------------- #
# FrameReducer quantile integration
# --------------------------------------------------------------------------- #
class TestReducerQuantiles:
    def test_summary_frame_has_quantile_columns(self):
        frame = Frame.from_dict({"value": [1.0, 2.0, 3.0, 4.0], "name": list("abcd")})
        summary = reduce_frame(frame)
        assert {"p50", "p90", "p99"} <= set(summary.columns)
        row = summary.to_records()[0]
        assert row["column"] == "value"
        assert row["p50"] == float(np.quantile([1.0, 2.0, 3.0, 4.0], 0.5))

    def test_quantiles_off(self):
        frame = Frame.from_dict({"value": [1.0, 2.0]})
        summary = reduce_frame(frame, quantiles=())
        assert "p50" not in summary.columns
        reducer = FrameReducer(quantiles=())
        reducer.update(frame)
        assert reducer.last_quantiles == {}

    def test_streamed_equals_whole_with_quantiles(self):
        values = np.random.default_rng(5).normal(size=700)
        frame = Frame.from_dict({"value": values.tolist()})
        streamed = FrameReducer()
        for start in range(0, 700, 97):
            streamed.update(frame.take(np.arange(start, min(start + 97, 700))))
        # Sums, moments and quantiles come from the finalize's summary of the
        # gathered values; the reducer folds only count, min and max.
        whole = {"value": column_summary(valid_values(values))}
        assert streamed.to_frame(whole).equals(reduce_frame(frame))

    def test_last_quantiles_describe_the_latest_frame(self):
        reducer = FrameReducer()
        reducer.update(Frame.from_dict({"value": [1.0, 2.0, 3.0]}))
        reducer.update(Frame.from_dict({"value": [10.0, 20.0], "label": ["a", "b"]}))
        assert reducer.last_quantiles == {"value": expected([10.0, 20.0])}
        # Without whole-stream quantiles the summary reports None for them.
        row = reducer.to_frame().to_records()[0]
        assert row["count"] == 5 and row["p50"] is None


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", attr=1)
        assert span is NullSpan
        assert span is tracer.span("other")
        with span as s:
            s.set("k", "v")
            s.incr("n")

    def test_spans_nest_and_emit(self, tmp_path):
        tracer = Tracer(enabled=True)
        sink = tracer.add_sink(JsonlSink(tmp_path / "events.jsonl"))
        with tracer.span("outer", layer=1) as outer:
            with tracer.span("inner") as inner:
                inner.incr("count", 2)
            outer.set("done", True)
        tracer.event("flush", index=3)
        tracer.remove_sink(sink)
        records = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        by_name = {r.get("name", r["event"]): r for r in records}
        inner, outer = by_name["inner"], by_name["outer"]
        assert inner["parent_id"] == outer["span_id"]
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert inner["attrs"]["count"] == 2
        assert outer["attrs"] == {"layer": 1, "done": True}
        assert outer["wall_s"] >= inner["wall_s"] >= 0
        assert outer["cpu_s"] >= 0
        assert by_name["flush"]["index"] == 3
        # inner closed (and so emitted) before outer
        assert records[0]["name"] == "inner"

    def test_error_status_recorded(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.add_sink(JsonlSink(tmp_path / "e.jsonl"))
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        record = json.loads((tmp_path / "e.jsonl").read_text())
        assert record["status"] == "error"
        assert record["attrs"]["error"] == "ValueError"

    def test_threads_get_independent_span_stacks(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.add_sink(JsonlSink(tmp_path / "t.jsonl"))
        parents = {}

        def worker(name):
            with tracer.span(name) as span:
                parents[name] = span.parent_id

        with tracer.span("main-root"):
            threads = [
                threading.Thread(target=worker, args=(f"w{i}",)) for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # worker spans are thread roots, not children of main-root
        assert all(parent is None for parent in parents.values())

    def test_env_enablement(self):
        assert not tracing_env_enabled({})
        assert tracing_env_enabled({"REPRO_TRACE": "1"})
        assert tracing_env_enabled({"REPRO_PROFILE": "true"})
        assert not tracing_env_enabled({"REPRO_TRACE": "0"})


# --------------------------------------------------------------------------- #
# Profiling
# --------------------------------------------------------------------------- #
def _span(name, span_id, parent_id, wall, cpu=0.0, attrs=None):
    record = {
        "event": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "wall_s": wall,
        "cpu_s": cpu,
    }
    if attrs:
        record["attrs"] = attrs
    return record


class TestProfile:
    def test_self_time_subtracts_direct_children(self):
        events = [
            _span("child", 2, 1, 0.4),
            _span("child", 3, 1, 0.3),
            _span("parent", 1, None, 1.0, attrs={"units": 7}),
        ]
        stats = aggregate_spans(events)
        assert stats["parent"].self_s == pytest.approx(0.3)
        assert stats["child"].self_s == pytest.approx(0.7)
        assert stats["parent"].attrs["units"] == 7

    def test_self_time_never_negative(self):
        events = [_span("child", 2, 1, 2.0), _span("parent", 1, None, 1.0)]
        assert aggregate_spans(events)["parent"].self_s == 0.0

    def test_render_orders_by_self_time(self):
        events = [
            _span("cold", 1, None, 0.1),
            _span("hot", 2, None, 5.0),
        ]
        table = render_profile(aggregate_spans(events), top=5)
        lines = table.splitlines()
        assert lines[2].startswith("hot")
        assert "cold" in lines[3]
        assert render_profile({}) == "(no span events)"

    def test_top_truncation_mentions_remainder(self):
        events = [_span(f"s{i}", i + 1, None, float(i + 1)) for i in range(5)]
        table = render_profile(aggregate_spans(events), top=2)
        assert "3 more span name" in table

    def test_load_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "span"}\n{"torn\n\n{"event": "x"}\n')
        events = list(load_events(path))
        assert [e["event"] for e in events] == ["span", "x"]

    def test_load_events_missing_file(self, tmp_path):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            list(load_events(tmp_path / "absent.jsonl"))


# --------------------------------------------------------------------------- #
# Alerts
# --------------------------------------------------------------------------- #
class TestAlerts:
    def test_threshold_rule(self):
        rule = ThresholdRule("failed", 0.0, ">")
        assert rule.check({"failed": 0}) is None
        alert = rule.check({"failed": 2}, shard=4)
        assert alert is not None and alert.shard == 4
        assert rule.check({}) is None  # missing metric never fires
        below = ThresholdRule("rate", 10.0, "<")
        assert below.check({"rate": 5.0}) is not None

    def test_drift_fires_on_outlier_after_history(self):
        engine = AlertEngine(drifts=(DriftRule("wall_s", z_max=3.0, min_history=3),))
        for value in (1.0, 1.1, 0.9, 1.05):
            assert engine.observe({"wall_s": value}) == []
        raised = engine.observe({"wall_s": 50.0}, shard=4)
        assert len(raised) == 1
        assert raised[0].kind == "drift" and raised[0].shard == 4

    def test_drift_ignores_non_finite_and_builds_no_history_from_them(self):
        engine = AlertEngine(drifts=(DriftRule("x", min_history=2),))
        engine.observe({"x": float("nan")})
        engine.observe({"x": 1.0})
        engine.observe({"x": 1.0})
        engine.observe({"x": 1.0})
        assert engine.observe({"x": 1.0}) == []  # zero variance: no z-score

    def test_default_rules_flag_failed_shards(self):
        thresholds, drifts = default_watch_rules()
        engine = AlertEngine(thresholds, drifts)
        raised = engine.observe({"failed": 3}, shard=0)
        assert [a.kind for a in raised] == ["threshold"]

    def test_classify_failure_maps_to_paper_taxonomy(self):
        assert classify_failure("run not accepted by SPEC") is AnomalyKind.NOT_ACCEPTED
        assert classify_failure("Ambiguous CPU name") is AnomalyKind.AMBIGUOUS_CPU
        assert (
            classify_failure("inconsistent core/thread counts")
            is AnomalyKind.INCONSISTENT_CORE_THREAD
        )
        assert classify_failure("some novel explosion") is None
