"""`campaign watch`, `profile report`, shard progress, and live rendering."""

from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign, stream_campaign
from repro.cli.main import main as cli_main
from repro.errors import CampaignError
from repro.obs.trace import JsonlSink, Tracer, configure_tracing, get_tracer
from repro.obs.watch import render_watch_frame, watch
from repro.session import Session
from repro.session.policy import ExecutionPolicy

GOLDEN = Path(__file__).parent / "data" / "golden"
GENERATIONS = ["Xeon X5670", "Xeon Platinum 8480+", "EPYC 9654"]
FAST_BASE = {"load_levels": [1.0, 0.5, 0.0]}


def watch_spec(name="watch-test", seeds=(1, 2, 3, 4)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        sweep={"cpu_model": GENERATIONS, "seed": list(seeds)},
        base=FAST_BASE,
    )


@pytest.fixture()
def finished_store(tmp_path):
    store_dir = tmp_path / "store"
    stream_campaign(watch_spec(), store_dir, shard_size=4)
    return store_dir


# --------------------------------------------------------------------------- #
# Store-level telemetry: events + shard progress
# --------------------------------------------------------------------------- #
class TestStoreEvents:
    def test_stream_campaign_emits_lifecycle_events(self, finished_store):
        store = CampaignStore(finished_store)
        events = store.event_entries()
        names = [e["event"] for e in events]
        assert names[0] == "campaign_start"
        assert names[-1] == "campaign_complete"
        assert events[-1]["quantile_labels"] == ["p50", "p90", "p99"]
        assert len(events[-1]["quantiles"]["overall_ssj_ops_per_watt"]) == 3
        flushes = [e for e in events if e["event"] == "shard_flush"]
        assert [e["index"] for e in flushes] == [0, 1, 2]
        first = flushes[0]
        assert first["units"] == 4 and first["n_rows"] > 0
        assert first["wall_s"] >= 0 and first["units_per_s"] > 0
        assert first["kernel_s"] >= 0 and first["flush_bytes"] > 0
        quantiles = first["quantiles"]
        assert first["quantile_labels"] == ["p50", "p90", "p99"]
        assert len(quantiles["overall_ssj_ops_per_watt"]) == 3
        # events.jsonl must be strict JSON — no NaN literals
        for line in store.events_path.read_text().splitlines():
            json.loads(line)

    def test_record_event_allows_name_field(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        store.record_event("custom", name="clash-is-fine", index=1)
        (entry,) = store.event_entries()
        assert entry["event"] == "custom" and entry["name"] == "clash-is-fine"
        assert entry["ts"] > 0

    def test_shard_progress_on_streaming_store(self, tmp_path):
        store_dir = tmp_path / "store"
        stream_campaign(watch_spec(), store_dir, shard_size=4, max_shards=2)
        progress = CampaignStore(store_dir).shard_progress()
        assert progress is not None
        assert (progress.total, progress.complete, progress.pending) == (3, 2, 1)
        assert "shards: 2/3 complete" in progress.describe()
        status = CampaignStore(store_dir).status()
        assert status.shards == progress
        assert "shards: 2/3 complete" in status.describe()

    def test_resident_store_reports_no_shard_progress(self, tmp_path):
        # A store an older resident run wrote lists every unit and records
        # no shard layout: its status keeps the unit-level shape.
        store_dir = tmp_path / "store"
        shutil.copytree(GOLDEN / "resident", store_dir)
        status = CampaignStore(store_dir).status()
        assert status.shards is None
        assert "shards:" not in status.describe()

    def test_resident_run_reports_its_shard_layout(self, tmp_path):
        # A resident run flushes shards of chunk_size x workers units.
        store_dir = tmp_path / "store"
        run_campaign(watch_spec(), store_dir, max_units=5)
        status = CampaignStore(store_dir).status()
        assert status.shards == CampaignStore(store_dir).shard_progress()
        assert status.completed == 5 and status.total == 12
        assert "shards: 0/1 complete, 1 partial, 0 pending (5 rows flushed, shard_size=32)" in (
            status.describe()
        )


# --------------------------------------------------------------------------- #
# Watch rendering
# --------------------------------------------------------------------------- #
class TestRenderWatchFrame:
    def test_mid_run_frame_shows_partial_progress(self, tmp_path):
        """The kill-mid-run contract: watch renders from a half-finished store."""
        store_dir = tmp_path / "store"
        stream_campaign(watch_spec(), store_dir, shard_size=4, max_shards=2)
        frame = render_watch_frame(store_dir)
        assert "shards: 2/3 complete, 0 partial, 1 pending" in frame
        assert "██·" in frame
        assert "units/s" in frame
        assert "metric  overall_ssj_ops_per_watt" in frame
        # Two of three shards flushed: the line shows the last shard's.
        assert "last shard quantiles: p50=" in frame

    def test_completed_frame(self, finished_store):
        frame = render_watch_frame(finished_store)
        assert "shards: 3/3 complete" in frame
        assert "███" in frame and "·" not in frame.splitlines()[2]
        assert "campaign quantiles: p50=" in frame

    def test_explicit_metric_selected_and_validated(self, finished_store):
        frame = render_watch_frame(finished_store, metric="power_100")
        assert "metric  power_100" in frame
        with pytest.raises(CampaignError, match="no-such-metric"):
            render_watch_frame(finished_store, metric="no-such-metric")

    def test_empty_store_renders_waiting_message(self, tmp_path):
        store = CampaignStore(tmp_path / "empty")
        store.initialize_streaming(watch_spec(), shard_size=4)
        store.record_event("campaign_start", name="x", n_units=4)
        frame = render_watch_frame(tmp_path / "empty")
        assert "waiting for the first flush" in frame
        with pytest.raises(CampaignError):
            render_watch_frame(tmp_path / "empty", metric="anything")

    def test_events_written_before_quantile_labels_still_render(self, tmp_path):
        # Stores from before the compact event form hold per-column dicts.
        store = CampaignStore(tmp_path / "old")
        store.initialize_streaming(watch_spec(), shard_size=4)
        store.record_event("campaign_start", name="x", n_units=12, n_shards=3)
        for index, p50 in enumerate((10.0, 20.0, 30.0)):
            store.record_event(
                "shard_flush", index=index, units=4, n_rows=4, units_per_s=100.0,
                quantiles={"power_100": {"p50": p50, "p90": p50 + 1, "p99": p50 + 2}},
            )
        assert "last shard quantiles: p50=30  p90=31  p99=32" in render_watch_frame(
            tmp_path / "old"
        )
        # Before campaign_complete carried quantiles at all: still the last shard's.
        store.record_event("campaign_complete", shards=3, n_shards=3)
        assert "last shard quantiles: p50=30" in render_watch_frame(tmp_path / "old")
        store.record_event(
            "campaign_complete", shards=3, n_shards=3,
            quantiles={"power_100": {"p50": 20.0, "p90": 29.0, "p99": 31.9}},
        )
        frame = render_watch_frame(tmp_path / "old")
        assert "metric  power_100" in frame
        assert "campaign quantiles: p50=20  p90=29  p99=31.9" in frame

    def test_one_shard_campaign_quantiles_come_from_its_flush(self, tmp_path):
        store_dir = tmp_path / "one"
        stream_campaign(watch_spec(seeds=(1,)), store_dir, shard_size=4)
        *_, flush, final = CampaignStore(store_dir).event_entries()
        assert final["shards"] == final["n_shards"] == 1 and "quantiles" not in final
        values = flush["quantiles"]["overall_ssj_ops_per_watt"]
        expected = "  ".join(
            f"{label}={value:.4g}" for label, value in zip(flush["quantile_labels"], values)
        )
        assert f"campaign quantiles: {expected}" in render_watch_frame(store_dir)

    def test_compact_events_render_each_label_with_its_value(self, finished_store):
        final = CampaignStore(finished_store).event_entries()[-1]
        values = final["quantiles"]["overall_ssj_ops_per_watt"]
        expected = "  ".join(
            f"{label}={value:.4g}" for label, value in zip(final["quantile_labels"], values)
        )
        assert f"campaign quantiles: {expected}" in render_watch_frame(finished_store)

    def test_narrow_width(self, finished_store):
        frame = render_watch_frame(finished_store, width=20)
        assert max(len(line) for line in frame.splitlines()) < 80

    def test_failed_units_raise_threshold_alert(self, finished_store):
        store = CampaignStore(finished_store)
        last = store.event_entries()[-2]  # latest shard_flush
        assert last["event"] == "shard_flush"
        store.record_event("shard_flush", **{**{k: v for k, v in last.items()
                                                if k != "event"},
                                             "index": 99, "failed": 3})
        frame = render_watch_frame(finished_store)
        assert "alerts:" in frame
        assert "[threshold] shard reported failed units (shard 99)" in frame


def p50_cells(frame: str) -> str:
    """The p50 sparkline of a rendered watch frame, one cell per flush."""
    line = next(line for line in frame.splitlines() if line.startswith("p50     "))
    return line[len("p50     ") :]


class TestReplayTelemetry:
    """A reload's event names its artifact; watch reads the quantiles there."""

    def test_replay_of_a_one_shard_store_appends_no_quantiles(self, tmp_path):
        # Default load levels: the columns a real campaign reports.
        spec = CampaignSpec(name="replay", sweep={"cpu_model": GENERATIONS, "seed": [1, 2]})
        store_dir = tmp_path / "store"
        stream_campaign(spec, store_dir)
        store = CampaignStore(store_dir)
        before = render_watch_frame(store_dir).splitlines()
        size = store.events_path.stat().st_size
        replay = stream_campaign(spec, store_dir)
        assert [shard.reloaded for shard in replay.shards] == [True]
        assert store.events_path.stat().st_size - size <= 800
        *_, flush, final = store.event_entries()
        assert flush["event"] == "shard_flush" and final["event"] == "campaign_complete"
        assert "quantiles" not in flush and "quantiles" not in final
        assert flush["artifact"] == replay.shards[0].artifact_key
        after = render_watch_frame(store_dir).splitlines()
        for prefix in ("metric  ", "  campaign quantiles: p50="):
            (line,) = [line for line in before if line.startswith(prefix)]
            assert line in after
        assert len(p50_cells("\n".join(after))) == 2
        assert " " not in p50_cells("\n".join(after))

    def test_pooled_run_renders_quantiles_from_its_artifacts(self, tmp_path):
        store_dir = tmp_path / "pooled"
        stream_campaign(watch_spec(), store_dir, shard_size=4, workers=2)
        flushes = [
            event
            for event in CampaignStore(store_dir).event_entries()
            if event["event"] == "shard_flush"
        ]
        assert [event["reloaded"] for event in flushes] == [True] * 3
        assert not any("quantiles" in event for event in flushes)
        frame = render_watch_frame(store_dir)
        assert "campaign quantiles: p50=" in frame
        assert len(p50_cells(frame)) == 3 and " " not in p50_cells(frame)


class TestWatchLoop:
    def test_once_renders_single_frame(self, finished_store):
        buffer = io.StringIO()
        frames = watch(finished_store, once=True, stream=buffer)
        assert frames == 1
        assert "shards: 3/3 complete" in buffer.getvalue()

    def test_loop_stops_when_complete(self, finished_store):
        buffer = io.StringIO()
        frames = watch(finished_store, interval=0.0, stream=buffer, max_frames=10)
        assert frames == 1  # complete on the first status check

    def test_max_frames_bounds_incomplete_store(self, tmp_path):
        store_dir = tmp_path / "store"
        stream_campaign(watch_spec(), store_dir, shard_size=4, max_shards=1)
        buffer = io.StringIO()
        frames = watch(store_dir, interval=0.0, stream=buffer, max_frames=3)
        assert frames == 3
        assert buffer.getvalue().count("units/s") == 3


# --------------------------------------------------------------------------- #
# CLI: campaign watch / profile report
# --------------------------------------------------------------------------- #
class TestWatchCli:
    def test_campaign_watch_once(self, finished_store, capsys):
        exit_code = cli_main(["campaign", "watch", "--store", str(finished_store), "--once"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "shards: 3/3 complete" in out
        assert "campaign quantiles" in out

    def test_campaign_watch_bad_metric_exits_2(self, finished_store, capsys):
        exit_code = cli_main(
            ["campaign", "watch", "--store", str(finished_store), "--once",
             "--metric", "nope"]
        )
        assert exit_code == 2
        assert "nope" in capsys.readouterr().err

    def test_campaign_status_shows_shard_line(self, finished_store, capsys):
        exit_code = cli_main(["campaign", "status", "--store", str(finished_store)])
        assert exit_code == 0
        assert "shards: 3/3 complete" in capsys.readouterr().out


class TestProfileCli:
    def test_profile_report_from_events_file(self, tmp_path, capsys):
        tracer = Tracer(enabled=True)
        tracer.add_sink(JsonlSink(tmp_path / "events.jsonl"))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        exit_code = cli_main(
            ["profile", "report", "--events", str(tmp_path / "events.jsonl")]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "span" in out and "self_s" in out
        assert "outer" in out and "inner" in out

    def test_profile_report_needs_a_source(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_WORKSPACE", raising=False)
        exit_code = cli_main(["profile", "report"])
        assert exit_code == 2
        assert "--events" in capsys.readouterr().err

    def test_profile_report_missing_file_exits_2(self, tmp_path, capsys):
        exit_code = cli_main(
            ["profile", "report", "--events", str(tmp_path / "none.jsonl")]
        )
        assert exit_code == 2

    def test_profile_report_from_store(self, finished_store, capsys):
        store = CampaignStore(finished_store)
        tracer = Tracer(enabled=True)
        tracer.add_sink(JsonlSink(store.events_path))
        with tracer.span("extra.work"):
            pass
        exit_code = cli_main(["profile", "report", "--store", str(finished_store)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "extra.work" in out


# --------------------------------------------------------------------------- #
# Session-level profiling wiring
# --------------------------------------------------------------------------- #
class TestSessionProfiling:
    @pytest.fixture(autouse=True)
    def _reset_tracing(self):
        yield
        configure_tracing(enabled=False)

    def test_profile_policy_writes_span_events(self, tmp_path):
        session = Session(
            workspace=tmp_path / "ws",
            policy=ExecutionPolicy(profile=True),
        )
        try:
            session.dataset(runs=32, seed=7).result()
        finally:
            session.close()
        events = [
            json.loads(line)
            for line in session.events_path.read_text().splitlines()
        ]
        names = {e.get("name") for e in events if e.get("event") == "span"}
        assert names & {"dataset.derive", "dataset.parse"}
        assert any(n.startswith("session.") for n in names if n)

    def test_session_close_restores_disabled_tracer(self, tmp_path):
        session = Session(
            workspace=tmp_path / "ws",
            policy=ExecutionPolicy(profile=True),
        )
        assert session.tracer.enabled
        session.close()
        assert not get_tracer().enabled

    def test_unprofiled_session_writes_no_events(self, tmp_path):
        session = Session(workspace=tmp_path / "ws")
        try:
            session.dataset(runs=32, seed=7).result()
        finally:
            session.close()
        assert not session.events_path.exists()
