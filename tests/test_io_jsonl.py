"""Atomic JSONL appends: helpers + cross-process no-torn-lines guarantees."""

import json
import multiprocessing
import os

import pytest

from repro.io.jsonl import append_jsonl, dumps_line, read_jsonl
from repro.obs.trace import JsonlSink


def test_dumps_line_is_one_complete_line():
    line = dumps_line({"b": 1, "a": "x"})
    assert line.endswith("\n")
    assert "\n" not in line[:-1]
    assert json.loads(line) == {"a": "x", "b": 1}
    # canonical: keys sorted so identical records are byte-identical
    assert line == '{"a":"x","b":1}\n'


def test_append_and_read_roundtrip(tmp_path):
    path = tmp_path / "log.jsonl"
    assert append_jsonl(path, [{"i": 0}, {"i": 1}]) == 2
    assert append_jsonl(path, []) == 0
    assert append_jsonl(path, [{"i": 2}]) == 1
    assert read_jsonl(path) == [{"i": 0}, {"i": 1}, {"i": 2}]


def test_read_jsonl_missing_file_is_empty(tmp_path):
    assert read_jsonl(tmp_path / "absent.jsonl") == []


def test_read_jsonl_skips_torn_tail_and_blanks(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"ok": 1}\n\n{"torn": ', encoding="utf-8")
    assert read_jsonl(path) == [{"ok": 1}]


def test_append_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "nested" / "log.jsonl"
    append_jsonl(path, [{"x": 1}])
    assert read_jsonl(path) == [{"x": 1}]


def _hammer_append(path, writer, count):
    for i in range(count):
        append_jsonl(path, [{"writer": writer, "i": i, "pad": "x" * 200}])


def _hammer_sink(path, writer, count):
    sink = JsonlSink(path)
    for i in range(count):
        sink.emit({"writer": writer, "i": i, "pad": "y" * 200})
    sink.close()


@pytest.mark.parametrize("target", [_hammer_append, _hammer_sink])
def test_concurrent_process_writers_never_tear_lines(tmp_path, target):
    """4 processes x 200 events into one file: every line parses, none lost.

    This is the contract multi-worker campaigns lean on: ``shards.jsonl``,
    ``ledger.jsonl`` and ``events.jsonl`` are all appended by concurrent
    worker processes, and latest-wins readers only work if concurrent
    appends land as whole lines.
    """
    path = tmp_path / "events.jsonl"
    n_writers, per_writer = 4, 200
    procs = [
        multiprocessing.Process(target=target, args=(path, w, per_writer))
        for w in range(n_writers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0

    raw_lines = path.read_text(encoding="utf-8").splitlines()
    assert len(raw_lines) == n_writers * per_writer
    seen = set()
    for line in raw_lines:
        record = json.loads(line)  # any torn/interleaved line raises here
        seen.add((record["writer"], record["i"]))
    assert seen == {(w, i) for w in range(n_writers) for i in range(per_writer)}


def test_jsonl_sink_reopens_after_close(tmp_path):
    path = tmp_path / "sink.jsonl"
    sink = JsonlSink(path)
    sink.emit({"a": 1})
    sink.close()
    sink.emit({"a": 2})
    sink.close()
    assert [r["a"] for r in read_jsonl(path)] == [1, 2]


def test_campaign_store_appends_are_single_writes(tmp_path, monkeypatch):
    """CampaignStore's record paths all route through append_jsonl."""
    from repro.campaign.store import CampaignStore

    calls = []
    real = append_jsonl

    def spy(path, records):
        records = list(records)
        calls.append((os.path.basename(str(path)), len(records)))
        return real(path, records)

    monkeypatch.setattr("repro.campaign.store.append_jsonl", spy)
    store = CampaignStore(tmp_path / "store")
    store.record_shard({"index": 0, "status": "complete", "n_rows": 4})
    store.record_lease({"index": 1, "worker": "w0", "pid": 123, "deadline": 0.0})
    store.record_event("campaign_start", n_units=8)
    assert calls == [("shards.jsonl", 1), ("shards.jsonl", 1), ("events.jsonl", 1)]
    assert store.shard_entries().keys() == {0}  # lease filtered out
    assert store.lease_entries().keys() == {1}


def test_read_jsonl_report_counts_midfile_corruption(tmp_path):
    from repro.io.jsonl import read_jsonl_report

    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"ok": 1}\ngarbage not json\n[1, 2]\n{"ok": 2}\n', encoding="utf-8"
    )
    report = read_jsonl_report(path)
    assert report.records == [{"ok": 1}, {"ok": 2}]
    # Both the unparseable line and the non-object line are corruption —
    # neither is the torn tail a crash legitimately leaves behind.
    assert report.corrupt == 2 and not report.torn_tail
    assert report.skipped == 2
    # read_jsonl stays the tolerant thin wrapper.
    assert read_jsonl(path) == [{"ok": 1}, {"ok": 2}]


def test_read_jsonl_report_torn_tail_is_not_corruption(tmp_path):
    from repro.io.jsonl import read_jsonl_report

    path = tmp_path / "log.jsonl"
    path.write_text('{"ok": 1}\n{"torn": ', encoding="utf-8")
    report = read_jsonl_report(path)
    assert report.records == [{"ok": 1}]
    assert report.torn_tail and report.corrupt == 0
    assert report.skipped == 1


def test_read_jsonl_report_clean_and_missing(tmp_path):
    from repro.io.jsonl import read_jsonl_report

    path = tmp_path / "log.jsonl"
    append_jsonl(path, [{"i": 0}])
    report = read_jsonl_report(path)
    assert report.records == [{"i": 0}]
    assert report.corrupt == 0 and not report.torn_tail
    missing = read_jsonl_report(tmp_path / "absent.jsonl")
    assert missing.records == [] and missing.corrupt == 0


def test_partial_write_fault_tears_the_append(tmp_path):
    from repro.faults import FaultPlan, FaultRule, clear_fault_plan, install_fault_plan
    from repro.io.jsonl import read_jsonl_report

    path = tmp_path / "ledger.jsonl"
    append_jsonl(path, [{"i": 0}])
    install_fault_plan(
        FaultPlan(
            [
                FaultRule(
                    site="jsonl.append",
                    kind="partial_write",
                    nth=1,
                    where="ledger",
                    fraction=0.5,
                )
            ]
        )
    )
    try:
        append_jsonl(path, [{"i": 1, "pad": "x" * 64}])
    finally:
        clear_fault_plan()
    report = read_jsonl_report(path)
    assert report.records == [{"i": 0}]
    assert report.torn_tail  # the truncated append is the (benign) tail
