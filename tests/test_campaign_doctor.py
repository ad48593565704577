"""``campaign doctor``: every issue category, repair semantics, CLI exit codes."""

from __future__ import annotations

import os
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    Lease,
    doctor_store,
    resume_streaming,
    stream_campaign,
)
from repro.cli.main import main as cli_main
from repro.errors import CampaignError

FAST_BASE = {"load_levels": [1.0, 0.0], "measurement_noise": False}


def doctor_spec(name="doctor-test", seeds=(1, 2)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        sweep={"cpu_model": ["EPYC 9654", "Xeon X5670"], "seed": list(seeds)},
        base=FAST_BASE,
    )


@pytest.fixture
def healthy_store(tmp_path):
    """A completed 2-shard streaming store and its result."""
    store_dir = tmp_path / "store"
    result = stream_campaign(doctor_spec(), store_dir, shard_size=2)
    assert result.is_complete
    return store_dir, result


class TestHealthyStore:
    def test_clean_store_reports_healthy(self, healthy_store):
        store_dir, _ = healthy_store
        report = doctor_store(store_dir)
        assert report.healthy and not report.unresolved
        assert "store is healthy" in report.describe()

    def test_not_a_store_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            doctor_store(tmp_path / "nothing-here")


class TestLogDamage:
    def test_corrupt_midfile_lines_found_and_repaired(self, healthy_store):
        store_dir, _ = healthy_store
        ledger = CampaignStore(store_dir).ledger_path
        lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(1, "this is not json\n")
        ledger.write_text("".join(lines), encoding="utf-8")

        report = doctor_store(store_dir)
        categories = [issue.category for issue in report.issues]
        assert categories == ["corrupt-lines"]
        assert report.unresolved and "--repair" in report.describe()

        repaired = doctor_store(store_dir, repair=True)
        assert not repaired.unresolved
        assert "atomic rewrite" in repaired.describe()
        assert doctor_store(store_dir).healthy

    def test_torn_tail_found_and_tidied(self, healthy_store):
        store_dir, _ = healthy_store
        events = CampaignStore(store_dir).events_path
        with open(events, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')

        report = doctor_store(store_dir)
        assert [issue.category for issue in report.issues] == ["torn-tail"]
        doctor_store(store_dir, repair=True)
        assert doctor_store(store_dir).healthy


class TestArtifactDamage:
    def test_missing_artifact_marked_damaged_and_reexecutes(self, healthy_store):
        store_dir, result = healthy_store
        store = CampaignStore(store_dir)
        key = store.shard_entries()[0]["artifact"]
        store.shard_store._path(key).unlink()
        store.shard_store.sidecar_path(key).unlink()

        report = doctor_store(store_dir)
        assert [issue.category for issue in report.issues] == ["missing-artifact"]

        doctor_store(store_dir, repair=True)
        entries = CampaignStore(store_dir).shard_entries()
        assert entries[0]["status"] == "damaged"
        healed = resume_streaming(store_dir)
        assert healed.is_complete
        assert healed.frame().equals(result.frame())
        assert doctor_store(store_dir).healthy

    def test_checksum_mismatch_detected_and_healed(self, healthy_store):
        store_dir, result = healthy_store
        store = CampaignStore(store_dir)
        key = store.shard_entries()[1]["artifact"]
        sidecar = store.shard_store.sidecar_path(key)
        data = sidecar.read_bytes()
        sidecar.write_bytes(data[: len(data) // 2])  # torn write / bit rot

        report = doctor_store(store_dir)
        assert [issue.category for issue in report.issues] == ["checksum-mismatch"]

        doctor_store(store_dir, repair=True)
        healed = resume_streaming(store_dir)
        assert healed.is_complete and healed.frame().equals(result.frame())
        assert doctor_store(store_dir).healthy

    def test_row_count_mismatch_is_unreadable_artifact(self, healthy_store):
        store_dir, _ = healthy_store
        store = CampaignStore(store_dir)
        entry = dict(store.shard_entries()[0])
        entry.pop("checksum", None)
        entry["n_rows"] = int(entry["n_rows"]) + 1  # record lies about the rows
        store.record_shard(entry)

        report = doctor_store(store_dir)
        assert [issue.category for issue in report.issues] == ["unreadable-artifact"]
        doctor_store(store_dir, repair=True)
        assert resume_streaming(store_dir).is_complete
        assert doctor_store(store_dir).healthy


class TestOrphans:
    def test_intact_orphan_is_a_note_not_an_issue(self, healthy_store):
        store_dir, result = healthy_store
        store = CampaignStore(store_dir)
        # Forget shard 0's result record: its artifact becomes an intact
        # orphan — exactly what a worker killed pre-record leaves behind.
        from repro.io.jsonl import dumps_line, read_jsonl

        records = [
            r for r in read_jsonl(store.shards_path)
            if r.get("kind") == "lease" or r.get("index") != 0
        ]
        store.shards_path.write_text(
            "".join(dumps_line(r) for r in records), encoding="utf-8"
        )

        report = doctor_store(store_dir)
        assert report.healthy
        assert any("adopt" in note for note in report.notes)
        # Repair leaves adoptable debris alone; resume adopts it for free.
        doctor_store(store_dir, repair=True)
        healed = resume_streaming(store_dir)
        assert healed.is_complete and healed.simulated == 0
        assert healed.frame().equals(result.frame())

    def test_orphans_of_another_layout_are_kept_but_not_adoptable(self, tmp_path):
        # A re-run at shard size 3 leaves the size-2 artifacts of shards 0
        # and 1 unreferenced.  No resume at the stored layout adopts them,
        # and unit-cache index lines still point into them, so they stay.
        spec = doctor_spec(name="relayout", seeds=(1, 2, 3))  # 6 units
        store_dir = tmp_path / "store"
        stream_campaign(spec, store_dir, shard_size=2)
        stream_campaign(spec, store_dir, shard_size=3)
        report = doctor_store(store_dir, repair=True)
        assert report.healthy
        orphans = [note for note in report.notes if note.startswith("orphan artifact")]
        assert len(orphans) == 2
        assert not any("a resume can adopt it" in note for note in orphans)
        assert len(CampaignStore(store_dir).shard_store) == 5
        assert doctor_store(store_dir).healthy

    def test_corrupt_orphan_deleted_on_repair(self, healthy_store):
        store_dir, _ = healthy_store
        store = CampaignStore(store_dir)
        orphan_key = "f" * 64
        store.shard_store.put(orphan_key, {"columns": [], "n_rows": 0})
        sidecar = store.shard_store.sidecar_path(orphan_key)
        sidecar.write_bytes(b"\x00not an npz")

        report = doctor_store(store_dir)
        assert [issue.category for issue in report.issues] == ["corrupt-orphan"]
        doctor_store(store_dir, repair=True)
        assert orphan_key not in store.shard_store
        assert doctor_store(store_dir).healthy


class TestLeases:
    def test_stale_lease_found_and_released(self, tmp_path):
        store_dir = tmp_path / "store"
        stream_campaign(doctor_spec(), store_dir, shard_size=2, max_shards=1)
        store = CampaignStore(store_dir)
        now = time.time()
        store.record_lease(
            Lease(
                index=1, worker="ghost", pid=os.getpid(), ts=now - 60,
                deadline=now - 30,  # expired: a hung worker's abandoned claim
            ).to_record()
        )

        report = doctor_store(store_dir)
        assert [issue.category for issue in report.issues] == ["stale-lease"]
        assert "no heartbeat" in report.issues[0].detail

        doctor_store(store_dir, repair=True)
        assert doctor_store(store_dir).healthy
        assert resume_streaming(store_dir).is_complete

    def test_released_lease_is_not_stale(self, tmp_path):
        store_dir = tmp_path / "store"
        stream_campaign(doctor_spec(), store_dir, shard_size=2, max_shards=1)
        store = CampaignStore(store_dir)
        now = time.time()
        store.record_lease(
            Lease(index=1, worker="polite", pid=os.getpid(), ts=now, deadline=now)
            .to_record()
        )
        assert doctor_store(store_dir).healthy

    def test_lease_superseded_by_result_is_ignored(self, healthy_store):
        store_dir, _ = healthy_store
        store = CampaignStore(store_dir)
        now = time.time()
        store.record_lease(
            Lease(
                index=0, worker="done", pid=os.getpid(), ts=now - 60,
                deadline=now - 30,
            ).to_record()
        )
        assert doctor_store(store_dir).healthy  # the result record wins


class TestQuarantineNote:
    def test_quarantined_units_surface_as_note(self, healthy_store):
        store_dir, _ = healthy_store
        store = CampaignStore(store_dir)
        unit = doctor_spec().expand()[0]
        store.record_quarantine(unit, "InjectedFault: poison", attempts=3)
        report = doctor_store(store_dir)
        assert report.healthy
        assert any("quarantined" in note for note in report.notes)


class TestDoctorCli:
    def test_cli_healthy_exit_zero(self, healthy_store, capsys):
        store_dir, _ = healthy_store
        assert cli_main(["campaign", "doctor", "--store", str(store_dir)]) == 0
        assert "store is healthy" in capsys.readouterr().out

    def test_cli_unresolved_exit_one_then_repair_exit_zero(
        self, healthy_store, capsys
    ):
        store_dir, _ = healthy_store
        ledger = CampaignStore(store_dir).ledger_path
        lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(1, "garbage\n")
        ledger.write_text("".join(lines), encoding="utf-8")

        assert cli_main(["campaign", "doctor", "--store", str(store_dir)]) == 1
        out = capsys.readouterr().out
        assert "corrupt-lines" in out and "--repair" in out

        assert (
            cli_main(["campaign", "doctor", "--store", str(store_dir), "--repair"])
            == 0
        )
        assert "atomic rewrite" in capsys.readouterr().out

    def test_cli_missing_store_is_operator_error(self, tmp_path, capsys):
        code = cli_main(["campaign", "doctor", "--store", str(tmp_path / "nope")])
        assert code == 2
        assert capsys.readouterr().err.strip()
