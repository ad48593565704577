"""Campaign-store health checks and repair: ``spectrends campaign doctor``.

A campaign store accumulates append-only logs and content-addressed
artifacts across crashes, kills and concurrent workers — all of which are
*designed* to leave recoverable debris (torn tails, unrecorded artifacts,
expired leases).  The doctor distinguishes that benign debris from real
damage:

==================  =======================================================
category            meaning
==================  =======================================================
``corrupt-lines``   unparseable lines *mid-file* in a JSONL log — not
                    explainable by a crash (torn tails are always last)
``torn-tail``       unparseable final line of a JSONL log — a killed
                    writer's signature; harmless but tidied by ``--repair``
``missing-artifact``  a complete shard record whose ``.npz``/JSON artifact
                    is gone — the shard silently re-simulates on resume,
                    surfaced here so it isn't a surprise
``checksum-mismatch``  artifact bytes no longer match the checksum the
                    flush recorded — torn write or bit rot
``unreadable-artifact``  the artifact exists but cannot be parsed
``corrupt-orphan``  an artifact no shard record references *and* that does
                    not parse — a torn flush from a killed worker
``stale-lease``     a lease that is expired or whose holder is dead,
                    without a superseding result record
==================  =======================================================

Repairs never invent data: damaged shard records are superseded with a
``status: "damaged"`` entry (so the next ``resume`` re-simulates the
shard: a shard artifact is the only copy of its rows), damaged artifacts
and corrupt orphans are deleted, corrupt log lines are dropped by an
atomic rewrite, and stale leases get a released (born-expired) successor.
*Adoptable* orphans — artifacts that parse cleanly and that
:func:`~repro.campaign.sharding._recover_shard` would adopt on the next
resume — are reported as notes and deliberately left alone.  A store
written by an older resident run has no shard layout: its artifacts are
flush batches the unit-cache index (``results/index.jsonl``) points at,
so only corrupt ones are reported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..io.jsonl import dumps_line, read_jsonl_report
from .leases import Lease
from .store import CampaignStore

__all__ = ["DoctorIssue", "DoctorReport", "doctor_store"]


@dataclass
class DoctorIssue:
    """One problem the scan found, and what ``--repair`` did about it."""

    category: str
    detail: str
    action: str = ""  # empty until a repair is applied

    def describe(self) -> str:
        line = f"[{self.category}] {self.detail}"
        if self.action:
            line += f" -> {self.action}"
        return line


@dataclass
class DoctorReport:
    """Outcome of one doctor scan over a campaign store."""

    store_directory: str
    issues: list[DoctorIssue] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    repair: bool = False

    @property
    def healthy(self) -> bool:
        return not self.issues

    @property
    def unresolved(self) -> list[DoctorIssue]:
        return [issue for issue in self.issues if not issue.action]

    def describe(self) -> str:
        lines = [f"doctor: {self.store_directory}"]
        if self.healthy:
            lines.append("  store is healthy")
        for issue in self.issues:
            lines.append(f"  {issue.describe()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.issues and not self.repair:
            lines.append("  run with --repair to fix the issues above")
        return "\n".join(lines)


def _rewrite_jsonl(path: Path, records: list[dict[str, Any]]) -> None:
    """Atomically replace a JSONL log with only its parseable records."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("".join(dumps_line(record) for record in records), encoding="utf-8")
    os.replace(tmp, path)


def _scan_log(report: DoctorReport, path: Path, label: str) -> None:
    """Check one JSONL log for mid-file corruption and a torn tail."""
    log = read_jsonl_report(path)
    if log.corrupt:
        issue = DoctorIssue(
            "corrupt-lines", f"{label}: {log.corrupt} unparseable mid-file line(s)"
        )
        if report.repair:
            _rewrite_jsonl(path, log.records)
            issue.action = "dropped by atomic rewrite"
        report.issues.append(issue)
    elif log.torn_tail:
        issue = DoctorIssue("torn-tail", f"{label}: unparseable final line")
        if report.repair:
            _rewrite_jsonl(path, log.records)
            issue.action = "dropped by atomic rewrite"
        report.issues.append(issue)


def _supersede_damaged(store: CampaignStore, entry: dict[str, Any]) -> None:
    """Append a shard record that forces re-execution on the next resume."""
    store.record_shard(
        {
            "index": entry.get("index"),
            "start": entry.get("start"),
            "count": entry.get("count"),
            "n_rows": 0,
            "failed": 0,
            "keys_digest": entry.get("keys_digest"),
            "artifact": entry.get("artifact"),
            "status": "damaged",
        }
    )


def _delete_artifact(store: CampaignStore, key: str) -> None:
    shard_store = store.shard_store
    shard_store._path(key).unlink(missing_ok=True)
    shard_store.sidecar_path(key).unlink(missing_ok=True)


def _scan_shard_artifacts(report: DoctorReport, store: CampaignStore) -> set[str]:
    """Verify every recorded-complete shard's artifact; returns referenced keys."""
    from .sharding import _load_shard_frame

    shard_store = store.shard_store
    referenced: set[str] = set()
    entries = store.shard_entries()
    for index in sorted(entries):
        entry = entries[index]
        artifact_key = entry.get("artifact")
        if isinstance(artifact_key, str):
            referenced.add(artifact_key)
        if entry.get("status") != "complete" or not isinstance(artifact_key, str):
            continue
        issue: DoctorIssue | None = None
        checksum = entry.get("checksum")
        if artifact_key not in shard_store:
            issue = DoctorIssue(
                "missing-artifact", f"shard {index}: artifact {artifact_key[:12]} gone"
            )
        elif (
            isinstance(checksum, str)
            and shard_store.sidecar_digest(artifact_key) != checksum
        ):
            issue = DoctorIssue(
                "checksum-mismatch",
                f"shard {index}: artifact {artifact_key[:12]} bytes do not "
                "match the recorded flush checksum",
            )
        else:
            try:
                frame = _load_shard_frame(shard_store, artifact_key)
            except Exception as exc:
                issue = DoctorIssue(
                    "unreadable-artifact",
                    f"shard {index}: artifact {artifact_key[:12]} unreadable ({exc})",
                )
            else:
                if frame is not None and len(frame) != int(entry.get("n_rows", -1)):
                    issue = DoctorIssue(
                        "unreadable-artifact",
                        f"shard {index}: artifact {artifact_key[:12]} has "
                        f"{len(frame)} rows, record says {entry.get('n_rows')}",
                    )
        if issue is not None:
            if report.repair:
                _delete_artifact(store, artifact_key)
                _supersede_damaged(store, entry)
                issue.action = "artifact deleted; shard marked damaged for re-execution"
            report.issues.append(issue)
    return referenced


def _scan_orphans(
    report: DoctorReport, store: CampaignStore, referenced: set[str]
) -> None:
    """Classify unreferenced artifacts: adoptable debris vs torn garbage."""
    from .sharding import _load_shard_frame

    shard_store = store.shard_store
    streaming = store.stored_shard_size() is not None
    for key in sorted(shard_store.keys()):
        if key in referenced:
            continue
        try:
            frame = _load_shard_frame(shard_store, key)
        except Exception:
            frame = None
        if frame is not None:
            # A killed worker flushed this but never recorded it; the next
            # resume's recovery probe adopts it for free.  Leave it alone.
            # (An older resident store's intact flush batches are not debris.)
            if streaming:
                report.notes.append(
                    f"orphan artifact {key[:12]} is intact ({len(frame)} rows); "
                    "a resume can adopt it"
                )
            continue
        issue = DoctorIssue(
            "corrupt-orphan", f"artifact {key[:12]} is unreferenced and unreadable"
        )
        if report.repair:
            _delete_artifact(store, key)
            issue.action = "deleted"
        report.issues.append(issue)


def _scan_leases(report: DoctorReport, store: CampaignStore) -> None:
    """Flag claims that will never complete: expired or dead-holder leases."""
    results = store.shard_entries()
    for index, record in sorted(store.lease_entries().items()):
        lease = Lease.from_record(record)
        if lease is None:
            continue
        entry = results.get(index)
        if entry is not None and entry.get("status") == "complete":
            continue  # a result record supersedes any lease
        if lease.valid():
            continue
        if lease.deadline <= lease.ts:
            continue  # an explicit release, not a stale claim
        reason = "holder dead" if not lease.holder_alive() else "expired (no heartbeat)"
        issue = DoctorIssue(
            "stale-lease",
            f"shard {index}: lease by {lease.worker} (pid {lease.pid}) {reason}",
        )
        if report.repair:
            store.record_lease(
                Lease(
                    index=index,
                    worker=lease.worker,
                    pid=lease.pid,
                    ts=lease.ts,
                    deadline=lease.ts,
                ).to_record()
            )
            issue.action = "released"
        report.issues.append(issue)


def doctor_store(
    store_dir: str | os.PathLike, repair: bool = False
) -> DoctorReport:
    """Scan (and with ``repair=True``, fix) one campaign store.

    The scan covers every JSONL log (ledger, shard manifest, events,
    quarantine), every recorded-complete shard artifact (existence,
    recorded checksum, parseability, row count), unreferenced artifacts,
    and the lease table.  Repairs are conservative: they only delete
    provably damaged state and only supersede records through the same
    append-only channels the runners use, so a repaired store resumes
    through the ordinary recovery machinery.
    """
    store = CampaignStore(store_dir)
    store.load_spec()  # not a campaign store -> CampaignError, like the CLI
    report = DoctorReport(store_directory=str(store.directory), repair=repair)

    _scan_log(report, store.ledger_path, "ledger.jsonl")
    _scan_log(report, store.shards_path, "shards.jsonl")
    _scan_log(report, store.events_path, "events.jsonl")
    _scan_log(report, store.quarantine_path, "quarantine.jsonl")

    referenced = _scan_shard_artifacts(report, store)
    _scan_orphans(report, store, referenced)
    _scan_leases(report, store)

    quarantined = store.quarantine_keys()
    if quarantined:
        report.notes.append(
            f"{len(quarantined)} unit(s) quarantined (campaign is degraded); "
            "delete quarantine.jsonl to retry them"
        )
    return report
