"""Atomic append-only JSON-lines files shared by concurrent writers.

Every append-only log in the system — the campaign ledger, the shard/lease
manifest, the telemetry event stream, the tracer's sink — is a JSONL file
that multiple *processes* may append to at once (cooperating campaign
workers, a watcher-attached run, the service front end).  Concurrent
``open("a").write(...)`` through buffered text handles is only safe within
one process: a line can be split across multiple ``write(2)`` calls, and two
processes' fragments then interleave into torn, unparseable lines.

:func:`append_jsonl` gives every writer the one safe shape: each record is
serialised to a complete ``...\\n`` line and the whole batch is handed to
the kernel as a **single** ``write(2)`` on an ``O_APPEND`` descriptor.
POSIX applies the append offset atomically per write, so concurrent lines
land whole, in *some* order — which is exactly the contract the readers
(:func:`read_jsonl`, ``CampaignStore``'s torn-tail-tolerant parsers) rely
on.  Readers still skip unparseable lines defensively: a crash can truncate
the final line of a log even though writers never interleave.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..faults.plan import fault_point

__all__ = [
    "append_jsonl",
    "dumps_line",
    "read_jsonl",
    "read_jsonl_report",
    "JsonlReport",
    "JsonlFollower",
]


def dumps_line(record: Mapping[str, Any]) -> str:
    """One canonical JSONL line (sorted keys, no spaces, ``str`` fallback, LF)."""
    return json.dumps(dict(record), sort_keys=True, default=str, separators=(",", ":")) + "\n"


def append_jsonl(
    path: str | os.PathLike, records: Iterable[Mapping[str, Any]]
) -> int:
    """Append ``records`` to ``path`` as one atomic ``O_APPEND`` write.

    Returns the number of records written.  The batch is encoded first and
    written with a single ``os.write`` — no buffering layer that could split
    a line — so appends from concurrent processes never interleave within a
    line.  (A multi-record batch is likewise contiguous: the shard runner's
    per-shard ledger flush stays one write.)
    """
    lines = [dumps_line(record) for record in records]
    if not lines:
        return 0
    data = "".join(lines).encode("utf-8")
    path = Path(path)
    rule = fault_point("jsonl.append", ctx=path.name)
    if rule is not None and rule.kind == "partial_write":
        # Simulate a writer dying mid-write(2): only a prefix of the batch
        # lands, leaving a torn line for the readers/doctor to cope with.
        data = data[: max(1, int(len(data) * rule.fraction))]
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)
    return len(lines)


@dataclass
class JsonlReport:
    """What :func:`read_jsonl_report` found: records plus corruption counts.

    ``corrupt`` counts unparseable *mid-file* lines — real corruption that a
    crash cannot explain; ``torn_tail`` flags an unparseable *final* line,
    the benign signature of a killed writer.  Non-dict JSON values count as
    corrupt too: every log in the system is a stream of objects.
    """

    records: list[dict[str, Any]] = field(default_factory=list)
    corrupt: int = 0
    torn_tail: bool = False

    @property
    def skipped(self) -> int:
        """Total lines dropped (mid-file corruption plus any torn tail)."""
        return self.corrupt + (1 if self.torn_tail else 0)


def read_jsonl_report(path: str | os.PathLike) -> JsonlReport:
    """Parse a JSONL file, distinguishing mid-file corruption from a torn tail.

    A torn final line is the expected signature of a killed writer and is
    flagged but not warned about.  Unparseable lines *before* the last one
    mean the file was damaged some other way (disk fault, manual edit, an
    injected ``partial_write``); those are counted and a single warning event
    is emitted through the tracer so long-running campaigns surface the
    damage instead of silently shrinking.
    """
    path = Path(path)
    report = JsonlReport()
    if not path.exists():
        return report
    lines = path.read_text(encoding="utf-8").splitlines()
    bad_line_nos: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict):
            report.records.append(record)
        else:
            bad_line_nos.append(line_no)
    if bad_line_nos and bad_line_nos[-1] == len(lines):
        report.torn_tail = True
        bad_line_nos.pop()
    report.corrupt = len(bad_line_nos)
    if report.corrupt:
        # Lazy import: obs pulls in the campaign package, which imports us.
        from ..obs.trace import get_tracer

        get_tracer().event(
            "jsonl_corrupt_lines",
            path=str(path),
            corrupt=report.corrupt,
            lines=bad_line_nos[:16],
        )
    return report


class JsonlFollower:
    """Incremental reader for a growing JSONL file, safe against torn tails.

    The service's event streamer used to re-read and re-parse the whole
    ``events.jsonl`` on every poll tick — O(file) work per tick per follower.
    A follower instead remembers its byte offset and each :meth:`poll` parses
    only the bytes appended since the last call.

    Torn-tail safety: a writer killed mid-``write(2)`` can leave a final
    line without its ``\\n``.  The follower only consumes up to the last
    newline it has seen — an incomplete tail stays unread (and un-advanced)
    until the next append completes it, so a record is never emitted twice
    and never emitted half-parsed.  Unparseable *complete* lines are counted
    in :attr:`corrupt` and skipped, matching :func:`read_jsonl`'s tolerance.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.offset = 0
        self.corrupt = 0

    def poll(self) -> list[dict[str, Any]]:
        """Records appended since the last poll (empty if nothing new)."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        # Consume only whole lines; an unterminated tail is a write in
        # flight (or a torn final line) — leave it for the next poll.
        end = data.rfind(b"\n")
        if end < 0:
            return []
        chunk = data[: end + 1]
        self.offset += len(chunk)
        records: list[dict[str, Any]] = []
        for raw in chunk.splitlines():
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                self.corrupt += 1
        return records


def read_jsonl(path: str | os.PathLike) -> list[dict[str, Any]]:
    """All parseable records of a JSONL file, in append order.

    Unparseable lines — the torn tail a crashed writer can leave, or
    corrupt lines mid-file — and blank lines are skipped, matching the
    tolerance every campaign-store reader has always had.  A missing file
    is an empty log.  Use :func:`read_jsonl_report` to observe how many
    lines were dropped and why.
    """
    return read_jsonl_report(path).records
