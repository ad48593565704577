"""Resumable campaign directories.

A campaign store is a directory with everything needed to continue an
interrupted campaign without the original process:

* ``spec.json`` — snapshot of the :class:`CampaignSpec` (``resume`` re-expands
  it instead of trusting in-memory state),
* ``manifest.json`` — the unit count and the shard layout (units per shard)
  the store was last run at, written before execution starts so ``status``
  can report progress against the full grid even mid-run,
* ``shards/`` — content-addressed columnar ``.npz`` frame artifacts, one per
  flushed shard: the one place every completed row is stored,
* ``results/index.jsonl`` — the :class:`ResultCache` index: one line per
  flushed artifact, mapping unit-key prefixes to its rows.  A campaign
  service points every job store at one shared results root instead,
* ``ledger.jsonl`` — append-only per-unit outcome log (``ok`` / ``failed``
  with the captured error), the record of *attempts* as opposed to the
  cache's record of *successes*,
* ``shards.jsonl`` — the append-only shard manifest (latest entry per shard
  index wins) pointing into ``shards/``, the state that lets ``resume``
  restart at shard granularity.

Because results are keyed by content and the ledger is append-only, a store
survives being killed at any point: the next run simply simulates whatever
keys are missing from the cache.  Stores written by older versions are
read, never written: a resident store's ``manifest.json`` may list every
unit (``status`` walks it against the cache), and its ``results/`` may keep
one JSON file per unit (the cache still reads them).  The next run over
such a store records a shard layout.

Record kinds and concurrency
----------------------------
``shards.jsonl`` is also the coordination ledger for multi-worker
execution.  Two record kinds share the file, discriminated by the ``kind``
field:

* **result records** (no ``kind`` field, historically, or ``kind:
  "shard"``) — one shard outcome per line; the latest result record per
  index wins (:meth:`shard_entries`),
* **lease records** (``kind: "lease"``) — a worker's claim on a shard
  (worker id, pid, wall-clock deadline); the latest lease per index wins
  (:meth:`lease_entries`), and a result record supersedes any lease for
  its shard.  See :mod:`repro.campaign.leases`.

Every append in this module is a single ``write(2)`` on an ``O_APPEND``
descriptor (:func:`repro.io.jsonl.append_jsonl`), so concurrent workers
appending to the same ledger never interleave within a line — readers see
whole records in *some* order, which is all the latest-wins semantics need.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..errors import CampaignError
from ..io.jsonl import JsonlFollower, append_jsonl, read_jsonl
from .cache import ResultCache
from .spec import CampaignSpec, CampaignUnit

if TYPE_CHECKING:  # import-cycle-safe: only the type checker needs this
    from ..session.artifacts import ArtifactStore

__all__ = ["SHARD_SCHEMA", "CampaignStatus", "CampaignStore", "ShardProgress"]

#: Schema version of per-shard frame artifacts; bump when the columnar
#: payload layout changes so stale shard artifacts miss instead of loading.
SHARD_SCHEMA = 1


@dataclass(frozen=True)
class ShardProgress:
    """Shard-level progress of a streaming store's flush pipeline.

    Only stores with a shard layout carry it (a store written by an older
    resident run has none); it is what makes ``campaign status`` and
    ``campaign watch`` agree — both read the same shard manifest.
    """

    total: int
    complete: int
    partial: int
    rows_flushed: int
    shard_size: int

    @property
    def pending(self) -> int:
        return max(self.total - self.complete - self.partial, 0)

    def describe(self) -> str:
        return (
            f"shards: {self.complete}/{self.total} complete, "
            f"{self.partial} partial, {self.pending} pending "
            f"({self.rows_flushed} rows flushed, shard_size={self.shard_size})"
        )


@dataclass(frozen=True)
class CampaignStatus:
    """Progress snapshot of a campaign store."""

    name: str
    total: int
    completed: int
    failed: int
    failures: tuple[tuple[str, str], ...]  # (unit_id, error)
    shards: ShardProgress | None = None
    #: Units that exhausted their retry budget and were written to
    #: ``quarantine.jsonl`` — excluded from execution, so a campaign that
    #: has any can at best finish ``degraded``.
    quarantined: int = 0

    @property
    def pending(self) -> int:
        return self.total - self.completed

    @property
    def is_complete(self) -> bool:
        return self.completed == self.total

    @property
    def is_degraded(self) -> bool:
        """Everything ran except quarantined poison units."""
        return (
            self.quarantined > 0
            and self.completed + self.quarantined >= self.total
            and not self.is_complete
        )

    def describe(self) -> str:
        lines = [
            f"campaign {self.name}: {self.completed}/{self.total} units "
            f"completed, {self.pending} pending, {self.failed} failed"
        ]
        if self.quarantined:
            state = "degraded" if self.is_degraded else f"{self.pending} pending"
            lines.append(f"  {self.quarantined} quarantined ({state})")
        if self.shards is not None:
            lines.append(f"  {self.shards.describe()}")
        for unit_id, error in self.failures:
            lines.append(f"  failed {unit_id}: {error}")
        return "\n".join(lines)


class CampaignStore:
    """On-disk state of one campaign."""

    def __init__(
        self,
        directory: str | os.PathLike,
        results_dir: str | os.PathLike | None = None,
    ):
        # The directory is created by ``initialize_streaming`` (and lazily by
        # cache writes), never by construction: ``status`` on a mistyped path
        # must not scaffold an empty store.
        self.directory = Path(directory)
        self._explicit_results_dir = (
            Path(results_dir) if results_dir is not None else None
        )
        self._cache: ResultCache | None = None

    @property
    def results_dir(self) -> Path:
        """Where this store's unit results live.

        Defaults to the store-local ``results/``; a campaign service points
        several job stores at one shared directory so identical units
        submitted by different clients dedup through the content-hash
        cache.  An explicit ``results_dir`` passed at construction wins;
        otherwise a ``results_dir`` recorded in the manifest (by
        :meth:`initialize_streaming`) is honoured so ``resume``/``status``
        on a service-owned store find the shared cache without being told.
        """
        if self._explicit_results_dir is not None:
            return self._explicit_results_dir
        stored = self._stored_results_dir()
        if stored is not None:
            return stored
        return self.directory / "results"

    def _stored_results_dir(self) -> Path | None:
        try:
            data = self._read_json(self.manifest_path, "missing", "manifest")
        except CampaignError:
            return None
        value = data.get("results_dir")
        if isinstance(value, str) and value:
            return Path(value)
        return None

    @property
    def cache(self) -> ResultCache:
        if self._cache is None:
            self._cache = ResultCache(self.results_dir)
        return self._cache

    def use_cache(self, cache: ResultCache | None) -> ResultCache:
        """Share ``cache`` if it indexes this store's results root; returns the one in use.

        A process serving many stores over one results root (a service pool
        worker) keeps one :class:`ResultCache` for all of them, so the
        root's index is held in memory once, not once per store.
        """
        if cache is None or cache.directory != self.results_dir:
            cache = ResultCache(self.results_dir)
        self._cache = cache
        return cache

    # ------------------------------------------------------------------ #
    @property
    def spec_path(self) -> Path:
        return self.directory / "spec.json"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def ledger_path(self) -> Path:
        return self.directory / "ledger.jsonl"

    @property
    def shards_path(self) -> Path:
        return self.directory / "shards.jsonl"

    @property
    def events_path(self) -> Path:
        return self.directory / "events.jsonl"

    @property
    def quarantine_path(self) -> Path:
        return self.directory / "quarantine.jsonl"

    @property
    def shard_store(self) -> "ArtifactStore":
        """Content-addressed store of per-shard columnar frame artifacts.

        Shard artifacts are campaign state, so unreadable entries surface
        as :class:`CampaignError` (mirroring :class:`ResultCache`) — one
        exception type for every campaign-store failure the CLI and the
        streaming export paths guard against.
        """
        from ..session.artifacts import ArtifactStore

        store = ArtifactStore(self.directory / "shards", schema=SHARD_SCHEMA)
        store.error = CampaignError
        return store

    # ------------------------------------------------------------------ #
    def _write_spec_snapshot(self, spec: CampaignSpec) -> None:
        """Record the spec snapshot, rejecting a conflicting existing one.

        A store only ever belongs to one spec; initialising with a different
        one is an error (use a fresh directory per campaign).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.spec_path.exists():
            stored = self.load_spec()
            if stored.to_dict() != spec.to_dict():
                raise CampaignError(
                    f"store {self.directory} already holds campaign "
                    f"{stored.name!r} with a different spec"
                )
        else:
            self.spec_path.write_text(
                json.dumps(spec.to_dict(), indent=2, sort_keys=True),
                encoding="utf-8",
            )

    def initialize_streaming(self, spec: CampaignSpec, shard_size: int) -> None:
        """Record the spec snapshot and a *light* manifest (no unit list).

        Every run executes shard by shard, so the manifest holds only the
        unit count and the shard layout — O(plan)-sized per-unit metadata
        would defeat a streamed run's bounded-memory contract.  ``status``
        and ``resume`` work from the ledger and the shard manifest.
        """
        self._write_spec_snapshot(spec)
        manifest: dict[str, Any] = {
            "name": spec.name,
            "n_units": spec.n_units,
            "sharded": {"shard_size": int(shard_size)},
        }
        if self._explicit_results_dir is not None:
            manifest["results_dir"] = str(self._explicit_results_dir)
        self.manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )

    def _layout(self) -> tuple[int, int] | None:
        """``(shard_size, n_units)`` the store was last initialised with, if any."""
        try:
            data = self._read_json(self.manifest_path, "missing", "manifest")
        except CampaignError:
            return None
        sharded = data.get("sharded")
        size = sharded.get("shard_size") if isinstance(sharded, Mapping) else None
        if not isinstance(size, int) or size < 1:
            return None
        return size, int(data.get("n_units", 0))

    def stored_shard_size(self) -> int | None:
        """The shard layout the store was last initialised with, if any."""
        layout = self._layout()
        return None if layout is None else layout[0]

    def _read_json(self, path: Path, missing: str, what: str) -> Any:
        """Read one JSON document, mapping IO failures to campaign errors."""
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CampaignError(missing) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(f"unreadable {what}: {exc}") from exc

    def load_spec(self) -> CampaignSpec:
        """The spec snapshot the store was initialised with."""
        data = self._read_json(
            self.spec_path,
            f"{self.directory} is not a campaign store (no spec.json)",
            "spec snapshot",
        )
        return CampaignSpec.from_dict(data)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _ledger_entry(unit: CampaignUnit, error: str | None) -> dict[str, Any]:
        entry = {
            "unit_id": unit.unit_id,
            "key": unit.key,
            "status": "ok" if error is None else "failed",
        }
        if error is not None:
            entry["error"] = error
        return entry

    def record_many(
        self, outcomes: "Iterable[tuple[CampaignUnit, str | None]]"
    ) -> None:
        """Append a batch of attempt outcomes as one atomic write.

        Runs flush one shard at a time; a single ``O_APPEND`` write per
        shard keeps ledger bookkeeping cheap at 100k-unit scale *and* keeps
        concurrent workers' batches contiguous.
        """
        append_jsonl(
            self.ledger_path,
            (self._ledger_entry(unit, error) for unit, error in outcomes),
        )

    def _jsonl_entries(self, path: Path) -> list[dict[str, Any]]:
        """Entries of one append-only JSONL file (torn tail lines skipped)."""
        return read_jsonl(path)

    def ledger_entries(self) -> list[dict[str, Any]]:
        """All ledger entries in append order (torn tail lines skipped)."""
        return self._jsonl_entries(self.ledger_path)

    # ------------------------------------------------------------------ #
    # Shard manifest
    # ------------------------------------------------------------------ #
    def record_shard(self, entry: Mapping[str, Any]) -> None:
        """Append one shard outcome to the shard manifest.

        Entries are append-only like the ledger; the *latest* entry per
        shard index wins (a resumed partial shard appends a fresh entry
        once it completes).
        """
        append_jsonl(self.shards_path, [dict(entry)])

    def shard_entries(self) -> dict[int, dict[str, Any]]:
        """Latest shard *result* entry per shard index (leases excluded).

        This is what gives ``resume`` shard granularity: a shard whose
        latest entry is complete (and whose artifact still loads) is
        skipped wholesale — no per-unit cache probing, no re-simulation.
        """
        latest: dict[int, dict[str, Any]] = {}
        for entry in self._jsonl_entries(self.shards_path):
            if entry.get("kind") == "lease":
                continue
            index = entry.get("index")
            if isinstance(index, int):
                latest[index] = entry
        return latest

    def record_lease(self, entry: Mapping[str, Any]) -> None:
        """Append one lease record (``kind: "lease"``) to the shard ledger.

        Leases share ``shards.jsonl`` with result records so that a claim
        and its completion live in one append-ordered file — a reader never
        sees a completion without being able to see the claim that
        produced it.  See :mod:`repro.campaign.leases` for semantics.
        """
        record = dict(entry)
        record["kind"] = "lease"
        append_jsonl(self.shards_path, [record])

    def lease_entries(self) -> dict[int, dict[str, Any]]:
        """Latest lease record per shard index (latest-wins, like results)."""
        latest: dict[int, dict[str, Any]] = {}
        for entry in self._jsonl_entries(self.shards_path):
            if entry.get("kind") != "lease":
                continue
            index = entry.get("index")
            if isinstance(index, int):
                latest[index] = entry
        return latest

    # ------------------------------------------------------------------ #
    # Poison-unit quarantine (retry exhaustion; see campaign.sharding)
    # ------------------------------------------------------------------ #
    def record_quarantine(
        self, unit: CampaignUnit, error: str, attempts: int
    ) -> None:
        """Record a unit that exhausted its retry budget as quarantined.

        Quarantined units are excluded from later execution passes (a
        poison unit must not stall a 100k-unit sweep forever) and the
        campaign that skips any completes ``degraded`` rather than
        ``complete`` — the record here is what makes that status, and the
        exact units behind it, durable and auditable.
        """
        append_jsonl(
            self.quarantine_path,
            [
                {
                    "unit_id": unit.unit_id,
                    "key": unit.key,
                    "error": error,
                    "attempts": int(attempts),
                    "ts": time.time(),
                }
            ],
        )

    def quarantine_entries(self) -> list[dict[str, Any]]:
        """All quarantine records in append order (latest per key last)."""
        return self._jsonl_entries(self.quarantine_path)

    def quarantine_keys(self) -> set[str]:
        """Unit keys currently quarantined (skipped by execution passes)."""
        return {
            entry["key"]
            for entry in self.quarantine_entries()
            if isinstance(entry.get("key"), str)
        }

    # ------------------------------------------------------------------ #
    # Telemetry event log (``campaign watch`` tails this)
    # ------------------------------------------------------------------ #
    def record_event(self, name: str, /, **fields: Any) -> None:
        """Append one telemetry event to the store's ``events.jsonl``.

        Events are observability state, never campaign state: nothing in
        the data plane reads them back, so emission is bit-effect-free on
        results.  The streaming runner emits one compact event per shard
        flush — what ``campaign watch`` and ``profile report`` consume.
        """
        record: dict[str, Any] = {"event": name, "ts": time.time()}
        record.update(fields)
        append_jsonl(self.events_path, [record])

    def event_entries(self) -> list[dict[str, Any]]:
        """All telemetry events in append order (torn tail lines skipped)."""
        return self._jsonl_entries(self.events_path)

    def events_follower(self) -> "JsonlFollower":
        """Offset-tracking incremental reader over ``events.jsonl``.

        Each ``poll()`` parses only bytes appended since the last call —
        the service event streamer holds one follower per connection
        instead of re-reading the whole log every tick.
        """
        return JsonlFollower(self.events_path)

    def layout_entries(self) -> dict[int, dict[str, Any]]:
        """Latest result record per shard of the stored layout.

        A store re-run at another shard size keeps the old layout's records
        in ``shards.jsonl``; they cover other unit ranges, so only records
        whose ``start`` and ``count`` match the stored layout are returned
        (none for a store without a layout).
        """
        layout = self._layout()
        if layout is None:
            return {}
        shard_size, n_units = layout
        return {
            index: entry
            for index, entry in self.shard_entries().items()
            if entry.get("start") == index * shard_size
            and entry.get("count") == min(shard_size, n_units - index * shard_size)
        }

    def shard_progress(self) -> "ShardProgress | None":
        """Shard-level progress over :meth:`layout_entries` (or ``None``).

        Stores written by an older resident run have no layout and return
        ``None``.
        """
        layout = self._layout()
        if layout is None:
            return None
        shard_size, n_units = layout
        complete = 0
        partial = 0
        rows = 0
        for entry in self.layout_entries().values():
            if entry.get("status") == "complete":
                complete += 1
            else:
                partial += 1
            rows += int(entry.get("n_rows", 0))
        return ShardProgress(
            total=-(-n_units // shard_size),
            complete=complete,
            partial=partial,
            rows_flushed=rows,
            shard_size=shard_size,
        )

    # ------------------------------------------------------------------ #
    def status(self) -> CampaignStatus:
        """Progress against the manifest, from cache + ledger state.

        Completion is the rows this store's shard records hold and failures
        come from the ledger — O(shards) instead of O(plan) metadata.  A
        manifest that lists every unit (written by an older resident run)
        is walked unit by unit against the cache instead.
        """
        spec = self.load_spec()
        data = self._read_json(
            self.manifest_path,
            f"{self.directory} has no manifest; run the campaign first",
            "manifest",
        )
        manifest = data.get("units")
        last_error: dict[str, str] = {}
        unit_ids: dict[str, str] = {}
        for entry in self.ledger_entries():
            unit_ids[entry["key"]] = entry.get("unit_id", entry["key"][:16])
            if entry.get("status") == "failed":
                last_error[entry["key"]] = entry.get("error", "unknown error")
            else:
                last_error.pop(entry["key"], None)
        progress = self.shard_progress()
        completed = 0
        failures: list[tuple[str, str]] = []
        if manifest is None:
            total = int(data.get("n_units", 0))
            # The index keeps key prefixes only, so it cannot enumerate this
            # campaign's units (and a shared one holds other campaigns');
            # the rows flushed into this store's shards are its completion.
            if progress is not None:
                completed = progress.rows_flushed
            for key, error in last_error.items():
                if key not in self.cache:
                    failures.append((unit_ids[key], error))
        else:
            total = len(manifest)
            for unit in manifest:
                if unit["key"] in self.cache:
                    completed += 1
                elif unit["key"] in last_error:
                    failures.append((unit["unit_id"], last_error[unit["key"]]))
        quarantined = {
            key for key in self.quarantine_keys() if key not in self.cache
        }
        return CampaignStatus(
            name=spec.name,
            total=total,
            completed=completed,
            failed=len(failures),
            failures=tuple(failures),
            shards=progress,
            quarantined=len(quarantined),
        )
