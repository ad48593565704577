"""Content-addressed unit keys, and the unit cache the shard artifacts serve.

A unit's cache key is the SHA-256 digest of a canonical JSON encoding of its
resolved parameters, its :class:`SimulationOptions` and its seed.  The key is
independent of the sweep that produced the unit, of axis ordering and of the
campaign name, so identical scenarios share one cache entry across campaigns
and re-running a spec only simulates units whose keys are absent.

Storage
-------
Every completed row is stored once, in the columnar ``.npz`` artifact its
run flushed into a store's ``shards/`` (a streamed shard, or one resident
flush batch).  The unit cache is an append-only index over those artifacts,
``index.jsonl`` in the results root, with one line per flushed artifact:

* ``shards`` -- the artifact store's directory, relative to the results
  root, so a store moved together with its root stays warm,
* ``artifact`` -- the artifact key,
* ``checksum`` -- SHA-256 of the sidecar as flushed (taken before any
  injected tear, so a torn flush's line can never verify),
* ``keys`` -- the 16-hex-digit (64-bit) prefix of each row's unit key,
  in row order, concatenated into one string.

In memory the index is three arrays sorted by prefix: ``uint64`` prefixes
and ``int32`` (line, row) pairs, 16 bytes per indexed row.  A probe tries
the newest line holding the prefix first (the same row is indexed again
whenever a later artifact holds it).  A hit verifies the artifact's
checksum once, checks the full key against its ``campaign_key`` column and
returns the row's report columns (those before the ``campaign_*``
annotations) as Python scalars, ``None`` where masked.  At most one
artifact is held decoded at a time.  Any failure -- a deleted artifact
(service TTL), a checksum mismatch, an unreadable file, a key mismatch, a
torn index line -- is a miss, never an error: the unit is re-simulated.

Results roots written before the index hold one JSON file per unit under
256 two-hex-digit fan-out directories.  A root in that layout (detected
once, when the cache first reads its index) still answers :meth:`get` and
``in`` from those files, read-only; nothing writes that layout any more.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import CampaignError, ReproError
from ..io.jsonl import append_jsonl
from ..frame import Frame
from ..session.artifacts import ArtifactStore, canonical_json
from ..session.columnar import frame_from_arrays
from ..simulator.director import SimulationOptions

__all__ = [
    "INDEX_NAME",
    "SCHEMA_VERSION",
    "encode_options",
    "entry_digest",
    "unit_key",
    "ResultCache",
]

#: Bump when the stored row layout or the key derivation changes; old cache
#: entries then miss instead of surfacing stale rows.
SCHEMA_VERSION = 1

#: The unit cache's index file, in the results root.
INDEX_NAME = "index.jsonl"

#: Hex digits of a unit key the index keeps (a 64-bit prefix; the full key
#: is checked against the artifact on a hit).
PREFIX_HEX = 16

_HEX = frozenset("0123456789abcdef")


def _canonical_text(value: Any) -> str:
    """The canonical JSON text :func:`~repro.session.artifacts.digest_json` hashes."""
    return json.dumps(canonical_json(value), sort_keys=True, separators=(",", ":"))


def entry_digest(entry: Any) -> str:
    """Short content digest of a catalog entry (a frozen dataclass tree).

    Folded into unit keys so that two catalogs sharing a CPU model name but
    differing in the silicon behind it (TDP, power profile, throughput)
    produce distinct cache entries.
    """
    return hashlib.sha256(_canonical_text(asdict(entry)).encode("utf-8")).hexdigest()[:16]


def encode_options(options: SimulationOptions) -> str:
    """The canonical JSON text of ``options``, as :func:`unit_key` hashes it.

    The options dataclass is flattened field-by-field so that adding an
    option with a new default changes keys only for non-default values —
    defaults are serialised too, which keeps the hash honest when defaults
    themselves change (SCHEMA_VERSION guards that case).
    """
    return _canonical_text(asdict(options))


def unit_key(
    params: Mapping[str, Any],
    options: SimulationOptions,
    encoded_options: str | None = None,
) -> str:
    """Stable content hash of a resolved unit.

    ``params`` must already contain every resolved plan field and the seed.
    ``encoded_options`` is ``encode_options(options)`` when the caller has
    it already: an expansion encodes each distinct options value once.
    """
    if encoded_options is None:
        encoded_options = encode_options(options)
    # digest_json({"schema": ..., "params": ..., "options": ...}) with the
    # options text spliced in: keys sorted, compact separators.
    payload = (
        f'{{"options":{encoded_options},"params":{_canonical_text(params)},'
        f'"schema":{SCHEMA_VERSION}}}'
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _ArtifactRows:
    """One verified artifact's report columns as Python lists.

    A row is the same index into every list: values as Python scalars,
    ``None`` where the column's mask says missing.
    """

    __slots__ = ("names", "keys", "columns")

    def __init__(self, frame: Frame):
        names = frame.columns
        stop = next(
            (i for i, name in enumerate(names) if name.startswith("campaign_")), len(names)
        )
        self.names = names[:stop]
        self.keys = frame["campaign_key"].values.tolist()
        self.columns = [
            (frame[name].values.tolist(), frame[name].mask.tolist()) for name in self.names
        ]

    def row(self, index: int, key: str) -> dict[str, Any] | None:
        if index >= len(self.keys) or self.keys[index] != key:
            return None
        return {
            name: None if mask[index] else values[index]
            for name, (values, mask) in zip(self.names, self.columns)
        }


def _parse_index_line(raw: bytes) -> tuple[tuple[str, str, str], np.ndarray] | None:
    """``((shards, artifact, checksum), prefixes)`` of one index line, or ``None``."""
    try:
        record = json.loads(raw)
    except ValueError:  # a torn line an append completed: skipped
        return None
    if not isinstance(record, dict):
        return None
    entry = (record.get("shards"), record.get("artifact"), record.get("checksum"))
    keys = record.get("keys")
    if not all(isinstance(field, str) for field in (*entry, keys)) or len(keys) % PREFIX_HEX:
        return None
    try:
        if PREFIX_HEX == 16:
            prefixes = np.frombuffer(bytes.fromhex(keys), dtype=">u8").astype(np.uint64)
        else:
            prefixes = np.array(
                [int(keys[at : at + PREFIX_HEX], 16) for at in range(0, len(keys), PREFIX_HEX)],
                dtype=np.uint64,
            )
    except ValueError:
        return None
    return entry, prefixes  # type: ignore[return-value]


def _legacy_store(directory: Path) -> ArtifactStore | None:
    """The per-unit JSON files of a results root written before the index."""
    try:
        with os.scandir(directory) as entries:
            legacy = any(
                len(entry.name) == 2 and set(entry.name) <= _HEX and entry.is_dir()
                for entry in entries
            )
    except OSError:
        return None
    if not legacy:
        return None
    store = ArtifactStore(directory, schema=SCHEMA_VERSION)
    store.error = CampaignError
    store.payload_field = "row"
    return store


class ResultCache:
    """Unit rows by content key, served from the shard artifacts that hold them.

    One instance per results root and process is enough: every store over
    the same root can share it (:meth:`CampaignStore.use_cache`).  The
    in-memory index follows ``index.jsonl``: it is read on first use, and
    :meth:`sync` folds in lines other processes appended since.
    """

    def __init__(self, directory: str | os.PathLike):
        # Nothing is created or read until first use: ``status`` on a
        # mistyped path must not leave empty directories behind.
        self.directory = Path(directory)
        self._offset: int | None = None  # bytes of index.jsonl read so far
        self._legacy: ArtifactStore | None = None
        self._entries: list[tuple[str, str, str]] = []
        self._prefixes = np.empty(0, dtype=np.uint64)
        self._lines = np.empty(0, dtype=np.int32)
        self._rows = np.empty(0, dtype=np.int32)
        self._loaded: tuple[int, _ArtifactRows] | None = None
        self._failed: set[int] = set()
        self._stale = True  # the file may hold lines memory does not

    def sync(self) -> None:
        """Fold index lines appended since the last read into memory."""
        if self._offset is None:
            self._offset = 0
            self._legacy = _legacy_store(self.directory)
        self._stale = False
        first = len(self._entries)
        prefixes: list[np.ndarray] = []
        try:
            with open(self.directory / INDEX_NAME, "rb") as handle:
                handle.seek(self._offset)
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break  # an append in flight or a torn tail: not a line yet
                    self._offset += len(raw)
                    parsed = _parse_index_line(raw)
                    if parsed is not None:
                        self._entries.append(parsed[0])
                        prefixes.append(parsed[1])
        except OSError:  # no index yet (or an unreadable one): nothing to fold in
            return
        if not prefixes:
            return
        counts = [len(keys) for keys in prefixes]
        starts = np.repeat(np.cumsum([0] + counts[:-1]), counts)
        new = np.concatenate(prefixes)
        order = np.argsort(new)
        new = new[order]
        new_lines = np.repeat(np.arange(first, len(self._entries), dtype=np.int32), counts)[order]
        new_rows = (np.arange(len(new)) - starts).astype(np.int32)[order]
        if not len(self._prefixes):
            self._prefixes, self._lines, self._rows = new, new_lines, new_rows
            return
        # Merge the sorted new rows into the sorted index: O(index) copies.
        at = self._prefixes.searchsorted(new)
        self._prefixes = np.insert(self._prefixes, at, new)
        self._lines = np.insert(self._lines, at, new_lines)
        self._rows = np.insert(self._rows, at, new_rows)

    def _candidates(self, key: str) -> list[tuple[int, int]]:
        """``(line, row)`` of every indexed row with ``key``'s prefix, newest first."""
        if self._stale:
            self.sync()
        try:
            if len(key) != 64:
                raise ValueError(key)
            prefix = np.uint64(int(key[:PREFIX_HEX], 16))
        except (TypeError, ValueError):
            raise CampaignError(f"malformed cache key {key!r}") from None
        prefixes = self._prefixes
        stop = int(prefixes.searchsorted(prefix, side="right"))
        start = stop
        while start > 0 and prefixes[start - 1] == prefix:
            start -= 1
        if start == stop:
            return []
        return sorted(
            zip(self._lines[start:stop].tolist(), self._rows[start:stop].tolist()),
            reverse=True,
        )

    def _artifact(self, line: int) -> _ArtifactRows | None:
        """Line ``line``'s artifact, verified and decoded (``None`` if unusable)."""
        if self._loaded is not None and self._loaded[0] == line:
            return self._loaded[1]
        if line in self._failed:
            return None
        from .store import SHARD_SCHEMA

        self._loaded = None  # one decoded artifact at a time, loads included

        shards, artifact, checksum = self._entries[line]
        store = ArtifactStore(self.directory / shards, schema=SHARD_SCHEMA)
        rows: _ArtifactRows | None = None
        try:
            data = store.sidecar_path(artifact).read_bytes()
            if hashlib.sha256(data).hexdigest() == checksum:
                payload = store.get(artifact)
                if payload is not None:
                    # Each member read once (an NpzFile re-reads on every
                    # lookup, and the codec looks stacked members up per column).
                    with np.load(io.BytesIO(data), allow_pickle=False) as members:
                        arrays = {name: members[name] for name in members.files}
                    rows = _ArtifactRows(frame_from_arrays(payload["columns"], arrays))
        except (OSError, ValueError, LookupError, TypeError, zipfile.BadZipFile, ReproError):
            rows = None
        if rows is None:
            self._failed.add(line)
        else:
            self._loaded = (line, rows)
        return rows

    def __contains__(self, key: str) -> bool:
        if self._candidates(key):
            return True
        return self._legacy is not None and key in self._legacy

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored row for ``key``, or ``None`` on a miss."""
        for line, index in self._candidates(key):
            rows = self._artifact(line)
            if rows is not None:
                row = rows.row(index, key)
                if row is not None:
                    return row
        if self._legacy is not None:
            return self._legacy.get(key)
        return None

    def put(
        self,
        artifacts: ArtifactStore,
        artifact_key: str,
        checksum: str,
        keys: Sequence[str],
    ) -> None:
        """Index one flushed artifact whose rows belong to ``keys``, in row order.

        One ``O_APPEND`` line, so concurrent writers never interleave.  This
        instance reads the line back on its next probe, like any other
        writer's line on its next :meth:`sync`.
        """
        append_jsonl(
            self.directory / INDEX_NAME,
            [
                {
                    "shards": os.path.relpath(artifacts.directory, self.directory),
                    "artifact": artifact_key,
                    "checksum": checksum,
                    "keys": "".join(key[:PREFIX_HEX] for key in keys),
                }
            ],
        )
        self._stale = True
