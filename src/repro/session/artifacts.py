"""Content-addressed artifact storage.

:class:`ArtifactStore` generalises the campaign result cache into a store
any pipeline stage can use: artifacts are JSON payloads addressed by the
SHA-256 digest of their *inputs*, fanned out over 256 two-hex-digit
subdirectories, written atomically (write-then-rename) and guarded by a
per-store schema version so layout changes miss instead of surfacing stale
data.  ``scope`` carves one physical directory into independent logical
stores (one per artifact kind), which is how a :class:`~repro.session.Session`
keeps corpora, datasets and analyses in a single workspace.

The digest helpers are the other half of content addressing:

* :func:`digest_json` — canonical hash of any JSON-able input description,
* :func:`digest_tree` — combined hash of a directory of files (names and
  bytes), used to key *external* inputs such as a user-supplied corpus so
  an edited file invalidates everything derived from it.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from ..errors import ArtifactError

__all__ = [
    "ArtifactStore",
    "canonical_json",
    "digest_json",
    "digest_tree",
]

#: Read size of the streamed sidecar checksum (bounds its resident bytes).
_DIGEST_BLOCK = 64 * 1024


#: Exact types :func:`canonical_json` returns unchanged without an isinstance
#: walk (subclasses, such as enums, take the general path).
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def canonical_json(value: Any) -> Any:
    """Make a value JSON-canonical (tuples → lists, stable key order).

    Values that are not JSON-native are stringified, so frozen dataclass
    trees flattened with :func:`dataclasses.asdict` hash deterministically.
    """
    # Checked first: most values are scalars, and the ``Mapping`` test below
    # is an ABC check several times slower than a set lookup.
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, Mapping):
        return {str(k): canonical_json(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical_json(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def digest_json(value: Any) -> str:
    """Full SHA-256 hex digest of the canonical JSON encoding of ``value``."""
    payload = json.dumps(canonical_json(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digest_tree(directory: str | os.PathLike, pattern: str = "*.txt") -> str:
    """Combined SHA-256 digest of every ``pattern`` file under ``directory``.

    File *names* and file *bytes* both enter the hash (in sorted-name
    order), so renaming, editing, adding or removing a file all change the
    digest.  Hashing is roughly an order of magnitude cheaper than parsing
    the same bytes, which is what makes content-keyed caching of parse
    results worthwhile.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ArtifactError(f"not a directory: {directory}")
    tree = hashlib.sha256()
    for path in sorted(directory.glob(pattern)):
        tree.update(path.name.encode("utf-8"))
        tree.update(b"\x00")
        tree.update(path.read_bytes())
        tree.update(b"\x00")
    return tree.hexdigest()


class ArtifactStore:
    """Directory of JSON artifacts keyed by content hash.

    Subclasses may override :attr:`error` (the exception type raised on
    malformed keys and unreadable entries), :attr:`schema` (entries written
    under a different schema version read as misses) and
    :attr:`payload_field` (the JSON field holding the artifact value —
    the campaign cache predates the generalisation and stores its value
    under ``"row"``).
    """

    #: Exception type for malformed keys / unreadable entries.
    error: type[Exception] = ArtifactError
    #: Entries written under a different schema version read as misses.
    schema: int = 1
    #: JSON field the artifact value is stored under.
    payload_field: str = "value"

    def __init__(self, directory: str | os.PathLike, schema: int | None = None):
        # Created lazily on first ``put``: read-only operations (status on a
        # mistyped path, say) must not leave empty directories behind.
        self.directory = Path(directory)
        if schema is not None:
            self.schema = schema

    def scope(self, kind: str, schema: int | None = None) -> "ArtifactStore":
        """An independent store for one artifact kind under this directory.

        ``schema`` overrides the child store's schema version (each kind
        can evolve its payload layout independently); the parent's version
        is inherited by default.
        """
        if not kind or "/" in kind or kind.startswith("."):
            raise self.error(f"malformed artifact kind {kind!r}")
        return ArtifactStore(
            self.directory / kind, schema=self.schema if schema is None else schema
        )

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise self.error(f"malformed cache key {key!r}")
        return self.directory / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """All stored keys (unordered)."""
        for path in self.directory.glob("??/*.json"):
            yield path.stem

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Any | None:
        """The stored value for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise self.error(f"unreadable cache entry {path}: {exc}") from exc
        if payload.get("schema") != self.schema:
            return None
        return payload[self.payload_field]

    def put(
        self,
        key: str,
        value: Any,
        arrays: Mapping[str, np.ndarray] | None = None,
    ) -> Path:
        """Store ``value`` under ``key`` atomically; returns the entry path.

        ``arrays`` additionally writes a binary ``.npz`` sidecar next to the
        JSON entry (see :meth:`get_arrays`): the JSON stays the source of
        truth for metadata while bulk columnar payloads round-trip as NumPy
        arrays instead of JSON rows.  Passing ``arrays=None`` removes any
        stale sidecar a previous writer left for the key.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        sidecar = self.sidecar_path(key)
        if arrays is not None:
            # Sidecar first: a reader never sees a JSON entry whose arrays
            # are still being written (both renames are atomic).
            # The tmp name carries the writer's pid: two processes racing to
            # put the same key must not share a staging file, or the loser's
            # rename finds its tmp already consumed by the winner.
            tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
            with open(tmp, "wb") as handle:
                np.savez(handle, **dict(arrays))
            os.replace(tmp, sidecar)
        else:
            sidecar.unlink(missing_ok=True)
        # Value key order is preserved (not canonicalised): for row-shaped
        # artifacts it is the column order of the assembled frame, and
        # cached rows must line up with freshly computed ones.
        payload = json.dumps(
            {"schema": self.schema, "key": key, self.payload_field: value}
        )
        # Write-then-rename keeps a killed process from leaving a torn
        # entry that would poison the next warm run.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
        return path

    def sidecar_path(self, key: str) -> Path:
        """Where the binary columnar sidecar for ``key`` lives (if any)."""
        return self._path(key).with_suffix(".npz")

    def get_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """The ``.npz`` sidecar arrays for ``key``, or ``None`` when absent.

        A missing sidecar is a cache miss (the caller recomputes); a present
        but unreadable one is corruption and raises, mirroring :meth:`get`.
        """
        path = self.sidecar_path(key)
        try:
            with np.load(path, allow_pickle=False) as payload:
                return {name: payload[name] for name in payload.files}
        except FileNotFoundError:
            return None
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise self.error(f"unreadable cache sidecar {path}: {exc}") from exc

    def sidecar_digest(self, key: str) -> str | None:
        """SHA-256 hex digest of the sidecar's bytes, or ``None`` when absent.

        This is the content checksum the campaign shard manifest records at
        flush time and re-verifies on every reload/recovery path: a torn or
        bit-rotted ``.npz`` no longer matches and the shard re-executes
        instead of being adopted.
        """
        path = self.sidecar_path(key)
        digest = hashlib.sha256()
        try:
            # Fixed-size blocks: hashing never holds the whole sidecar.
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(_DIGEST_BLOCK), b""):
                    digest.update(block)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise self.error(f"unreadable cache sidecar {path}: {exc}") from exc
        return digest.hexdigest()

    def clear(self) -> int:
        """Delete every entry (sidecars included); returns entries removed."""
        removed = 0
        for path in list(self.directory.glob("??/*.json")):
            path.unlink()
            removed += 1
        for path in list(self.directory.glob("??/*.npz")):
            path.unlink()
        return removed
