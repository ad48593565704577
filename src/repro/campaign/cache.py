"""Content-addressed storage of campaign unit results.

A unit's cache key is the SHA-256 digest of a canonical JSON encoding of its
resolved parameters, its :class:`SimulationOptions` and its seed.  The key is
independent of the sweep that produced the unit, of axis ordering and of the
campaign name, so identical scenarios share one cache entry across campaigns
and re-running a spec only simulates units whose keys are absent.

Storage is one instance of the generic
:class:`repro.session.artifacts.ArtifactStore` (which this module's original
implementation grew into): one JSON file per key, fanned out over 256
two-hex-digit subdirectories, atomic writes, schema-guarded reads.  The
campaign cache keeps its historical on-disk payload field (``"row"``) so
existing stores stay warm across the generalisation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Mapping

from ..errors import CampaignError
from ..session.artifacts import ArtifactStore, canonical_json
from ..simulator.director import SimulationOptions

__all__ = ["SCHEMA_VERSION", "encode_options", "entry_digest", "unit_key", "ResultCache"]

#: Bump when the stored row layout or the key derivation changes; old cache
#: entries then miss instead of surfacing stale rows.
SCHEMA_VERSION = 1


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


class ResultCache(ArtifactStore):
    """Directory of unit rows keyed by content hash."""

    error = CampaignError
    schema = SCHEMA_VERSION
    payload_field = "row"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored row for ``key``, or ``None`` on a miss."""
        return super().get(key)

    def put(self, key: str, row: Mapping[str, Any]):
        """Store ``row`` under ``key`` atomically; returns the entry path."""
        # Row key order is preserved (not canonicalised): it is the column
        # order of the assembled frame, and cached rows must line up with
        # freshly simulated ones.
        return super().put(key, dict(row))
