"""Frame ⇄ array codec for binary dataset artifacts.

A :class:`~repro.frame.Frame` round-trips through an
:class:`~repro.session.artifacts.ArtifactStore` ``.npz`` sidecar; a
JSON-side ``meta`` list records column order and logical kinds, so
reconstruction performs no type inference whatsoever — the reloaded frame is
the persisted frame, bit for bit (floats travel as binary float64, never
through decimal text).

Layout
------
``.npz`` readers pay a fixed per-member cost (zip entry + header parse), so
numeric columns are packed by kind into a handful of 2-D arrays rather
than stored one member per column:

===========  =====================================================
member       content
===========  =====================================================
``masks``    validity masks, ``(n_columns, n_rows)`` bool, column order
``float``    float64 columns stacked in column order
``int``      int64 columns stacked in column order
``bool``     bool columns stacked in column order
``str<i>``   the i-th string column as a unicode array (missing → ``""``)
===========  =====================================================

The i-th column of kind *k* is row i of member *k*; ``meta`` (name + kind
per column, in column order) is all that is needed to unpack.  String
columns get one member each — NumPy unicode arrays are fixed-width, so a
shared matrix would pad every cell to the longest string in *any* string
column; per-column members cost one zip entry apiece but keep each column
at its own width.  (``.npz`` holds no Python objects, so ``allow_pickle``
stays off.)  Missing entries are restored to ``None`` from the mask.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..errors import ArtifactError
from ..frame import Column, Frame

__all__ = ["frame_to_arrays", "frame_from_arrays", "numeric_slots"]

_KIND_DTYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_}


def frame_to_arrays(frame: Frame) -> tuple[list[dict[str, str]], dict[str, np.ndarray]]:
    """Split a frame into JSON-able ``meta`` and the packed arrays to persist."""
    meta: list[dict[str, str]] = []
    stacks: dict[str, list] = {"float": [], "int": [], "bool": []}
    masks: list[np.ndarray] = []
    arrays: dict[str, np.ndarray] = {}
    n_str = 0
    for name in frame.columns:
        column = frame[name]
        meta.append({"name": name, "kind": column.kind})
        if column.kind == "str":
            cells = ["" if value is None else value for value in column.values]
            # NumPy fixed-width unicode strips *trailing* NUL codepoints
            # (interior ones survive).  If any value ends with one, suffix
            # every cell with a uniform sentinel — recorded in the meta so
            # ordinary columns pay nothing on reload — and strip it back off
            # when unpacking.
            if any(cell.endswith("\x00") for cell in cells):
                meta[-1]["padded"] = "1"
                cells = [cell + "\x01" for cell in cells]
            arrays[f"str{n_str}"] = np.array(cells, dtype=str)
            n_str += 1
        else:
            stacks[column.kind].append(
                column.values.astype(_KIND_DTYPES[column.kind], copy=False)
            )
        masks.append(column.mask)
    if masks:
        arrays["masks"] = np.vstack(masks)
    for kind in ("float", "int", "bool"):
        if stacks[kind]:
            arrays[kind] = np.vstack(stacks[kind])
    return meta, arrays


def numeric_slots(meta: list[Mapping[str, Any]]) -> dict[str, tuple[str, int, int]]:
    """Where each numeric column of a packed sidecar lives.

    Maps each ``float``/``int`` column of ``meta`` to ``(member, row,
    mask_row)``: its row in that kind's stacked member and in ``masks``.
    """
    rows = {"float": 0, "int": 0}
    slots: dict[str, tuple[str, int, int]] = {}
    for index, spec in enumerate(meta):
        kind = str(spec["kind"])
        if kind in rows:
            slots[str(spec["name"])] = (kind, rows[kind], index)
            rows[kind] += 1
    return slots


def frame_from_arrays(
    meta: list[Mapping[str, Any]], arrays: Mapping[str, np.ndarray]
) -> Frame:
    """Rebuild the persisted frame from ``meta`` + sidecar arrays."""
    columns: dict[str, Column] = {}
    if not meta:
        return Frame(columns)
    try:
        masks = arrays["masks"]
    except KeyError:
        raise ArtifactError("columnar sidecar is missing the 'masks' member") from None
    positions = {"float": 0, "int": 0, "bool": 0, "str": 0}
    for index, spec in enumerate(meta):
        kind = str(spec["kind"])
        if kind not in positions:
            raise ArtifactError(f"unknown column kind {kind!r} in dataset artifact")
        row = positions[kind]
        positions[kind] += 1
        try:
            values = arrays[f"str{row}"] if kind == "str" else arrays[kind][row]
        except (KeyError, IndexError):
            raise ArtifactError(
                f"columnar sidecar is missing data for column {spec.get('name')!r}"
            ) from None
        mask = masks[index].astype(bool, copy=False)
        if kind == "str":
            restored = values.astype(object)
            if spec.get("padded"):
                restored = np.array(
                    [cell[:-1] for cell in restored], dtype=object
                )
            restored[mask] = None
            values = restored
        else:
            values = values.astype(_KIND_DTYPES[kind], copy=False)
        columns[str(spec["name"])] = Column(values, mask, kind)
    return Frame(columns)
