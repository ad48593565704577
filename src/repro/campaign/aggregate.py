"""Assembly of campaign unit rows into an analysis frame.

:func:`assemble_frame` builds a campaign (or shard) frame column by column:
rows that are :class:`~repro.parser.fields.BlockRow` views are gathered from
their blocks' typed columns with one index operation per block and column,
and rows that are plain mappings (unit-cache hits) are read per column.
The result is exactly the frame :class:`FrameAccumulator` builds from the
same rows one dict at a time (union of columns in first-seen order, kinds
inferred over every value, NaN masked), which stays as the reference.  The
frame has the same schema as :func:`repro.core.dataset.load_runs` output
plus the campaign annotation columns, so it flows straight into
:func:`repro.api.analyze`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from ..frame import Column, Frame
from ..parser.fields import KIND_DTYPES, KIND_FILLS, BlockRow, RecordBlock
from .spec import CampaignUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..frame.plan import Expr

__all__ = ["FrameAccumulator", "annotate_row", "assemble_frame", "summarize_store"]


class FrameAccumulator:
    """Columnar row accumulator with union-of-columns semantics."""

    def __init__(self) -> None:
        self._columns: dict[str, list] = {}
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    def add_row(self, row: Mapping[str, Any]) -> None:
        """Append one row; unseen columns are backfilled as missing."""
        for name, value in row.items():
            values = self._columns.get(name)
            if values is None:
                values = [None] * self._length
                self._columns[name] = values
            values.append(value)
        self._length += 1
        for name, values in self._columns.items():
            if len(values) < self._length:
                values.append(None)

    def add_rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.add_row(row)

    def to_frame(self) -> Frame:
        """Materialise the accumulated rows as a :class:`Frame`."""
        return Frame.from_dict(self._columns)


def _annotation_value(value: Any) -> Any:
    """Flatten an axis value into something a column can hold."""
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return value


def annotate_row(row: Mapping[str, Any], unit: CampaignUnit) -> dict[str, Any]:
    """A unit's cached row plus the campaign bookkeeping columns.

    Adds ``campaign_unit`` (the content-derived unit id), ``campaign_key``,
    ``campaign_seed`` and one ``campaign_<axis>`` column per spec axis the
    unit was resolved from.
    """
    annotated = dict(row)
    annotated["campaign_unit"] = unit.unit_id
    annotated["campaign_key"] = unit.key
    annotated["campaign_seed"] = unit.seed
    for axis, value in unit.params.items():
        annotated[f"campaign_{axis}"] = _annotation_value(value)
    return annotated


def assemble_frame(
    units: Iterable[CampaignUnit],
    rows_by_key: Mapping[str, Mapping[str, Any]],
) -> Frame:
    """Build the campaign frame in unit order from completed rows.

    Units whose key is absent from ``rows_by_key`` (failed or still pending)
    are skipped — campaign output only ever contains completed simulations.
    The frame equals ``FrameAccumulator`` fed ``annotate_row(row, unit)``
    for every completed unit: the unit's own columns come from
    ``annotate_row`` of an empty row, the row's are gathered separately.
    """
    pairs = []
    for unit in units:
        row = rows_by_key.get(unit.key)
        if row is not None:
            pairs.append((unit, row))
    n_rows = len(pairs)
    if not n_rows:
        return Frame({})

    # Column order: the union of each annotated row's keys, first seen first.
    names: dict[str, None] = {}
    layouts: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    layout: tuple | None = None
    annotations: list[dict[str, Any]] = []
    blocks: dict[int, tuple[RecordBlock, list[int], list[int]]] = {}
    mapped: list[tuple[int, Mapping[str, Any]]] = []
    for position, (unit, row) in enumerate(pairs):
        annotation = annotate_row({}, unit)
        annotations.append(annotation)
        if type(row) is BlockRow:
            keys = row.block.names
            entry = blocks.get(id(row.block))
            if entry is None:
                entry = blocks[id(row.block)] = (row.block, [], [])
            entry[1].append(position)
            entry[2].append(row.index)
        else:
            keys = tuple(row)
            mapped.append((position, row))
        previous, layout = layout, (keys, tuple(annotation))
        if layout != previous and layout not in layouts:
            layouts.add(layout)
            names.update(dict.fromkeys(keys))
            names.update(dict.fromkeys(annotation))
    gathers = [
        (block, np.array(positions, dtype=np.intp), np.array(indices, dtype=np.intp))
        for block, positions, indices in blocks.values()
    ]

    annotated = {name for annotation in annotations for name in annotation}
    columns: dict[str, Column] = {}
    for name in names:
        if name in annotated:
            values = [
                annotation[name] if name in annotation else row.get(name)
                for annotation, (_, row) in zip(annotations, pairs)
            ]
            columns[name] = _python_column(values)
        else:
            columns[name] = _gather_column(name, n_rows, gathers, mapped)
    return Frame(columns)


def _python_column(values: list) -> Column:
    """``Column.from_values(values)``, with all-string lists taken as they are."""
    if all(type(value) is str for value in values):
        return Column(np.array(values, dtype=object), np.zeros(len(values), dtype=bool), "str")
    return Column.from_values(values)


def _gather_column(
    name: str,
    n_rows: int,
    gathers: list[tuple[RecordBlock, np.ndarray, np.ndarray]],
    mapped: list[tuple[int, Mapping[str, Any]]],
) -> Column:
    """Column ``name`` of the assembled frame, from block rows and mapped rows.

    When every row holding a value agrees on one kind, each source is
    copied in with one indexed assignment; otherwise the column is built
    from its Python values, which is what ``Column.from_values`` infers
    over the rows one at a time.
    """
    kinds: set[str] = set()
    sources = []
    for block, positions, indices in gathers:
        column = block.columns.get(name)
        if column is None:
            continue
        missing = column.missing[indices]
        if column.kind is not None and not missing.all():
            kinds.add(column.kind)
        sources.append((positions, indices, column, missing))
    mapped_column = None
    values = [row.get(name) for _, row in mapped]
    if any(value is not None for value in values):
        mapped_column = Column.from_values(values)
        kinds.add(mapped_column.kind)
    if len(kinds) > 1 or "mixed" in kinds:
        merged: list = [None] * n_rows
        for positions, indices, column, _ in sources:
            for position, value in zip(positions.tolist(), column.python(indices)):
                merged[position] = value
        for (position, _), value in zip(mapped, values):
            merged[position] = value
        return Column.from_values(merged)
    kind = kinds.pop() if kinds else "float"
    data = np.full(n_rows, KIND_FILLS[kind], dtype=KIND_DTYPES[kind])
    mask = np.ones(n_rows, dtype=bool)
    for positions, indices, column, missing in sources:
        if column.kind == kind:
            data[positions] = column.values[indices]
            mask[positions] = missing
    if mapped_column is not None:
        at = np.array([position for position, _ in mapped], dtype=np.intp)
        data[at] = mapped_column.values
        mask[at] = mapped_column.mask
    if kind == "float":
        mask |= np.isnan(data)
        data[mask] = np.nan
    return Column(data, mask, kind)


def summarize_store(
    store_dir: str,
    keys: Sequence[str],
    metrics: Mapping[str, Any] | Sequence[str],
    where: "Expr | None" = None,
    engine: str | None = None,
) -> Frame:
    """Grouped summary over a streamed campaign store, out of core.

    The Table-1 shape of post-campaign analysis — filter rows, group by
    sweep axes, aggregate metrics — expressed as a lazy plan over the
    shard artifacts: the optimizer pushes ``where`` into each shard's
    ``.npz`` scan and prunes the load to ``keys`` plus the metric columns,
    so memory stays O(chunk + groups) however many rows the campaign
    produced.  ``metrics`` is either a groupby agg spec mapping
    (``{"watts": ("mean", "max")}``) or a plain list of column names,
    which summarises each with its mean.  Output is bit-identical to the
    same eager chain on :meth:`StreamingCampaignResult.frame`.
    """
    from .sharding import scan_shards

    plan = scan_shards(store_dir)
    if where is not None:
        plan = plan.filter(where)
    spec = dict(metrics) if isinstance(metrics, Mapping) else {m: "mean" for m in metrics}
    return plan.groupby(list(keys)).agg(spec).collect(engine=engine)
