"""The columnar shard path equals the per-unit object path, byte for byte.

Campaign shards are built from the batch kernel's matrices: one record
block per chunk (``derive_block``), validated by column predicates
(``primary_issues``) and gathered column by column (``assemble_frame``).
The object path it replaced -- a ``RunResult`` per run, ``derive_record`` +
``validate_run`` per unit, ``annotate_row`` + ``FrameAccumulator`` per row
-- stays as the reference these tests hold it to.  Everything is compared
in one process, never against stored digests: the CI matrix runs several
NumPy builds and CPUs.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, CampaignStore, runner, stream_campaign
from repro.campaign.aggregate import FrameAccumulator, annotate_row, assemble_frame
from repro.campaign.sharding import iter_shards
from repro.faults import FaultPlan, RetryPolicy
from repro.market.catalog import default_catalog
from repro.parallel import ParallelConfig
from repro.parser.fields import (
    RECORD_COLUMNS,
    FieldColumn,
    RecordBlock,
    RunRecord,
)
from repro.parser.validation import ValidationIssue, primary_issues, validate_run
from repro.reportgen.records import round_trip_array
from repro.session.artifacts import ArtifactStore
from repro.session.columnar import frame_to_arrays
from repro.session.policy import ExecutionPolicy
from repro.simulator import RunDirector

CATALOG = default_catalog()
MODELS = [entry.cpu.model for entry in CATALOG.entries]
#: Parts whose 16-node, 2-socket plans exceed MAX_PLAUSIBLE_CORES.
BIG = [entry.cpu.model for entry in CATALOG.entries if entry.cpu.cores * 32 > 4096]
SMALL = [model for model in MODELS if model not in BIG]

#: (spec, shard size): a whole-default-catalog sweep; a fidelity x noise x
#: nodes x sockets sweep with implausible-core failures; a short-ladder
#: event-fidelity sweep.
SHARDED_SPECS = [
    (CampaignSpec(name="columns-catalog", sweep={"cpu_model": MODELS, "seed": [1, 2, 3]}), 64),
    (
        CampaignSpec(
            name="columns-options",
            sweep={
                "cpu_model": BIG[:2] + SMALL[:12],
                "fidelity": ["analytic", "event"],
                "measurement_noise": [True, False],
                "nodes": [1, 16],
                "sockets": [1, 2],
            },
            base={"load_levels": [1.0, 0.6, 0.3, 0.0], "interval_duration_s": 1.0, "seed": 7},
        ),
        32,
    ),
    (
        CampaignSpec(
            name="columns-event",
            sweep={"cpu_model": MODELS[::8], "seed": [1, 2]},
            base={"fidelity": "event", "load_levels": [1.0, 0.5, 0.0], "interval_duration_s": 1.0},
        ),
        5,
    ),
]


def block_of(records) -> RecordBlock:
    """The record block of already-built records."""
    rows = [built.to_dict() for built in records]
    columns = {name: FieldColumn.of([row[name] for row in rows]) for name in RECORD_COLUMNS}
    return RecordBlock(columns, [None] * len(rows))


def object_rows(units) -> dict[str, dict]:
    """Every unit's row through the per-unit object route (failures left out)."""
    rows = {}
    for unit in units:
        result = RunDirector(options=unit.options, corpus_seed=unit.seed).run(unit.plan)
        key, row, error = runner._roundtrip_result(unit.key, unit.plan, result)
        if error is None:
            rows[key] = row
    return rows


def object_sidecar(tmp_path, units, rows) -> tuple[list, bytes]:
    """``(meta, sidecar bytes)`` of the object path's shard artifact."""
    accumulator = FrameAccumulator()
    for unit in units:
        if unit.key in rows:
            accumulator.add_row(annotate_row(rows[unit.key], unit))
    frame = accumulator.to_frame()
    meta, arrays = frame_to_arrays(frame)
    store = ArtifactStore(tmp_path / "reference")
    key = "0" * 64
    store.put(key, {"columns": meta, "n_rows": len(frame)}, arrays=arrays)
    return meta, store.sidecar_path(key).read_bytes()


def stored_sidecars(store_dir) -> dict[int, tuple[list, bytes]]:
    """``{shard index: (meta, sidecar bytes)}`` of a streamed store."""
    store = CampaignStore(store_dir)
    shards = store.shard_store
    out = {}
    for index, entry in store.shard_entries().items():
        artifact = entry["artifact"]
        out[index] = (
            shards.get(artifact)["columns"],
            shards.sidecar_path(artifact).read_bytes(),
        )
    return out


@pytest.mark.parametrize("spec,shard_size", SHARDED_SPECS, ids=lambda v: getattr(v, "name", v))
def test_every_shard_sidecar_equals_the_object_path(tmp_path, spec, shard_size):
    streamed = stream_campaign(spec, tmp_path / "store", shard_size=shard_size)
    stored = stored_sidecars(tmp_path / "store")
    shards = list(iter_shards(spec, shard_size=shard_size))
    assert sorted(stored) == [shard.index for shard in shards]
    rows = object_rows(spec.expand())
    for shard in shards:
        assert stored[shard.index] == object_sidecar(tmp_path, shard.units, rows), shard.index
    if spec.name == "columns-options":
        assert streamed.failures and all(
            error == "validation: implausible_core_count" for _, error in streamed.failures
        )


def test_scalar_and_batch_strategies_write_the_same_sidecars(tmp_path):
    spec, shard_size = SHARDED_SPECS[1]
    stream_campaign(spec, tmp_path / "batch", shard_size=shard_size)
    stream_campaign(spec, tmp_path / "scalar", shard_size=shard_size, batch=False)
    pooled = ParallelConfig(backend="thread", max_workers=2, chunk_size=5)
    stream_campaign(spec, tmp_path / "pooled", shard_size=shard_size, parallel=pooled)
    reference = stored_sidecars(tmp_path / "batch")
    assert stored_sidecars(tmp_path / "scalar") == reference
    assert stored_sidecars(tmp_path / "pooled") == reference


# --------------------------------------------------------------------------- #
# Mixed shards and fault sites
# --------------------------------------------------------------------------- #
MIXED = CampaignSpec(
    name="columns-mixed",
    sweep={
        "cpu_model": BIG[:1] + SMALL[:3],
        "nodes": [1, 16],
        "sockets": [2],
        "seed": [1, 2, 3],
    },
    base={"load_levels": [1.0, 0.5, 0.0]},
)


def test_a_shard_of_hits_simulated_rows_failures_and_retries(tmp_path):
    # A third of the units are unit-cache hits from an earlier campaign over
    # the same results root; the 16-node big part fails validation on every
    # attempt; one unit fails once on an injected fault and heals on retry.
    units = MIXED.expand()
    warm = CampaignSpec(
        name="columns-warm",
        sweep={"cpu_model": BIG[:1] + SMALL[:3], "nodes": [1, 16], "sockets": [2], "seed": [2]},
        base={"load_levels": [1.0, 0.5, 0.0]},
    )
    results = tmp_path / "results"
    warmed = stream_campaign(warm, tmp_path / "warm", results_dir=results)
    plan = FaultPlan.from_dict(
        {"seed": 1, "rules": [{"site": "unit.execute", "kind": "raise", "nth": 3}]}
    )
    retry = RetryPolicy(max_attempts=2, backoff_base=0.0)
    mixed = stream_campaign(
        MIXED,
        tmp_path / "store",
        shard_size=len(units),
        results_dir=results,
        policy=ExecutionPolicy(faults=plan, retry=retry),
        retry=retry,
    )
    outcome = mixed.shards[0]
    assert plan.fired == [("unit.execute", "raise", 3)]
    assert outcome.cache_hits == warmed.completed > 0
    assert outcome.simulated > 0
    assert outcome.failures
    assert all(error == "validation: implausible_core_count" for _, error in outcome.failures)
    rows = object_rows(units)
    assert stored_sidecars(tmp_path / "store") == {0: object_sidecar(tmp_path, units, rows)}
    accumulator = FrameAccumulator()
    for unit in units:
        if unit.key in rows:
            accumulator.add_row(annotate_row(rows[unit.key], unit))
    assert mixed.frame().equals(accumulator.to_frame())


def test_validation_failures_are_quarantined_without_retry_rounds(tmp_path, monkeypatch):
    # A validation failure repeats bit for bit (same plan, options and
    # seed), so a retry policy quarantines it on its first attempt instead
    # of re-simulating it until max_attempts.
    rounds: list[int] = []
    dispatch = runner.dispatch_simulations

    def counting(units, *args):
        rounds.append(len(units))
        return dispatch(units, *args)

    monkeypatch.setattr(runner, "dispatch_simulations", counting)
    n_units = MIXED.n_units
    plain = stream_campaign(MIXED, tmp_path / "plain", shard_size=n_units)
    retry = RetryPolicy(max_attempts=3, backoff_base=0.0)
    retried = stream_campaign(MIXED, tmp_path / "retried", shard_size=n_units, retry=retry)
    assert rounds == [n_units, n_units]  # one dispatch round each
    failed = sorted(unit_id for unit_id, _ in plain.failures)
    assert len(failed) == 3 and sorted(unit_id for unit_id, _ in retried.failures) == failed
    quarantine = CampaignStore(tmp_path / "retried").quarantine_entries()
    assert sorted(entry["unit_id"] for entry in quarantine) == failed
    assert {(entry["error"], entry["attempts"]) for entry in quarantine} == {
        ("validation: implausible_core_count", 1)
    }
    assert retried.status == "degraded"
    assert retried.frame().equals(plain.frame())


def dispatch_order(units):
    """The order the batch kernel meets units: options groups, first seen first."""
    groups: dict = {}
    for unit in units:
        groups.setdefault(unit.options, []).append(unit)
    return [unit for group in groups.values() for unit in group]


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "scalar"])
@pytest.mark.parametrize("nth", [1, 4, 9])
def test_an_nth_unit_fault_fires_on_the_same_unit(tmp_path, batch, nth):
    spec = CampaignSpec(
        name="columns-nth",
        sweep={"cpu_model": SMALL[:3], "measurement_noise": [True, False], "seed": [1, 2]},
        base={"load_levels": [1.0, 0.5, 0.0]},
    )
    units = spec.expand()
    order = dispatch_order(units) if batch else list(units)
    plan = FaultPlan.from_dict(
        {"seed": 1, "rules": [{"site": "unit.execute", "kind": "raise", "nth": nth}]}
    )
    result = stream_campaign(
        spec, tmp_path / "store", batch=batch, policy=ExecutionPolicy(faults=plan)
    )
    assert plan.fired == [("unit.execute", "raise", nth)]
    [(unit_id, error)] = result.failures
    assert unit_id == order[nth - 1].unit_id
    assert error.startswith("InjectedFault: ")


def test_resident_flush_batches_append_one_ledger_write_each(tmp_path, monkeypatch):
    import repro.campaign.store as store_module
    from repro.campaign import run_campaign

    writes: list[list[dict]] = []
    original = store_module.append_jsonl

    def spying(path, records):
        records = list(records)
        if str(path).endswith("ledger.jsonl"):
            writes.append(records)
        return original(path, records)

    monkeypatch.setattr(store_module, "append_jsonl", spying)
    spec = CampaignSpec(
        name="columns-ledger",
        sweep={"cpu_model": BIG[:1] + SMALL[:2], "nodes": [1, 16], "sockets": [2]},
        base={"load_levels": [1.0, 0.5, 0.0]},
    )
    units = spec.expand()
    result = run_campaign(
        spec, tmp_path / "store", parallel=ParallelConfig(backend="serial", chunk_size=3)
    )
    assert result.failures  # the 16-node big part: failed attempts are ledger lines too
    assert [len(batch) for batch in writes] == [3, 3]
    assert [entry["key"] for batch in writes for entry in batch] == [unit.key for unit in units]
    failed = {unit_id for unit_id, _ in result.failures}
    assert [entry["status"] for batch in writes for entry in batch] == [
        "failed" if unit.unit_id in failed else "ok" for unit in units
    ]


def frame_bytes(frame) -> tuple:
    """Everything a shard sidecar stores of a frame, NaN bits included."""
    meta, arrays = frame_to_arrays(frame)
    return meta, {name: (array.dtype.str, array.tobytes()) for name, array in arrays.items()}


UNITS = CampaignSpec(
    name="columns-gather", sweep={"cpu_model": SMALL[:2], "seed": [1, 2, 3, 4, 5]}
).expand()
cells = st.one_of(
    st.none(),
    st.sampled_from([math.nan, -math.nan, 0.0, -0.0, 1.5, 7, True, False, "x", ""]),
)


@st.composite
def gathered_rows(draw):
    """Rows for UNITS: block views and plain mappings, values of any kind."""
    records = []
    for _ in UNITS:
        built = RunRecord(run_id=draw(st.sampled_from(["a", "b"])))
        for name in ("nodes", "cores_total", "cpu_name", "power_idle", "hw_avail_decimal"):
            setattr(built, name, draw(cells))
        built.accepted = draw(st.sampled_from([True, False, None]))
        if draw(st.booleans()):
            built.set_level("power", 100, draw(cells))
        records.append(built)
    blocks = [block_of(records[:4]), block_of(records[4:])]
    rows = {}
    for position, unit in enumerate(UNITS):
        kind = draw(st.sampled_from(["block", "dict", "mapped-subset", "absent"]))
        row = blocks[0].row(position) if position < 4 else blocks[1].row(position - 4)
        if kind == "dict":
            rows[unit.key] = dict(row)
        elif kind == "mapped-subset":
            names = draw(st.lists(st.sampled_from(list(row) + ["campaign_seed", "extra"])))
            rows[unit.key] = {name: draw(cells) for name in names}
        elif kind == "block":
            rows[unit.key] = row
    return rows


@settings(deadline=None, max_examples=200)
@given(rows=gathered_rows())
def test_column_gather_equals_the_row_accumulator(rows):
    accumulator = FrameAccumulator()
    for unit in UNITS:
        if unit.key in rows:
            accumulator.add_row(annotate_row(dict(rows[unit.key]), unit))
    assert frame_bytes(assemble_frame(UNITS, rows)) == frame_bytes(accumulator.to_frame())


# --------------------------------------------------------------------------- #
# The report's decimal round trip, vectorized
# --------------------------------------------------------------------------- #
def _bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


#: Half-way points of the one-decimal grid (and of the integers), nudged by
#: a few ulps either way, at magnitudes up to 1e12.
half_ways = st.builds(
    lambda k, scale, ulps, sign: sign * _nudged((k + 0.5) / scale, ulps),
    st.integers(min_value=0, max_value=10**12),
    st.sampled_from([1.0, 10.0]),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([1.0, -1.0]),
)
anywhere = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
#: Where ``10 * x`` stops being exact enough for ``rint(10 * x) / 10``:
#: 2**46 to 2**60, with arbitrary fraction bits.
huge = st.builds(
    lambda exponent, mantissa: struct.unpack("<d", struct.pack("<Q", exponent << 52 | mantissa))[0],
    st.integers(min_value=1023 + 46, max_value=1023 + 60),
    st.integers(min_value=0, max_value=2**52 - 1),
)
specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 5e-324])


@settings(deadline=None, max_examples=300)
@given(
    values=st.lists(st.one_of(half_ways, anywhere, huge, specials), min_size=1, max_size=40)
)
def test_vectorized_round_trip_equals_the_scalar_format(values):
    array = np.array(values)
    for decimals in (0, 1):
        expected = [float(f"{value:.{decimals}f}") for value in values]
        got = round_trip_array(array, decimals).tolist()
        assert [_bits(value) for value in got] == [_bits(value) for value in expected]
        # Level columns take it on (runs x levels) matrices too.
        square = round_trip_array(np.array([values, values]), decimals)
        assert [_bits(value) for value in square[1].tolist()] == [
            _bits(value) for value in expected
        ]


def test_round_trip_keeps_nan():
    for decimals in (0, 1):
        assert np.isnan(round_trip_array(np.array([math.nan]), decimals)).all()


# --------------------------------------------------------------------------- #
# Validation as column predicates
# --------------------------------------------------------------------------- #
def record(**fields) -> RunRecord:
    power_100 = fields.pop("power_100", 200.0)
    ops_100 = fields.pop("ssj_ops_100", 1.0e6)
    values = dict(
        run_id="r",
        hw_avail_year=2015,
        hw_avail_month=6,
        nodes=1,
        sockets_per_node=2,
        total_chips=2,
        cores_total=32,
        cores_per_chip=16,
        threads_total=64,
        threads_per_core=2,
        cpu_name="Intel Xeon E5-2698 v3",
        cpu_class="server",
        power_idle=50.0,
    )
    values.update(fields)
    built = RunRecord(**values)
    if power_100 is not None:
        built.set_level("power", 100, power_100)
    if ops_100 is not None:
        built.set_level("ssj_ops", 100, ops_100)
    return built


#: One record per issue kind (and a valid one), in validate_run's order.
ONE_OF_EACH = [
    (record(), None),
    (record(accepted=False), ValidationIssue.NOT_ACCEPTED),
    (record(hw_avail_month=None), ValidationIssue.AMBIGUOUS_DATE),
    (record(hw_avail_year=1901), ValidationIssue.IMPLAUSIBLE_DATE),
    (record(cpu_class="unknown"), ValidationIssue.AMBIGUOUS_CPU),
    (record(cpu_name=None), ValidationIssue.AMBIGUOUS_CPU),
    (record(nodes=None), ValidationIssue.MISSING_NODE_COUNT),
    (record(cores_total=320_000), ValidationIssue.IMPLAUSIBLE_CORE_COUNT),
    (record(threads_per_core=9), ValidationIssue.IMPLAUSIBLE_CORE_COUNT),
    (record(cores_per_chip=14), ValidationIssue.INCONSISTENT_CORE_THREAD),
    (record(threads_total=32), ValidationIssue.INCONSISTENT_CORE_THREAD),
    (record(total_chips=4, cores_per_chip=8), ValidationIssue.INCONSISTENT_CORE_THREAD),
    (record(power_100=None), ValidationIssue.MISSING_MEASUREMENTS),
    (record(power_idle=None), ValidationIssue.MISSING_MEASUREMENTS),
]


def test_each_issue_kind_is_each_records_primary_issue():
    records = [built for built, _ in ONE_OF_EACH]
    expected = [issue for _, issue in ONE_OF_EACH]
    assert [validate_run(built).primary_issue for built in records] == expected
    assert primary_issues(block_of(records).columns) == expected
    assert set(expected) == {None, *ValidationIssue}


def maybe(values):
    return st.sampled_from([None, *values])


records_strategy = st.builds(
    record,
    accepted=st.booleans(),
    hw_avail_year=maybe([2003, 2004, 2015, 2026, 2027]),
    hw_avail_month=maybe([1, 12]),
    cpu_name=maybe(["Intel Xeon X5670", "AMD EPYC 9654"]),
    cpu_class=maybe(["server", "unknown", "desktop"]),
    nodes=maybe([1, 2, 16]),
    sockets_per_node=maybe([1, 2]),
    total_chips=maybe([1, 2, 4, 32]),
    cores_total=maybe([0, 1, 16, 32, 64, 4096, 4097, 64.0, 2**40]),
    cores_per_chip=maybe([8, 16, 32, 16.0, 2**35]),
    threads_total=maybe([32, 64, 128, 2**41]),
    threads_per_core=maybe([0, 1, 2, 8, 9]),
    power_100=maybe([200.0, math.nan]),
    ssj_ops_100=maybe([1.0e6]),
    power_idle=maybe([50.0]),
)


@settings(deadline=None, max_examples=300)
@given(records=st.lists(records_strategy, min_size=1, max_size=12))
def test_column_predicates_give_validate_runs_primary_issue(records):
    expected = [validate_run(built).primary_issue for built in records]
    assert primary_issues(block_of(records).columns) == expected
