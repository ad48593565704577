"""Campaign engine: spec expansion, content-hash cache, runner, store, frame."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    FrameAccumulator,
    ResultCache,
    resume_campaign,
    run_campaign,
    unit_key,
)
from repro.campaign.aggregate import assemble_frame
from repro.cli.main import main as cli_main
from repro.errors import CampaignError, SimulationError
from repro.parallel import ParallelConfig
from repro.session import Session
from repro.session.artifacts import ArtifactStore
from repro.session.columnar import frame_to_arrays
from repro.session.session import analyze_frame
from repro.simulator import SimulationOptions

GENERATIONS = ["Xeon X5670", "Xeon Platinum 8480+", "EPYC 9654"]

#: Short ladder keeps each simulated unit cheap; still valid downstream.
FAST_BASE = {"load_levels": [1.0, 0.5, 0.2, 0.1, 0.0]}


def small_spec(name="unit-test", seeds=(1, 2, 3)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        sweep={"cpu_model": GENERATIONS, "seed": list(seeds)},
        base=FAST_BASE,
    )


# --------------------------------------------------------------------------- #
# Spec expansion
# --------------------------------------------------------------------------- #
class TestSpec:
    def test_grid_expansion_counts_and_order(self):
        spec = small_spec()
        units = spec.expand()
        assert spec.n_units == len(units) == 9
        # Grid order: first axis outermost.
        assert [u.params["cpu_model"] for u in units[:3]] == ["Xeon X5670"] * 3
        assert [u.params["seed"] for u in units[:3]] == [1, 2, 3]

    def test_zip_expansion(self):
        spec = CampaignSpec(
            name="zipped",
            sweep={"cpu_model": GENERATIONS, "nodes": [1, 2, 4]},
            expansion="zip",
        )
        units = spec.expand()
        assert len(units) == spec.n_units == 3
        assert [u.plan.nodes for u in units] == [1, 2, 4]

    def test_zip_requires_equal_lengths(self):
        with pytest.raises(CampaignError, match="equal-length"):
            CampaignSpec(
                name="bad",
                sweep={"cpu_model": GENERATIONS, "seed": [1, 2]},
                expansion="zip",
            )

    def test_unknown_axis_rejected(self):
        with pytest.raises(CampaignError, match="unknown sweep axis"):
            CampaignSpec(name="bad", sweep={"gpu_model": ["H100"]})

    def test_axis_both_swept_and_fixed_rejected(self):
        with pytest.raises(CampaignError, match="both swept and fixed"):
            CampaignSpec(
                name="bad", sweep={"seed": [1, 2]}, base={"seed": 3, "cpu_model": GENERATIONS[0]}
            )

    def test_unknown_cpu_model_rejected_at_expansion(self):
        spec = CampaignSpec(name="bad", sweep={"cpu_model": ["Xeon Imaginary 1"]})
        with pytest.raises(Exception, match="unknown CPU model"):
            spec.expand()

    def test_missing_cpu_model_rejected(self):
        spec = CampaignSpec(name="bad", sweep={"seed": [1, 2]})
        with pytest.raises(CampaignError, match="cpu_model"):
            spec.expand()

    def test_repeated_axis_values_rejected(self):
        with pytest.raises(CampaignError, match="repeats values"):
            CampaignSpec(name="dup", sweep={"cpu_model": [GENERATIONS[0]] * 2})

    def test_duplicate_scenarios_rejected_at_expansion(self):
        # 384 and 384.0 are distinct axis values but resolve to the same
        # scenario content — the expansion-level dedup catches that.
        spec = CampaignSpec(
            name="dup",
            sweep={"memory_gb": [384, 384.0]},
            base={"cpu_model": GENERATIONS[0]},
        )
        with pytest.raises(CampaignError, match="same scenario"):
            spec.expand()

    def test_option_axes_reach_simulation_options(self):
        spec = CampaignSpec(
            name="opts",
            sweep={"fidelity": ["analytic", "event"]},
            base={"cpu_model": GENERATIONS[0], "interval_duration_s": 30.0},
        )
        units = spec.expand()
        assert [u.options.fidelity for u in units] == ["analytic", "event"]
        assert all(u.options.interval_duration_s == 30.0 for u in units)

    def test_load_level_sets_validated(self):
        with pytest.raises(SimulationError, match="100 % level"):
            CampaignSpec(
                name="bad",
                sweep={"cpu_model": [GENERATIONS[0]]},
                base={"load_levels": [0.5, 0.0]},
            ).expand()

    def test_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        loaded = CampaignSpec.from_json_file(path)
        assert loaded.to_dict() == spec.to_dict()
        assert [u.key for u in loaded.expand()] == [u.key for u in spec.expand()]

    def test_expansion_digests_each_entry_and_encodes_each_options_once(self, monkeypatch):
        from repro.campaign import spec as spec_module

        digested: list[str] = []
        encoded: list[SimulationOptions] = []
        entry_digest, encode_options = spec_module.entry_digest, spec_module.encode_options

        def counting_digest(entry):
            digested.append(entry.cpu.model)
            return entry_digest(entry)

        def counting_encode(options):
            encoded.append(options)
            return encode_options(options)

        monkeypatch.setattr(spec_module, "entry_digest", counting_digest)
        monkeypatch.setattr(spec_module, "encode_options", counting_encode)
        spec = CampaignSpec(
            name="memo",
            sweep={"cpu_model": GENERATIONS, "fidelity": ["analytic", "event"], "seed": [1, 2]},
        )
        units = spec.expand()
        assert len(units) == 12
        assert sorted(digested) == sorted(GENERATIONS)
        assert [options.fidelity for options in encoded] == ["analytic", "event"]
        # Per expansion, not per process: a second expansion digests again.
        spec.expand()
        assert len(digested) == 2 * len(GENERATIONS) and len(encoded) == 4

    def test_equal_but_distinct_option_values_keep_their_own_keys(self):
        # 120 == 120.0, but they encode (and so key) differently; the
        # expansion's options memo must not hand one the other's encoding.
        def keys(values):
            spec = CampaignSpec(
                name="distinct",
                sweep={"interval_duration_s": values},
                base={"cpu_model": "EPYC 9654"},
            )
            return [unit.key for unit in spec.expand()]

        both = keys([120, 120.0])
        assert both == keys([120]) + keys([120.0])
        assert len(set(both)) == 2


# --------------------------------------------------------------------------- #
# Content-hash cache
# --------------------------------------------------------------------------- #
class TestCache:
    PARAMS = {"cpu_model": "EPYC 9654", "nodes": 1, "sockets": 2,
              "memory_gb": 384.0, "seed": 7}

    def test_key_stable_across_orderings(self):
        options = SimulationOptions()
        shuffled = dict(reversed(list(self.PARAMS.items())))
        assert unit_key(self.PARAMS, options) == unit_key(shuffled, options)

    def test_key_sensitive_to_every_input(self):
        base = unit_key(self.PARAMS, SimulationOptions())
        assert unit_key({**self.PARAMS, "seed": 8}, SimulationOptions()) != base
        assert unit_key(self.PARAMS, SimulationOptions(fidelity="event")) != base
        assert unit_key(
            self.PARAMS, SimulationOptions(load_levels=(1.0, 0.5, 0.0))
        ) != base

    def test_key_depends_on_catalog_entry_content(self):
        # Same model name, different silicon: a custom catalog must not
        # reuse cache entries simulated under the default catalog.
        from dataclasses import replace as dc_replace

        from repro.market.catalog import default_catalog, Catalog

        default = default_catalog()
        modified_entries = [
            dc_replace(e, cpu=dc_replace(e.cpu, tdp_w=e.cpu.tdp_w * 2))
            if e.cpu.model == GENERATIONS[0] else e
            for e in default.entries
        ]
        spec = small_spec(seeds=(1,))
        base_keys = [u.key for u in spec.expand(default)]
        new_keys = [u.key for u in spec.expand(Catalog(modified_entries))]
        changed = [i for i, (a, b) in enumerate(zip(base_keys, new_keys)) if a != b]
        # Exactly the units using the modified generation change keys.
        assert len(changed) == 1
        assert spec.expand(default)[changed[0]].params["cpu_model"] == GENERATIONS[0]

    def test_key_independent_of_campaign_name(self):
        a = small_spec(name="alpha").expand()
        b = small_spec(name="beta").expand()
        assert [u.key for u in a] == [u.key for u in b]

    def test_put_get_contains(self, tmp_path):
        # A row is stored in a flushed artifact; ``put`` indexes it there.
        cache = ResultCache(tmp_path / "results")
        unit = small_spec(seeds=(1,)).expand()[0]
        row = {"run_id": "x", "power_idle": 42.5, "nodes": None}
        assert cache.get(unit.key) is None and unit.key not in cache
        meta, arrays = frame_to_arrays(assemble_frame([unit], {unit.key: row}))
        shards = ArtifactStore(tmp_path / "shards")
        shards.put("a" * 64, {"columns": meta, "n_rows": 1}, arrays=arrays)
        cache.put(shards, "a" * 64, shards.sidecar_digest("a" * 64), [unit.key])
        assert unit.key in cache
        assert cache.get(unit.key) == row
        assert list(cache.get(unit.key)) == list(row)  # key order kept
        # A fresh instance reads the index back from disk.
        assert ResultCache(tmp_path / "results").get(unit.key) == row

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CampaignError, match="malformed"):
            cache.get("../../etc/passwd")


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
class TestAccumulator:
    def test_union_of_columns_with_backfill(self):
        acc = FrameAccumulator()
        acc.add_row({"a": 1, "b": 2.0})
        acc.add_row({"a": 3, "c": "x"})
        frame = acc.to_frame()
        assert frame.columns == ["a", "b", "c"]
        assert frame["b"].to_list() == [2.0, None]
        assert frame["c"].to_list() == [None, "x"]
        assert len(acc) == 2

    def test_empty_accumulator(self):
        assert len(FrameAccumulator().to_frame()) == 0


# --------------------------------------------------------------------------- #
# Runner + store (end-to-end)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def completed_campaign(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("campaign-store")
    spec = small_spec()
    result = run_campaign(spec, store_dir)
    return spec, store_dir, result


class TestRunner:
    def test_full_run(self, completed_campaign):
        _, _, result = completed_campaign
        assert result.total_units == 9
        assert result.simulated == 9 and result.cache_hits == 0
        assert not result.failures
        assert len(result.frame) == 9

    def test_second_run_all_cache_hits(self, completed_campaign):
        spec, store_dir, first = completed_campaign
        second = run_campaign(spec, store_dir)
        assert second.simulated == 0 and second.cache_hits == 9
        assert second.frame.equals(first.frame)

    def test_campaign_columns_attached(self, completed_campaign):
        _, _, result = completed_campaign
        frame = result.frame
        for column in ("campaign_unit", "campaign_key", "campaign_seed",
                       "campaign_cpu_model", "campaign_load_levels"):
            assert column in frame
        assert sorted(set(frame["campaign_seed"].to_list())) == [1, 2, 3]
        assert set(frame["campaign_cpu_model"].to_list()) == set(GENERATIONS)
        assert frame["campaign_load_levels"].to_list()[0] == "1.0,0.5,0.2,0.1,0.0"

    def test_frame_flows_into_analyze(self, completed_campaign):
        _, _, result = completed_campaign
        analysis = analyze_frame(result.frame, table1=False)
        assert len(analysis.filtered) == 9
        assert "overall_efficiency" in analysis.filtered
        assert analysis.filtered["overall_efficiency"].count() == 9

    def test_deterministic_rows_per_seed(self, completed_campaign, tmp_path):
        # Re-running one unit from scratch in a fresh store reproduces the
        # cached row exactly (content-hash identity == simulation identity).
        spec, _, result = completed_campaign
        solo = CampaignSpec(
            name="solo",
            sweep={"cpu_model": [GENERATIONS[0]]},
            base={**FAST_BASE, "seed": 1},
        )
        fresh = run_campaign(solo, tmp_path / "solo")
        key = fresh.frame["campaign_key"][0]
        match = result.frame.filter(result.frame["campaign_key"] == key)
        assert len(match) == 1
        for name in ("overall_ssj_ops_per_watt", "power_idle", "power_100"):
            assert match[name][0] == fresh.frame[name][0]

    def test_interrupted_campaign_resumes_missing_units_only(self, tmp_path):
        spec = small_spec(name="interrupted")
        store_dir = tmp_path / "store"
        partial = run_campaign(spec, store_dir, max_units=4)
        assert partial.simulated == 4 and len(partial.frame) == 4
        status = CampaignStore(store_dir).status()
        assert status.completed == 4 and status.pending == 5

        resumed = resume_campaign(store_dir)
        assert resumed.cache_hits == 4 and resumed.simulated == 5
        assert len(resumed.frame) == 9
        assert CampaignStore(store_dir).status().is_complete

    def test_resume_frame_takes_the_snapshot_column_order(self, tmp_path):
        # spec.json sorts base keys, so the snapshot annotates campaign_*
        # columns in another order than this in-memory spec; shards flushed
        # before the resume keep the in-memory order, yet the resumed frame
        # is the snapshot's, as a fresh run of the snapshot would give it.
        spec = CampaignSpec(
            name="column-order",
            sweep={"cpu_model": GENERATIONS, "seed": [1, 2]},
            base={"nodes": 1, **FAST_BASE},
        )
        store_dir = tmp_path / "store"
        config = ParallelConfig(backend="serial", chunk_size=2)
        run_campaign(spec, store_dir, parallel=config, max_units=3)
        resumed = resume_campaign(store_dir, parallel=config)
        snapshot = CampaignStore(store_dir).load_spec()
        fresh = run_campaign(snapshot, tmp_path / "fresh")
        assert [name for name in fresh.frame.columns if name.startswith("campaign_")][3:5] == [
            "campaign_load_levels",
            "campaign_nodes",
        ]
        assert resumed.frame.columns == fresh.frame.columns
        assert resumed.frame.equals(fresh.frame)

    def test_unit_failure_captured_without_aborting(self, tmp_path, monkeypatch):
        from dataclasses import replace

        spec = small_spec(name="faulty", seeds=(1,))
        units = spec.expand()
        # Corrupt one unit so its worker fails: the plan names a CPU the
        # worker's catalog does not contain.
        broken = replace(units[1], plan=replace(units[1].plan, cpu_model="No Such CPU"))
        units = (units[0], broken, units[2])
        monkeypatch.setattr(CampaignSpec, "iter_units", lambda self, catalog=None: iter(units))
        store = CampaignStore(tmp_path / "store")
        result = run_campaign(spec, store.directory)
        assert result.simulated == 2
        assert len(result.failures) == 1
        assert "unknown CPU model" in result.failures[0][1]
        assert len(result.frame) == 2  # good units still aggregated
        status = store.status()
        assert status.failed == 1 and status.completed == 2

    def test_pool_engaged_despite_default_serial_threshold(self, tmp_path, monkeypatch):
        # The CLI's --jobs config keeps the executor's default
        # serial_threshold (64); campaign batches sit at chunk_size*workers
        # <= 64, so without the runner's threshold override every batch
        # would fall back to serial execution.
        import repro.parallel.executor as executor
        from repro.parallel import ParallelConfig

        engaged = {"pool": False}
        original = executor.ThreadPoolExecutor

        class SpyPool(original):
            def __init__(self, *args, **kwargs):
                engaged["pool"] = True
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor, "ThreadPoolExecutor", SpyPool)
        spec = small_spec(name="threshold", seeds=(41,))
        config = ParallelConfig(max_workers=2, backend="thread", chunk_size=2)
        result = run_campaign(spec, tmp_path / "store", parallel=config)
        assert result.simulated == 3 and not result.failures
        assert engaged["pool"], "campaign batches must reach the worker pool"

    def test_process_backend_executes_campaign(self, tmp_path):
        from repro.parallel import ParallelConfig

        spec = small_spec(name="pooled", seeds=(11, 12))
        config = ParallelConfig(
            max_workers=2, backend="process", chunk_size=2, serial_threshold=0
        )
        result = run_campaign(spec, tmp_path / "store", parallel=config)
        assert result.simulated == 6 and not result.failures
        # Pool execution and serial execution agree bit-for-bit.
        serial = run_campaign(spec, tmp_path / "store2")
        assert serial.frame.equals(result.frame)


class TestStore:
    def test_store_rejects_conflicting_spec(self, completed_campaign):
        spec, store_dir, _ = completed_campaign
        other = small_spec(seeds=(4, 5, 6))
        with pytest.raises(CampaignError, match="different spec"):
            run_campaign(other, store_dir)

    def test_status_on_non_store_directory(self, tmp_path):
        with pytest.raises(CampaignError, match="no spec.json"):
            CampaignStore(tmp_path / "empty").status()

    def test_ledger_survives_torn_writes(self, completed_campaign):
        spec, store_dir, _ = completed_campaign
        store = CampaignStore(store_dir)
        with store.ledger_path.open("a", encoding="utf-8") as handle:
            handle.write('{"unit_id": "torn", "key": "abc",')  # killed mid-write
        status = store.status()  # does not raise
        assert status.completed == 9


# --------------------------------------------------------------------------- #
# API + CLI wiring
# --------------------------------------------------------------------------- #
class TestWiring:
    def test_api_accepts_dict_and_path(self, tmp_path):
        spec_dict = small_spec(name="api-dict", seeds=(21,)).to_dict()
        with Session() as session:
            result = session.campaign(spec_dict, store=tmp_path / "s1").result()
        assert result.total_units == 3

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict), encoding="utf-8")
        with Session() as session:
            again = session.campaign(path, store=tmp_path / "s2").result()
        assert again.total_units == 3 and again.simulated == 3
        assert again.frame.equals(result.frame)

    def test_cli_run_status_resume(self, tmp_path, capsys):
        spec = small_spec(name="cli", seeds=(31, 32))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        store = tmp_path / "store"
        csv = tmp_path / "out.csv"

        assert cli_main(["campaign", "run", "--spec", str(spec_path),
                         "--store", str(store), "--max-units", "2"]) == 0
        assert cli_main(["campaign", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2/6 units completed" in out

        assert cli_main(["campaign", "resume", "--store", str(store),
                         "--csv", str(csv)]) == 0
        assert cli_main(["campaign", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "6/6 units completed" in out
        assert csv.exists()

        # Third run: everything cached.
        assert cli_main(["campaign", "run", "--spec", str(spec_path),
                         "--store", str(store)]) == 0
        assert "6 cached, 0 simulated" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Batch execution strategy
# --------------------------------------------------------------------------- #
class TestBatchStrategy:
    def test_batch_and_scalar_campaigns_produce_identical_frames(self, tmp_path):
        spec = small_spec(name="batch-eq", seeds=(41, 42))
        batched = run_campaign(spec, tmp_path / "batched")
        scalar = run_campaign(spec, tmp_path / "scalar", batch=False)
        assert batched.simulated == scalar.simulated == 6
        assert not batched.failures and not scalar.failures
        assert batched.frame.equals(scalar.frame)

    def test_scalar_store_is_a_full_cache_hit_for_batch(self, tmp_path):
        # Strategy independence of the cache: rows simulated scalar are
        # exactly what the batch kernel would have produced, so switching
        # strategies over one store never re-simulates anything.
        spec = small_spec(name="batch-cache", seeds=(51,))
        store = tmp_path / "store"
        cold = run_campaign(spec, store, batch=False)
        warm = run_campaign(spec, store, batch=True)
        assert warm.cache_hits == 3 and warm.simulated == 0
        assert warm.frame.equals(cold.frame)

    def test_heterogeneous_options_grouped_per_chunk(self, tmp_path):
        # Sweeping an option axis produces units with differing
        # SimulationOptions; the batch runner groups them per chunk.
        spec = CampaignSpec(
            name="batch-groups",
            sweep={
                "cpu_model": GENERATIONS[:2],
                "interval_duration_s": [120.0, 240.0],
            },
            base=FAST_BASE,
        )
        result = run_campaign(spec, tmp_path / "store")
        assert result.simulated == 4 and not result.failures
        assert len(result.frame) == 4

    def test_max_units_respected_by_batch_path(self, tmp_path):
        spec = small_spec(name="batch-max", seeds=(61, 62))
        result = run_campaign(spec, tmp_path / "store", max_units=2)
        assert result.simulated == 2
        assert result.total_units == 6


# --------------------------------------------------------------------------- #
# CLI batch flag + clean store errors
# --------------------------------------------------------------------------- #
class TestCLIBatchAndErrors:
    def test_cli_no_batch_matches_batched_run(self, tmp_path, capsys):
        spec = small_spec(name="cli-nobatch", seeds=(71,))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert cli_main(["campaign", "run", "--spec", str(spec_path),
                         "--store", str(tmp_path / "scalar"), "--no-batch"]) == 0
        assert cli_main(["campaign", "run", "--spec", str(spec_path),
                         "--store", str(tmp_path / "batched")]) == 0
        out = capsys.readouterr().out
        assert out.count("3 simulated") == 2

    def test_cli_status_on_missing_store_is_one_clean_line(self, tmp_path, capsys):
        rc = cli_main(["campaign", "status", "--store", str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_cli_resume_on_corrupt_store_is_one_clean_line(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "spec.json").write_text("{not json", encoding="utf-8")
        rc = cli_main(["campaign", "resume", "--store", str(store)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_cli_run_into_foreign_store_is_one_clean_line(self, tmp_path, capsys):
        first = small_spec(name="owner", seeds=(81,))
        other = small_spec(name="intruder", seeds=(82,))
        store = tmp_path / "store"
        run_campaign(first, store)
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other.to_dict()), encoding="utf-8")
        rc = cli_main(["campaign", "run", "--spec", str(other_path),
                       "--store", str(store)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
