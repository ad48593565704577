"""Session layer: artifact store, execution policy, cached stages, registries."""

from dataclasses import replace

import pytest

from repro.errors import ArtifactError, SessionError
from repro.parallel import ParallelConfig
from repro.session import (
    ArtifactStore,
    ExecutionPolicy,
    Session,
    digest_json,
    digest_tree,
)
from repro.simulator import WORKLOAD_PRESETS, SimulationOptions

RUNS = 40
SEED = 3


# --------------------------------------------------------------------------- #
# ArtifactStore + digests
# --------------------------------------------------------------------------- #
class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = digest_json({"stage": "x"})
        assert store.get(key) is None and key not in store
        store.put(key, {"rows": [1, 2], "name": "x"})
        assert key in store
        assert store.get(key) == {"rows": [1, 2], "name": "x"}
        assert len(store) == 1 and list(store.keys()) == [key]

    def test_malformed_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactError):
            store.get("../../etc/passwd")

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        key = digest_json("payload")
        ArtifactStore(tmp_path, schema=1).put(key, {"a": 1})
        assert ArtifactStore(tmp_path, schema=2).get(key) is None
        assert ArtifactStore(tmp_path, schema=1).get(key) == {"a": 1}

    def test_scope_isolates_kinds(self, tmp_path):
        root = ArtifactStore(tmp_path)
        key = digest_json("shared")
        root.scope("corpus").put(key, {"kind": "corpus"})
        assert root.scope("dataset").get(key) is None
        assert root.scope("corpus").get(key) == {"kind": "corpus"}
        with pytest.raises(ArtifactError):
            root.scope("../evil")

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(digest_json(1), {"v": 1})
        store.put(digest_json(2), {"v": 2})
        assert store.clear() == 2 and len(store) == 0

    def test_array_sidecar_roundtrip_and_clear(self, tmp_path):
        import numpy as np

        store = ArtifactStore(tmp_path)
        key = digest_json("columnar")
        assert store.get_arrays(key) is None
        store.put(key, {"n": 3}, arrays={"x": np.array([1.5, np.nan, 2.0])})
        assert store.sidecar_path(key).exists()
        arrays = store.get_arrays(key)
        assert list(arrays) == ["x"]
        assert np.array_equal(arrays["x"], [1.5, np.nan, 2.0], equal_nan=True)
        # Rewriting without arrays drops the stale sidecar.
        store.put(key, {"n": 3})
        assert store.get_arrays(key) is None
        store.put(key, {"n": 3}, arrays={"x": np.zeros(2)})
        assert store.clear() == 1
        assert not store.sidecar_path(key).exists()


class TestColumnarCodec:
    def test_frame_round_trip_preserves_kinds_values_masks(self):
        import numpy as np

        from repro.frame import Frame
        from repro.session.columnar import frame_from_arrays, frame_to_arrays

        frame = Frame.from_dict(
            {
                "f": [1.5, None, float("nan"), -0.0],
                "i": [1, None, 3, 4],
                "b": [True, False, None, True],
                "s": ["x", "", None, "long string"],
            }
        )
        meta, arrays = frame_to_arrays(frame)
        assert len(arrays) == 5  # masks + one member per kind
        restored = frame_from_arrays(meta, arrays)
        assert restored.columns == frame.columns
        assert restored.equals(frame)
        for name in frame.columns:
            assert restored[name].kind == frame[name].kind
            assert np.array_equal(restored[name].mask, frame[name].mask)
        # "" survives as a value, None as missing (they are distinct).
        assert restored["s"].to_list() == ["x", "", None, "long string"]

    def test_trailing_nul_strings_round_trip(self):
        # NumPy unicode strips trailing NULs; the codec's pad sentinel must
        # bring them back bit for bit.
        from repro.frame import Frame
        from repro.session.columnar import frame_from_arrays, frame_to_arrays

        frame = Frame.from_dict(
            {"s": ["a\x00", "a", "\x00", None, "mid\x00dle"], "t": ["plain", "b", "c", "d", "e"]}
        )
        meta, arrays = frame_to_arrays(frame)
        restored = frame_from_arrays(meta, arrays)
        assert restored["s"].to_list() == ["a\x00", "a", "\x00", None, "mid\x00dle"]
        assert restored["t"].to_list() == frame["t"].to_list()
        assert restored.equals(frame)

    def test_corrupt_sidecar_raises_artifact_error(self, tmp_path):
        import numpy as np
        import pytest

        from repro.errors import ArtifactError

        store = ArtifactStore(tmp_path)
        key = digest_json("corrupt")
        store.put(key, {"n": 1}, arrays={"x": np.zeros(2)})
        store.sidecar_path(key).write_bytes(b"not a zip archive")
        with pytest.raises(ArtifactError):
            store.get_arrays(key)

    def test_str_columns_keep_independent_widths(self):
        # One member per string column: a long value in one column must not
        # widen the storage of every other string column's cells.
        from repro.frame import Frame
        from repro.session.columnar import frame_from_arrays, frame_to_arrays

        frame = Frame.from_dict(
            {"short": ["a", "b"], "long": ["x" * 500, None]}
        )
        meta, arrays = frame_to_arrays(frame)
        assert arrays["str0"].dtype.itemsize < arrays["str1"].dtype.itemsize
        assert frame_from_arrays(meta, arrays).equals(frame)

    def test_empty_and_zero_row_frames(self):
        from repro.frame import Frame
        from repro.session.columnar import frame_from_arrays, frame_to_arrays

        for frame in (Frame(), Frame.from_dict({"a": [], "s": []})):
            meta, arrays = frame_to_arrays(frame)
            restored = frame_from_arrays(meta, arrays)
            assert restored.columns == frame.columns
            assert len(restored) == 0

    def test_digest_json_canonicalisation(self):
        assert digest_json({"b": 1, "a": (1, 2)}) == digest_json({"a": [1, 2], "b": 1})
        assert digest_json({"a": 1}) != digest_json({"a": 2})

    def test_digest_tree_tracks_content_and_names(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha")
        (tmp_path / "b.txt").write_text("beta")
        base = digest_tree(tmp_path)
        assert digest_tree(tmp_path) == base  # deterministic
        (tmp_path / "b.txt").write_text("BETA")
        edited = digest_tree(tmp_path)
        assert edited != base
        (tmp_path / "b.txt").rename(tmp_path / "c.txt")
        assert digest_tree(tmp_path) != edited  # rename also invalidates


# --------------------------------------------------------------------------- #
# ExecutionPolicy
# --------------------------------------------------------------------------- #
class TestExecutionPolicy:
    def test_default_matches_historic_behaviour(self):
        policy = ExecutionPolicy()
        assert policy.parallel_config().backend == "serial"
        assert policy.use_batch_kernel

    def test_mode_to_backend_mapping(self):
        assert ExecutionPolicy(mode="serial").parallel_config().backend == "serial"
        assert ExecutionPolicy(mode="thread").parallel_config().backend == "thread"
        config = ExecutionPolicy(mode="process", workers=3).parallel_config()
        assert config.backend == "process" and config.max_workers == 3

    def test_kernel_resolution(self):
        assert not ExecutionPolicy(mode="serial").use_batch_kernel
        assert ExecutionPolicy(mode="process").use_batch_kernel
        assert ExecutionPolicy(mode="serial", kernel="batch").use_batch_kernel
        assert not ExecutionPolicy(mode="process", kernel="scalar").use_batch_kernel

    def test_validation(self):
        with pytest.raises(SessionError):
            ExecutionPolicy(mode="gpu")
        with pytest.raises(SessionError):
            ExecutionPolicy(kernel="magic")
        with pytest.raises(SessionError):
            ExecutionPolicy(chunk_size=0)

    def test_from_parallel_and_jobs(self):
        assert ExecutionPolicy.from_parallel(None).mode == "batch"
        assert ExecutionPolicy.from_parallel(None, batch=False).mode == "serial"
        policy = ExecutionPolicy.from_parallel(
            ParallelConfig(max_workers=4, backend="process")
        )
        assert policy.mode == "process" and policy.workers == 4
        assert ExecutionPolicy.from_jobs(1).parallel_config().backend == "serial"
        assert ExecutionPolicy.from_jobs(8).parallel_config().backend == "process"


# --------------------------------------------------------------------------- #
# Session stages + caching
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("session-ws")


@pytest.fixture(scope="module")
def warm_frame(workspace):
    """Run the pipeline cold once; later tests reuse the warm workspace."""
    with Session(workspace=workspace) as session:
        return session.dataset(runs=RUNS, seed=SEED).result()


def _fail(*args, **kwargs):  # pragma: no cover - called only on cache misses
    raise AssertionError("stage recomputed despite a warm workspace")


class TestSessionCaching:
    def test_handles_are_lazy(self, workspace):
        with Session(workspace=workspace) as session:
            handle = session.corpus(runs=9999, seed=1)  # would be expensive
            assert handle.key and not handle.in_memory

    def test_same_stage_memoized_within_session(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            first = session.dataset(runs=RUNS, seed=SEED).result()
            second = session.dataset(runs=RUNS, seed=SEED).result()
            assert first is second  # computed once

    def test_warm_workspace_skips_generation_and_parsing(
        self, workspace, warm_frame, monkeypatch
    ):
        import repro.parser
        import repro.reportgen
        from repro.simulator.director import RunDirector

        monkeypatch.setattr(repro.parser, "parse_directory", _fail)
        monkeypatch.setattr(repro.reportgen, "generate_corpus_files", _fail)
        monkeypatch.setattr(RunDirector, "run", _fail)
        with Session(workspace=workspace) as session:
            frame = session.dataset(runs=RUNS, seed=SEED).result()
            assert frame.equals(warm_frame)
            result = session.analysis(table1=False).result()
            assert result.unfiltered.equals(frame)
            assert "Reproduction report" in result.summary()

    def test_warm_frame_is_bit_identical_to_api_load(self, workspace, warm_frame):
        # warm_frame came through the parse-bypass (no report was ever
        # rendered); materialise the corpus and push the same runs through
        # the full render -> parse text path to pin bit-identity end to end.
        with Session(workspace=workspace) as session:
            corpus_dir = session.corpus(runs=RUNS, seed=SEED).result().directory
        with Session() as session:  # no workspace: the text is parsed
            fresh = session.dataset(corpus=corpus_dir).result()
        assert fresh.equals(warm_frame)
        assert fresh.columns == warm_frame.columns

    def test_corpus_mutation_invalidates_record(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            session.corpus(runs=RUNS, seed=SEED).result()  # materialise
        with Session(workspace=workspace) as session:  # memo-free view
            handle = session.corpus(runs=RUNS, seed=SEED)
            assert handle.is_cached
            victim = next(iter(handle.directory.glob("*.txt")))
            victim.unlink()
            assert not handle.is_cached  # file count no longer matches
            handle.result()  # regenerates in place
            assert handle.is_cached

    def test_external_corpus_keyed_by_content(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            source = session.corpus(runs=RUNS, seed=SEED).result().directory
            by_path = session.dataset(corpus=source)
            by_handle = session.dataset(corpus=session.corpus(runs=RUNS, seed=SEED))
            assert by_path.key != by_handle.key  # different key derivations
            assert by_path.result().equals(warm_frame)

    def test_dataset_summary_matches_parse_report(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            dataset = session.dataset(runs=RUNS, seed=SEED)
            summary = dataset.summary()
            report = dataset.parse_report()
            assert summary.describe() == report.describe()

    def test_analysis_distinct_params_distinct_keys(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            a = session.analysis(table1=False)
            b = session.analysis(table1=False, figures=True)
            assert a.key != b.key

    def test_table1_memoized(self, workspace):
        with Session(workspace=workspace) as session:
            rows = session.table1()
            assert rows and rows is session.table1()

    def test_ephemeral_workspace_removed_on_close(self):
        session = Session()
        workspace = session.workspace
        assert workspace.is_dir()
        session.close()
        assert not workspace.exists()


# --------------------------------------------------------------------------- #
# Binary dataset artifacts (.npz sidecar) + parse bypass
# --------------------------------------------------------------------------- #
class TestDatasetArtifacts:
    def test_dataset_persists_npz_sidecar_not_json_rows(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            handle = session.dataset(runs=RUNS, seed=SEED)
            store = session._store_for("dataset")
            payload = store.get(handle.key)
            assert payload is not None
            assert "rows" not in payload and "columns" in payload
            assert payload["parsed_count"] == RUNS
            assert store.sidecar_path(handle.key).exists()

    def test_legacy_json_row_artifact_still_loads(self, workspace, warm_frame):
        # A workspace written before the .npz format holds {"rows": [...]}
        # under the same schema; it must reload bit-identically, not miss.
        with Session(workspace=workspace) as session:
            handle = session.dataset(runs=RUNS, seed=SEED)
            report = handle.parse_report()
            legacy = {
                "directory": str(handle.directory),
                "rows": [record.to_dict() for record in report.records],
                "rejected": [[f.file_name, f.reason] for f in report.rejected],
            }
            session._store_for("dataset").put(handle.key, legacy)
        with Session(workspace=workspace) as session:
            frame = session.dataset(runs=RUNS, seed=SEED).result()
            assert frame.equals(warm_frame)
            summary = session.dataset(runs=RUNS, seed=SEED).summary()
            assert summary.parsed_count == RUNS
        # Restore the binary artifact for the tests that follow.
        with Session(workspace=workspace) as session:
            session._store_for("dataset").clear()
            session.dataset(runs=RUNS, seed=SEED).result()

    def test_pruned_sidecar_recomputes_instead_of_failing(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            handle = session.dataset(runs=RUNS, seed=SEED)
            store = session._store_for("dataset")
            store.sidecar_path(handle.key).unlink()
        with Session(workspace=workspace) as session:
            handle = session.dataset(runs=RUNS, seed=SEED)
            assert handle.result().equals(warm_frame)
            assert session._store_for("dataset").sidecar_path(handle.key).exists()

    def test_bypass_dataset_never_renders_or_parses(self, tmp_path, monkeypatch):
        # The cold fast path must go straight from simulation results to
        # records: rendering a report or invoking the parser is a bug.
        import repro.parser
        import repro.reportgen
        import repro.reportgen.textreport

        monkeypatch.setattr(repro.parser, "parse_directory", _fail)
        monkeypatch.setattr(repro.reportgen, "generate_corpus_files", _fail)
        monkeypatch.setattr(repro.reportgen.textreport, "render_report", _fail)
        with Session(workspace=tmp_path / "ws") as session:
            frame = session.dataset(runs=RUNS, seed=SEED).result()
            assert len(frame) == RUNS
            assert not (tmp_path / "ws" / "corpora").exists()

    def test_text_path_dataset_is_bit_identical(self, workspace, warm_frame):
        text_ws = workspace / "text-route"
        with Session(workspace=text_ws) as session:
            frame = session.dataset(runs=RUNS, seed=SEED, text_path=True).result()
            assert frame.equals(warm_frame)
            assert any((text_ws / "corpora").iterdir())


# --------------------------------------------------------------------------- #
# Campaigns through the session
# --------------------------------------------------------------------------- #
SPEC = {
    "name": "session-sweep",
    "sweep": {"cpu_model": ["Xeon X5670", "EPYC 9654"], "seed": [1, 2]},
    "base": {"load_levels": [1.0, 0.5, 0.2, 0.1, 0.0]},
}


class TestSessionCampaign:
    def test_campaign_runs_and_memoizes(self, workspace):
        with Session(workspace=workspace) as session:
            handle = session.campaign(SPEC)
            result = handle.result()
            assert result.total_units == 4 and not result.failures
            assert handle.status().is_complete
            assert session.campaign(SPEC).result() is result  # memo hit

    def test_campaign_store_replays_across_sessions(self, workspace):
        with Session(workspace=workspace) as session:
            again = session.campaign(SPEC)
            assert again.is_cached
            result = again.result()
            assert result.simulated == 0 and result.cache_hits == 4

    def test_workload_preset_fills_option_axes(self, workspace):
        with Session(workspace=workspace) as session:
            spec = {"name": "wl", "sweep": {"cpu_model": ["Xeon X5670"]}}
            handle = session.campaign(spec, workload="fast")
            assert handle.spec.base["load_levels"] == WORKLOAD_PRESETS[
                "fast"
            ].load_levels
            explicit = {**spec, "base": {"load_levels": [1.0, 0.2, 0.0]}}
            kept = session.campaign(explicit, workload="fast")
            assert kept.spec.base["load_levels"] == (1.0, 0.2, 0.0)


# --------------------------------------------------------------------------- #
# Extension registries
# --------------------------------------------------------------------------- #
class TestRegistries:
    def test_register_workload_changes_corpus_key(self, workspace):
        with Session(workspace=workspace) as session:
            session.register_workload(
                "short", SimulationOptions(load_levels=(1.0, 0.5, 0.0))
            )
            assert "short" in session.workloads
            assert session.corpus(workload="short").key != session.corpus().key
            with pytest.raises(SessionError):
                session.register_workload("short", SimulationOptions())
            with pytest.raises(SessionError):
                session.corpus(workload="nope")
            with pytest.raises(SessionError):
                session.corpus(workload="short", options=SimulationOptions())

    def test_register_analysis(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            session.register_analysis(
                "mean-eff", lambda frame: frame["overall_efficiency"].mean()
            )
            assert session.analyses == ("mean-eff",)
            handle = session.analysis(
                session.dataset(runs=RUNS, seed=SEED), name="mean-eff"
            )
            assert handle.result() == pytest.approx(
                warm_frame["overall_efficiency"].mean()
            )
            with pytest.raises(SessionError):
                session.register_analysis("paper", lambda frame: frame)
            with pytest.raises(SessionError):
                session.analysis(name="unknown").result()

    def test_register_platform_extends_catalog_and_keys(self, workspace):
        with Session(workspace=workspace) as session:
            base_key = session.campaign(SPEC).key
            entry = session.catalog.get("Xeon X5670")
            custom = replace(entry, cpu=replace(entry.cpu, model="Xeon X9999"))
            session.register_platform(custom)
            assert session.catalog.get("Xeon X9999").cpu.model == "Xeon X9999"
            assert session.campaign(SPEC).key != base_key  # catalog in the key
            with pytest.raises(SessionError):
                session.register_platform(custom)
            session.register_platform(custom, replace=True)
            sweep = session.campaign(
                {
                    "name": "custom",
                    "sweep": {"cpu_model": ["Xeon X9999"]},
                    "base": {"load_levels": [1.0, 0.5, 0.2, 0.1, 0.0]},
                }
            ).result()
            assert sweep.total_units == 1 and not sweep.failures


def test_analysis_result_comparison_is_paper_comparison(analysis_result):
    from repro.core.report import PaperComparison

    assert isinstance(analysis_result.comparison, PaperComparison)


# --------------------------------------------------------------------------- #
# Frame identity guarantee of the dataset cache
# --------------------------------------------------------------------------- #
def test_dataset_json_roundtrip_is_exact(workspace, warm_frame):
    # Every column must survive the rows -> JSON -> rows rebuild exactly:
    # dtype-sensitive consumers (filters, binning) see no difference between
    # a cold parse and a warm reload.
    with Session(workspace=workspace) as session:
        session.clear_memo()
        reloaded = session.dataset(runs=RUNS, seed=SEED).result()
    assert reloaded.columns == warm_frame.columns
    assert reloaded.equals(warm_frame)
    for name in warm_frame.columns:
        assert reloaded[name].to_list() == warm_frame[name].to_list(), name


class TestReviewRegressions:
    def test_dataset_explicit_args_override_last_corpus(self, workspace, warm_frame):
        with Session(workspace=workspace) as session:
            session.corpus(runs=RUNS, seed=SEED)  # becomes _last
            other = session.dataset(runs=RUNS, seed=99)  # explicit args win
            assert other.corpus.seed == 99
            implicit = session.dataset()  # no args -> most recent
            assert implicit.corpus.seed == 99

    def test_campaign_key_independent_of_max_units(self, workspace):
        spec = {
            "name": "bounded",
            "sweep": {"cpu_model": ["Xeon X5670"], "seed": [1, 2, 3]},
            "base": {"load_levels": [1.0, 0.5, 0.2, 0.1, 0.0]},
        }
        with Session(workspace=workspace) as session:
            bounded = session.campaign(spec, max_units=1)
            full = session.campaign(spec)
            assert bounded.key == full.key
            assert bounded.store_dir == full.store_dir
            partial = bounded.result()
            assert partial.simulated == 1
            # Bounded runs are never memoized: a second call makes progress.
            assert session.campaign(spec, max_units=1).result().cache_hits == 1
            completed = full.result()
            assert completed.cache_hits == 2 and completed.simulated == 1

    def test_none_valued_analysis_computed_once(self, workspace, warm_frame):
        calls = {"n": 0}

        def effect(frame):
            calls["n"] += 1
            return None

        with Session(workspace=workspace) as session:
            session.register_analysis("effect", effect)
            handle = session.analysis(
                session.dataset(runs=RUNS, seed=SEED), name="effect"
            )
            assert handle.result() is None
            assert handle.result() is None
            assert calls["n"] == 1

    def test_explicit_catalog_object_is_kept(self):
        from repro.market.catalog import Catalog, default_catalog

        custom = Catalog(default_catalog().entries[:3])
        with Session(catalog=custom) as session:
            assert session.catalog is custom

    def test_external_directory_dataset_not_trusted_across_sessions(self, tmp_path):
        workspace = tmp_path / "ws"
        external = tmp_path / "external"
        with Session(workspace=workspace) as session:
            corpus = session.corpus(runs=RUNS, seed=SEED, directory=external)
            baseline = session.dataset(corpus=corpus).result()
        # The caller edits their directory behind the session's back.
        donor = next(iter(external.glob("*.txt")))
        (external / "zz-extra.txt").write_text(donor.read_text())
        with Session(workspace=workspace) as session:
            corpus = session.corpus(runs=RUNS, seed=SEED, directory=external)
            refreshed = session.dataset(corpus=corpus).result()
        assert len(refreshed) == len(baseline) + 1  # stale rows not served

    def test_explicit_directory_corpus_bypasses_memo(self, tmp_path):
        with Session(workspace=tmp_path / "ws") as session:
            session.corpus(runs=RUNS, seed=SEED).result()  # memoized
            out = tmp_path / "out"
            report = session.corpus(runs=RUNS, seed=SEED, directory=out).result()
            assert out.is_dir() and report.directory == out  # actually written
            # And the other order: an explicit report must not be served for
            # a workspace handle whose directory was never materialised.
            workspace_handle = session.corpus(runs=RUNS, seed=SEED)
            assert workspace_handle.result().directory == workspace_handle.directory

    def test_default_catalog_not_shipped_to_workers(self, tmp_path):
        with Session(workspace=tmp_path / "ws") as session:
            assert session._worker_catalog() is None
            entry = session.catalog.get("Xeon X5670")
            session.register_platform(
                replace(entry, cpu=replace(entry.cpu, model="Xeon X9999"))
            )
            assert session._worker_catalog() is session.catalog
        from repro.market.catalog import Catalog, default_catalog

        custom = Catalog(default_catalog().entries[:3])
        with Session(catalog=custom) as session:
            assert session._worker_catalog() is custom

    def test_policy_preserves_serial_threshold(self):
        config = ParallelConfig(
            max_workers=8, backend="process", serial_threshold=0
        )
        policy = ExecutionPolicy.from_parallel(config)
        assert policy.parallel_config().serial_threshold == 0
        assert ExecutionPolicy().parallel_config().serial_threshold == (
            ParallelConfig().serial_threshold
        )
        with pytest.raises(SessionError):
            ExecutionPolicy(serial_threshold=-1)

    def test_explicit_corpus_handle_generates_once_per_instance(
        self, tmp_path, monkeypatch
    ):
        import repro.reportgen

        original = repro.reportgen.generate_corpus_files
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.reportgen, "generate_corpus_files", counting)
        with Session(workspace=tmp_path / "ws") as session:
            corpus = session.corpus(runs=RUNS, seed=SEED, directory=tmp_path / "out")
            dataset = session.dataset(corpus=corpus)
            dataset.parse_report()
            dataset.result()
            corpus.result()
            assert calls["n"] == 1  # one handle, one generation

    def test_campaign_memo_distinguishes_stores(self, tmp_path):
        spec = {
            "name": "two-stores",
            "sweep": {"cpu_model": ["Xeon X5670"], "seed": [1]},
            "base": {"load_levels": [1.0, 0.5, 0.2, 0.1, 0.0]},
        }
        with Session(workspace=tmp_path / "ws") as session:
            a = session.campaign(spec, store=tmp_path / "store-a").result()
            b = session.campaign(spec, store=tmp_path / "store-b").result()
            assert a.store_directory != b.store_directory
            assert (tmp_path / "store-b").is_dir()  # second store executed
            assert b.frame.equals(a.frame)

    def test_bounded_resume_not_memoized_as_complete(self, tmp_path):
        spec = {
            "name": "partial-resume",
            "sweep": {"cpu_model": ["Xeon X5670"], "seed": [1, 2, 3]},
            "base": {"load_levels": [1.0, 0.5, 0.2, 0.1, 0.0]},
        }
        with Session(workspace=tmp_path / "ws") as session:
            handle = session.campaign(spec)
            handle.result()  # create + complete the store
            session.clear_memo()
            partial = handle.resume(max_units=0)
            assert partial.completed == 3  # already complete on disk
            fresh = session.campaign(spec)
            assert not fresh.in_memory  # bounded resume left no memo

    def test_ephemeral_session_skips_dataset_persistence(self):
        with Session() as session:
            corpus = session.corpus(runs=RUNS, seed=SEED)
            dataset = session.dataset(corpus=corpus)
            dataset.result()
            assert dataset.in_memory  # memo still works
            assert dataset.key not in session._store_for("dataset")


def test_analyze_frame_is_workspace_free(warm_frame):
    from repro.session.session import analyze_frame

    result = analyze_frame(warm_frame, table1=False)
    assert result.unfiltered.equals(warm_frame)
    assert len(result.filtered) <= len(warm_frame)
    assert result.figures == ()
