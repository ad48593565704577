"""Sharded streaming campaigns: lazy shards, online reducers, shard resume."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    FrameReducer,
    OnlineMoments,
    StreamingCampaignResult,
    iter_shards,
    reduce_frame,
    resume_streaming,
    run_campaign,
    stream_campaign,
)
from repro.campaign.reduce import (
    DEFAULT_QUANTILES,
    column_summary,
    quantile_label,
    valid_values,
)
from repro.campaign.store import ShardProgress
from repro.cli.main import main as cli_main
from repro.errors import CampaignError, SessionError
from repro.faults import RetryPolicy
from repro.frame import Frame
from repro.frame.mmapio import SCAN_STATS
from repro.session import Session
from repro.session.policy import ExecutionPolicy

GENERATIONS = ["Xeon X5670", "Xeon Platinum 8480+", "EPYC 9654"]

#: Short ladder keeps each simulated unit cheap; still valid downstream.
FAST_BASE = {"load_levels": [1.0, 0.5, 0.2, 0.1, 0.0]}


def sharded_spec(name="shard-test", seeds=(1, 2, 3, 4, 5, 6)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        sweep={"cpu_model": GENERATIONS, "seed": list(seeds)},
        base=FAST_BASE,
    )


def gathered_summaries(frames, names) -> dict:
    """Each column's summary over its valid values gathered across frames."""
    return {
        name: column_summary(
            np.concatenate(
                [valid_values(f[name].values, f[name].mask) for f in frames if name in f]
            )
        )
        for name in names
    }


# --------------------------------------------------------------------------- #
# Shard planning
# --------------------------------------------------------------------------- #
class TestIterShards:
    def test_partitioning_counts_and_offsets(self):
        spec = sharded_spec()  # 18 units
        shards = list(iter_shards(spec, shard_size=7))
        assert [s.n_units for s in shards] == [7, 7, 4]
        assert [s.index for s in shards] == [0, 1, 2]
        assert [s.start for s in shards] == [0, 7, 14]
        assert [s.stop for s in shards] == [7, 14, 18]

    def test_units_cover_expansion_in_order(self):
        spec = sharded_spec()
        expanded = spec.expand()
        streamed = [
            unit for shard in iter_shards(spec, shard_size=5) for unit in shard.units
        ]
        assert [u.key for u in streamed] == [u.key for u in expanded]

    def test_shard_size_one_and_oversized(self):
        spec = sharded_spec(seeds=(1,))  # 3 units
        assert [s.n_units for s in iter_shards(spec, shard_size=1)] == [1, 1, 1]
        whole = list(iter_shards(spec, shard_size=100))
        assert len(whole) == 1 and whole[0].n_units == 3

    def test_invalid_shard_size_rejected(self):
        with pytest.raises(CampaignError, match="shard_size"):
            list(iter_shards(sharded_spec(), shard_size=0))

    def test_lazy_consumption_resolves_only_what_is_pulled(self):
        # Pulling one shard from the iterator must not expand the plan.
        spec = sharded_spec()  # 18 units
        resolved = {"n": 0}
        original = CampaignSpec._resolve_unit

        def counting(self, index, assignment, catalog, memo):
            resolved["n"] += 1
            return original(self, index, assignment, catalog, memo)

        CampaignSpec._resolve_unit = counting
        try:
            iterator = iter_shards(spec, shard_size=5)
            first = next(iterator)
        finally:
            CampaignSpec._resolve_unit = original
        assert first.n_units == 5
        assert resolved["n"] == 5

    def test_keys_digest_tracks_content(self):
        spec = sharded_spec()
        first = next(iter_shards(spec, shard_size=5))
        again = next(iter_shards(spec, shard_size=5))
        assert first.keys_digest() == again.keys_digest()
        other = next(iter_shards(sharded_spec(seeds=(7, 8, 9, 10, 11)), shard_size=5))
        assert first.keys_digest() != other.keys_digest()


# --------------------------------------------------------------------------- #
# Online reducers
# --------------------------------------------------------------------------- #
class TestOnlineMoments:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(7)
        values = rng.normal(10.0, 3.0, 500)
        moments = OnlineMoments()
        moments.update(values)
        assert moments.count == 500
        assert moments.total == pytest.approx(values.sum(), rel=1e-12)
        assert moments.mean == pytest.approx(values.mean(), rel=1e-12)
        assert moments.minimum == values.min() and moments.maximum == values.max()
        assert moments.variance == pytest.approx(values.var(), rel=1e-10)

    def test_sequential_update_is_shard_invariant(self):
        # The bit-identity contract: where the stream is cut cannot change
        # a single float, because the scalar recurrence sees the same values
        # in the same order either way.
        values = list(np.random.default_rng(11).normal(5.0, 2.0, 101))
        one_pass = OnlineMoments()
        one_pass.update(values)
        chunked = OnlineMoments()
        for start in range(0, len(values), 13):
            chunked.update(values[start : start + 13])
        assert chunked.as_row() == one_pass.as_row()

    def test_mask_and_none_skipped(self):
        moments = OnlineMoments()
        moments.update([1.0, None, 3.0], mask=np.array([False, False, True]))
        assert moments.count == 1 and moments.total == 1.0

    def test_empty_accumulator_row(self):
        row = OnlineMoments().as_row()
        assert row["count"] == 0
        assert all(row[field] is None for field in ("sum", "mean", "min", "max", "var"))


class TestFrameReducer:
    def test_streamed_equals_single_pass_bit_for_bit(self):
        rng = np.random.default_rng(21)
        frame = Frame.from_dict(
            {
                "power": list(rng.normal(200.0, 30.0, 90)),
                "ops": list(rng.integers(1_000, 9_000, 90)),
                "label": [f"run-{i}" for i in range(90)],
            }
        )
        streamed = FrameReducer()
        chunks = []
        for start in range(0, 90, 17):
            mask = np.zeros(90, dtype=bool)
            mask[start : start + 17] = True
            chunks.append(frame.filter(mask))
            streamed.update(chunks[-1])
        # Count, min and max fold chunk by chunk; sums, moments and
        # quantiles are taken once over the values gathered column by
        # column, as the finalize pass does.
        summaries = gathered_summaries(chunks, streamed.columns)
        assert streamed.to_frame(summaries).equals(reduce_frame(frame))

    def test_string_columns_excluded(self):
        frame = Frame.from_dict({"name": ["a", "b"], "value": [1.0, 2.0]})
        summary = reduce_frame(frame)
        assert summary["column"].to_list() == ["value"]

    def test_missing_values_not_counted(self):
        frame = Frame.from_dict({"value": [1.0, None, 3.0]})
        summary = reduce_frame(frame)
        assert summary["count"][0] == 2 and summary["sum"][0] == 4.0

    def test_schema_drift_across_shards_tolerated(self):
        reducer = FrameReducer()
        reducer.update(Frame.from_dict({"a": [1.0], "b": [2.0]}))
        reducer.update(Frame.from_dict({"a": [3.0]}))
        summary = reducer.to_frame()
        by_column = {summary["column"][i]: summary["count"][i] for i in range(2)}
        assert by_column == {"a": 2, "b": 1}


# --------------------------------------------------------------------------- #
# Streaming execution (end-to-end)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def streamed_campaign(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("shard-store")
    spec = sharded_spec()
    result = stream_campaign(spec, store_dir, shard_size=5)
    return spec, store_dir, result


class TestStreamCampaign:
    def test_full_run_shape(self, streamed_campaign):
        _, _, result = streamed_campaign
        assert result.total_units == 18 and result.total_shards == 4
        assert result.simulated == 18 and result.cache_hits == 0
        assert result.is_complete and not result.failures
        assert [s.n_units for s in result.shards] == [5, 5, 5, 3]

    def test_bit_identical_to_unsharded_frame(self, streamed_campaign, tmp_path):
        spec, _, result = streamed_campaign
        unsharded = run_campaign(spec, tmp_path / "unsharded")
        assert result.frame().equals(unsharded.frame)

    def test_aggregate_bit_identical_to_unsharded_reduction(
        self, streamed_campaign, tmp_path
    ):
        spec, _, result = streamed_campaign
        unsharded = run_campaign(spec, tmp_path / "unsharded")
        assert result.aggregate.equals(reduce_frame(unsharded.frame))

    def test_shard_layout_invariance(self, streamed_campaign, tmp_path):
        # A different shard size changes only when rows hit disk, not what
        # they are: frame and aggregate stay bit-identical.
        spec, _, result = streamed_campaign
        other = stream_campaign(spec, tmp_path / "other", shard_size=11)
        assert other.total_shards == 2
        assert other.frame().equals(result.frame())
        assert other.aggregate.equals(result.aggregate)

    def test_second_run_reloads_every_shard(self, streamed_campaign):
        spec, store_dir, _ = streamed_campaign
        warm = stream_campaign(spec, store_dir, shard_size=5)
        assert warm.simulated == 0 and warm.cache_hits == 18
        assert all(shard.reloaded for shard in warm.shards)

    def test_iter_frames_streams_shard_by_shard(self, streamed_campaign):
        _, _, result = streamed_campaign
        lengths = [len(frame) for frame in result.iter_frames()]
        assert lengths == [5, 5, 5, 3]

    def test_write_csv_matches_materialised_csv(self, streamed_campaign, tmp_path):
        from repro.frame.csvio import frame_to_csv_text

        _, _, result = streamed_campaign
        path = tmp_path / "rows.csv"
        assert result.write_csv(path) == 18
        assert path.read_text(encoding="utf-8") == frame_to_csv_text(result.frame())

    def test_store_records_layout_and_manifest(self, streamed_campaign):
        _, store_dir, result = streamed_campaign
        store = CampaignStore(store_dir)
        assert store.stored_shard_size() == 5
        entries = store.shard_entries()
        assert sorted(entries) == [0, 1, 2, 3]
        assert all(entry["status"] == "complete" for entry in entries.values())
        assert entries[0]["artifact"] == result.shards[0].artifact_key

    def test_status_from_light_manifest(self, streamed_campaign):
        _, store_dir, _ = streamed_campaign
        status = CampaignStore(store_dir).status()
        assert status.total == 18 and status.completed == 18
        assert status.is_complete and status.failed == 0

    def test_status_counts_only_the_stored_layout(self, tmp_path):
        # A re-run at another shard size leaves the old layout's records in
        # shards.jsonl; they cover other unit ranges and must not count.
        spec = sharded_spec(name="relayout", seeds=(1, 2, 3, 4))
        store_dir = tmp_path / "store"
        stream_campaign(spec, store_dir, shard_size=4, max_shards=3)
        stream_campaign(spec, store_dir, shard_size=8)
        store = CampaignStore(store_dir)
        assert len(store.shard_entries()) == 3  # layout 8's 0-1, layout 4's 2
        assert sorted(store.layout_entries()) == [0, 1]
        status = store.status()
        assert (status.total, status.completed, status.pending) == (12, 12, 0)
        assert status.shards == ShardProgress(
            total=2, complete=2, partial=0, rows_flushed=12, shard_size=8
        )
        assert "shards: 2/2 complete, 0 partial, 0 pending (12 rows flushed" in status.describe()

    def test_invalid_shard_size_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="shard_size"):
            stream_campaign(sharded_spec(), tmp_path / "store", shard_size=0)


class TestShardResume:
    def test_killed_campaign_resumes_at_shard_granularity(self, tmp_path):
        # Emulate a mid-run kill: stop after 2 of 4 shards, then resume and
        # prove only the incomplete shards execute.
        spec = sharded_spec(name="killed")
        store_dir = tmp_path / "store"
        partial = stream_campaign(spec, store_dir, shard_size=5, max_shards=2)
        assert partial.total_shards == 2 and partial.completed == 10
        assert not partial.is_complete

        resumed = resume_streaming(store_dir)
        assert resumed.shard_size == 5  # layout read back from the store
        assert resumed.is_complete and resumed.completed == 18
        assert [s.reloaded for s in resumed.shards] == [True, True, False, False]
        assert resumed.simulated == 8 and resumed.cache_hits == 10

        # The interrupted-then-resumed aggregate is bit-identical to an
        # uninterrupted run.
        uninterrupted = stream_campaign(spec, tmp_path / "clean", shard_size=5)
        assert resumed.aggregate.equals(uninterrupted.aggregate)
        assert resumed.frame().equals(uninterrupted.frame())

    def test_partial_shard_from_unit_budget_completes_on_resume(self, tmp_path):
        spec = sharded_spec(name="budget")
        store_dir = tmp_path / "store"
        partial = stream_campaign(spec, store_dir, shard_size=5, max_units=3)
        assert partial.simulated == 3
        first = partial.shards[0]
        assert first.n_rows == 3 and not first.is_complete
        entries = CampaignStore(store_dir).shard_entries()
        assert entries[0]["status"] == "partial"

        resumed = resume_streaming(store_dir)
        assert resumed.is_complete
        # The partial shard re-executed its missing units only; its first
        # three rows were per-unit cache hits.
        assert not resumed.shards[0].reloaded
        assert resumed.cache_hits == 3 and resumed.simulated == 15

    def test_capped_pass_records_only_shards_holding_rows(self, tmp_path):
        # A budget spent before a shard leaves nothing to store: no artifact,
        # no index line and no record, so status shows the shard pending.
        spec = sharded_spec(name="capped", seeds=(1, 2, 3, 4, 5, 6, 7, 8))  # 24 units
        store_dir = tmp_path / "store"
        capped = stream_campaign(spec, store_dir, shard_size=4, max_units=5)
        assert [shard.n_rows for shard in capped.shards] == [4, 1, 0, 0, 0, 0]
        store = CampaignStore(store_dir)
        assert sorted(store.shard_entries()) == [0, 1]
        assert len(store.shard_store) == 2
        index = store.results_dir / "index.jsonl"
        assert len(index.read_text(encoding="utf-8").splitlines()) == 2
        status = store.status()
        assert (status.total, status.completed, status.pending, status.failed) == (24, 5, 19, 0)
        assert status.shards == ShardProgress(
            total=6, complete=1, partial=1, rows_flushed=5, shard_size=4
        )
        resumed = resume_streaming(store_dir)
        fresh = stream_campaign(spec, tmp_path / "fresh", shard_size=4)
        assert resumed.is_complete and resumed.simulated == 19
        assert resumed.frame().equals(fresh.frame())
        assert resumed.aggregate.equals(fresh.aggregate)

    def test_resume_expands_the_sweep_axes_in_run_order(self, tmp_path):
        # A grid expands in sweep-axis order, so the spec snapshot a resume
        # re-expands must keep the axes in the order the campaign ran them.
        spec = CampaignSpec(
            name="axis-order",
            sweep={"seed": [1, 2, 3], "cpu_model": ["Xeon X5670", "EPYC 9654"]},
            base=FAST_BASE,
        )
        store_dir = tmp_path / "store"
        stream_campaign(spec, store_dir, shard_size=2, max_units=4)
        resumed = resume_streaming(store_dir)
        assert [shard.reloaded for shard in resumed.shards] == [True, True, False]
        resident = run_campaign(spec, tmp_path / "resident")
        assert list(resumed.frame()["campaign_unit"].values) == list(
            resident.frame["campaign_unit"].values
        )
        assert resumed.frame().equals(resident.frame)

    def test_mismatched_layout_still_correct_via_unit_cache(self, tmp_path):
        spec = sharded_spec(name="relayout")
        store_dir = tmp_path / "store"
        stream_campaign(spec, store_dir, shard_size=5, max_shards=2)
        # Resuming with a different layout voids shard-granular skipping
        # (keys digests no longer match) but unit-level caching keeps the
        # result correct and cheap.
        resumed = resume_streaming(store_dir, shard_size=4)
        assert resumed.is_complete and resumed.simulated == 8
        assert resumed.cache_hits == 10
        clean = stream_campaign(spec, tmp_path / "clean", shard_size=4)
        assert resumed.frame().equals(clean.frame())

    def test_corrupt_shard_artifact_resimulates(self, tmp_path):
        spec = sharded_spec(name="corrupt", seeds=(1, 2))
        store_dir = tmp_path / "store"
        first = stream_campaign(spec, store_dir, shard_size=3)
        store = CampaignStore(store_dir)
        sidecar = store.shard_store.sidecar_path(first.shards[0].artifact_key)
        sidecar.write_bytes(b"not an npz")

        # The artifact was its rows' only copy: the unit cache misses on it
        # (checksum mismatch) and the shard's 3 units re-simulate.
        again = stream_campaign(spec, store_dir, shard_size=3)
        assert again.is_complete and again.simulated == 3
        assert not again.shards[0].reloaded
        assert again.shards[1].reloaded
        assert again.frame().equals(first.frame())

    def test_replay_hashes_each_sidecar_once(self, tmp_path, monkeypatch):
        # A reloaded shard's sidecar is verified once; the quantile pass
        # reads it without hashing it again.
        from repro.session.artifacts import ArtifactStore

        spec = sharded_spec(name="replay-hash", seeds=(1, 2))
        store_dir = tmp_path / "store"
        stream_campaign(spec, store_dir, shard_size=3)
        hashed = []
        original = ArtifactStore.sidecar_digest

        def counting(self, key):
            hashed.append(key)
            return original(self, key)

        monkeypatch.setattr(ArtifactStore, "sidecar_digest", counting)
        replay = stream_campaign(spec, store_dir, shard_size=3)
        assert [shard.reloaded for shard in replay.shards] == [True, True]
        assert len(hashed) == 2 and set(hashed) == {s.artifact_key for s in replay.shards}

    def test_missing_artifact_surfaces_as_campaign_error(self, tmp_path):
        spec = sharded_spec(name="vanished", seeds=(1,))
        result = stream_campaign(spec, tmp_path / "store", shard_size=2)
        store = CampaignStore(tmp_path / "store")
        store.shard_store.clear()
        with pytest.raises(CampaignError, match="artifact is missing"):
            list(result.iter_frames())

    def test_max_units_counts_failed_attempts(self, tmp_path, monkeypatch):
        # The budget bounds *attempts*, exactly like the unsharded runner's
        # pending[:max_units] — a plan of failing units must not be
        # re-attempted without limit.
        import repro.campaign.runner as runner

        spec = sharded_spec(name="budget-fail", seeds=(1,))  # 3 units
        attempts = {"n": 0}

        def always_failing(pending, batch, catalog):
            attempts["n"] += len(pending)
            return [(unit.key, None, "SimulationError: injected") for unit in pending]

        monkeypatch.setattr(runner, "dispatch_simulations", always_failing)
        result = stream_campaign(
            spec, tmp_path / "store", shard_size=1, max_units=2
        )
        assert attempts["n"] == 2
        assert len(result.failures) == 2 and result.simulated == 0

    def test_explicit_batch_argument_beats_policy(self, tmp_path, monkeypatch):
        import repro.campaign.runner as runner

        spec = sharded_spec(name="batch-arg", seeds=(1,))
        seen: list[bool] = []
        original = runner.dispatch_simulations

        def spying(pending, batch, catalog):
            seen.append(batch)
            return original(pending, batch, catalog)

        monkeypatch.setattr(runner, "dispatch_simulations", spying)
        stream_campaign(
            spec,
            tmp_path / "store",
            shard_size=3,
            batch=False,
            policy=ExecutionPolicy(mode="batch"),
        )
        assert seen == [False]  # the docstring promise: explicit wins

    def test_failure_keeps_shard_partial_and_resumable(self, tmp_path, monkeypatch):
        import repro.campaign.runner as runner

        spec = sharded_spec(name="flaky", seeds=(1,))
        store_dir = tmp_path / "store"
        original = runner.dispatch_simulations

        def sabotaged(pending, batch, catalog):
            outcomes = original(pending, batch, catalog)
            key, _, _ = outcomes[0]
            return [(key, None, "SimulationError: injected")] + outcomes[1:]

        monkeypatch.setattr(runner, "dispatch_simulations", sabotaged)
        broken = stream_campaign(spec, store_dir, shard_size=3)
        assert len(broken.failures) == 1 and broken.completed == 2
        assert not broken.is_complete
        monkeypatch.setattr(runner, "dispatch_simulations", original)

        healed = resume_streaming(store_dir)
        assert healed.is_complete and healed.simulated == 1
        clean = stream_campaign(spec, tmp_path / "clean", shard_size=3)
        assert healed.frame().equals(clean.frame())


# --------------------------------------------------------------------------- #
# Multi-worker execution (lease-coordinated shard scheduler)
# --------------------------------------------------------------------------- #
class TestMultiWorker:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_n_worker_run_bit_identical_to_serial_stream(self, tmp_path, workers):
        # The acceptance invariant: fanning shards across N workers changes
        # scheduling only — frame and aggregate stay bit-identical to the
        # serial streamed run.  The sweep axes are not in sorted order, so a
        # worker expanding any other order than the coordinator's would
        # leave it no shard to reload.
        spec = CampaignSpec(
            name="mworkers",
            sweep={"seed": [1, 2, 3, 4, 5], "cpu_model": GENERATIONS},
            base=FAST_BASE,
        )
        serial = stream_campaign(spec, tmp_path / "serial", shard_size=5)
        fanned = stream_campaign(
            spec, tmp_path / f"w{workers}", shard_size=5, workers=workers
        )
        assert fanned.n_workers == workers
        assert fanned.is_complete and not fanned.failures
        assert fanned.frame().equals(serial.frame())
        assert fanned.aggregate.equals(serial.aggregate)
        if workers > 1:
            assert [shard.reloaded for shard in fanned.shards] == [True] * 3

    def test_worker_run_matches_unsharded_reduction(self, tmp_path):
        spec = sharded_spec(name="mw-unsharded")
        unsharded = run_campaign(spec, tmp_path / "unsharded")
        fanned = stream_campaign(spec, tmp_path / "fanned", shard_size=5, workers=2)
        assert fanned.frame().equals(unsharded.frame)
        assert fanned.aggregate.equals(reduce_frame(unsharded.frame))

    def test_workers_incompatible_with_run_caps(self, tmp_path):
        with pytest.raises(CampaignError, match="workers"):
            stream_campaign(
                sharded_spec(), tmp_path / "s", shard_size=5, workers=2, max_units=3
            )
        with pytest.raises(CampaignError, match="workers"):
            stream_campaign(
                sharded_spec(), tmp_path / "s2", shard_size=5, workers=2, max_shards=1
            )

    def test_single_worker_loop_completes_store(self, tmp_path):
        from repro.campaign import run_worker

        spec = sharded_spec(name="solo-worker")
        store_dir = tmp_path / "store"
        # Initialise the store (spec + layout) without executing anything.
        stream_campaign(spec, store_dir, shard_size=5, max_shards=0)
        assert run_worker(store_dir, "solo") == 4  # all four shards flushed

        finalized = resume_streaming(store_dir)
        assert finalized.is_complete and finalized.simulated == 0
        assert all(shard.reloaded for shard in finalized.shards)
        clean = stream_campaign(spec, tmp_path / "clean", shard_size=5)
        assert finalized.frame().equals(clean.frame())
        assert finalized.aggregate.equals(clean.aggregate)

    def test_worker_events_and_leases_in_ledgers(self, tmp_path):
        from repro.campaign import run_worker

        spec = sharded_spec(name="worker-events", seeds=(1, 2))
        store_dir = tmp_path / "store"
        stream_campaign(spec, store_dir, shard_size=3, max_shards=0)
        run_worker(store_dir, "w-obs")
        store = CampaignStore(store_dir)
        names = [event["event"] for event in store.event_entries()]
        assert "worker_start" in names and "worker_done" in names
        assert names.count("worker_shard") == 2
        assert sorted(store.lease_entries()) == [0, 1]
        assert all(
            entry["status"] == "complete" for entry in store.shard_entries().values()
        )

    def test_sigkill_mid_run_loses_at_most_one_shard(self, tmp_path):
        # The chaos contract: two workers share a store, one is SIGKILL'd
        # mid-run; the survivor + the finalize pass must still complete the
        # campaign with bit-identical results.  The assertions hold no
        # matter where (or whether) the kill lands mid-shard.
        import multiprocessing
        import os as _os
        import signal

        from repro.campaign import run_worker

        spec = sharded_spec(name="chaos")
        store_dir = tmp_path / "store"
        stream_campaign(spec, store_dir, shard_size=2, max_shards=0)  # 9 shards

        victim = multiprocessing.Process(
            target=run_worker,
            args=(str(store_dir), "victim"),
            kwargs={"handle_sigterm": True},
        )
        survivor = multiprocessing.Process(
            target=run_worker,
            args=(str(store_dir), "survivor"),
            kwargs={"handle_sigterm": True},
        )
        victim.start()
        survivor.start()
        time.sleep(0.4)  # let both claim and execute some shards
        if victim.is_alive():
            _os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        survivor.join(timeout=120)
        assert survivor.exitcode == 0

        # The survivor reclaims the victim's expired/dead leases; the
        # finalize pass mops up whatever remains and proves identity.
        finalized = resume_streaming(store_dir)
        assert finalized.is_complete
        clean = stream_campaign(spec, tmp_path / "clean", shard_size=2)
        assert finalized.frame().equals(clean.frame())
        assert finalized.aggregate.equals(clean.aggregate)

    def test_pool_workers_retry_and_quarantine_like_a_serial_run(self, tmp_path):
        # Pool workers run with the caller's retry policy: every unit is
        # attempted as often as serially (a validation failure once, then
        # quarantined), so the ledger and quarantine match line for line.
        from test_campaign_columns import MIXED

        retry = RetryPolicy(max_attempts=3, backoff_base=0.0)
        serial = stream_campaign(MIXED, tmp_path / "serial", shard_size=6, retry=retry)
        pooled = stream_campaign(
            MIXED, tmp_path / "pooled", shard_size=6, retry=retry, workers=2
        )

        def ledger(result):
            entries = CampaignStore(result.store_directory).ledger_entries()
            return sorted(json.dumps(entry, sort_keys=True) for entry in entries)

        def quarantine(result):
            entries = CampaignStore(result.store_directory).quarantine_entries()
            return sorted(
                (entry["unit_id"], entry["key"], entry["error"], entry["attempts"])
                for entry in entries
            )

        assert len(ledger(serial)) == 24
        assert sum('"status": "failed"' in line for line in ledger(serial)) == 3
        assert ledger(pooled) == ledger(serial)
        assert len(quarantine(serial)) == 3 and quarantine(pooled) == quarantine(serial)
        assert pooled.status == serial.status == "degraded"
        assert sorted(pooled.quarantined) == sorted(serial.quarantined)
        # The workers quarantined the units, so the serial pass reloads
        # complete shards and re-lists no failure.
        assert len(serial.failures) == 3 and not pooled.failures
        assert pooled.frame().equals(serial.frame())
        assert pooled.aggregate.equals(serial.aggregate)

    def test_pool_worker_dying_mid_task_leaves_a_complete_run(
        self, tmp_path, monkeypatch
    ):
        # One pool worker exits hard inside shard 1 (forked workers inherit
        # the patch).  Dispatch goes on with the survivor, and the serial
        # pass re-executes the shard the dead worker held.
        import os as _os

        import repro.campaign.sharding as sharding

        original = sharding.execute_shard

        def dying(store, shard, **kwargs):
            if shard.index == 1:
                _os._exit(3)
            return original(store, shard, **kwargs)

        monkeypatch.setattr(sharding, "execute_shard", dying)
        spec = sharded_spec(name="dying-worker")
        serial = stream_campaign(spec, tmp_path / "serial", shard_size=5)
        fanned = stream_campaign(spec, tmp_path / "fanned", shard_size=5, workers=2)
        assert fanned.is_complete and not fanned.failures
        assert [shard.reloaded for shard in fanned.shards] == [True, False, True, True]
        assert fanned.frame().equals(serial.frame())
        assert fanned.aggregate.equals(serial.aggregate)
        events = CampaignStore(tmp_path / "fanned").event_entries()
        joins = [event for event in events if event["event"] == "pool_join"]
        assert len(joins) == 1 and sorted(joins[0]["exitcodes"]) == [0, 3]


class TestPooledCounts:
    def test_pooled_run_counts_the_pools_work(self, tmp_path, capsys):
        # Every shard the pool flushed reloads in the serial pass; the
        # counters still report what the pool did in this call.
        spec = CampaignSpec(
            name="mw-counts",
            sweep={"cpu_model": GENERATIONS[:2], "seed": [1, 2, 3, 4]},
            base=FAST_BASE,
        )
        store_dir = tmp_path / "pooled"
        cold = stream_campaign(spec, store_dir, shard_size=3, workers=2)
        assert (cold.simulated, cold.cache_hits) == (8, 0)
        assert [shard.reloaded for shard in cold.shards] == [True] * 3
        final = CampaignStore(store_dir).event_entries()[-1]
        assert (final["simulated"], final["cache_hits"]) == (8, 0)
        warm = stream_campaign(spec, store_dir, shard_size=3, workers=2)
        assert (warm.simulated, warm.cache_hits) == (0, 8)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        args = ["campaign", "run", "--spec", str(spec_path), "--store", str(tmp_path / "cli")]
        assert cli_main([*args, "--shard-size", "3", "--workers", "2"]) == 0
        assert "0 cached, 8 simulated" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Exact quantiles past 256 values per column
# --------------------------------------------------------------------------- #
def large_spec(name="exact-quantiles") -> CampaignSpec:
    """300 noisy two-level units: every measured column holds 300 values."""
    return CampaignSpec(
        name=name,
        sweep={"cpu_model": ["EPYC 9654", "Xeon Platinum 8480+"], "seed": list(range(150))},
        base={"load_levels": [1.0, 0.0]},
    )


@pytest.fixture(scope="module")
def large_campaign(tmp_path_factory):
    """One unsharded run plus streamed runs over a shared unit cache."""
    root = tmp_path_factory.mktemp("exact-quantiles")
    spec = large_spec()
    runs = {"flat": run_campaign(spec, root / "flat"), "results": root / "results"}
    for label, shard_size, workers in (("s128", 128, None), ("s37", 37, None), ("w2", 64, 2)):
        runs[label] = stream_campaign(
            spec, root / label, shard_size=shard_size, workers=workers,
            results_dir=runs["results"],
        )
    return runs


def numeric_columns(frame) -> list[str]:
    return [name for name in frame.columns if frame[name].kind in ("float", "int")]


class TestExactQuantiles:
    def test_aggregate_quantiles_equal_numpy_over_valid_values(self, large_campaign):
        frame = large_campaign["flat"].frame
        rows = {row["column"]: row for row in large_campaign["s128"].aggregate.to_records()}
        assert set(rows) == set(numeric_columns(frame))
        past_buffer = 0
        for name, row in rows.items():
            values = valid_values(frame[name].values, frame[name].mask)
            past_buffer += len(values) > 256
            for q in DEFAULT_QUANTILES:
                expected = float(np.quantile(values, q)) if len(values) else None
                assert row[quantile_label(q)] == expected, (name, q)
        assert past_buffer >= 20

    def test_aggregate_bit_identical_across_layouts_and_workers(self, large_campaign):
        reference = reduce_frame(large_campaign["flat"].frame)
        for label in ("s128", "s37", "w2"):
            assert large_campaign[label].aggregate.equals(reference), label
        assert large_campaign["w2"].n_workers == 2

    def test_shard_events_carry_each_shards_exact_quantiles(self, large_campaign):
        result = large_campaign["s37"]
        events = CampaignStore(result.store_directory).event_entries()
        flushes = [e for e in events if e["event"] == "shard_flush"]
        frames = list(result.iter_frames())
        assert [e["index"] for e in flushes] == list(range(len(frames))) == list(range(9))
        for event, frame in zip(flushes, frames):
            for name in numeric_columns(frame):
                values = valid_values(frame[name].values, frame[name].mask)
                if not len(values):
                    assert name not in event["quantiles"]
                    continue
                assert event["quantile_labels"] == [quantile_label(q) for q in DEFAULT_QUANTILES]
                expected = [float(np.quantile(values, q)) for q in DEFAULT_QUANTILES]
                assert event["quantiles"][name] == expected

    def test_campaign_complete_event_carries_the_aggregate_quantiles(self, large_campaign):
        result = large_campaign["s128"]
        events = CampaignStore(result.store_directory).event_entries()
        final = events[-1]
        assert final["event"] == "campaign_complete"
        assert final["quantile_labels"] == [quantile_label(q) for q in DEFAULT_QUANTILES]
        for row in result.aggregate.to_records():
            expected = [row[quantile_label(q)] for q in DEFAULT_QUANTILES]
            if row["p50"] is None:
                assert row["column"] not in final["quantiles"]
            else:
                assert final["quantiles"][row["column"]] == expected

    def test_one_shard_pass_leaves_the_campaign_quantiles_in_its_flush(
        self, large_campaign, tmp_path
    ):
        # One shard: its quantiles are the campaign's, so campaign_complete
        # does not repeat them.
        result = stream_campaign(
            large_spec(), tmp_path / "s", shard_size=300, results_dir=large_campaign["results"]
        )
        *_, flush, final = CampaignStore(result.store_directory).event_entries()
        assert (flush["event"], final["event"], final["shards"]) == (
            "shard_flush", "campaign_complete", 1
        )
        assert "quantiles" not in final and "quantile_labels" not in final
        assert flush["quantile_labels"] == [quantile_label(q) for q in DEFAULT_QUANTILES]
        for row in result.aggregate.to_records():
            if row["p50"] is not None:
                expected = [row[quantile_label(q)] for q in DEFAULT_QUANTILES]
                assert flush["quantiles"][row["column"]] == expected

    def test_finalize_reads_one_column_and_its_mask_at_a_time(self, large_campaign, tmp_path):
        # Every unit is a cache hit, so the only .npz reads are the finalize
        # pass: 8 bytes of values plus 1 byte of mask per row and column.
        SCAN_STATS.reset()
        result = stream_campaign(
            large_spec(), tmp_path / "s", shard_size=100, results_dir=large_campaign["results"]
        )
        assert result.simulated == 0
        assert SCAN_STATS.bytes_read == len(result.aggregate) * result.completed * (8 + 1)


# --------------------------------------------------------------------------- #
# Policy + session integration
# --------------------------------------------------------------------------- #
class TestPolicyAndSession:
    def test_policy_shard_knobs(self):
        assert ExecutionPolicy().effective_shard_size is None
        assert ExecutionPolicy(shard_size=256).effective_shard_size == 256
        assert ExecutionPolicy(max_resident_results=100).effective_shard_size == 100
        clamped = ExecutionPolicy(shard_size=512, max_resident_results=128)
        assert clamped.effective_shard_size == 128 and clamped.sharded
        with pytest.raises(SessionError):
            ExecutionPolicy(shard_size=0)
        with pytest.raises(SessionError):
            ExecutionPolicy(max_resident_results=0)

    def test_from_jobs_carries_shard_size(self):
        policy = ExecutionPolicy.from_jobs(1, shard_size=64)
        assert policy.effective_shard_size == 64
        assert ExecutionPolicy.from_jobs(4, shard_size=None).effective_shard_size is None

    def test_policy_campaign_workers(self):
        # Fan-out needs all three: process mode, explicit workers > 1, and
        # a shard layout (shards are the unit of distribution).
        fanned = ExecutionPolicy(mode="process", workers=3, shard_size=64)
        assert fanned.campaign_workers == 3
        assert ExecutionPolicy(mode="process", workers=3).campaign_workers is None
        assert ExecutionPolicy(mode="process", shard_size=64).campaign_workers is None
        assert ExecutionPolicy(mode="thread", workers=3, shard_size=64).campaign_workers is None
        assert ExecutionPolicy(mode="process", workers=1, shard_size=64).campaign_workers is None

    def test_session_policy_drives_worker_fanout(self, tmp_path):
        spec = sharded_spec(name="sess-workers", seeds=(1, 2)).to_dict()  # 6 units
        policy = ExecutionPolicy(mode="process", workers=2, shard_size=3)
        with Session(policy=policy) as session:
            handle = session.campaign(spec, store=tmp_path / "store")
            assert handle.workers == 2
            result = handle.result()
            assert result.n_workers == 2 and result.is_complete
        serial = stream_campaign(
            CampaignSpec.from_dict(spec), tmp_path / "serial", shard_size=3
        )
        assert result.frame().equals(serial.frame())
        assert result.aggregate.equals(serial.aggregate)

    def test_capped_handles_stay_serial(self, tmp_path):
        spec = sharded_spec(name="capped", seeds=(1,)).to_dict()
        policy = ExecutionPolicy(mode="process", workers=2, shard_size=2)
        with Session(policy=policy) as session:
            handle = session.campaign(spec, store=tmp_path / "store", max_units=2)
            assert handle.workers is None  # caps are per-run, not per-worker
            result = handle.result()
            assert result.n_workers == 1
            explicit = session.campaign(spec, store=tmp_path / "s2", workers=4)
            assert explicit.workers == 4

    def test_session_policy_routes_to_streaming(self):
        spec = sharded_spec(name="sess", seeds=(1,)).to_dict()
        with Session(policy=ExecutionPolicy(shard_size=2)) as session:
            handle = session.campaign(spec)
            assert handle.sharded and handle.shard_size == 2
            result = handle.result()
            assert isinstance(result, StreamingCampaignResult)
            assert result.total_shards == 2
            assert handle.result() is result  # memoized
            assert len(handle.frame()) == 3

    def test_memo_distinguishes_shard_layouts(self):
        spec = sharded_spec(name="memo", seeds=(1,)).to_dict()
        with Session(policy=ExecutionPolicy(shard_size=2)) as session:
            sharded = session.campaign(spec)
            explicit = session.campaign(spec, shard_size=3)
            assert sharded._memo_key != explicit._memo_key
            # Same artifact key and default store either way: the layout
            # changes execution shape, not campaign content.
            assert sharded.key == explicit.key
            assert sharded.store_dir == explicit.store_dir

    def test_handle_resume_prefers_recorded_layout(self, tmp_path):
        spec = sharded_spec(name="hresume")
        store = tmp_path / "store"
        with Session(policy=ExecutionPolicy(shard_size=9)) as session:
            handle = session.campaign(spec.to_dict(), store=store, max_units=5)
            partial = handle.result()
            assert partial.shard_size == 9 and not partial.is_complete
        with Session(policy=ExecutionPolicy(shard_size=4)) as session:
            handle = session.campaign(spec.to_dict(), store=store)
            resumed = handle.resume()
            assert resumed.shard_size == 9  # store layout wins over policy
            assert resumed.is_complete

    def test_unsharded_handle_resumes_streamed_store_streaming(self, tmp_path):
        # An unsharded-policy session resuming a streamed store must honour
        # the recorded layout (resident resume would materialise the plan)
        # without the streaming result impersonating the resident memo.
        spec = sharded_spec(name="hresume-cross")
        store = tmp_path / "store"
        partial = stream_campaign(spec, store, shard_size=9, max_units=5)
        assert not partial.is_complete
        with Session() as session:
            handle = session.campaign(spec.to_dict(), store=store)
            assert not handle.sharded
            resumed = handle.resume()
            assert resumed.shard_size == 9  # recorded layout, not resident
            assert resumed.is_complete
            assert hasattr(resumed, "shards")  # StreamingCampaignResult
            key = handle._memo_key
            assert session._memo_get(handle.kind, key) is None


# --------------------------------------------------------------------------- #
# CLI streaming flags
# --------------------------------------------------------------------------- #
class TestCLISharding:
    def test_run_resume_status_with_shard_size(self, tmp_path, capsys):
        spec = sharded_spec(name="cli-shards", seeds=(81, 82))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        store = tmp_path / "store"
        csv = tmp_path / "rows.csv"

        assert cli_main(["campaign", "run", "--spec", str(spec_path),
                         "--store", str(store), "--shard-size", "4",
                         "--max-units", "4"]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2: 4/4 rows" in out  # streaming status line
        assert "4 simulated" in out

        # Resume picks the recorded layout up without --shard-size.
        assert cli_main(["campaign", "resume", "--store", str(store),
                         "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2: 4/4 rows (reloaded from store)" in out
        assert "wrote 6 rows" in out

        assert cli_main(["campaign", "status", "--store", str(store)]) == 0
        assert "6/6 units completed" in capsys.readouterr().out

    def test_csv_export_error_is_one_clean_line(self, tmp_path, capsys, monkeypatch):
        from repro.campaign.sharding import StreamingCampaignResult

        def broken_write(self, path):
            raise CampaignError("shard 0 artifact is missing")

        monkeypatch.setattr(StreamingCampaignResult, "write_csv", broken_write)
        spec = sharded_spec(name="cli-csv-err", seeds=(99,))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        rc = cli_main(["campaign", "run", "--spec", str(spec_path),
                       "--store", str(tmp_path / "store"), "--shard-size", "2",
                       "--csv", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_sharded_csv_identical_to_unsharded(self, tmp_path, capsys):
        spec = sharded_spec(name="cli-csv", seeds=(91,))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        plain, sharded = tmp_path / "plain.csv", tmp_path / "sharded.csv"

        assert cli_main(["campaign", "run", "--spec", str(spec_path),
                         "--store", str(tmp_path / "s1"), "--csv", str(plain)]) == 0
        assert cli_main(["campaign", "run", "--spec", str(spec_path),
                         "--store", str(tmp_path / "s2"), "--shard-size", "2",
                         "--csv", str(sharded)]) == 0
        capsys.readouterr()
        assert sharded.read_text(encoding="utf-8") == plain.read_text(encoding="utf-8")
