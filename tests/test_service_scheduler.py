"""Fair-share scheduler: fairness, identity under chaos, cancellation, TTL,
event backpressure, and the supporting follower/lease machinery."""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.campaign import CampaignSpec, LeaseLedger, stream_campaign
from repro.campaign.store import CampaignStore
from repro.errors import CampaignError
from repro.io.jsonl import JsonlFollower, read_jsonl
from repro.service import CampaignService, EventStream, ServiceClient
from repro.service.protocol import recv_message, send_message

FAST_BASE = {"load_levels": [1.0, 0.0], "measurement_noise": False}


def wide_payload(name: str, n_seeds: int, seed_start: int = 0) -> dict:
    """A spec whose unit count scales with ``n_seeds`` (one cpu model).

    Unit identity excludes the campaign name, so tests that must do *real*
    work (not hit the service-wide results cache warmed by earlier tests)
    pick a disjoint ``seed_start`` range.
    """
    return CampaignSpec(
        name=name,
        sweep={
            "cpu_model": ["EPYC 9654"],
            "seed": list(range(seed_start, seed_start + n_seeds)),
        },
        base=FAST_BASE,
    ).to_dict()


def wait_for(predicate, timeout: float = 30.0, interval: float = 0.05):
    """Poll ``predicate`` until truthy; returns its value or fails the test."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    pytest.fail(f"condition not reached within {timeout}s")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    service = CampaignService(
        tmp_path_factory.mktemp("sched-root"), shard_size=2, pool=2
    )
    service.start()
    yield service
    service.stop()


@pytest.fixture(scope="module")
def client(service) -> ServiceClient:
    host, port = service.address
    return ServiceClient(host, port, timeout=180.0)


def ledger_records(service, record: str | None = None) -> list[dict]:
    records = read_jsonl(service.root / "scheduler.jsonl")
    if record is None:
        return records
    return [entry for entry in records if entry.get("record") == record]


# --------------------------------------------------------------------------- #
# Fairness and identity (the tentpole's acceptance criteria)
# --------------------------------------------------------------------------- #
class TestFairness:
    def test_small_job_completes_while_sweep_still_runs(
        self, service, client, tmp_path
    ):
        # The headline behaviour: a 16-unit job submitted while a large
        # sweep is mid-flight must complete promptly, not queue behind it.
        big = client.submit(wide_payload("fair-big", 400), shard_size=4)
        wait_for(lambda: client.status(big["job"])["state"] == "running")
        small = client.submit(wide_payload("fair-small", 16))
        result = client.wait(small["job"])
        assert result["state"] == "complete" and result["completed"] == 16
        big_state = client.status(big["job"])["state"]
        assert big_state in {"queued", "running", "finalizing"}
        # The sweep still finishes, and its interleaved aggregate is
        # bit-identical to a clean serial run of the same spec.
        big_result = client.wait(big["job"])
        assert big_result["completed"] == 400
        serial = stream_campaign(
            CampaignSpec.from_dict(wide_payload("fair-big", 400)),
            tmp_path / "serial",
            shard_size=4,
        )
        assert big_result["aggregate"] == serial.aggregate.to_dict()
        # The ledger agrees with the wall clock: small's completion record
        # lands before big's.
        completions = [r["job"] for r in ledger_records(service, "job_complete")]
        assert completions.index(small["job"]) < completions.index(big["job"])

    def test_high_priority_outschedules_low_at_equal_size(self, service, client):
        # Disjoint seed ranges: both jobs simulate fresh units, so the
        # finishing order is decided by dispatch share, not cache luck.
        low = client.submit(
            wide_payload("prio-low", 160, seed_start=10_000), priority="low"
        )
        high = client.submit(
            wide_payload("prio-high", 160, seed_start=20_000), priority="high"
        )
        client.wait(low["job"])
        client.wait(high["job"])
        populated = [r["job"] for r in ledger_records(service, "job_populated")]
        assert populated.index(high["job"]) < populated.index(low["job"])
        # Dispatch share before high finished populating reflects the 4:1
        # deficit weights (loosely: high strictly ahead, not a photo finish).
        records = ledger_records(service)
        cutoff = next(
            i
            for i, r in enumerate(records)
            if r.get("record") == "job_populated" and r["job"] == high["job"]
        )
        window = [
            r
            for r in records[:cutoff]
            if r.get("record") == "dispatch"
            and r["job"] in (low["job"], high["job"])
        ]
        high_n = sum(1 for r in window if r["job"] == high["job"])
        low_n = sum(1 for r in window if r["job"] == low["job"])
        assert high_n > low_n

    def test_per_job_cap_bounds_in_flight_shards(self, service, client):
        job = client.submit(wide_payload("capped", 40), workers=1)
        client.wait(job["job"])
        in_flight, peak = set(), 0
        for record in ledger_records(service):
            if record.get("job") != job["job"]:
                continue
            if record.get("record") == "dispatch":
                in_flight.add(record["index"])
                peak = max(peak, len(in_flight))
            elif record.get("record") == "result":
                in_flight.discard(record["index"])
        assert peak == 1

    def test_summary_reports_pool_work_not_finalize_reloads(
        self, service, client
    ):
        payload = wide_payload("acct", 12, seed_start=70_000)
        first = client.wait(client.submit(payload)["job"])
        assert first["simulated"] == 12 and first["cache_hits"] == 0
        # Same units, different shard layout => a distinct job whose every
        # unit comes out of the shared results cache.  If the summary took
        # its counters from the finalize pass (which only ever reloads),
        # both jobs would misreport identically.
        shared = client.wait(client.submit(payload, shard_size=3)["job"])
        assert shared["simulated"] == 0 and shared["cache_hits"] == 12


class TestWorkerLoss:
    def test_sigkill_mid_job_recovers_with_identical_aggregate(
        self, service, client, tmp_path
    ):
        payload = wide_payload("chaos-kill", 240, seed_start=30_000)
        job = client.submit(payload)
        wait_for(
            lambda: client.status(job["job"])
            .get("shards", {})
            .get("rows_flushed", 0)
            > 0
        )
        victim = client.stats()["pool"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        result = client.wait(job["job"])
        assert result["state"] == "complete" and result["completed"] == 240
        serial = stream_campaign(
            CampaignSpec.from_dict(payload), tmp_path / "serial", shard_size=2
        )
        assert result["aggregate"] == serial.aggregate.to_dict()
        # The loss and the replacement both hit the ledger.
        wait_for(lambda: ledger_records(service, "worker_exit"))
        assert ledger_records(service, "respawn")
        # The pool healed: back to full strength, all alive.
        pool = wait_for(
            lambda: (
                lambda p: p if len(p) == service.pool_size else None
            )([w for w in client.stats()["pool"] if w["alive"]])
        )
        assert victim not in {w["pid"] for w in pool}


# --------------------------------------------------------------------------- #
# Cancellation, dedup races, TTL
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_cancel_running_job_releases_leases_and_resumes_on_resubmit(
        self, service, client
    ):
        payload = wide_payload("cancel-run", 200, seed_start=40_000)
        job = client.submit(payload)
        wait_for(
            lambda: client.status(job["job"])
            .get("shards", {})
            .get("rows_flushed", 0)
            > 0
        )
        response = client.cancel(job["job"])
        assert response["state"] in {"cancelling", "cancelled"}
        wait_for(lambda: client.status(job["job"])["state"] == "cancelled")
        with pytest.raises(CampaignError, match="cancel"):
            client.result(job["job"])
        # The cancel journals its lease sweep into the job's event stream.
        store = CampaignStore(service.jobs_root / job["job"])
        cancelled = [
            e for e in read_jsonl(store.events_path) if e["event"] == "job_cancelled"
        ]
        assert cancelled and "leases_released" in cancelled[-1]
        assert LeaseLedger(store, "probe").outstanding() == []
        # Resubmit revives the same job id; completed shards reload, the
        # rest execute, and the job runs to completion.
        revived = client.submit(payload)
        assert revived["job"] == job["job"] and not revived["deduped"]
        result = client.wait(job["job"])
        assert result["state"] == "complete" and result["completed"] == 200
        # Work accounting survives the revival: shards landed before the
        # cancel reload (neither simulated nor cache hits), and every unit
        # is accounted for exactly once.
        assert result["reloaded"] > 0
        assert (
            result["simulated"] + result["cache_hits"] + result["reloaded"]
            == 200
        )

    def test_submit_racing_cancellation_is_honoured_after_drain(
        self, service, client
    ):
        payload = wide_payload("cancel-race", 200, seed_start=50_000)
        job = client.submit(payload)
        wait_for(lambda: client.status(job["job"])["state"] == "running")
        client.cancel(job["job"])
        # No waiting for the cancel to land: the resubmit races it.
        revived = client.submit(payload)
        assert revived["job"] == job["job"] and not revived["deduped"]
        result = client.wait(job["job"])
        assert result["state"] == "complete" and result["completed"] == 200

    def test_cancel_terminal_job_is_idempotent(self, client):
        job = client.submit(wide_payload("cancel-done", 8))
        client.wait(job["job"])
        response = client.cancel(job["job"])
        assert response["ok"] and response["state"] == "complete"

    def test_cancel_queued_job_never_runs(self, service, client):
        # Saturate the pool so a follow-up job sits queued long enough to
        # cancel before admission dispatches anything for it.
        blocker = client.submit(
            wide_payload("cancel-blocker", 300, seed_start=60_000)
        )
        wait_for(lambda: client.status(blocker["job"])["state"] == "running")
        doomed = client.submit(
            wide_payload("cancel-queued", 100), priority="low"
        )
        client.cancel(doomed["job"])
        wait_for(lambda: client.status(doomed["job"])["state"] == "cancelled")
        client.wait(blocker["job"])


class TestTTL:
    def test_ttl_evicts_store_and_resubmit_recomputes(self, service, client):
        payload = wide_payload("ttl-job", 8)
        job = client.submit(payload, ttl=0.3)
        client.wait(job["job"])
        store_dir = service.jobs_root / job["job"]
        assert store_dir.exists()
        wait_for(lambda: client.status(job["job"]).get("evicted"))
        assert not store_dir.exists()
        with pytest.raises(CampaignError, match="evicted"):
            client.result(job["job"])
        assert any(
            r["job"] == job["job"]
            for r in ledger_records(service, "job_evicted")
        )
        # Resubmission revives the job id and recomputes the store.
        revived = client.submit(payload)  # no ttl: the recompute persists
        assert revived["job"] == job["job"] and not revived["deduped"]
        result = client.wait(job["job"])
        assert result["state"] == "complete" and store_dir.exists()


# --------------------------------------------------------------------------- #
# Pool worker memory: one unit cache per results root, no per-job stores
# --------------------------------------------------------------------------- #
class TestPoolWorkerMemory:
    def test_one_cache_for_a_shared_root_and_no_retained_stores(
        self, tmp_path, monkeypatch
    ):
        import gc
        import queue
        import weakref

        import repro.campaign.store as store_module
        import repro.campaign.sharding as sharding_module
        from repro.campaign import ResultCache
        from repro.campaign.sharding import iter_shards

        results = tmp_path / "results"
        tasks: queue.Queue = queue.Queue()
        for job in range(20):
            # Consecutive jobs share one unit, so each job after the first
            # is served one row from its predecessor's artifact.
            spec = CampaignSpec(
                name=f"job{job}",
                sweep={"cpu_model": ["EPYC 9654"], "seed": [job, job + 1]},
                base=FAST_BASE,
            )
            store_dir = tmp_path / f"job{job}"
            CampaignStore(store_dir, results_dir=results).initialize_streaming(spec, 2)
            tasks.put(
                sharding_module.ShardTask(
                    job_id=f"job{job}",
                    store_dir=str(store_dir),
                    results_dir=str(results),
                    shard=next(iter_shards(spec, shard_size=2)),
                )
            )
        tasks.put(None)

        built = []

        class CountingCache(ResultCache):
            def __init__(self, directory):
                super().__init__(directory)
                built.append(self)

        monkeypatch.setattr(store_module, "ResultCache", CountingCache)
        live: weakref.WeakSet = weakref.WeakSet()
        original_init = CampaignStore.__init__

        def tracking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            live.add(self)

        monkeypatch.setattr(CampaignStore, "__init__", tracking_init)
        alive_at_execute = []
        original_execute = sharding_module.execute_shard

        def observed(store, shard, **kwargs):
            gc.collect()
            alive_at_execute.append(len(live))
            return original_execute(store, shard, **kwargs)

        monkeypatch.setattr(sharding_module, "execute_shard", observed)

        done: queue.Queue = queue.Queue()
        previous = signal.getsignal(signal.SIGTERM)
        try:
            sharding_module._pool_worker_main("pool0", tasks, done)
        finally:
            signal.signal(signal.SIGTERM, previous)
        outcomes = [done.get_nowait() for _ in range(20)]
        assert [outcome.status for outcome in outcomes] == ["ok"] * 20
        assert sum(outcome.cache_hits for outcome in outcomes) == 19
        assert len(built) == 1
        assert max(alive_at_execute) == 1  # only the current task's store


# --------------------------------------------------------------------------- #
# Event streaming: server-side drop accounting, client-side EventStream
# --------------------------------------------------------------------------- #
class TestEventBackpressure:
    def test_lagging_consumer_gets_newest_events_plus_drop_count(
        self, service, client
    ):
        # ~60 shards => well over 8 events; a buffer of 8 must surface a
        # drop notice on the wire and an events_dropped event in the store.
        job = client.submit(wide_payload("backlog", 120))
        client.wait(job["job"])
        with socket.create_connection(service.address, timeout=30.0) as conn:
            stream = conn.makefile("rwb")
            send_message(
                stream,
                {"op": "events", "job": job["job"], "buffer": 8},
            )
            lines = []
            while True:
                response = recv_message(stream)
                assert response is not None and response["ok"]
                lines.append(response)
                if response.get("done"):
                    break
        closing = lines[-1]
        notices = [r for r in lines if "dropped" in r and "done" not in r]
        events = [r["event"] for r in lines if "event" in r]
        assert notices and notices[0]["dropped"] > 0
        assert closing["events_dropped"] >= notices[0]["dropped"]
        # Per poll at most `buffer` events; the tail poll adds the
        # just-recorded events_dropped marker.
        assert len(events) <= 8 * 2
        store = CampaignStore(service.jobs_root / job["job"])
        assert any(
            e["event"] == "events_dropped" for e in read_jsonl(store.events_path)
        )

    def test_client_events_skips_drop_notices(self, service, client):
        job = client.submit(wide_payload("backlog", 120))  # deduped: complete
        names = [
            e["event"] for e in client.events(job["job"], buffer=8)
        ]
        assert names  # only real events come through the iterator
        assert all(isinstance(name, str) for name in names)


class TestEventStream:
    def test_orders_and_exhausts(self):
        events = [{"n": i} for i in range(5)]
        stream = EventStream(iter(events), buffer=16)
        assert list(stream) == events
        assert stream.get(timeout=0.01) is None
        assert stream.drops == 0

    def test_drop_oldest_when_buffer_full(self):
        events = [{"n": i} for i in range(6)]
        stream = EventStream(iter(events), buffer=2)
        stream._thread.join(timeout=5.0)  # let the feeder outrun the reader
        assert not stream._thread.is_alive()
        assert stream.drops == 4
        assert list(stream) == [{"n": 4}, {"n": 5}]

    def test_source_error_surfaces_after_drain(self):
        def source():
            yield {"n": 0}
            raise ValueError("connection torn")

        stream = EventStream(source(), buffer=4)
        stream._thread.join(timeout=5.0)
        assert stream.get() == {"n": 0}
        with pytest.raises(ValueError, match="torn"):
            stream.get()

    def test_close_unblocks_reader_and_abandons_source(self):
        gate = threading.Event()

        def source():
            yield {"n": 0}
            gate.wait(timeout=30.0)
            yield {"n": 1}

        stream = EventStream(source(), buffer=4)
        assert stream.get(timeout=5.0) == {"n": 0}
        assert stream.get(timeout=0.05) is None  # open but idle: times out
        stream.close()
        assert stream.get(timeout=1.0) is None
        gate.set()

    def test_context_manager_and_bad_buffer(self):
        with EventStream(iter([{"n": 0}]), buffer=1) as stream:
            assert stream.get(timeout=5.0) == {"n": 0}
        with pytest.raises(CampaignError, match="buffer"):
            EventStream(iter([]), buffer=0)

    def test_stream_helper_follows_live_job(self, client):
        job = client.submit(wide_payload("live-stream", 24))
        with client.stream(job["job"]) as stream:
            names = [event["event"] for event in stream]
        assert names and names[-1] == "campaign_complete"


# --------------------------------------------------------------------------- #
# Shutdown semantics
# --------------------------------------------------------------------------- #
class TestStopSemantics:
    def test_wedged_drain_is_loud(self, tmp_path):
        service = CampaignService(tmp_path / "svc", pool=2, drain_timeout=1.0)
        service.start()
        try:
            original = service._scheduler.stop
            service._scheduler.stop = lambda timeout=None: False
            with pytest.raises(CampaignError, match="drain did not complete"):
                service.stop()
        finally:
            service._scheduler.stop = original
            assert service._scheduler.stop(timeout=30.0)

    def test_stop_mid_run_cancels_with_resumable_store(self, tmp_path):
        service = CampaignService(tmp_path / "svc", shard_size=2, pool=2)
        host, port = service.start()
        client = ServiceClient(host, port, timeout=60.0)
        job = client.submit(wide_payload("drain-me", 300))
        wait_for(
            lambda: client.status(job["job"])
            .get("shards", {})
            .get("rows_flushed", 0)
            > 0
        )
        service.stop()
        handle = service.get_job(job["job"])
        assert handle.state == "cancelled"
        assert "resume" in (handle.error or "")
        # The partial store is intact and resumable by the plain engine.
        store = CampaignStore(service.jobs_root / job["job"])
        assert store.shard_entries()  # in-flight shards drained to disk


# --------------------------------------------------------------------------- #
# Supporting machinery: incremental follower, lease sweep
# --------------------------------------------------------------------------- #
class TestJsonlFollower:
    def test_incremental_polls_return_only_new_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        follower = JsonlFollower(path)
        assert follower.poll() == []  # missing file: nothing, no error
        path.write_bytes(b'{"n": 1}\n{"n": 2}\n')
        assert follower.poll() == [{"n": 1}, {"n": 2}]
        assert follower.poll() == []
        with open(path, "ab") as fh:
            fh.write(b'{"n": 3}\n')
        assert follower.poll() == [{"n": 3}]

    def test_torn_tail_is_deferred_until_completed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"n": 1}\n{"n": 2')  # torn mid-write
        follower = JsonlFollower(path)
        assert follower.poll() == [{"n": 1}]
        with open(path, "ab") as fh:
            fh.write(b'2}\n')
        assert follower.poll() == [{"n": 22}]

    def test_corrupt_complete_line_is_counted_and_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"n": 1}\n{garbage\n{"n": 2}\n')
        follower = JsonlFollower(path)
        assert follower.poll() == [{"n": 1}, {"n": 2}]
        assert follower.corrupt == 1


class TestLeaseSweep:
    @pytest.fixture
    def store(self, tmp_path) -> CampaignStore:
        store = CampaignStore(tmp_path / "store")
        store.initialize_streaming(
            CampaignSpec.from_dict(wide_payload("lease-sweep", 8)), shard_size=2
        )
        return store

    def test_outstanding_lists_live_unfinished_claims(self, store):
        ledger = LeaseLedger(store, "w0")
        assert ledger.outstanding() == []
        ledger.try_claim(0)
        ledger.try_claim(2)
        assert [lease.index for lease in ledger.outstanding()] == [0, 2]

    def test_release_outstanding_sweeps_only_unfinished(self, tmp_path):
        payload = wide_payload("lease-done", 8)
        store_dir = tmp_path / "complete"
        stream_campaign(CampaignSpec.from_dict(payload), store_dir, shard_size=2)
        store = CampaignStore(store_dir)
        ledger = LeaseLedger(store, "w0")
        ledger.try_claim(0)  # claim on an already-recorded shard
        assert ledger.outstanding() == []  # completed shards are never swept
        assert ledger.release_outstanding() == []

    def test_release_outstanding_returns_swept_indices(self, store):
        ledger = LeaseLedger(store, "w0")
        ledger.try_claim(1)
        ledger.try_claim(3)
        assert ledger.release_outstanding() == [1, 3]
        assert ledger.outstanding() == []


# --------------------------------------------------------------------------- #
# Scheduler resilience
# --------------------------------------------------------------------------- #
class TestSchedulerResilience:
    def test_expansion_failure_fails_job_not_service(self, service, client):
        # A spec that validates at submit but cannot resolve units (no
        # cpu_model axis) must fail cleanly — and the service stays up.
        payload = {
            "name": "bad-expand",
            "sweep": {"seed": [1, 2]},
            "base": dict(FAST_BASE),
        }
        job = client.submit(payload)
        wait_for(lambda: client.status(job["job"])["state"] == "failed")
        assert "cpu_model" in client.status(job["job"])["error"]
        assert client.ping()  # the scheduler loop survived
        follow_up = client.wait(client.submit(wide_payload("good-after", 8))["job"])
        assert follow_up["state"] == "complete"

    def test_stats_snapshot_shape(self, client):
        stats = client.stats()
        assert stats["pool_size"] == 2
        assert isinstance(stats["pool"], list) and isinstance(stats["active"], list)
        assert all({"worker", "pid", "alive"} <= set(w) for w in stats["pool"])
        assert isinstance(stats["jobs"], dict)

    def test_scheduler_ledger_is_valid_jsonl(self, service):
        records = ledger_records(service)
        assert records and records[0]["record"] == "scheduler_start"
        assert all("ts" in record for record in records)
        kinds = {record["record"] for record in records}
        assert {"job_queued", "job_admit", "dispatch", "result"} <= kinds
