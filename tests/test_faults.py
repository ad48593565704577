"""Failure-domain hardening: fault injection, retry/quarantine, recovery.

The contract under test is the acceptance invariant of the robustness
layer: a campaign executed with faults injected at every hook site
completes — through per-unit retry, poison-unit quarantine, and the
checksum/recovery machinery — with results *bit-identical* to a clean
serial run on every non-quarantined unit.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    doctor_store,
    resume_streaming,
    run_worker,
    stream_campaign,
)
from repro.errors import CampaignError, InjectedFault
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    active_fault_plan,
    clear_fault_plan,
    fault_plan_from_env,
    fault_point,
    install_fault_plan,
    resolve_fault_plan,
)
from repro.session.policy import ExecutionPolicy

GENERATIONS = ["Xeon X5670", "EPYC 9654"]
FAST_BASE = {"load_levels": [1.0, 0.5, 0.0]}

#: Backoff tuned for tests: real retry rounds, negligible sleeping.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_cap=0.002)


def fault_spec(name="fault-test", seeds=(1, 2, 3)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        sweep={"cpu_model": GENERATIONS, "seed": list(seeds)},
        base=FAST_BASE,
    )


@pytest.fixture(autouse=True)
def _no_plan_leaks():
    """Every test starts and ends with no fault plan installed."""
    clear_fault_plan()
    yield
    clear_fault_plan()


# --------------------------------------------------------------------------- #
# FaultPlan mechanics
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_nth_trigger_fires_exactly_once(self):
        plan = FaultPlan([FaultRule(site="s", kind="raise", nth=3)])
        assert plan.check("s") is None and plan.check("s") is None
        assert plan.check("s").kind == "raise"
        assert plan.check("s") is None
        assert plan.fired == [("s", "raise", 3)]
        assert plan.counters["s"] == 4

    def test_probability_schedule_is_deterministic(self):
        def schedule(seed):
            plan = FaultPlan(
                [FaultRule(site="s", kind="raise", probability=0.5)], seed=seed
            )
            return [plan.check("s") is not None for _ in range(64)]

        first = schedule(7)
        assert schedule(7) == first  # same seed -> same replay
        assert schedule(8) != first  # different seed -> different draw
        assert 10 < sum(first) < 54  # and it is actually probabilistic

    def test_times_caps_total_firings(self):
        plan = FaultPlan([FaultRule(site="s", kind="delay", times=2)])
        fired = [plan.check("s") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_where_matches_context_substring(self):
        plan = FaultPlan([FaultRule(site="s", kind="raise", where="poison")])
        assert plan.check("s", ctx="healthy-unit") is None
        assert plan.check("s", ctx="the-poison-unit") is not None

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [
                FaultRule(site="s", kind="delay", nth=1),
                FaultRule(site="s", kind="raise"),
            ]
        )
        assert plan.check("s").kind == "delay"
        assert plan.check("s").kind == "raise"

    def test_invalid_rules_rejected(self):
        with pytest.raises(CampaignError, match="kind"):
            FaultRule(site="s", kind="explode")
        with pytest.raises(CampaignError, match="nth"):
            FaultRule(site="s", kind="raise", nth=0)
        with pytest.raises(CampaignError, match="probability"):
            FaultRule(site="s", kind="raise", probability=1.5)
        with pytest.raises(CampaignError, match="fraction"):
            FaultRule(site="s", kind="partial_write", fraction=1.0)
        with pytest.raises(CampaignError, match="unknown fault rule fields"):
            FaultRule.from_dict({"site": "s", "kind": "raise", "bogus": 1})
        with pytest.raises(CampaignError, match="site"):
            FaultRule.from_dict({"kind": "raise"})

    def test_dict_roundtrip(self):
        plan = FaultPlan(
            [
                FaultRule(site="a", kind="raise", nth=2, times=1),
                FaultRule(site="b", kind="partial_write", fraction=0.25),
                FaultRule(site="c", kind="delay", delay_s=0.5, where="x"),
            ],
            seed=11,
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()
        assert again.seed == 11 and len(again.rules) == 3

    def test_resolve_inline_json_file_and_errors(self, tmp_path):
        data = {"seed": 3, "rules": [{"site": "s", "kind": "raise", "nth": 1}]}
        inline = resolve_fault_plan(json.dumps(data))
        assert inline.seed == 3 and inline.rules[0].site == "s"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        from_file = resolve_fault_plan(str(path))
        assert from_file.to_dict() == inline.to_dict()
        with pytest.raises(CampaignError, match="cannot read fault plan file"):
            resolve_fault_plan(str(tmp_path / "missing.json"))
        with pytest.raises(CampaignError, match="malformed"):
            resolve_fault_plan("{not json")
        listing = tmp_path / "list.json"
        listing.write_text("[1]", encoding="utf-8")
        with pytest.raises(CampaignError, match="JSON object"):
            resolve_fault_plan(str(listing))

    def test_install_returns_previous_and_clear(self):
        first = FaultPlan()
        second = FaultPlan()
        assert install_fault_plan(first) is None
        assert install_fault_plan(second) is first
        assert active_fault_plan() is second
        clear_fault_plan()
        assert active_fault_plan() is None

    def test_env_resolution(self):
        assert fault_plan_from_env({}) is None
        assert fault_plan_from_env({"REPRO_FAULTS": "  "}) is None
        plan = fault_plan_from_env(
            {"REPRO_FAULTS": '{"rules": [{"site": "s", "kind": "kill"}]}'}
        )
        assert plan.rules[0].kind == "kill"

    def test_fault_point_disabled_is_noop(self):
        assert fault_point("unit.execute", ctx="anything") is None

    def test_fault_point_raise_delay_and_partial(self):
        install_fault_plan(
            FaultPlan(
                [
                    FaultRule(site="a", kind="raise", nth=1),
                    FaultRule(site="b", kind="delay", nth=1, delay_s=0.02),
                    FaultRule(site="c", kind="partial_write", nth=1, fraction=0.3),
                ]
            )
        )
        with pytest.raises(InjectedFault, match="injected fault at a"):
            fault_point("a", ctx="ctx")
        start = time.perf_counter()
        assert fault_point("b") is None  # delay is applied, nothing returned
        assert time.perf_counter() - start >= 0.015
        rule = fault_point("c")
        assert rule is not None and rule.fraction == 0.3

    def test_kind_table_is_closed(self):
        assert FAULT_KINDS == ("raise", "partial_write", "delay", "kill")


# --------------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.35, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.35, 0.35]
        assert policy.delay(0) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=10.0, jitter=0.5)
        first = policy.delay(3, salt="shard0")
        assert policy.delay(3, salt="shard0") == first
        assert policy.delay(3, salt="shard1") != first
        assert 0.2 <= first <= 0.4  # full backoff 0.4, jitter strips <= half

    def test_invalid_policies_rejected(self):
        with pytest.raises(CampaignError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(CampaignError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(CampaignError):
            RetryPolicy(jitter=1.5)


# --------------------------------------------------------------------------- #
# Chaos matrix: every site x kind, bit-identical after recovery
# --------------------------------------------------------------------------- #
#: (label, rules) — each plan injects at one hook site; the campaign must
#: still converge to the clean run's exact bytes after retry + resume.
CHAOS_CASES = [
    (
        "unit-execute-raise-nth",
        [{"site": "unit.execute", "kind": "raise", "nth": 2}],
    ),
    (
        "unit-execute-raise-burst",
        [{"site": "unit.execute", "kind": "raise", "probability": 1.0, "times": 2}],
    ),
    (
        "unit-execute-delay",
        [{"site": "unit.execute", "kind": "delay", "nth": 1, "delay_s": 0.01}],
    ),
    (
        "batch-run-raise",
        [{"site": "batch.run", "kind": "raise", "nth": 1}],
    ),
    (
        "shard-flush-partial-write",
        [{"site": "shard.flush", "kind": "partial_write", "nth": 1, "fraction": 0.4}],
    ),
    (
        "ledger-append-partial-write",
        [
            {
                "site": "jsonl.append",
                "kind": "partial_write",
                "nth": 2,
                "where": "ledger",
                "fraction": 0.5,
            }
        ],
    ),
    (
        "index-append-partial-write",
        [
            {
                "site": "jsonl.append",
                "kind": "partial_write",
                "probability": 1.0,
                "times": 1,
                "where": "index",
                "fraction": 0.5,
            }
        ],
    ),
]


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """The reference: one clean serial streamed run of the chaos spec."""
    store_dir = tmp_path_factory.mktemp("clean-store")
    result = stream_campaign(fault_spec(), store_dir, shard_size=4)
    assert result.is_complete and not result.failures
    return result


class TestChaosMatrix:
    @pytest.mark.parametrize("label,rules", CHAOS_CASES, ids=[c[0] for c in CHAOS_CASES])
    def test_faulty_run_recovers_bit_identical(self, tmp_path, clean_run, label, rules):
        plan = FaultPlan.from_dict({"seed": 5, "rules": rules})
        policy = ExecutionPolicy(faults=plan, retry=FAST_RETRY)
        faulty = stream_campaign(
            fault_spec(), tmp_path / "faulty", shard_size=4, policy=policy,
            retry=FAST_RETRY,
        )
        # The scoped plan is uninstalled once the run returns.
        assert active_fault_plan() is None
        # Every case's fault really fired: none passes vacuously.
        fired = {(site, kind) for site, kind, _ in plan.fired}
        assert {(rule["site"], rule["kind"]) for rule in rules} <= fired
        assert not faulty.quarantined  # every injected failure was transient
        # A plain resume heals anything the faults tore (checksum-mismatch
        # artifacts re-simulate; a torn ledger or index line loses that one
        # record, never a row); for most cases it reloads everything.
        resumed = resume_streaming(tmp_path / "faulty", retry=FAST_RETRY)
        assert resumed.is_complete and not resumed.failures
        assert resumed.status == "complete"
        assert resumed.frame().equals(clean_run.frame())
        assert resumed.aggregate.equals(clean_run.aggregate)
        # And the doctor signs the store off (repairing benign debris like
        # the torn ledger tail the partial append left behind).
        report = doctor_store(tmp_path / "faulty", repair=True)
        assert not report.unresolved
        assert doctor_store(tmp_path / "faulty").healthy

    def test_torn_flush_heals_within_the_faulty_run(self, tmp_path, clean_run):
        # The finalize pass verifies every sidecar before reading its
        # columns back, so the torn one is re-flushed from the unit cache:
        # the faulty run's own aggregate is the clean one, and the store is
        # whole again — a resume reloads every shard.
        rules = dict(CHAOS_CASES)["shard-flush-partial-write"]
        plan = FaultPlan.from_dict({"seed": 5, "rules": rules})
        faulty = stream_campaign(
            fault_spec(), tmp_path / "faulty", shard_size=4,
            policy=ExecutionPolicy(faults=plan, retry=FAST_RETRY), retry=FAST_RETRY,
        )
        assert ("shard.flush", "partial_write", 1) in plan.fired
        assert faulty.aggregate.equals(clean_run.aggregate)
        resumed = resume_streaming(tmp_path / "faulty", retry=FAST_RETRY)
        assert resumed.simulated == 0
        assert all(shard.reloaded for shard in resumed.shards)

    def test_fired_faults_are_recorded_on_the_plan(self, tmp_path, clean_run):
        plan = FaultPlan([FaultRule(site="unit.execute", kind="raise", nth=1)])
        stream_campaign(
            fault_spec(), tmp_path / "s", shard_size=4,
            policy=ExecutionPolicy(faults=plan), retry=FAST_RETRY,
        )
        assert ("unit.execute", "raise", 1) in plan.fired

    def test_injected_unit_failure_without_retry_is_captured(self, tmp_path):
        # Legacy single-attempt behaviour: the fault lands as a per-unit
        # error tuple, the run itself survives.
        plan = FaultPlan([FaultRule(site="unit.execute", kind="raise", nth=1)])
        result = stream_campaign(
            fault_spec(), tmp_path / "s", shard_size=4,
            policy=ExecutionPolicy(faults=plan),
        )
        assert len(result.failures) == 1
        assert "InjectedFault" in result.failures[0][1]
        assert result.status == "partial" and not result.is_complete


# --------------------------------------------------------------------------- #
# Poison units: retry exhaustion -> quarantine -> degraded completion
# --------------------------------------------------------------------------- #
class TestQuarantine:
    def test_poison_unit_quarantined_and_run_degrades(self, tmp_path, clean_run):
        spec = fault_spec()
        poison_key = spec.expand()[2].key
        plan = FaultPlan(
            [FaultRule(site="unit.execute", kind="raise", where=poison_key)]
        )
        result = stream_campaign(
            spec, tmp_path / "s", shard_size=4,
            policy=ExecutionPolicy(faults=plan), retry=FAST_RETRY,
        )
        assert result.status == "degraded" and result.is_complete is False
        assert len(result.quarantined) == 1
        assert "InjectedFault" in result.quarantined[0][1]
        assert "degraded" in result.describe() and "quarantined" in result.describe()

        store = CampaignStore(tmp_path / "s")
        assert store.quarantine_keys() == {poison_key}
        entries = store.quarantine_entries()
        assert entries[-1]["attempts"] == FAST_RETRY.max_attempts
        status = store.status()
        assert status.quarantined == 1 and status.is_degraded
        assert "quarantined" in status.describe()

        # Quarantine persists across a clean resume: the poison unit stays
        # excluded, nothing re-executes, the campaign stays degraded.
        resumed = resume_streaming(tmp_path / "s", retry=FAST_RETRY)
        assert resumed.status == "degraded" and resumed.simulated == 0
        assert len(resumed.quarantined) == 1

        # Deleting quarantine.jsonl un-poisons the unit: the reload path
        # notices the row count no longer adds up and re-executes exactly
        # the missing unit — converging to the clean run's bytes.
        store.quarantine_path.unlink()
        healed = resume_streaming(tmp_path / "s", retry=FAST_RETRY)
        assert healed.status == "complete" and healed.simulated == 1
        assert healed.frame().equals(clean_run.frame())
        assert healed.aggregate.equals(clean_run.aggregate)

    def test_quarantine_skipped_units_never_redispatch(self, tmp_path):
        spec = fault_spec()
        poison_key = spec.expand()[0].key
        plan = FaultPlan(
            [FaultRule(site="unit.execute", kind="raise", where=poison_key)]
        )
        stream_campaign(
            spec, tmp_path / "s", shard_size=4,
            policy=ExecutionPolicy(faults=plan), retry=FAST_RETRY,
        )
        # With no plan installed, a resume must not even attempt the unit:
        # attempting it would *succeed* and un-degrade the run silently.
        resumed = resume_streaming(tmp_path / "s", retry=FAST_RETRY)
        assert resumed.simulated == 0 and resumed.status == "degraded"

    def test_shard_retry_budget_bounds_redispatch(self, tmp_path):
        # Budget 0 disables retry rounds wholesale: one attempt per unit.
        tight = RetryPolicy(
            max_attempts=3, backoff_base=0.001, shard_retry_budget=0
        )
        plan = FaultPlan(
            [FaultRule(site="unit.execute", kind="raise", nth=1, times=1)]
        )
        result = stream_campaign(
            fault_spec(), tmp_path / "s", shard_size=4,
            policy=ExecutionPolicy(faults=plan), retry=tight,
        )
        assert len(result.failures) == 1  # never retried, and not quarantined
        assert not result.quarantined


# --------------------------------------------------------------------------- #
# Crash chaos: SIGKILL mid-flush, graceful SIGTERM (subprocess workers)
# --------------------------------------------------------------------------- #
_REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _worker_env(faults: dict | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [_REPO_SRC, env.get("PYTHONPATH", "")] if p
    )
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    return env

_WORKER_SNIPPET = """
import sys
from repro.campaign import run_worker
sys.exit(0 if run_worker(sys.argv[1], sys.argv[2], handle_sigterm=True) >= 0 else 1)
"""


class TestCrashChaos:
    def test_sigkill_mid_flush_loses_nothing_durable(self, tmp_path, clean_run):
        spec = fault_spec()
        store_dir = tmp_path / "s"
        # Lay out the store without executing anything (0-shard cap).
        stream_campaign(spec, store_dir, shard_size=4, max_shards=0)
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER_SNIPPET, str(store_dir), "victim"],
            env=_worker_env({"rules": [{"site": "shard.flush", "kind": "kill", "nth": 2}]}),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        # The kill landed between unit execution and the artifact write, so
        # the second shard's rows survive only in the unit cache — exactly
        # what the resume path replays. Bit identity must still hold.
        resumed = resume_streaming(store_dir, retry=FAST_RETRY)
        assert resumed.is_complete and not resumed.failures
        assert resumed.frame().equals(clean_run.frame())
        report = doctor_store(store_dir, repair=True)
        assert not report.unresolved

    def test_sigterm_stops_worker_gracefully(self, tmp_path):
        spec = fault_spec(name="sigterm-test", seeds=(1, 2, 3, 4))  # 8 units
        store_dir = tmp_path / "s"
        stream_campaign(spec, store_dir, shard_size=1, max_shards=0)
        # Slow every unit down so the TERM lands while shards remain.
        faults = {
            "rules": [
                {
                    "site": "unit.execute",
                    "kind": "delay",
                    "probability": 1.0,
                    "delay_s": 0.1,
                }
            ]
        }
        proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER_SNIPPET, str(store_dir), "polite"],
            env=_worker_env(faults),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        store = CampaignStore(store_dir)
        deadline = time.time() + 60
        try:
            while time.time() < deadline:
                names = [e.get("event") for e in store.event_entries()]
                if "worker_shard" in names:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker never flushed a shard")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0  # graceful exit, not a signal death
        names = [e.get("event") for e in store.event_entries()]
        assert "worker_sigterm" in names and "worker_done" in names
        # The in-flight shard completed; the rest are simply pending.
        assert store.shard_progress().complete < 8
        resumed = resume_streaming(store_dir)
        assert resumed.is_complete
        assert doctor_store(store_dir, repair=True).unresolved == []


# --------------------------------------------------------------------------- #
# Worker-path quarantine (lease loop + heartbeat + retry wired together)
# --------------------------------------------------------------------------- #
class TestWorkerFaults:
    def test_worker_retry_and_heartbeat_path(self, tmp_path, clean_run):
        spec = fault_spec()
        store_dir = tmp_path / "s"
        stream_campaign(spec, store_dir, shard_size=4, max_shards=0)
        plan = FaultPlan([FaultRule(site="unit.execute", kind="raise", nth=2)])
        install_fault_plan(plan)
        try:
            flushed = run_worker(store_dir, "w0", retry=FAST_RETRY, lease_ttl=5.0)
        finally:
            clear_fault_plan()
        assert flushed == 2  # both shards, injected failure retried inline
        result = resume_streaming(store_dir)
        assert result.is_complete and result.frame().equals(clean_run.frame())
        events = CampaignStore(store_dir).event_entries()
        shard_events = [e for e in events if e.get("event") == "worker_shard"]
        assert all(e.get("quarantined") == 0 for e in shard_events)


# --------------------------------------------------------------------------- #
# Service hardening: read deadlines, per-connection fault blast radius,
# client connect retry, graceful drain
# --------------------------------------------------------------------------- #
@pytest.fixture()
def hardened_service(tmp_path):
    from repro.service import CampaignService

    service = CampaignService(tmp_path / "svc", shard_size=4, read_timeout=0.4)
    service.start()
    yield service
    service.stop()


class TestServiceHardening:
    def test_silent_connection_dropped_at_read_deadline(self, hardened_service):
        host, port = hardened_service.address
        with socket.create_connection((host, port), timeout=10.0) as conn:
            conn.settimeout(10.0)
            start = time.perf_counter()
            assert conn.recv(1) == b""  # server closed on us, no response
            elapsed = time.perf_counter() - start
        assert 0.2 <= elapsed < 8.0  # the 0.4s deadline, not the 10s client one

    def test_injected_read_fault_costs_one_connection_only(self, hardened_service):
        from repro.service import ServiceClient

        host, port = hardened_service.address
        client = ServiceClient(host, port, timeout=10.0)
        install_fault_plan(
            FaultPlan([FaultRule(site="service.read", kind="raise", times=1)])
        )
        try:
            with pytest.raises(CampaignError, match="injected fault at service.read"):
                client.ping()
        finally:
            clear_fault_plan()
        assert client.ping()  # the accept loop survived the blast

    def test_client_retries_refused_connects(self, hardened_service, monkeypatch):
        from repro.service import ServiceClient

        host, port = hardened_service.address
        real = socket.create_connection
        calls = {"n": 0}

        def flaky(address, timeout=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionRefusedError("connection refused")
            return real(address, timeout=timeout)

        monkeypatch.setattr(socket, "create_connection", flaky)
        client = ServiceClient(
            host, port, timeout=10.0, connect_retries=3, connect_backoff=0.001
        )
        assert client.ping()
        assert calls["n"] == 3

    def test_client_connect_retries_exhaust_to_campaign_error(self):
        from repro.service import ServiceClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = ServiceClient(
            "127.0.0.1", dead_port, connect_retries=2, connect_backoff=0.001
        )
        with pytest.raises(CampaignError, match="after 3 attempt"):
            client.ping()

    def test_graceful_drain_gives_unfinished_jobs_a_terminal_answer(
        self, hardened_service
    ):
        # The drain contract under the fair-share scheduler: finished work
        # stays finished, a job still mid-run flips to ``cancelled`` with
        # its partial store intact (never left hanging in a live state).
        from repro.service import ServiceClient

        host, port = hardened_service.address
        client = ServiceClient(host, port, timeout=30.0)
        finished = client.submit(fault_spec(name="drain-finished").to_dict())
        client.wait(finished["job"])
        big = client.submit(
            fault_spec(name="drain-big", seeds=range(500)).to_dict()
        )
        big_job = hardened_service.get_job(big["job"])
        store = CampaignStore(big_job.store_dir)
        deadline = time.time() + 60
        while time.time() < deadline:
            if big_job.state == "running" and store.shard_entries():
                break
            time.sleep(0.02)
        else:
            pytest.fail("big job never started landing shards")
        client.shutdown()
        deadline = time.time() + 60
        while time.time() < deadline:
            if big_job.done:
                break
            time.sleep(0.02)
        done = hardened_service.get_job(finished["job"])
        interrupted = hardened_service.get_job(big["job"])
        assert done.state == "complete"  # finished work survives the drain
        assert interrupted.state == "cancelled"  # terminal, not hanging
        assert "resume" in interrupted.error
        assert store.shard_entries()  # partial store kept for resumption

    def test_serve_forever_drains_on_sigterm(self, tmp_path):
        snippet = (
            "import sys\n"
            "from repro.service.server import serve_forever\n"
            "sys.exit(serve_forever(sys.argv[1]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", snippet, str(tmp_path / "root")],
            env=_worker_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if (tmp_path / "root" / "service.json").exists():
                    break
                time.sleep(0.02)
            else:
                pytest.fail("service never published its address")
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "draining and shutting down" in stdout

    def test_sigkilled_service_takes_its_pool_workers_down(self, tmp_path):
        # SIGKILL skips every exit handler, so ``daemon=True`` never reaps
        # the pool; each worker must notice on its own that the service is
        # gone instead of blocking on its task queue forever.
        from repro.service.client import ServiceClient

        root = tmp_path / "root"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "serve", "--root", str(root), "--pool", "1"],
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.time() + 60
            while not workers:
                assert proc.poll() is None, "service exited during start-up"
                assert time.time() < deadline, "service never reported its pool"
                try:
                    pool = ServiceClient.for_root(root, timeout=10.0).stats()["pool"]
                    workers = [worker["pid"] for worker in pool if worker["pid"]]
                except (CampaignError, OSError):
                    pass  # address not published yet
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.time() + 5.0
            while any(_process_running(pid) for pid in workers) and time.time() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in workers if _process_running(pid)]
        finally:
            proc.kill()
            proc.wait(timeout=30)
            for pid in workers:  # never leave an orphan behind, even on failure
                if _process_running(pid):
                    os.kill(pid, signal.SIGKILL)
        assert workers and not survivors


def _process_running(pid: int) -> bool:
    """Whether ``pid`` is alive; an unreaped zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")
