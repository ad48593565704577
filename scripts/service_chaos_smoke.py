#!/usr/bin/env python3
"""CI chaos gate for the campaign service layer.

Proves the lease-coordinated worker pool survives a hard crash with
correct results, end to end and across real process boundaries:

1. run a clean serial reference campaign (the ground truth aggregate),
2. initialise an empty sharded store for the same spec,
3. launch two ``spectrends campaign worker`` subprocesses against it,
4. SIGKILL one worker mid-run — no cleanup, no signal handler, the
   worker's lease is left dangling in ``shards.jsonl``,
5. wait for the survivor (must exit 0),
6. finalize with the resume/reclaimer pass, which re-queues the victim's
   leased shard and reloads everything else,
7. assert the recovered aggregate is bit-identical to the reference,
8. render ``campaign watch --once`` over the crashed-and-recovered store,
9. run the deterministic fault-injection matrix: transient unit raises,
   torn shard flushes, torn ledger and unit-cache index appends, a poison
   unit driven into quarantine (serially and again on a two-worker pool,
   which must attempt and quarantine it exactly as the serial run did),
   and an env-armed (``REPRO_FAULTS``) worker killed at a flush — each
   must recover bit-identical to the reference and leave a store that
   ``campaign doctor`` signs off on,
10. round-trip a tiny job through a live :class:`CampaignService` socket.

The kill lands wherever it lands — every assertion below holds whether
the victim died before its first claim, mid-shard, or after finishing.
Exit status 0 means the gate passed; any assertion failure raises.

Usage::

    PYTHONPATH=src python scripts/service_chaos_smoke.py --root /tmp/chaos
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    doctor_store,
    resume_streaming,
    stream_campaign,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.service import CampaignService, ServiceClient
from repro.session.policy import ExecutionPolicy

SPEC = CampaignSpec(
    name="ci-chaos",
    sweep={
        "cpu_model": ["EPYC 9654", "Xeon X5670", "Xeon Platinum 8480+"],
        "seed": [1, 2, 3, 4, 5, 6],
    },
    base={"load_levels": [1.0, 0.5, 0.0]},
)
#: Defaults; both are CLI-overridable (--shard-size / --retries) so the
#: nightly matrix can sweep layouts and retry budgets.
SHARD_SIZE = 2  # 18 units -> 9 shards: plenty of claim/flush cycles to crash into

#: Fast retry schedule for injected transients: keep CI wall time honest.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_cap=0.002)

#: site x kind matrix — every case must recover bit-identical to the
#: reference after retry + resume, and ``doctor`` must sign the store off.
FAULT_MATRIX = [
    (
        "transient-unit-raise",
        [{"site": "unit.execute", "kind": "raise", "probability": 0.25, "times": 4}],
    ),
    (
        "torn-shard-flush",
        [{"site": "shard.flush", "kind": "partial_write", "nth": 2, "fraction": 0.5}],
    ),
    (
        "torn-ledger-append",
        [{"site": "jsonl.append", "kind": "partial_write", "nth": 3, "where": "ledger"}],
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
            }
        ],
    ),
]


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli.main", *args]


def spawn_worker(
    store: Path, worker_id: str, faults: dict | None = None
) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    return subprocess.Popen(
        cli("campaign", "worker", "--store", str(store), "--worker-id", worker_id),
        env=env,
    )


def assert_doctor_signs_off(store_dir: Path) -> None:
    report = doctor_store(store_dir, repair=True)
    assert not report.unresolved, f"doctor left unresolved issues:\n{report.describe()}"
    assert doctor_store(store_dir).healthy, "store unhealthy after doctor --repair"


def run_fault_matrix(root: Path, reference) -> None:
    for case_no, (label, rules) in enumerate(FAULT_MATRIX, start=1):
        store_dir = root / "faults" / label
        plan = FaultPlan.from_dict({"seed": case_no, "rules": rules})
        stream_campaign(
            SPEC,
            store_dir,
            shard_size=SHARD_SIZE,
            policy=ExecutionPolicy(faults=plan, retry=FAST_RETRY),
            retry=FAST_RETRY,
        )
        store = CampaignStore(store_dir)
        if store.quarantine_keys():
            # A unit may legitimately exhaust a *swept-down* retry budget
            # while the injected fault still has charges left; lifting the
            # quarantine must then heal to bit-identical.  At the default
            # budget (>= 3) the transients always recover within retries,
            # so any quarantine there is a regression.
            assert FAST_RETRY.max_attempts < 3, f"{label}: spurious quarantine"
            store.quarantine_path.rename(
                store.quarantine_path.with_suffix(".jsonl.lifted")
            )
            print(f"   {label}: retry budget exhausted, quarantine lifted")
        healed = resume_streaming(store_dir, retry=FAST_RETRY)
        assert healed.is_complete, f"{label}: resume did not complete"
        assert not healed.failures, f"{label}: failures survived: {healed.failures}"
        assert not healed.quarantined, f"{label}: spurious quarantine"
        assert healed.frame().equals(reference.frame()), (
            f"{label}: recovered frame diverged from the clean reference"
        )
        assert_doctor_signs_off(store_dir)
        print(f"   {label}: recovered bit-identical, doctor signed off")

    # Poison unit: deterministic failure on one unit key, every attempt.
    # Retry must exhaust, the unit must land in quarantine.jsonl, the rest
    # of the campaign must still finish (degraded) — and lifting the
    # quarantine must heal the store to bit-identical completeness.
    poison_key = SPEC.expand()[7].key
    poison = {
        "seed": 99,
        "rules": [
            {
                "site": "unit.execute",
                "kind": "raise",
                "probability": 1.0,
                "where": poison_key,
            }
        ],
    }

    def poison_run(store_dir: Path, workers: int | None):
        """Stream the poisoned campaign; returns its quarantine and failed attempts."""
        plan = FaultPlan.from_dict(poison)
        degraded = stream_campaign(
            SPEC,
            store_dir,
            shard_size=SHARD_SIZE,
            policy=ExecutionPolicy(faults=plan, retry=FAST_RETRY),
            retry=FAST_RETRY,
            workers=workers,
        )
        assert degraded.status == "degraded", degraded.status
        assert len(degraded.quarantined) == 1
        assert "injected fault" in degraded.quarantined[0][1]
        store = CampaignStore(store_dir)
        assert store.quarantine_keys() == {poison_key}
        assert_doctor_signs_off(store_dir)
        quarantine = [(e["unit_id"], e["attempts"]) for e in store.quarantine_entries()]
        failed = sum(
            1
            for entry in store.ledger_entries()
            if entry["key"] == poison_key and entry["status"] == "failed"
        )
        return quarantine, failed

    store_dir = root / "faults" / "poison-unit"
    serial_poison = poison_run(store_dir, None)
    pooled_poison = poison_run(root / "faults" / "poison-unit-pooled", 2)
    assert pooled_poison == serial_poison, (
        f"poison-unit: a 2-worker pool quarantined/attempted {pooled_poison}, "
        f"the serial run {serial_poison}"
    )
    store = CampaignStore(store_dir)
    # Operator lifts the quarantine; keep the ledger aside for CI forensics.
    store.quarantine_path.rename(store.quarantine_path.with_suffix(".jsonl.lifted"))
    healed = resume_streaming(store_dir, retry=FAST_RETRY)
    assert healed.is_complete and not healed.quarantined
    assert healed.frame().equals(reference.frame()), (
        "poison-unit: healed frame diverged from the clean reference"
    )
    print(
        "   poison-unit: quarantined after "
        f"{FAST_RETRY.max_attempts} attempts (serial and 2-worker pool alike), "
        "healed after lift"
    )

    # Env-armed kill: REPRO_FAULTS crosses the process boundary and SIGKILLs
    # a real worker mid-flush; the resume pass must finish the campaign.
    store_dir = root / "faults" / "env-kill-flush"
    stream_campaign(SPEC, store_dir, shard_size=SHARD_SIZE, max_shards=0)
    victim = spawn_worker(
        store_dir,
        "env-victim",
        faults={"seed": 7, "rules": [{"site": "shard.flush", "kind": "kill", "nth": 3}]},
    )
    victim.wait(timeout=300)
    assert victim.returncode == -signal.SIGKILL, victim.returncode
    healed = resume_streaming(store_dir, retry=FAST_RETRY)
    assert healed.is_complete and not healed.failures
    assert healed.frame().equals(reference.frame()), (
        "env-kill-flush: recovered frame diverged from the clean reference"
    )
    assert_doctor_signs_off(store_dir)
    print("   env-kill-flush: REPRO_FAULTS killed the worker, resume recovered")

    # Doctor CLI exit codes on real ledger corruption: 1 (found), 0 (fixed).
    ledger = CampaignStore(store_dir).ledger_path
    lines = ledger.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(1, "garbage, not json\n")
    ledger.write_text("".join(lines), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    doctor = cli("campaign", "doctor", "--store", str(store_dir))
    assert subprocess.run(doctor, env=env, timeout=60).returncode == 1
    assert subprocess.run([*doctor, "--repair"], env=env, timeout=60).returncode == 0
    assert subprocess.run(doctor, env=env, timeout=60).returncode == 0
    print("   campaign doctor CLI: corrupt ledger -> 1, --repair -> 0")


def main() -> int:
    # The helpers above read the module globals; main rebinds them to the
    # CLI choice so one knob steers every store in the gate.
    global SHARD_SIZE, FAST_RETRY
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="scratch directory for the gate")
    parser.add_argument(
        "--kill-after",
        type=float,
        default=0.4,
        help="seconds before the victim worker is SIGKILLed",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=SHARD_SIZE,
        help="shard layout for every store in the gate (default "
             f"{SHARD_SIZE}; the nightly matrix sweeps this)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=FAST_RETRY.max_attempts,
        help="max attempts per faulted unit (default "
             f"{FAST_RETRY.max_attempts}; the nightly matrix sweeps this)",
    )
    args = parser.parse_args()
    SHARD_SIZE = args.shard_size
    FAST_RETRY = RetryPolicy(
        max_attempts=args.retries,
        backoff_base=FAST_RETRY.backoff_base,
        backoff_cap=FAST_RETRY.backoff_cap,
    )
    root = Path(args.root)

    print("== reference: clean serial streamed run")
    reference = stream_campaign(SPEC, root / "reference", shard_size=SHARD_SIZE)
    assert reference.is_complete, "reference run did not complete"

    print("== chaos store: initialise only (max_shards=0)")
    store_dir = root / "store"
    seeded = stream_campaign(SPEC, store_dir, shard_size=SHARD_SIZE, max_shards=0)
    assert seeded.completed == 0, "seed pass must not execute any shard"

    print("== spawn two workers, SIGKILL one mid-run")
    survivor = spawn_worker(store_dir, "survivor")
    victim = spawn_worker(store_dir, "victim")
    time.sleep(args.kill_after)
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL
    survivor_rc = survivor.wait(timeout=300)
    assert survivor_rc == 0, f"surviving worker failed: rc={survivor_rc}"
    print(f"   victim killed after {args.kill_after}s; survivor exited 0")

    print("== finalize: resume pass reclaims the victim's shard")
    recovered = resume_streaming(store_dir)
    assert recovered.is_complete, "reclaimer did not complete the campaign"
    assert not recovered.failures, f"failures after recovery: {recovered.failures}"
    assert recovered.aggregate.equals(reference.aggregate), (
        "recovered aggregate diverged from the clean serial reference"
    )
    assert recovered.frame().equals(reference.frame()), (
        "recovered frame diverged from the clean serial reference"
    )
    print(
        f"   bit-identical: {recovered.completed}/{recovered.total_units} units,"
        f" {recovered.simulated} re-simulated after the kill"
    )

    leases = CampaignStore(store_dir).lease_entries()
    assert leases, "workers left no lease records — pool coordination never engaged"
    print(f"   lease records on {sorted(leases)} in shards.jsonl")

    print("== campaign watch --once over the recovered store")
    subprocess.run(
        cli("campaign", "watch", "--store", str(store_dir), "--once"),
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        check=True,
        timeout=60,
    )

    print("== fault-injection matrix: site x kind, recover, doctor sign-off")
    run_fault_matrix(root, reference)

    print("== service round-trip: submit the same spec over the socket")
    service = CampaignService(root / "service", shard_size=SHARD_SIZE)
    host, port = service.start()
    try:
        client = ServiceClient(host, port, timeout=300.0)
        job = client.submit(SPEC.to_dict(), workers=2)
        result = client.wait(job["job"])
        assert result["state"] == "complete", result
        assert result["aggregate"] == reference.aggregate.to_dict(), (
            "service aggregate diverged from the serial reference"
        )
        rerun = client.submit(SPEC.to_dict(), workers=2)
        assert rerun["deduped"] and rerun["job"] == job["job"]
        print(f"   job {job['job']}: complete, deduped on resubmit")
    finally:
        service.stop()

    print("chaos gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
