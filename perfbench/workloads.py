"""The four workloads: inputs from the workload seed, one op, output checks.

Each workload is a closed loop with one caller.  The seed drives every
input; the program only ever sees the generated specs and files.

* ``stream-cold`` -- the campaign write path: keying, batch kernel,
  render -> parse -> validate, per-unit cache write, row assembly, P^2
  reduce, ``.npz`` flush and ledgers.  Every op streams a fresh seed block
  into a fresh store, so no cache can hit across ops.
* ``stream-replay`` -- the read side of the same store: checksum verify,
  ``.npz`` load, re-keying and reduce, with no kernel, text or cache-write
  work.  A gain for writes that costs reads (or the reverse) shows here.
* ``service-mixed`` -- the campaign service (protocol, DRR scheduler, pool
  dispatch, serial finalize, event notification, cross-job cache hits):
  rounds of a small job beside a short background sweep.
* ``paper-parse`` -- the paper's own pipeline from result files: parser,
  frame, core and plotting, bypassing every campaign layer.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from probe import probe_seconds, slowdown
from stats import allocated_bytes, median, tail_percentile, units_per_s

CPUS = ("Xeon X5670", "Xeon E5-2699 v4", "Xeon Platinum 8480+", "EPYC 9654")

#: Seeds per CPU in one stream op: 4 x 256 = 1,024 units, one default shard.
STREAM_SEEDS = 256
#: Seeds per CPU in one small service job (half shared with the previous job).
SMALL_SEEDS = 32
#: Seeds per CPU in one service round's background sweep: 4 x 64 = 256
#: cheap units, one of the service's 256-unit shards.
ROUND_SWEEP_SEEDS = 64
#: Untimed service rounds before the timed ones.  A fresh service's pool
#: worker runs its first rounds up to ~40% slower, mostly in file creation
#: on a file system that just had another run's files deleted.
WARMUP_ROUNDS = 6
#: Paper-scale corpus: 960 clean runs (plus the generator's defective files).
PAPER_RUNS = 960

_US = time.perf_counter


def seed_base(seed: int, salt: str) -> int:
    """A per-workload seed block origin, a pure function of the workload seed."""
    return random.Random(f"{salt}:{seed}").randrange(1 << 20, 1 << 30)


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def canonical(value: Any) -> str:
    """A stable text form for equality checks (NaN-safe, unlike ``==``)."""
    return json.dumps(value, sort_keys=True, default=repr)


class OpResult:
    """What one timed op did, for throughput and the output checks."""

    __slots__ = ("units", "shards", "reloaded", "value")

    def __init__(self, units: int, shards: int = 0, reloaded: int = 0, value: Any = None):
        self.units = units
        self.shards = shards
        self.reloaded = reloaded
        self.value = value

    @classmethod
    def stream(cls, result) -> "OpResult":
        reloaded = sum(1 for shard in result.shards if shard.reloaded)
        return cls(result.total_units, result.total_shards, reloaded, value=result)


# --------------------------------------------------------------------------- #
# Batch workloads: a loop of identical-shaped ops
# --------------------------------------------------------------------------- #
class BatchWorkload:
    """Setup once, then time ops one after another until ``seconds`` of op wall."""

    min_ops = 3
    #: Untimed ops before the timed ones (still checked).
    warmup_ops = 0

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.notes: list[str] = []  # findings about the program that fail no op

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def check(self, index: int, result: OpResult) -> list[str]:
        raise NotImplementedError

    def disk_kib_per_unit(self) -> float:
        raise NotImplementedError

    def teardown(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def run(self, seconds: float, recorder=None) -> dict[str, Any]:
        """The timed loop, after ``warmup_ops`` untimed ops.  With a recorder,
        odd timed ops are traced and even ones are not, so the tracing
        overhead is measured within the run.

        Every op is bracketed by two reference probes; reported times are the
        op walls divided by the host's slowdown between them (``probe.py``).
        """
        walls: list[float] = []
        raw: list[float] = []
        units: list[int] = []
        traced: list[bool] = []
        failures: list[str] = []
        failed = 0
        sizes: list[dict[str, float]] = []
        warm = self.warmup_ops
        min_ops = warm + self.min_ops + (2 if recorder is not None else 0)
        index = 0
        while sum(raw[warm:]) < seconds or index < min_ops:
            trace_this = recorder is not None and index >= warm and index % 2 == 1
            before = probe_seconds()
            root = recorder.begin_op(index) if trace_this else None
            start = _US()
            try:
                result = self.op(index)
                problems: list[str] = []
            except Exception as exc:  # an op that raises is a failed op
                result = OpResult(0)
                problems = [f"op {index} raised {type(exc).__name__}: {exc}"]
            wall = _US() - start
            if trace_this:
                recorder.end_op(root)
            speed = slowdown(before, probe_seconds())
            if not problems:
                problems = self.check(index, result)
            raw.append(wall)
            walls.append(wall / speed)
            units.append(result.units)
            traced.append(trace_this)
            failures.extend(problems)
            failed += bool(problems)
            sizes.append(
                {
                    "units": result.units,
                    "shards": result.shards,
                    "reloaded": result.reloaded,
                    "wall": wall / speed,
                    "speed": speed,
                }
            )
            index += 1
        timed = [index >= warm for index in range(len(walls))]
        plain = [wall for wall, on, t in zip(walls, traced, timed) if t and not on]
        plain_raw = [wall for wall, on, t in zip(raw, traced, timed) if t and not on]
        plain_units = [n for n, on, t in zip(units, traced, timed) if t and not on]
        return {
            "attempted": len(walls),
            "failed": failed,
            "failures": failures[:20],
            "samples": len(plain),
            "units_per_s": units_per_s(plain_units, plain),
            "op_p50_ms": median(plain) * 1e3,
            "op_tail_ms": _tail_ms(plain),
            "peak_rss_mib": peak_rss_mib(),
            "disk_kib_per_unit": self.disk_kib_per_unit(),
            "notes": self.notes,
            "raw_units_per_s": units_per_s(plain_units, plain_raw),
            "slowdown": median([size["speed"] for size in sizes[warm:]]),
            "walls": walls,
            "traced": traced,
            "timed": timed,
            "sizes": sizes,
        }


def _tail_ms(walls: list[float]) -> list[float] | None:
    tail = tail_percentile(walls)
    return None if tail is None else [tail[0], tail[1] * 1e3]


class StreamCold(BatchWorkload):
    """Each op: one serial ``stream_campaign`` into a fresh store, fresh seeds.

    The ops share one results directory, as a service's jobs do.  A fresh
    one per op would make every 1,024-unit op create the cache's 256 fan-out
    directories, a cost a real campaign pays once, and whose disk latency
    dominated the spread between runs.
    """

    name = "stream-cold"
    #: The first ops after set-up run up to ~40% slower, mostly in the
    #: per-unit cache writes (file creation right after another run's files
    #: were deleted); the fan-out directories are also created then.
    warmup_ops = 2

    def setup(self) -> None:
        # Imported and built here so the first timed op pays no import.
        from repro.campaign import CampaignSpec, stream_campaign  # noqa: F401
        from repro.market.catalog import default_catalog

        default_catalog()
        self.base = seed_base(self.seed, self.name)
        self.results_dir = self.run_dir / "results"
        self.units = 0

    def spec(self, index: int):
        from repro.campaign import CampaignSpec

        first = self.base + index * STREAM_SEEDS
        return CampaignSpec(
            name="stream-cold",
            sweep={"cpu_model": CPUS, "seed": range(first, first + STREAM_SEEDS)},
        )

    def op(self, index: int) -> OpResult:
        from repro.campaign import stream_campaign

        result = stream_campaign(
            self.spec(index), self.run_dir / f"store{index}", results_dir=self.results_dir
        )
        return OpResult.stream(result)

    def check(self, index: int, result: OpResult) -> list[str]:
        from repro.campaign import CampaignStore
        from repro.session.artifacts import digest_json

        outcome = result.value
        store_dir = self.run_dir / f"store{index}"
        spec = self.spec(index)
        problems = []
        if outcome.simulated != spec.n_units or outcome.cache_hits != 0:
            problems.append(
                f"simulated {outcome.simulated} / cached {outcome.cache_hits} "
                f"of {spec.n_units} fresh units"
            )
        if outcome.failures or outcome.quarantined or outcome.status != "complete":
            problems.append(f"status {outcome.status}, {len(outcome.failures)} failures")
        keys = [unit.key for unit in spec.iter_units()]
        entries = CampaignStore(store_dir).shard_entries()
        size = outcome.shard_size
        expected = {
            shard: digest_json(keys[start : start + size])[:16]
            for shard, start in enumerate(range(0, len(keys), size))
        }
        recorded = {
            shard: entry.get("keys_digest")
            for shard, entry in entries.items()
            if entry.get("status") == "complete"
            and entry.get("n_rows") == len(keys[shard * size : (shard + 1) * size])
        }
        if recorded != expected:
            problems.append("store shards do not hold exactly the spec's unit keys")
        # Stores stay until teardown: deleting ~1,000 files between ops
        # leaves file-system work that lands in the next op's timing.
        self.units += spec.n_units
        return [f"op {index}: {problem}" for problem in problems]

    def disk_kib_per_unit(self) -> float:
        """Every op's store plus the shared results, per unit streamed."""
        return allocated_bytes(self.run_dir) / 1024.0 / self.units


class StreamReplay(BatchWorkload):
    """Setup streams one spec cold (untimed); each op replays the whole store."""

    name = "stream-replay"

    def setup(self) -> None:
        from repro.campaign import CampaignSpec, stream_campaign

        first = seed_base(self.seed, self.name)
        self.spec = CampaignSpec(
            name="stream-replay",
            sweep={"cpu_model": CPUS, "seed": range(first, first + STREAM_SEEDS)},
        )
        self.store_dir = self.run_dir / "store"
        cold = stream_campaign(self.spec, self.store_dir)
        if cold.simulated != self.spec.n_units or cold.status != "complete":
            raise RuntimeError(f"replay setup pass incomplete: {cold.describe()}")
        self.aggregate = canonical(cold.aggregate.to_dict())

    def op(self, index: int) -> OpResult:
        from repro.campaign import stream_campaign

        return OpResult.stream(stream_campaign(self.spec, self.store_dir))

    def check(self, index: int, result: OpResult) -> list[str]:
        outcome = result.value
        problems = []
        if not all(shard.reloaded for shard in outcome.shards):
            problems.append("a shard was re-executed instead of reloaded")
        if outcome.simulated != 0 or outcome.completed != self.spec.n_units:
            problems.append(
                f"simulated {outcome.simulated}, completed {outcome.completed}"
            )
        if canonical(outcome.aggregate.to_dict()) != self.aggregate:
            problems.append("aggregate differs from the setup pass")
        return [f"op {index}: {problem}" for problem in problems]

    def disk_kib_per_unit(self) -> float:
        return allocated_bytes(self.store_dir) / 1024.0 / self.spec.n_units


class PaperParse(BatchWorkload):
    """Setup writes a paper-scale corpus; each op is the paper pipeline over it."""

    name = "paper-parse"

    def setup(self) -> None:
        from repro.reportgen import generate_corpus_files
        from repro.session import Session  # noqa: F401  (imported before timing)

        self.corpus_dir = self.run_dir / "corpus"
        self.report = generate_corpus_files(self.corpus_dir, PAPER_RUNS, seed=self.seed)
        on_disk = sum(1 for _ in self.corpus_dir.glob("*.txt"))
        if on_disk != self.report.total_files:
            raise RuntimeError(f"{on_disk} files on disk, generator wrote {self.report}")
        self.verdict: tuple[int, str] | None = None

    def op(self, index: int) -> OpResult:
        from repro.session import Session

        with Session() as session:
            dataset = session.dataset(corpus=self.corpus_dir)
            analysis = session.analysis(dataset=dataset, figures=True).result()
        return OpResult(self.report.total_files, value=analysis)

    def check(self, index: int, result: OpResult) -> list[str]:
        analysis = result.value
        problems = []
        parsed = len(analysis.unfiltered)
        rejected = self.report.total_files - parsed
        if len(analysis.figures) != 6:
            problems.append(f"{len(analysis.figures)} figures rendered, expected 6")
        comparison = analysis.comparison
        verdict = (parsed, repr((comparison.table1_rows, comparison.findings)))
        if self.verdict is None:
            self.verdict = verdict
            # Some seeds' corpora hold a run the generator calls clean that
            # validation rejects (seed 12030: 959 parsed / 58 rejected).
            # That is a finding about the generator, not a failed op.
            if parsed != self.report.clean_runs or rejected != self.report.defective_runs:
                self.notes.append(
                    f"parsed {parsed} / rejected {rejected}, generator wrote "
                    f"{self.report.clean_runs} clean / {self.report.defective_runs} defective"
                )
        elif verdict != self.verdict:
            problems.append("parse counts, Table I or headline findings differ from op 0")
        return [f"op {index}: {problem}" for problem in problems]

    def disk_kib_per_unit(self) -> float:
        return allocated_bytes(self.corpus_dir) / 1024.0 / self.report.total_files


# --------------------------------------------------------------------------- #
# Service workload: rounds of a small job beside a short background sweep
# --------------------------------------------------------------------------- #
class ServiceMixed:
    """``spectrends serve --pool 1`` in its own process; this process is its
    only client (one thread, at most two connections at a time).

    The run is a sequence of identical rounds.  A round submits a
    low-priority one-shard sweep of fresh cheap units, then one
    high-priority small job (the op), and ends when both are complete.  The
    sweep's shard is always dispatched first, so the small job waits behind
    it on the pool worker and then runs while the service finalizes the
    sweep; its own finalize queues behind the sweep's.  Rounds are short and
    start from an idle service, so every round has the same schedule and a
    probe on each edge reads the host speed it ran at; in one long window the
    finalize backlog and the host's slow phases would land differently in
    every run.
    """

    name = "service-mixed"
    min_rounds = 3

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.root = run_dir / "svc"
        self.small_base = seed_base(seed, "service-small")
        self.sweep_base = seed_base(seed, "service-sweep")
        self.process: subprocess.Popen | None = None
        self.pool_pids: list[int] = []

    # -- service process -------------------------------------------------- #
    def setup(self) -> None:
        from repro.errors import CampaignError
        from repro.service.client import ServiceClient

        self.root.mkdir(parents=True)
        self.log = open(self.run_dir / "service.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "serve"]
            + ["--root", str(self.root), "--pool", "1"],
            stdout=self.log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        address = self.root / "service.json"
        deadline = time.monotonic() + 120.0
        while not address.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("campaign service did not start; see service.log")
            time.sleep(0.005)
        while True:
            try:
                self.client = ServiceClient.for_root(self.root)
                break
            except CampaignError:  # address file seen mid-write
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        self.pool_pids = [
            worker["pid"] for worker in self.client.stats()["pool"] if worker["pid"]
        ]
        # Job 0 warms the shared unit cache, so every later small job finds
        # exactly half its units cached by its predecessor.
        warm = self.small_job(0)
        if warm["problems"]:
            raise RuntimeError(f"warm-up job failed: {warm['problems']}")

    def teardown(self) -> None:
        from repro.errors import CampaignError

        try:
            if self.process is not None and self.process.poll() is None:
                try:
                    self.client.shutdown()
                    self.process.wait(timeout=60)
                except (AttributeError, CampaignError, OSError, subprocess.TimeoutExpired):
                    pass  # no client yet, or the service is gone or stuck: killed below
        finally:
            if self.process is not None and self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=30)
            for pid in self.pool_pids:  # orphaned pool workers after a kill
                try:
                    os.kill(pid, 9)
                except (ProcessLookupError, PermissionError):
                    pass
            if self.process is not None:
                self.log.close()
            shutil.rmtree(self.run_dir, ignore_errors=True)

    # -- jobs ------------------------------------------------------------- #
    def small_spec(self, index: int) -> dict[str, Any]:
        first = self.small_base + index * SMALL_SEEDS
        seeds = list(range(first, first + 2 * SMALL_SEEDS))
        return {"name": f"small{index}", "sweep": {"cpu_model": list(CPUS), "seed": seeds}}

    def sweep_spec(self, round_no: int) -> dict[str, Any]:
        first = self.sweep_base + round_no * ROUND_SWEEP_SEEDS
        return {
            "name": f"sweep{round_no}",
            "sweep": {
                "cpu_model": list(CPUS),
                "seed": list(range(first, first + ROUND_SWEEP_SEEDS)),
            },
            "base": {"load_levels": [1.0, 0.0], "measurement_noise": False},
        }

    def small_job(self, index: int) -> dict[str, Any]:
        """Submit one small job and wait for its result (one op)."""
        n_units = len(CPUS) * 2 * SMALL_SEEDS
        start = _US()
        problems: list[str] = []
        try:
            job = self.client.submit(self.small_spec(index), priority="high")
            submitted = _US()
            summary = self.client.wait(job["job"])
            done = _US()
            done_ts = time.time()
        except Exception as exc:
            problems.append(f"small job {index} raised {type(exc).__name__}: {exc}")
            return {"index": index, "problems": problems, "units": 0}
        completed, hits = summary["completed"], summary["cache_hits"]
        accounted = summary["simulated"] + hits + summary["reloaded"]
        if summary.get("state") != "complete" or completed != n_units:
            problems.append(f"small job {index} {summary.get('state')}: {completed} units")
        if accounted != completed:
            problems.append(f"small job {index} accounts {accounted} of {completed} units")
        overlap = len(CPUS) * SMALL_SEEDS if index > 0 else 0
        if hits != overlap:
            problems.append(f"small job {index}: {hits} cache hits, expected {overlap}")
        return {
            "index": index,
            "job": job["job"],
            "latency": done - start,
            "submit": submitted - start,
            "done_ts": done_ts,
            "units": completed,
            "cache_hits": hits,
            "problems": problems,
        }

    def round(self, number: int) -> dict[str, Any]:
        """Round ``number``: sweep ``number`` and small job ``number`` beside
        it.  The probes run while the service is idle: during the round they
        would read the service's own load."""
        n_sweep = len(CPUS) * ROUND_SWEEP_SEEDS
        problems: list[str] = []
        small: dict[str, Any] = {
            "index": number, "problems": [f"small job {number} not submitted"], "units": 0
        }
        before = probe_seconds()
        start = _US()
        try:
            sweep = self.client.submit(self.sweep_spec(number), priority="low")
            small = self.small_job(number)
            summary = self.client.wait(sweep["job"])
        except Exception as exc:
            summary = None
            problems.append(f"sweep {number} raised {type(exc).__name__}: {exc}")
        wall = _US() - start
        small["speed"] = slowdown(before, probe_seconds())
        if summary is not None:
            accounted = summary["simulated"] + summary["cache_hits"] + summary["reloaded"]
            if summary.get("state") != "complete" or summary["completed"] != n_sweep:
                problems.append(
                    f"sweep {number} {summary.get('state')}: "
                    f"{summary['completed']} of {n_sweep} units"
                )
            elif accounted != n_sweep:
                problems.append(f"sweep {number} accounts {accounted} of {n_sweep} units")
        units = small["units"] + (0 if problems else n_sweep)
        return {"wall": wall, "speed": small["speed"], "units": units, "small": small,
                "problems": problems}  # fmt: skip

    def run(self, seconds: float, recorder=None) -> dict[str, Any]:
        warmup = [self.round(number) for number in range(1, WARMUP_ROUNDS + 1)]
        start_ts = time.time()
        deadline = _US() + 3 * seconds + 30
        rounds: list[dict[str, Any]] = []
        while sum(r["wall"] for r in rounds) < seconds or len(rounds) < self.min_rounds:
            rounds.append(self.round(WARMUP_ROUNDS + 1 + len(rounds)))
            if _US() > deadline:
                break
        smalls = [r["small"] for r in rounds]
        every = warmup + rounds
        failures = [problem for r in every for problem in r["problems"]]
        failures += [problem for r in every for problem in r["small"]["problems"]]
        failed = sum(1 for r in every if r["problems"])
        failed += sum(1 for r in every if r["small"]["problems"])
        latencies = [job["latency"] / job["speed"] for job in smalls if not job["problems"]]
        units = [r["units"] for r in rounds]
        walls = [r["wall"] for r in rounds]
        rss = peak_rss_mib(self.process.pid) + sum(peak_rss_mib(pid) for pid in self.pool_pids)
        total_units = sum(r["units"] for r in every) + len(CPUS) * 2 * SMALL_SEEDS  # + job 0
        result = {
            "attempted": 2 * len(every),
            "failed": failed,
            "failures": failures[:20],
            "samples": len(latencies),
            "units_per_s": units_per_s(units, [r["wall"] / r["speed"] for r in rounds]),
            "op_p50_ms": median(latencies) * 1e3 if latencies else 0.0,
            "op_tail_ms": _tail_ms(latencies) if latencies else None,
            "peak_rss_mib": rss,
            "disk_kib_per_unit": allocated_bytes(self.root) / 1024.0 / total_units,
            "raw_units_per_s": units_per_s(units, walls),
            "slowdown": median([r["speed"] for r in rounds]),
            "window_s": sum(walls),
            "rounds": len(rounds),
        }
        if recorder is not None:
            result["layers"] = self.service_layers(smalls, start_ts, sum(walls), result["slowdown"])
        return result

    def service_layers(
        self, smalls: list[dict[str, Any]], start_ts: float, window: float, speed: float
    ) -> dict[str, float]:
        """Service layer metrics: client-side timing plus ``scheduler.jsonl``.

        A small job's times are divided by its round's host slowdown; the
        pool's shard times, which ``scheduler.jsonl`` does not tie to a
        round, by the median slowdown ``speed``.  ``window`` is the summed
        raw wall of the rounds.
        """
        records = []
        with open(self.root / "scheduler.jsonl", encoding="utf-8") as handle:
            for line in handle:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        first: dict[tuple[str, str], float] = {}
        results = []
        dispatches = 0
        for record in records:
            kind, job = record.get("record"), record.get("job")
            first.setdefault((kind, job), record["ts"])
            if record["ts"] < start_ts:
                continue  # the warm-up job and rounds ran before the timed rounds
            if kind == "result":
                results.append(record)
            elif kind == "dispatch":
                dispatches += 1
        measured = [job for job in smalls if not job["problems"]]

        def gap_ms(later: str, earlier: str) -> float:
            gaps = [
                (first[(later, job["job"])] - first[(earlier, job["job"])]) / job["speed"]
                for job in measured
                if (later, job["job"]) in first and (earlier, job["job"]) in first
            ]
            return median(gaps) * 1e3 if gaps else 0.0

        notify = [
            (job["done_ts"] - first[("job_complete", job["job"])]) / job["speed"]
            for job in measured
            if ("job_complete", job["job"]) in first
        ]
        ok = [record for record in results if record.get("status") == "ok"]
        busy = sum(record.get("wall_s", 0.0) for record in results)
        units = sum(job["units"] for job in measured)
        return {
            "service.submit_ms": median([job["submit"] / job["speed"] for job in measured])
            * 1e3,
            "service.queue_wait_ms": gap_ms("job_admit", "job_queued"),
            "service.dispatch_wait_ms": gap_ms("dispatch", "job_admit"),
            "service.finalize_ms": gap_ms("job_complete", "job_populated"),
            "service.notify_ms": median(notify) * 1e3 if notify else 0.0,
            "service.shard_exec_ms": busy / len(results) * 1e3 / speed if results else 0.0,
            "service.worker_busy_share": busy / window,
            "service.dispatch_efficiency": len(ok) / dispatches if dispatches else 0.0,
            "service.cache_hit_ratio": (
                sum(job["cache_hits"] for job in measured) / units if units else 0.0
            ),
        }


WORKLOADS = {
    cls.name: cls for cls in (StreamCold, StreamReplay, ServiceMixed, PaperParse)
}
