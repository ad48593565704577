"""End-to-end benchmark of the spectrends program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``; the
separate ``--trace 1`` run prints every per-layer metric instead, taken by
wrapping the program's layer boundaries from outside (``perfbench/tracing.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable summary and the run record (seed, sample counts, host,
load, versions, commit).

Set-up time is measured from spawning the workload process until it is set
up and ready to measure; untimed warm-up ops (``warmup_ops``,
``WARMUP_ROUNDS``) follow it.  The process is spawned ``SETUPS`` times per
run -- every spawn sets the workload up from scratch -- and the median is
reported; only the last spawn goes on to measure.

Every time (op walls, service latencies and rounds, set-up, traced self
times) is divided by the host's slowdown that reference probes read around
it (``perfbench/probe.py``), so it reads at the reference host speed; the
raw figures and the slowdown are in the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from probe import probe_seconds, slowdown
from stats import median
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
#: Seconds one workload run may take, all its spawns together; a workload
#: process still alive then is stopped (SIGTERM, then SIGKILL).
RUN_DEADLINE_S = 170.0


def source_digest(src: Path) -> str:
    """Content digest of the program's Python sources (the checkout may not
    be a git repository, so this identifies the code either way)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git work tree of
    its own (a plain copy of the tree)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stop_group(process: subprocess.Popen, grace: float) -> None:
    """SIGTERM a workload's process group, SIGKILL what is left after
    ``grace`` seconds, and wait until the group is empty.

    The group holds the workload process and everything it started (the
    service workload's server and its pool worker), so nothing outlives a
    run, whichever process fails.
    """
    for signum, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 10.0)):
        try:
            os.killpg(process.pid, signum)
        except ProcessLookupError:
            return
        until = time.monotonic() + wait
        while time.monotonic() < until:
            process.poll()  # reap the group leader once it has exited
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)


def spawn(cmd: list[str], env: dict[str, str], command: str, deadline: float):
    """Start one workload process; returns ``(raw setup_s, slowdown, output
    lines)``, the slowdown read by probes right before the spawn and right
    after the process reports ready."""
    before = probe_seconds()
    start = time.perf_counter()
    process = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(max(deadline - start, 1.0), stop_group, (process, 5.0))
    watchdog.daemon = True
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RuntimeError("workload set-up failed")
        speed = slowdown(before, probe_seconds())
        out, _ = process.communicate(command + "\n")
    finally:
        watchdog.cancel()
        stop_group(process, 5.0)  # normally already empty
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {process.returncode})")
    return setup_s, speed, out.splitlines()


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """Set ``workload`` up ``SETUPS`` times and measure it once."""
    scratch = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["TMPDIR"] = str(tmp)  # ephemeral sessions stay inside the checkout
    # Byte-compile before timing: set-up time is not the compiler's.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(ROOT / "perfbench")],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    load_before = os.getloadavg()[0]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups: list[float] = []
    raw_setups: list[float] = []
    try:
        for index in range(SETUPS):
            last = index == SETUPS - 1
            cmd = [
                sys.executable,
                str(ROOT / "perfbench" / "worker.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--run-dir", str(scratch / f"run{index}"),
            ]  # fmt: skip
            setup_s, speed, lines = spawn(cmd, env, "run" if last else "exit", deadline)
            raw_setups.append(setup_s)
            setups.append(setup_s / speed)
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["setup_s"] = median(setups)
    result["record"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples": result["samples"],
        "attempted": result["attempted"],
        "setup_samples": [round(value, 4) for value in setups],
        "raw_setup_samples": [round(value, 4) for value in raw_setups],
        "raw_units_per_s": result["raw_units_per_s"],
        "notes": result.get("notes", []),
        "slowdown": result["slowdown"],
        "window_s": result.get("window_s"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "git_commit": git_commit(),
        "source_digest": source_digest(ROOT / "src"),
    }
    return result


def report(workload: str, result: dict[str, Any], config: dict, trace: int) -> dict:
    """Pick the contract's metrics out of one workload result and print them."""
    metrics: dict[str, dict[str, float | str]] = {}
    if trace:
        layers = result["layers"]
        for metric in config["per_layer"]:
            value = float(layers.get(metric["name"], 0.0))
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    else:
        for metric in config["end_to_end"]:
            metrics[metric["name"]] = {
                "value": float(result[metric["name"]]),
                "unit": metric["unit"],
            }
    correct = result["failed"] == 0 and (
        trace or all(entry["value"] > 0 for entry in metrics.values())
    )
    print(f"== {workload} (seed {result['record']['seed']}, trace {trace})")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")
    tail = result.get("op_tail_ms")
    print(
        f"  op samples {result['samples']}"
        + (f", p{tail[0]:g} {tail[1]:.1f} ms" if tail else ", no tail percentile")
        + f"; error_rate {result['failed'] / result['attempted']:.4f} "
        f"({result['failed']} of {result['attempted']} ops failed)"
    )
    print(f"  output checks: {'pass' if correct else 'FAIL'}")
    for failure in result["failures"]:
        print(f"    {failure}")
    print("run record: " + json.dumps(result["record"], sort_keys=True))
    return {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Workload processes run in process groups of their own; a SIGTERM here
    # must still stop them (through spawn's cleanup), so make it SystemExit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    names = (
        [workload["name"] for workload in config["workloads"]]
        if args.workload == "all"
        else [args.workload]
    )
    outcomes = {}
    for name in names:
        result = measure(name, args.seed, seconds, args.trace)
        outcomes[name] = report(name, result, config, args.trace)
    if len(outcomes) == 1:
        final = next(iter(outcomes.values()))
    else:
        final = {
            "correct": all(outcome["correct"] for outcome in outcomes.values()),
            "attempted": sum(outcome["attempted"] for outcome in outcomes.values()),
            "failed": sum(outcome["failed"] for outcome in outcomes.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, outcome in outcomes.items()
                for metric, entry in outcome["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
