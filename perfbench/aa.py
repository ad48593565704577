"""A/A steadiness report: two interleaved sets of runs of the same code.

Run from the root of a checkout::

    python3 perfbench/aa.py --runs 5                       # every workload
    python3 perfbench/aa.py --runs 5 --workload paper-parse --seconds 15

Each round runs every chosen workload once for set A and once for set B,
alternating which set goes first; every run gets its own ``--seed``.  For
every end-to-end metric x workload the report gives each set's median and
quartiles, the B-vs-A difference in the metric's "worse" direction, whether
that difference is within the metric's bound in ``BENCHMARK.json``, and the
spread (interquartile range over median) of all runs pooled.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float | None) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]  # fmt: skip
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its output checks:\n{out.stdout}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1000, help="first run's seed")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [workload["name"] for workload in config["workloads"]]
    values: dict[tuple[str, str, str], list[float]] = {}
    seed = args.seed
    for round_no in range(args.runs):
        for workload in workloads:
            for label in ("AB" if round_no % 2 == 0 else "BA"):
                result = run_once(workload, seed, args.seconds)
                seed += 1
                for name, entry in result["metrics"].items():
                    values.setdefault((workload, name, label), []).append(entry["value"])
                print(f"round {round_no} {workload} set {label} done", file=sys.stderr)

    print(
        f"{'workload':14s} {'metric':18s} {'A median [q1, q3]':>30s} "
        f"{'B median [q1, q3]':>30s} {'B worse':>8s} {'bound':>6s} {'ok':>3s} "
        f"{'spread':>7s} {'<=b/3':>5s}"
    )
    steady = True
    for workload in workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = values[(workload, name, "A")], values[(workload, name, "B")]
            qa, qb = quartiles(a), quartiles(b)
            worse = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                worse = -worse
            pooled = spread(a + b)
            within = worse <= bound and (name == "setup_s" or pooled <= bound)
            steady &= within
            print(
                f"{workload:14s} {name:18s} "
                f"{qa[1]:10.4g} [{qa[0]:8.4g}, {qa[2]:8.4g}] "
                f"{qb[1]:10.4g} [{qb[0]:8.4g}, {qb[2]:8.4g}] "
                f"{worse:+8.3f} {bound:6.2f} {'yes' if within else 'NO':>3s} "
                f"{pooled:7.3f} {'yes' if pooled <= bound / 3 else 'no':>5s}"
            )
    print("A/A verdict: " + ("every metric within its bound" if steady else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
