"""One benchmark process: set one workload up, then measure it on command.

``perfbench/run.py`` starts this process and times its set-up from the
spawn: the process prints ``READY`` once the workload is set up, then reads
one command from stdin.  ``run`` measures and prints one JSON line with the
raw results; ``exit`` tears the workload down without measuring.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import numpy
from stats import median
from workloads import WORKLOADS


def batch_layers(recorder, result: dict) -> dict[str, float]:
    """Per-layer metrics of a traced batch run: time metrics are medians
    over the traced ops; counts come from the first traced op (a program
    that memoizes across ops may legitimately count less on later ones)."""
    from tracing import COUNT_METRICS, layer_values

    selfs, counts = recorder.op_layers(), recorder.op_counts()
    per_op = []
    for index, (sizes, traced) in enumerate(zip(result["sizes"], result["traced"])):
        if traced:
            op_counts = dict(counts[index])
            op_counts["sharding.reloaded"] = sizes.get("reloaded", 0)
            op_selfs = {name: own / sizes["speed"] for name, own in selfs[index].items()}
            per_op.append(layer_values(op_selfs, op_counts, sizes))
    layers = {
        name: per_op[0][name]
        if name in COUNT_METRICS
        else median([values[name] for values in per_op])
        for name in per_op[0]
    }
    ops = list(zip(result["walls"], result["traced"], result["timed"]))
    traced = [wall for wall, on, timed in ops if on]
    plain = [wall for wall, on, timed in ops if timed and not on]
    layers["trace.overhead_share"] = median(traced) / median(plain) - 1.0
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)

    # A SIGTERM from run.py's watchdog must still tear down (the service
    # workload owns a server process), so turn it into SystemExit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload](args.seed, Path(args.run_dir))
    recorder = None
    try:
        workload.setup()
        if args.trace:
            from tracing import Recorder, install

            recorder = Recorder()
            install(recorder)
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        result = workload.run(args.seconds, recorder)
        if recorder is not None and "layers" not in result:
            result["layers"] = batch_layers(recorder, result)
        for raw in ("walls", "sizes", "traced", "timed"):
            result.pop(raw, None)
        result["numpy"] = numpy.__version__
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if recorder is not None:
            recorder.unwrap_all()
        workload.teardown()


if __name__ == "__main__":
    sys.exit(main())
