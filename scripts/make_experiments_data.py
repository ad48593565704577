#!/usr/bin/env python3
"""Produce the paper-vs-measured numbers recorded in EXPERIMENTS.md.

Generates the default paper-scale corpus (seed 2024, 960 clean runs), runs
the full analysis and prints every comparison as plain text.  Used to
populate EXPERIMENTS.md; re-run after any calibration change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import ExecutionPolicy, Session
from repro.core import figure4
from repro.parser import parse_directory
from repro.stats import bin_by_year


def main() -> int:
    output = (
        Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="experiments-"))
    )
    corpus = output / "corpus"
    policy = ExecutionPolicy(mode="process", workers=8, chunk_size=64)
    with Session(policy=policy) as session:
        session.corpus(runs=960, seed=2024, directory=corpus).result()
        parse_report = parse_directory(corpus, parallel=policy.parallel_config())
        print("== corpus ==")
        print(parse_report.describe())
        print("rejections:", dict(sorted(parse_report.rejection_counts().items())))
        dataset = session.dataset(corpus=corpus)
        result = session.analysis(dataset, table1=True, figures=True).result()
    print()
    print(result.summary())

    print("== figure yearly series ==")
    filtered = result.filtered
    for metric in ("power_per_socket_100", "overall_efficiency", "idle_fraction",
                   "extrapolated_idle_quotient"):
        yearly = bin_by_year(filtered, metric)
        series = {row["hw_avail_year"]: round(row["mean"], 3) for row in yearly.to_records()}
        print(metric, series)

    print("== figure4 medians (70% load) ==")
    data = figure4(filtered).data
    for vendor in ("Intel", "AMD"):
        rows = [r for r in data.to_records()
                if r["vendor"] == vendor and r["load_level"] == 70 and r["count"] > 0]
        print(vendor, {r["year"]: round(r["median"], 3) for r in rows})

    figures_dir = output / "figures"
    result.save_figures(figures_dir)
    print("figures written to", figures_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
