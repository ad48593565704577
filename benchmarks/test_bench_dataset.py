"""Benchmarks of the dataset substrate itself: corpus generation and parsing.

These are not tied to a single figure but measure the two stages every other
experiment depends on (Section II of the paper: download + parse + check).
"""

from __future__ import annotations

import pytest

from repro.parallel import ParallelConfig
from repro.parser import parse_directory
from repro.session import Session


@pytest.mark.benchmark(group="dataset")
def test_bench_corpus_generation(benchmark, tmp_path):
    """Simulate and write a 120-run corpus (scaled-down generation stage)."""

    counter = {"i": 0}

    def generate():
        counter["i"] += 1
        out = tmp_path / f"gen-{counter['i']}"
        with Session() as session:
            return session.corpus(runs=120, seed=7, directory=out).result()

    report = benchmark(generate)
    assert report.total_files > 120


@pytest.mark.benchmark(group="dataset")
def test_bench_corpus_parsing(benchmark, paper_corpus_dir):
    """Parse + validate the full paper-scale corpus (serial path)."""
    report = benchmark(parse_directory, paper_corpus_dir)
    assert report.parsed_count > 0
    print(f"\nparsed {report.parsed_count} of {report.total_files} files; "
          f"rejections: {report.rejection_counts()}")


@pytest.mark.benchmark(group="dataset")
def test_bench_corpus_parsing_parallel(benchmark, paper_corpus_dir):
    """Parse + validate the full corpus on a process pool."""
    config = ParallelConfig(backend="process", chunk_size=64)
    report = benchmark(parse_directory, paper_corpus_dir, config)
    assert report.parsed_count > 0
