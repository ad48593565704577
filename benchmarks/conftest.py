"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper on a
paper-scale synthetic corpus (960 parsed runs, 1017 files) that is generated
once per session.  Each benchmark times the analysis step that produces the
artefact and prints the rows/series the paper reports so the shapes can be
compared side by side (run ``pytest benchmarks/ --benchmark-only -s``).
"""

from __future__ import annotations

import pytest

from repro.core.filters import apply_paper_filters
from repro.frame import Frame
from repro.session import ExecutionPolicy, Session

PAPER_RUNS = 960
PAPER_SEED = 2024

#: Corpus generation and parsing fan out over a process pool.
PAPER_POLICY = ExecutionPolicy(mode="process", chunk_size=64)


def pytest_addoption(parser):
    parser.addoption(
        "--corpus-runs", action="store", type=int, default=PAPER_RUNS,
        help="number of defect-free synthetic runs used by the benchmarks",
    )


@pytest.fixture(scope="session")
def paper_corpus_dir(tmp_path_factory, request) -> str:
    directory = tmp_path_factory.mktemp("paper_corpus")
    runs = request.config.getoption("--corpus-runs")
    with Session(policy=PAPER_POLICY) as session:
        session.corpus(runs=runs, seed=PAPER_SEED, directory=directory).result()
    return str(directory)


@pytest.fixture(scope="session")
def paper_runs(paper_corpus_dir) -> Frame:
    with Session(policy=PAPER_POLICY) as session:
        return session.dataset(corpus=paper_corpus_dir).result()


@pytest.fixture(scope="session")
def paper_filtered(paper_runs) -> Frame:
    filtered, _ = apply_paper_filters(paper_runs)
    return filtered


def print_rows(title: str, rows) -> None:
    """Uniform row printer used by every benchmark."""
    print(f"\n--- {title} ---")
    for row in rows:
        print("  " + "  ".join(f"{key}={value}" for key, value in row.items()))
