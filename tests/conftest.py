"""Shared fixtures.

A small synthetic corpus is generated once per session and reused by the
parser, core and integration tests; keeping it at ~160 clean runs makes the
whole suite run in seconds while still covering every year and both vendors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.filters import apply_paper_filters
from repro.frame import Frame
from repro.market import FleetSampler, default_catalog
from repro.session import Session
from repro.session.session import analyze_frame
from repro.simulator import RunDirector, SimulationOptions

CORPUS_RUNS = 160
CORPUS_SEED = 424242


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("corpus")
    with Session() as session:
        session.corpus(runs=CORPUS_RUNS, seed=CORPUS_SEED, directory=directory).result()
    return str(directory)


@pytest.fixture(scope="session")
def run_frame(corpus_dir) -> Frame:
    """Parsed + derived run table of the session corpus."""
    with Session() as session:
        return session.dataset(corpus=corpus_dir).result()


@pytest.fixture(scope="session")
def filtered_frame(run_frame) -> Frame:
    filtered, _ = apply_paper_filters(run_frame)
    return filtered


@pytest.fixture(scope="session")
def analysis_result(run_frame):
    return analyze_frame(run_frame, table1=False, figures=False)


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def sample_fleet(catalog):
    return FleetSampler(total_parsed_runs=60, catalog=catalog).sample(seed=7)


@pytest.fixture(scope="session")
def sample_results(sample_fleet):
    """A handful of simulated runs covering several eras and both vendors."""
    director = RunDirector(options=SimulationOptions())
    return [director.run(plan) for plan in sample_fleet.systems[:20]]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def tiny_frame() -> Frame:
    """A small hand-written frame used by the frame/stats unit tests."""
    return Frame.from_dict(
        {
            "year": [2007, 2008, 2008, 2017, 2020, 2023],
            "vendor": ["Intel", "Intel", "AMD", "Intel", "AMD", "AMD"],
            "power": [210.0, 190.0, None, 350.0, 280.0, 720.0],
            "sockets": [2, 2, 2, 2, 1, 2],
        }
    )
