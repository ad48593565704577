"""repro — reproduction of "16 Years of SPEC Power" (CLUSTER 2024).

The package is organised in three layers:

1. **Substrates** that stand in for unavailable dependencies and data:
   :mod:`repro.frame` (columnar tables), :mod:`repro.stats`,
   :mod:`repro.plotting`, :mod:`repro.parallel`, :mod:`repro.powermodel`,
   :mod:`repro.simulator`, :mod:`repro.market`, :mod:`repro.reportgen`,
   :mod:`repro.speccpu`.
2. **Parsing** of SPEC-style result files: :mod:`repro.parser`.
3. **The paper's analysis**: :mod:`repro.core` (dataset assembly, filter
   pipeline, metrics, trends, figures, tables, report).

Quickstart
----------
A :class:`repro.session.Session` fronts the whole pipeline: stages are
lazy, composable methods whose results are content-hash cached in a
workspace directory::

    from repro import Session

    with Session(workspace="ws/") as session:
        runs = session.dataset(runs=120, seed=7).result()
        result = session.analysis().result()
        print(result.summary())

``Session``, ``ExecutionPolicy`` and ``AnalysisResult`` load on first use,
so ``import repro`` stays light for frame-only consumers.
"""

from __future__ import annotations

from .errors import ReproError
from .frame import Column, Frame, concat, read_csv
from .units import MonthDate

__version__ = "1.3.0"

__all__ = [
    "__version__",
    "ReproError",
    "Column",
    "Frame",
    "concat",
    "read_csv",
    "MonthDate",
    "AnalysisResult",
    "Session",
    "ExecutionPolicy",
]

_SESSION_EXPORTS = {"AnalysisResult", "Session", "ExecutionPolicy"}


def __getattr__(name: str):
    # The session layer pulls in the campaign/parser/simulator stack; load
    # it lazily so ``import repro`` stays light for frame-only consumers.
    if name in _SESSION_EXPORTS:
        from . import session as _session_pkg

        value = getattr(_session_pkg, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
