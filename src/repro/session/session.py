"""The session: one composable, cached entry point for every pipeline stage.

A :class:`Session` owns

* a **workspace** directory holding the content-addressed
  :class:`~repro.session.artifacts.ArtifactStore` plus the materialised
  corpora and campaign stores (``workspace=None`` uses an ephemeral
  temporary directory, removed when the session closes),
* an :class:`~repro.session.policy.ExecutionPolicy` describing how stages
  turn into CPU time (serial / thread / process pools, vectorized or scalar
  simulation kernel),
* the **catalog** of CPU platforms and the extension registries
  (:meth:`register_platform`, :meth:`register_workload`,
  :meth:`register_analysis`) through which new scenario families plug in
  without touching core modules.

Stages are lazy, composable methods returning typed handles::

    with Session(workspace="ws/") as session:
        corpus = session.corpus(runs=960, seed=2024)     # nothing runs yet
        runs = session.dataset().result()                # generate + parse
        report = session.analysis(figures=True).result() # full paper pipeline
        sweep = session.campaign("spec.json").result()   # cached campaign

Every handle is keyed by the content hash of its inputs and upstream
artifact keys; invoking a stage twice does the work once, and re-opening the
same workspace in a new process reloads warm artifacts instead of
recomputing them — a warm re-``analysis`` over an unchanged corpus performs
zero parsing and zero simulation.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Mapping

from ..errors import SessionError
from ..frame import Frame
from .artifacts import ArtifactStore, digest_json, digest_tree
from .handles import (
    AnalysisHandle,
    AnalysisResult,
    CampaignHandle,
    CorpusHandle,
    DatasetHandle,
)
from .policy import ExecutionPolicy

__all__ = ["Session", "analyze_frame"]


def analyze_frame(
    runs: Frame,
    table1: bool = True,
    figures: bool = False,
) -> AnalysisResult:
    """Run the paper's analysis pipeline over an in-memory run frame.

    This is the workspace-free core of :meth:`Session.analysis`.
    """
    from ..core.dataset import derive_columns
    from ..core.figures import all_figures
    from ..core.filters import apply_paper_filters
    from ..core.report import build_report

    if "overall_efficiency" not in runs:
        runs = derive_columns(runs)
    comparison = build_report(runs, include_table1=table1)
    filtered, _ = apply_paper_filters(runs)
    rendered = tuple(all_figures(runs, filtered)) if figures else ()
    return AnalysisResult(
        unfiltered=runs, filtered=filtered, comparison=comparison, figures=rendered
    )

#: Bump when a stage's persisted artifact layout or its derivation changes;
#: old workspace entries then miss instead of surfacing stale results.
#: (The dataset stage's ``.npz`` columnar sidecar did *not* bump the schema:
#: new payloads carry a ``columns`` field, legacy ``rows`` payloads still
#: load, and both describe the same bit-identical frame — so existing
#: workspaces stay warm across the format change.)
STAGE_SCHEMAS: Mapping[str, int] = {
    "corpus": 1,
    "dataset": 1,
    "analysis": 1,
    "campaign": 1,
}

#: Process-wide digest of the default catalog.  ``default_catalog()`` is
#: memoized per process, so its content digest is a constant — computing it
#: per Session (~2 ms of dataclass flattening) used to dominate warm
#: dataset reloads from fresh sessions, e.g. every CLI invocation.
_DEFAULT_CATALOG_DIGEST: str | None = None


class Session:
    """Workspace-backed facade over the whole pipeline.

    Parameters
    ----------
    workspace:
        Directory holding the artifact store, materialised corpora and
        campaign stores.  ``None`` creates an ephemeral temporary workspace
        removed on :meth:`close` (or garbage collection).
    policy:
        Default :class:`ExecutionPolicy` for every stage.
    catalog:
        CPU platform catalog; defaults to the paper's market catalog.
        Extended at runtime via :meth:`register_platform`.
    """

    def __init__(
        self,
        workspace: str | os.PathLike | None = None,
        policy: ExecutionPolicy | None = None,
        catalog=None,
    ):
        self._ephemeral = workspace is None
        if self._ephemeral:
            workspace = tempfile.mkdtemp(prefix="spectrends-session-")
            self._cleanup = weakref.finalize(
                self, shutil.rmtree, workspace, ignore_errors=True
            )
        else:
            self._cleanup = None
        self.workspace = Path(workspace)
        self.policy = policy or ExecutionPolicy()
        self.store = ArtifactStore(self.workspace / "store")

        # Tracing: opt-in via policy.profile or REPRO_TRACE/REPRO_PROFILE.
        # When on, stage and hot-path spans land in the workspace's
        # events.jsonl; when off, the no-op tracer path costs ~nothing.
        from ..obs.trace import JsonlSink, get_tracer

        self._trace_sink: JsonlSink | None = None
        self._trace_enabled_here = False
        tracer = get_tracer()
        if self.policy.profile and not tracer.enabled:
            tracer.enabled = True
            self._trace_enabled_here = True
        if tracer.enabled:
            self._trace_sink = tracer.add_sink(JsonlSink(self.events_path))

        from ..market.catalog import default_catalog

        self._catalog = default_catalog() if catalog is None else catalog
        # ``None`` while the default catalog is in use: worker payloads then
        # ship no catalog and each worker rebuilds the default locally.
        self._custom_catalog = catalog
        self._catalog_digest: str | None = None
        self._memo: dict[tuple[str, str], Any] = {}
        self._last: dict[str, Any] = {}

        from ..simulator.director import WORKLOAD_PRESETS

        self._workloads = dict(WORKLOAD_PRESETS)
        self._analyses: dict[str, tuple[Callable[[Frame], Any], str]] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def events_path(self) -> Path:
        """The workspace's span/event log (written only when tracing is on)."""
        return self.workspace / "events.jsonl"

    @property
    def tracer(self):
        """The process tracer this session's stages report spans to."""
        from ..obs.trace import get_tracer

        return get_tracer()

    def close(self) -> None:
        """Drop the memo; remove the workspace if it is ephemeral."""
        self._memo.clear()
        self._last.clear()
        if self._trace_sink is not None:
            self.tracer.remove_sink(self._trace_sink)
            self._trace_sink = None
        if self._trace_enabled_here:
            self.tracer.enabled = False
            self._trace_enabled_here = False
        if self._cleanup is not None:
            self._cleanup()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        flavour = "ephemeral" if self._ephemeral else "persistent"
        return (
            f"<Session workspace={str(self.workspace)!r} ({flavour}), "
            f"policy={self.policy.mode!r}, {len(self._memo)} memoized>"
        )

    # ------------------------------------------------------------------ #
    # Internal plumbing used by the handles
    # ------------------------------------------------------------------ #
    def _store_for(self, kind: str) -> ArtifactStore:
        return self.store.scope(kind, schema=STAGE_SCHEMAS.get(kind, 1))

    def _corpus_root(self) -> Path:
        return self.workspace / "corpora"

    def _campaign_root(self) -> Path:
        return self.workspace / "campaigns"

    def _memo_has(self, kind: str, key: str) -> bool:
        return (kind, key) in self._memo

    def _memo_get(self, kind: str, key: str) -> Any:
        return self._memo.get((kind, key))

    def _memo_put(self, kind: str, key: str, value: Any) -> None:
        self._memo[(kind, key)] = value

    def clear_memo(self) -> int:
        """Forget in-memory results (on-disk artifacts stay warm)."""
        count = len(self._memo)
        self._memo.clear()
        return count

    # ------------------------------------------------------------------ #
    # Catalog + extension registries
    # ------------------------------------------------------------------ #
    @property
    def catalog(self):
        return self._catalog

    def _worker_catalog(self):
        """What execution payloads ship: ``None`` for the default catalog."""
        return self._custom_catalog

    def catalog_digest(self) -> str:
        """Content digest of the catalog (folded into corpus/campaign keys)."""
        if self._catalog_digest is None:
            global _DEFAULT_CATALOG_DIGEST
            if self._custom_catalog is None and _DEFAULT_CATALOG_DIGEST is not None:
                self._catalog_digest = _DEFAULT_CATALOG_DIGEST
                return self._catalog_digest
            from ..campaign.cache import entry_digest

            self._catalog_digest = digest_json(
                [entry_digest(entry) for entry in self._catalog.entries]
            )
            if self._custom_catalog is None:
                _DEFAULT_CATALOG_DIGEST = self._catalog_digest
        return self._catalog_digest

    def register_platform(self, entry, replace: bool = False) -> None:
        """Add a :class:`CatalogEntry` to this session's catalog.

        Corpus and campaign keys fold in the catalog content, so registering
        a platform naturally invalidates only artifacts that depend on it.
        """
        from ..market.catalog import Catalog

        entries = list(self._catalog.entries)
        existing = [e for e in entries if e.cpu.model == entry.cpu.model]
        if existing and not replace:
            raise SessionError(
                f"platform {entry.cpu.model!r} is already in the catalog "
                "(pass replace=True to override)"
            )
        entries = [e for e in entries if e.cpu.model != entry.cpu.model]
        entries.append(entry)
        self._catalog = Catalog(entries)
        self._custom_catalog = self._catalog
        self._catalog_digest = None

    def register_workload(self, name: str, options, replace: bool = False) -> None:
        """Register a named :class:`SimulationOptions` bundle.

        The name becomes valid as the ``workload=`` argument of
        :meth:`corpus`, :meth:`dataset` and :meth:`campaign`.
        """
        from ..simulator.director import SimulationOptions

        if not isinstance(options, SimulationOptions):
            raise SessionError("register_workload expects a SimulationOptions")
        if name in self._workloads and not replace:
            raise SessionError(
                f"workload {name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._workloads[name] = options

    def register_analysis(
        self,
        name: str,
        fn: Callable[[Frame], Any],
        version: str = "1",
        replace: bool = False,
    ) -> None:
        """Register a custom analysis: a callable over the derived run frame.

        Invoke it with ``session.analysis(name=<name>)``.  ``version`` is
        folded into the content key (callables cannot be hashed), so bumping
        it invalidates memoized results of an updated analysis.
        """
        if name == "paper":
            raise SessionError("the name 'paper' is reserved for the built-in pipeline")
        if name in self._analyses and not replace:
            raise SessionError(
                f"analysis {name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._analyses[name] = (fn, version)

    def _registered_analysis(self, name: str) -> Callable[[Frame], Any]:
        try:
            return self._analyses[name][0]
        except KeyError:
            raise SessionError(
                f"unknown analysis {name!r}; registered: "
                f"{sorted(self._analyses) or 'none'}"
            ) from None

    @property
    def workloads(self) -> tuple[str, ...]:
        """Names of the registered workload presets."""
        return tuple(sorted(self._workloads))

    @property
    def analyses(self) -> tuple[str, ...]:
        """Names of the registered custom analyses (``paper`` is implicit)."""
        return tuple(sorted(self._analyses))

    def _resolve_options(self, workload, options):
        from ..simulator.director import SimulationOptions

        if workload is not None and options is not None:
            raise SessionError("pass either workload= or options=, not both")
        if workload is not None:
            try:
                return self._workloads[workload]
            except KeyError:
                raise SessionError(
                    f"unknown workload {workload!r}; registered: "
                    f"{sorted(self._workloads)}"
                ) from None
        return options or SimulationOptions()

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def corpus(
        self,
        runs: int = 960,
        seed: int = 2024,
        workload: str | None = None,
        options=None,
        directory: str | os.PathLike | None = None,
    ) -> CorpusHandle:
        """A synthetic corpus of ``runs`` defect-free result files.

        With ``directory`` the files are written to that exact path (always
        regenerated — external directories are not workspace artifacts);
        without it the corpus is materialised once under the workspace and
        reused by key.
        """
        resolved = self._resolve_options(workload, options)
        key = digest_json(
            {
                "stage": "corpus",
                "schema": STAGE_SCHEMAS["corpus"],
                "runs": int(runs),
                "seed": int(seed),
                "options": asdict(resolved),
                "catalog": self.catalog_digest(),
            }
        )
        handle = CorpusHandle(
            self, key, runs=int(runs), seed=int(seed), options=resolved,
            directory=directory,
        )
        self._last["corpus"] = handle
        return handle

    def dataset(
        self,
        corpus: "CorpusHandle | str | os.PathLike | None" = None,
        runs: int | None = None,
        seed: int | None = None,
        workload: str | None = None,
        options=None,
        text_path: bool = False,
        mmap: bool = False,
    ) -> DatasetHandle:
        """The derived analysis frame of a corpus.

        ``corpus`` may be a :class:`CorpusHandle`, a path to an external
        corpus directory (keyed by the content digest of its files), or
        ``None``.  With ``corpus=None`` and no generation arguments, the
        session's most recent :meth:`corpus` handle is reused; passing any
        of ``runs``/``seed``/``workload``/``options`` always resolves a
        corpus from those arguments (defaults 960 / 2024).

        Synthetic workspace corpora derive their records directly from the
        simulation results (the parse bypass — bit-identical to the text
        round trip, see :class:`DatasetHandle`); ``text_path=True`` forces
        the render→parse route instead.  Like the execution policy, the
        route is excluded from the content key: both produce the same
        artifact.

        ``mmap=True`` loads the persisted columnar sidecar as an
        out-of-core frame: numeric columns become memmap views
        (:class:`repro.frame.MmapColumn`) so a dataset larger than RAM
        stays queryable, with ``memory_usage(deep=True)`` reporting the
        resident-vs-mapped split honestly.  Also a load knob, also
        excluded from the content key — the artifact is identical either
        way, and workspaces that never persist (ephemeral sessions,
        external ``directory=`` corpora) fall back to the eager frame.
        """
        if corpus is None:
            explicit_args = (
                runs is not None or seed is not None
                or workload is not None or options is not None
            )
            if not explicit_args and "corpus" in self._last:
                corpus = self._last["corpus"]
            else:
                corpus = self.corpus(
                    runs=960 if runs is None else runs,
                    seed=2024 if seed is None else seed,
                    workload=workload,
                    options=options,
                )
        if isinstance(corpus, CorpusHandle):
            source: "CorpusHandle | Path" = corpus
            upstream = {"corpus": corpus.key}
            if corpus.is_external:
                # An explicit directory is the caller's to manage: its
                # contents are not guaranteed to match the generation key,
                # so derived datasets must not be trusted across processes.
                upstream["directory"] = str(corpus.directory)
        else:
            source = Path(corpus)
            if self._ephemeral:
                # The workspace dies with the session, so the key only has
                # to be stable in-process: skip the tree hash (which reads
                # every corpus file) and key by location instead.
                upstream = {"path": str(source.resolve())}
            else:
                upstream = {"tree": digest_tree(source)}
        key = digest_json(
            {
                "stage": "dataset",
                "schema": STAGE_SCHEMAS["dataset"],
                "source": upstream,
            }
        )
        handle = DatasetHandle(self, key, source, text_path=text_path, mmap=mmap)
        self._last["dataset"] = handle
        return handle

    def analysis(
        self,
        dataset: "DatasetHandle | None" = None,
        name: str = "paper",
        table1: bool = True,
        figures: bool = False,
    ) -> AnalysisHandle:
        """An analysis over a dataset (the paper pipeline, or a registered one).

        ``dataset=None`` uses the session's most recent :meth:`dataset`
        handle (creating the default one if no stage ran yet).
        """
        if dataset is None:
            dataset = self._last.get("dataset") or self.dataset()
        if name == "paper":
            version = "1"
        else:
            self._registered_analysis(name)  # fail fast on unknown names
            version = self._analyses[name][1]
        key = digest_json(
            {
                "stage": "analysis",
                "schema": STAGE_SCHEMAS["analysis"],
                "dataset": dataset.key,
                "name": name,
                "version": version,
                "table1": bool(table1),
                "figures": bool(figures),
            }
        )
        self._last["analysis"] = handle = AnalysisHandle(
            self, key, dataset, name=name, table1=table1, figures=figures
        )
        return handle

    def campaign(
        self,
        spec,
        store: str | os.PathLike | None = None,
        max_units: int | None = None,
        workload: str | None = None,
        shard_size: int | None = None,
        progress: Callable | None = None,
        workers: int | None = None,
    ) -> CampaignHandle:
        """A declarative scenario sweep executed into a resumable store.

        ``spec`` may be a :class:`CampaignSpec`, a mapping in the same shape
        or a path to a JSON spec file.  ``store`` overrides the workspace
        placement (``<workspace>/campaigns/<name>-<key prefix>``).  A
        ``workload`` preset supplies base values for option axes the spec
        leaves unset.

        Without a shard layout the handle runs resident
        (:func:`~repro.campaign.runner.run_campaign`: shards of
        ``chunk_size x workers`` units, the whole frame returned in memory
        as a :class:`~repro.campaign.runner.CampaignResult`).
        ``shard_size`` routes execution through the sharded streaming
        runner instead (resident memory O(shard_size), result a
        :class:`~repro.campaign.sharding.StreamingCampaignResult`); the
        session policy's ``shard_size``/``max_resident_results`` supply the
        default.  ``resume()`` always streams.  ``workers`` fans a sharded
        run out across that many lease-coordinated worker processes
        (default: the policy's ``campaign_workers``); results are
        bit-identical for any worker count, so like every execution knob it
        stays out of the keys.
        ``progress`` is invoked after every flushed shard (the CLI's
        streaming status line) and, being an observer, never enters any
        key.
        """
        from ..campaign import CampaignSpec

        if isinstance(spec, (str, os.PathLike)):
            spec = CampaignSpec.from_json_file(spec)
        elif isinstance(spec, Mapping):
            spec = CampaignSpec.from_dict(spec)
        if workload is not None:
            spec = self._apply_workload(spec, workload)
        # The key names the campaign *artifact* (spec + catalog content).
        # max_units is an execution bound, not content: it must not change
        # the key, or a bounded smoke run would land in a different default
        # store than the full run that later completes it.  The shard layout
        # is likewise excluded here (rows and store placement are layout
        # independent) — but it *is* folded into the handle's memo key,
        # because sharded and unsharded runs return different result types.
        key = digest_json(
            {
                "stage": "campaign",
                "schema": STAGE_SCHEMAS["campaign"],
                "spec": spec.to_dict(),
                "catalog": self.catalog_digest(),
            }
        )
        if store is None:
            store = self._campaign_root() / f"{spec.name}-{key[:12]}"
        handle = CampaignHandle(
            self,
            key,
            spec,
            Path(store),
            max_units=max_units,
            shard_size=shard_size,
            progress=progress,
            workers=workers,
        )
        self._last["campaign"] = handle
        return handle

    def _apply_workload(self, spec, workload: str):
        """Fold a workload preset into a spec as base option-axis defaults."""
        from ..campaign import CampaignSpec
        from ..campaign.spec import OPTION_AXES
        from ..simulator.director import SimulationOptions

        preset = self._resolve_options(workload, None)
        defaults = SimulationOptions()
        base = dict(spec.base)
        for axis in OPTION_AXES:
            value = getattr(preset, axis)
            if axis in spec.sweep or axis in base:
                continue  # explicit spec values win
            if value != getattr(defaults, axis):
                base[axis] = value
        return CampaignSpec(
            name=spec.name, sweep=spec.sweep, base=base, expansion=spec.expansion
        )

    # ------------------------------------------------------------------ #
    # Direct computations (no upstream artifact to key by)
    # ------------------------------------------------------------------ #
    def analyze_frame(
        self,
        runs: Frame,
        table1: bool = True,
        figures: bool = False,
    ) -> AnalysisResult:
        """Run the paper's analysis pipeline over an in-memory run frame."""
        return analyze_frame(runs, table1=table1, figures=figures)

    def table1(self) -> tuple:
        """The Table I comparison rows (computed once per session)."""
        memo = self._memo_get("table1", "static")
        if memo is None:
            from ..core.tables import table1

            memo = tuple(table1())
            self._memo_put("table1", "static", memo)
        return memo
