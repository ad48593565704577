"""Typed, lazily-evaluated artifact handles.

A handle names one pipeline artifact — a corpus on disk, the derived run
frame, an analysis, a campaign — by the content hash of everything that
determines it (stage parameters, upstream artifact keys, catalog content).
``result()`` is the only way to get the value: it checks the session memo,
then the workspace store, and only then computes — so invoking the same
stage twice does the work once, and a warm workspace reloads instantly
across processes.

Handles are cheap to create; nothing is parsed, simulated or loaded until
``result()`` is called.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..frame import Frame

if TYPE_CHECKING:  # import-cycle-safe: only the type checker needs these
    from ..core.report import PaperComparison
    from ..campaign.runner import CampaignResult
    from ..campaign.sharding import StreamingCampaignResult
    from ..campaign.spec import CampaignSpec
    from ..reportgen.writer import CorpusGenerationReport
    from ..simulator.director import SimulationOptions
    from .session import Session

__all__ = [
    "AnalysisResult",
    "ArtifactHandle",
    "CorpusHandle",
    "DatasetHandle",
    "DatasetSummary",
    "AnalysisHandle",
    "CampaignHandle",
]


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of the paper's analysis pipeline over a run frame."""

    unfiltered: Frame
    filtered: Frame
    comparison: "PaperComparison"
    figures: tuple = ()

    def summary(self) -> str:
        """Human-readable paper-vs-measured summary."""
        return self.comparison.to_text()

    @property
    def era_comparisons(self) -> list[str]:
        """Names of the scalar findings available in the comparison."""
        return [finding.name for finding in self.comparison.findings]

    def save_figures(self, directory: str | os.PathLike) -> list[Path]:
        written: list[Path] = []
        for artifact in self.figures:
            written.extend(artifact.save(directory))
        return written


@dataclass(frozen=True)
class DatasetSummary:
    """Parse funnel of a dataset artifact (available warm, without records)."""

    directory: str
    parsed_count: int
    rejected: tuple[tuple[str, str], ...]  # (file_name, reason)

    @property
    def total_files(self) -> int:
        return self.parsed_count + len(self.rejected)

    def rejection_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, reason in self.rejected:
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    def describe(self) -> str:
        reasons = ", ".join(
            f"{reason}: {count}"
            for reason, count in sorted(self.rejection_counts().items())
        )
        return (
            f"{self.total_files} files in {self.directory}: "
            f"{self.parsed_count} parsed, {len(self.rejected)} rejected "
            f"({reasons or 'none'})"
        )


# --------------------------------------------------------------------------- #
class ArtifactHandle:
    """Base class: content key + memo/store/compute resolution order."""

    kind: str = "artifact"

    def __init__(self, session: "Session", key: str):
        self._session = session
        self._key = key

    @property
    def session(self) -> "Session":
        return self._session

    @property
    def key(self) -> str:
        """Content hash identifying this artifact."""
        return self._key

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.kind}:{self._key[:12]}>"

    # ------------------------------------------------------------------ #
    @property
    def _memo_key(self) -> str:
        """The session-memo key: the content key, unless a subclass's value
        also depends on *where* it was produced (see ``CampaignHandle``)."""
        return self._key

    @property
    def in_memory(self) -> bool:
        """Whether the result is already memoized in this session."""
        return self._session._memo_has(self.kind, self._memo_key)

    @property
    def is_cached(self) -> bool:
        """Whether ``result()`` would return without recomputing."""
        return self.in_memory or self._stored()

    def result(self) -> Any:
        """The artifact value: memoized, else loaded warm, else computed."""
        from ..obs.trace import get_tracer

        with get_tracer().span(f"session.{self.kind}", key=self._key[:12]) as span:
            if self._session._memo_has(self.kind, self._memo_key):
                span.set("source", "memo")
                return self._session._memo_get(self.kind, self._memo_key)
            value = self._load()
            if value is not None:
                span.set("source", "store")
            else:
                span.set("source", "compute")
                value = self._compute()
            self._session._memo_put(self.kind, self._memo_key, value)
            return value

    # Subclass protocol ------------------------------------------------- #
    def _stored(self) -> bool:
        """Whether a warm on-disk artifact exists (memo aside)."""
        return False

    def _load(self) -> Any | None:
        """Rebuild the value from the workspace store; ``None`` on a miss."""
        return None

    def _compute(self) -> Any:
        """Compute the value (persisting it when the stage supports it)."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
class CorpusHandle(ArtifactHandle):
    """A synthetic corpus of SPEC-style result files.

    The artifact is a *directory* of ``.txt`` reports; the store keeps the
    generation record (location, counts) so a warm session returns without
    re-simulating a single run.  A handle bound to an explicit ``directory``
    (the ``spectrends generate --output`` flow) always regenerates — external
    directories are the caller's to manage, not the workspace's.
    """

    kind = "corpus"

    def __init__(
        self,
        session: "Session",
        key: str,
        runs: int,
        seed: int,
        options: "SimulationOptions",
        directory: str | os.PathLike | None = None,
    ):
        super().__init__(session, key)
        self.runs = runs
        self.seed = seed
        self.options = options
        self._explicit = Path(directory) if directory is not None else None
        self._materialized: "CorpusGenerationReport | None" = None

    @property
    def directory(self) -> Path:
        """Where the report files live (or will live once computed)."""
        if self._explicit is not None:
            return self._explicit
        return self._session._corpus_root() / self._key[:16]

    @property
    def is_external(self) -> bool:
        """Whether the handle writes to a caller-managed directory."""
        return self._explicit is not None

    def result(self) -> "CorpusGenerationReport":
        # The content key excludes the directory (two corpora with the same
        # inputs are the same artifact *content*), so an explicit-directory
        # handle must stay out of the shared memo entirely: it neither
        # serves a workspace report for a directory that was never written,
        # nor poisons the memo for workspace handles with the same key.
        # The handle itself still generates at most once — downstream
        # datasets call ``result()`` to materialise their upstream, and one
        # handle must not re-simulate the corpus per dataset operation.
        if self._explicit is not None:
            if self._materialized is None:
                self._materialized = self._compute()
            return self._materialized
        return super().result()

    # ------------------------------------------------------------------ #
    def _record(self) -> dict | None:
        record = self._session._store_for(self.kind).get(self._key)
        if record is None or self._explicit is not None:
            return None
        directory = Path(record["directory"])
        # Guard against a pruned or hand-edited workspace: the record is
        # only trusted while the file tree still matches it.
        if not directory.is_dir():
            return None
        if sum(1 for _ in directory.glob("*.txt")) != record["total_files"]:
            return None
        return record

    def _stored(self) -> bool:
        return self._record() is not None

    def _load(self) -> "CorpusGenerationReport | None":
        record = self._record()
        if record is None:
            return None
        from ..reportgen.writer import CorpusGenerationReport

        return CorpusGenerationReport(
            directory=Path(record["directory"]),
            total_files=record["total_files"],
            clean_runs=record["clean_runs"],
            defective_runs=record["defective_runs"],
            seed=record["seed"],
        )

    def _compute(self) -> "CorpusGenerationReport":
        from ..obs.trace import get_tracer
        from ..reportgen import generate_corpus_files

        with get_tracer().span("corpus.generate", runs=self.runs):
            report = generate_corpus_files(
                self.directory,
                total_parsed_runs=self.runs,
                seed=self.seed,
                parallel=self._session.policy.parallel_config(),
                options=self.options,
                # None for the default catalog keeps worker payloads small.
                catalog=self._session._worker_catalog(),
            )
        if self._explicit is None:
            self._session._store_for(self.kind).put(
                self._key,
                {
                    "directory": str(report.directory),
                    "total_files": report.total_files,
                    "clean_runs": report.clean_runs,
                    "defective_runs": report.defective_runs,
                    "seed": report.seed,
                },
            )
        return report


# --------------------------------------------------------------------------- #
class DatasetHandle(ArtifactHandle):
    """The derived analysis frame of one corpus.

    Cold, a *workspace* corpus takes the parse-bypass fast path: the fleet is
    simulated and every :class:`RunRecord` is derived directly from its
    :class:`RunResult` (:func:`repro.reportgen.derive_corpus_report`) —
    bit-identical to the render→parse round trip, without rendering a single
    report.  External corpora (a path, or a caller-managed ``directory=``)
    are parsed and validated exactly as :func:`repro.core.dataset.load_runs`
    would — the text path stays the only route for files the session did not
    derive itself.

    The derived frame is then persisted as a binary ``.npz`` columnar
    sidecar (values + validity mask per column; JSON keeps the metadata and
    the parse funnel), so every later invocation — same session or a new
    process over the same workspace — reloads typed arrays without JSON row
    decoding, type inference or re-derivation.  Legacy JSON-row artifacts
    written by earlier versions still load transparently.  Keyed by the
    upstream corpus key (session corpora) or by the content digest of the
    file tree (external corpora), so editing one report file invalidates the
    dataset and everything downstream.
    """

    kind = "dataset"

    def __init__(
        self,
        session: "Session",
        key: str,
        source: "CorpusHandle | Path",
        text_path: bool = False,
        mmap: bool = False,
    ):
        super().__init__(session, key)
        self._source = source
        self._text_path = text_path
        self._mmap = mmap

    @property
    def _memo_key(self) -> str:
        # A mapped frame and an eager frame are the same *artifact* (the
        # content key is shared — mmap is a load knob, not a stage input)
        # but different in-memory values, so they memoize separately.
        return f"{self._key}/mmap" if self._mmap else self._key

    @property
    def uses_mmap(self) -> bool:
        """Whether ``result()`` returns an out-of-core, memmap-backed frame.

        Requires a persisted columnar sidecar: ephemeral workspaces and
        caller-managed corpus directories never persist one, so they fall
        back to the eager heap frame (same values, different residency).
        """
        return self._mmap and self._persists

    @property
    def corpus(self) -> "CorpusHandle | None":
        """The upstream corpus handle (``None`` for external directories)."""
        return self._source if isinstance(self._source, CorpusHandle) else None

    @property
    def directory(self) -> Path:
        return self._source.directory if self.corpus else Path(self._source)

    @property
    def _persists(self) -> bool:
        """Whether the rows artifact is written to / trusted from disk.

        Ephemeral workspaces die with the session (the memo already covers
        in-process reuse), and caller-managed corpus directories may drift
        from their generation key — neither may serve rows across processes.
        """
        if self._session._ephemeral:
            return False
        corpus = self.corpus
        return corpus is None or not corpus.is_external

    @property
    def uses_parse_bypass(self) -> bool:
        """Whether this dataset derives records directly from simulation.

        True exactly for workspace-managed synthetic corpora (unless the
        handle was created with ``text_path=True``); external directories
        always go through the render→parse text path.
        """
        if self._text_path:
            return False
        corpus = self.corpus
        return corpus is not None and not corpus.is_external

    # ------------------------------------------------------------------ #
    def _stored(self) -> bool:
        return self._persists and self._key in self._session._store_for(self.kind)

    @staticmethod
    def _build(rows: list[dict]) -> Frame:
        from ..core.dataset import derive_columns

        frame = Frame.from_records(rows)
        if len(frame) > 0:
            frame = derive_columns(frame)
        return frame

    def _load(self) -> Frame | None:
        if not self._persists:
            return None
        store = self._session._store_for(self.kind)
        payload = store.get(self._key)
        if payload is None:
            return None
        if "columns" in payload:
            sidecar = store.sidecar_path(self._key)
            if not sidecar.exists():  # pruned sidecar: treat as a miss
                return None
            if self._mmap:
                from ..frame.mmapio import open_frame_npz

                return open_frame_npz(sidecar, payload["columns"])
            from .columnar import frame_from_arrays

            arrays = store.get_arrays(self._key)
            if arrays is None:
                return None
            return frame_from_arrays(payload["columns"], arrays)
        return self._build(payload["rows"])  # legacy JSON-row artifact

    def _compute(self) -> Frame:
        report = self._derive() if self.uses_parse_bypass else self._parse()
        rows = [record.to_dict() for record in report.records]
        frame = self._build(rows)
        if self._persists:
            from .columnar import frame_to_arrays

            meta, arrays = frame_to_arrays(frame)
            self._session._store_for(self.kind).put(
                self._key,
                {
                    "directory": report.directory,
                    "parsed_count": len(rows),
                    "rejected": [[f.file_name, f.reason] for f in report.rejected],
                    "columns": meta,
                },
                arrays=arrays,
            )
            if self._mmap:
                # Serve the freshly persisted sidecar as a mapped frame so a
                # cold mmap=True call honours the residency contract too.
                mapped = self._load()
                if mapped is not None:
                    return mapped
        return frame

    def _derive(self):
        """Parse-bypass funnel: simulate + derive records, no text round trip."""
        from ..obs.trace import get_tracer
        from ..reportgen.records import derive_corpus_report

        corpus = self.corpus
        policy = self._session.policy
        with get_tracer().span("dataset.derive", runs=corpus.runs):
            return derive_corpus_report(
                corpus.directory,
                total_parsed_runs=corpus.runs,
                seed=corpus.seed,
                options=corpus.options,
                catalog=self._session._worker_catalog(),
                parallel=policy.parallel_config(),
                batch=policy.use_batch_kernel,
            )

    def _parse(self):
        """Parse the corpus directory (materialising it first if needed)."""
        from ..obs.trace import get_tracer
        from ..parser import parse_directory

        if self.corpus is not None:
            self.corpus.result()  # materialise the upstream artifact
        with get_tracer().span("dataset.parse"):
            return parse_directory(
                self.directory, parallel=self._session.policy.parallel_config()
            )

    # ------------------------------------------------------------------ #
    def parse_report(self):
        """The full :class:`CorpusParseReport` (always a fresh text parse).

        Always exercises the render→parse route — materialising a workspace
        corpus if needed — so it stays a ground-truth cross-check against the
        bypass-derived artifact.
        """
        return self._parse()

    def summary(self) -> DatasetSummary:
        """The parse funnel, from the warm store when possible."""
        if self._persists:
            payload = self._session._store_for(self.kind).get(self._key)
            if payload is None:
                self.result()  # computes and persists the payload
                payload = self._session._store_for(self.kind).get(self._key)
            if payload is not None:
                parsed = payload.get("parsed_count")
                if parsed is None:  # legacy JSON-row artifact
                    parsed = len(payload["rows"])
                return DatasetSummary(
                    directory=payload["directory"],
                    parsed_count=parsed,
                    rejected=tuple(
                        (name, reason) for name, reason in payload["rejected"]
                    ),
                )
        report = self._derive() if self.uses_parse_bypass else self._parse()
        return DatasetSummary(
            directory=report.directory,
            parsed_count=report.parsed_count,
            rejected=tuple((f.file_name, f.reason) for f in report.rejected),
        )


# --------------------------------------------------------------------------- #
class AnalysisHandle(ArtifactHandle):
    """An analysis over one dataset.

    ``name="paper"`` runs the full reproduction pipeline (filters, headline
    findings, Table I, correlation study, optionally figures) and returns an
    :class:`AnalysisResult`; any other name dispatches to an analysis
    registered on the session.  Results are memoized per content key; the
    dataset they read comes from the warm store, so a repeated analysis over
    an unchanged corpus performs no parsing and no simulation.
    """

    kind = "analysis"

    def __init__(
        self,
        session: "Session",
        key: str,
        dataset: DatasetHandle,
        name: str = "paper",
        table1: bool = True,
        figures: bool = False,
    ):
        super().__init__(session, key)
        self.dataset = dataset
        self.name = name
        self._table1 = table1
        self._figures = figures

    def _compute(self) -> Any:
        frame = self.dataset.result()
        if self.name == "paper":
            return self._session.analyze_frame(
                frame, table1=self._table1, figures=self._figures
            )
        fn: Callable[[Frame], Any] = self._session._registered_analysis(self.name)
        return fn(frame)


# --------------------------------------------------------------------------- #
class CampaignHandle(ArtifactHandle):
    """A declarative scenario sweep executed into a resumable store.

    Campaigns carry their own content-addressed unit cache; the handle adds
    workspace placement (one store directory per spec + catalog content) and
    session memoization on top, so ``session.campaign(spec)`` composes with
    the other stages without giving up resumption or the unit cache.
    """

    kind = "campaign"

    def __init__(
        self,
        session: "Session",
        key: str,
        spec: "CampaignSpec",
        store_dir: Path,
        max_units: int | None = None,
        shard_size: int | None = None,
        progress: Callable | None = None,
        workers: int | None = None,
    ):
        super().__init__(session, key)
        self.spec = spec
        self.store_dir = Path(store_dir)
        self.max_units = max_units
        self._explicit_shard_size = shard_size
        self._progress = progress
        self._explicit_workers = workers

    @property
    def shard_size(self) -> int | None:
        """Units per shard, or ``None`` for unsharded execution.

        An explicit ``session.campaign(..., shard_size=)`` wins; otherwise
        the session policy's shard layout (``shard_size`` clamped by
        ``max_resident_results``) applies.
        """
        if self._explicit_shard_size is not None:
            return self._explicit_shard_size
        return self._session.policy.effective_shard_size

    @property
    def sharded(self) -> bool:
        """Whether ``result()`` runs the streaming (bounded-memory) path."""
        return self.shard_size is not None

    @property
    def workers(self) -> int | None:
        """Worker-pool fan-out for the streaming path (``None`` = serial).

        An explicit ``session.campaign(..., workers=)`` wins; otherwise the
        policy decides (:attr:`ExecutionPolicy.campaign_workers`).  Only
        sharded, uncapped runs fan out — shards are the unit of
        distribution, and caps are per-run, not per-worker.
        """
        if not self.sharded or self.max_units is not None:
            return None
        if self._explicit_workers is not None:
            return self._explicit_workers
        return self._session.policy.campaign_workers

    @property
    def _memo_key(self) -> str:
        # The same spec executed into two different stores produces two
        # distinct on-disk artifacts: the memo must not serve one store's
        # result for the other.  The shard layout is folded in as well —
        # a sharded run returns a StreamingCampaignResult (rows on disk),
        # an unsharded one a CampaignResult (resident frame), and the memo
        # must never hand out one in place of the other.
        from .artifacts import digest_json

        return digest_json(
            {
                "campaign": self._key,
                "store": str(self.store_dir),
                "shard_size": self.shard_size,
            }
        )

    def _stored(self) -> bool:
        try:
            return self.status().is_complete
        except Exception:
            return False

    def result(self) -> "CampaignResult | StreamingCampaignResult":
        # A bounded run (max_units) is an execution request, not an
        # artifact: execute every time (the unit cache keeps repeats cheap)
        # and leave the memo to unbounded, complete results.
        if self.max_units is not None:
            return self._compute()
        return super().result()

    def _compute(self) -> "CampaignResult | StreamingCampaignResult":
        policy = self._session.policy
        if self.sharded:
            from ..campaign import stream_campaign

            return stream_campaign(
                self.spec,
                self.store_dir,
                catalog=self._session._worker_catalog(),
                shard_size=self.shard_size,
                max_units=self.max_units,
                batch=policy.use_batch_kernel,
                progress=self._progress,
                workers=self.workers,
                retry=policy.retry,
                policy=policy if policy.faults is not None else None,
            )
        from ..campaign import run_campaign

        return run_campaign(
            self.spec,
            self.store_dir,
            parallel=policy.parallel_config(),
            # None for the default catalog keeps worker payloads small.
            catalog=self._session._worker_catalog(),
            max_units=self.max_units,
            batch=policy.use_batch_kernel,
        )

    # ------------------------------------------------------------------ #
    def frame(self) -> Frame:
        result = self.result()
        if self.sharded:
            # Materialises every shard — only sensible at sizes the
            # unsharded runner could also hold.
            return result.frame()
        return result.frame

    def status(self):
        """Fresh progress snapshot from the on-disk store."""
        from ..campaign import CampaignStore

        return CampaignStore(self.store_dir).status()

    def resume(self, max_units: int | None = None) -> "StreamingCampaignResult":
        """Continue an interrupted campaign at its recorded shard layout.

        Every store resumes streaming, so a resume never materialises the
        plan.  The layout is this handle's explicit ``shard_size``, else the
        one the store recorded, else the policy's.  Only a sharded handle's
        complete, unbounded result refreshes the session memo: an unsharded
        handle's artifact is the resident :class:`CampaignResult`.
        """
        from ..campaign import CampaignStore, resume_streaming

        policy = self._session.policy
        shard_size = self._explicit_shard_size
        if shard_size is None:
            stored = CampaignStore(self.store_dir).stored_shard_size()
            shard_size = stored or policy.effective_shard_size
        result = resume_streaming(
            self.store_dir,
            catalog=self._session._worker_catalog(),
            shard_size=shard_size,
            max_units=max_units,
            batch=policy.use_batch_kernel,
            progress=self._progress,
            # A capped resume is a budgeted top-up; fan-out is for
            # full runs only (caps are per-run, not per-worker).
            workers=None if max_units is not None else self.workers,
            retry=policy.retry,
            policy=policy if policy.faults is not None else None,
        )
        if max_units is None and self.sharded:
            self._session._memo_put(self.kind, self._memo_key, result)
        return result
