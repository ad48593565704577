"""``spectrends`` command-line interface.

Every sub-command is a thin wrapper over one :class:`repro.session.Session`:
the global ``--workspace`` flag names a persistent session workspace, which
gives each invocation content-hash caching for free — ``spectrends analyze
--workspace ws/ --corpus corpus/`` parses the corpus once, and every later
``analyze``/``figures``/``parse`` over the unchanged corpus reloads the
derived dataset instead of re-parsing it.  Without ``--workspace`` an
ephemeral workspace is used and removed on exit.

Sub-commands mirror the stages of the paper's artifact:

* ``spectrends generate --output corpus/ --runs 960`` — write a synthetic
  corpus of result files,
* ``spectrends parse --corpus corpus/ --output runs.csv`` — parse and
  validate the corpus, writing the flat run table (with ``--runs``/``--seed``
  instead of ``--corpus``, a synthetic corpus is generated first),
* ``spectrends analyze --corpus corpus/`` — run the full analysis and print
  the paper-vs-measured report,
* ``spectrends figures --corpus corpus/ --output figures/`` — regenerate
  Figures 1–6 as SVG + CSV,
* ``spectrends table1`` — print the Table I comparison,
* ``spectrends campaign run|status|resume --store store/`` — execute a
  declarative scenario sweep with content-hash caching and resumption
  (``--shard-size N`` streams it shard by shard in bounded memory, with a
  status line per flushed shard; ``--workers N`` fans the shards out
  across lease-coordinated worker processes),
* ``spectrends campaign worker --store store/`` — attach one more worker
  to a store another invocation is executing (or left unfinished),
* ``spectrends campaign query --store store/ --where "watts > 250"`` —
  filter/project a finished streaming store out of core: the lazy plan
  engine pushes the predicate into each shard's columnar artifact and
  reads only the bytes the answer needs,
* ``spectrends campaign doctor --store store/ [--repair]`` — scan a store
  for torn logs, checksum mismatches, orphaned artifacts and stale
  leases; repairs are conservative and never invent data,
* ``spectrends serve --root svc/`` — long-running campaign service:
  submissions over a local socket, shared-cache dedup across clients,
  streaming progress events.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """Argparse type for flags that must be >= 1 (e.g. ``--shard-size``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _where_literal(raw: str):
    """A ``--where`` right-hand side as the value the column would hold."""
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in {"'", '"'}:
        return text[1:-1]
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_where(text: str):
    """One ``--where`` clause (``column OP value``) as a plan predicate.

    Supports the six comparison operators plus ``== null`` / ``!= null``
    for missingness; unquoted values parse as bool/int/float when they
    can, and as the literal string otherwise.
    """
    import re

    from ..errors import CampaignError
    from ..frame.plan import col

    match = re.match(
        r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(==|!=|<=|>=|<|>)\s*(.+?)\s*$", text
    )
    if not match:
        raise CampaignError(
            f"cannot parse --where {text!r}; expected 'column OP value' "
            "with OP one of == != < <= > >"
        )
    name, op, raw = match.group(1), match.group(2), match.group(3)
    column = col(name)
    if raw.strip().lower() in {"null", "none"} and op in {"==", "!="}:
        return column.isna() if op == "==" else column.notna()
    value = _where_literal(raw)
    import operator

    ops = {
        "==": operator.eq,
        "!=": operator.ne,
        "<": operator.lt,
        "<=": operator.le,
        ">": operator.gt,
        ">=": operator.ge,
    }
    return ops[op](column, value)


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    """Mirror the global session flags onto a subcommand.

    ``SUPPRESS`` defaults keep the subcommand from clobbering a value given
    before the command name, so both ``spectrends --workspace ws analyze``
    and ``spectrends analyze --workspace ws`` work.
    """
    parser.add_argument(
        "--workspace", default=argparse.SUPPRESS,
        help="session workspace directory (cached artifacts are reused "
             "across invocations)",
    )
    parser.add_argument(
        "--jobs", type=int, default=argparse.SUPPRESS,
        help="worker processes for corpus generation/parsing",
    )


def _add_corpus_source(parser: argparse.ArgumentParser) -> None:
    """Flags selecting the corpus a command reads.

    ``--corpus`` names an existing directory; without it, generation is
    implied — a synthetic corpus is produced through the session (cached in
    the workspace) from ``--runs``/``--seed``.
    """
    parser.add_argument(
        "--corpus",
        help="directory of .txt reports (omit to generate a synthetic corpus)",
    )
    parser.add_argument(
        "--runs", type=int, default=960,
        help="runs for the generated corpus when --corpus is omitted "
             "(default: 960, as in the paper)",
    )
    parser.add_argument(
        "--seed", type=int, default=2024,
        help="seed for the generated corpus when --corpus is omitted",
    )
    parser.add_argument(
        "--text-path", action="store_true",
        help="derive the dataset through the full render->parse text "
             "pipeline instead of the parse-bypass fast path (synthetic "
             "corpora only; materialises the report files in the workspace)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrends",
        description="Reproduction of '16 Years of SPEC Power' (CLUSTER 2024)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for corpus generation/parsing (default: 1)",
    )
    parser.add_argument(
        "--workspace", default=None,
        help="session workspace directory; artifacts (corpora, parsed "
             "datasets) are cached here by content hash and reused across "
             "invocations (default: ephemeral)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic result-file corpus")
    generate.add_argument("--output", required=True, help="output directory for .txt reports")
    generate.add_argument("--runs", type=int, default=960,
                          help="number of defect-free runs (default: 960, as in the paper)")
    generate.add_argument("--seed", type=int, default=2024)
    _add_session_flags(generate)

    parse = sub.add_parser("parse", help="parse a corpus into the flat run table (CSV)")
    _add_corpus_source(parse)
    parse.add_argument("--output", required=True, help="CSV file for the parsed run table")
    _add_session_flags(parse)

    analyze = sub.add_parser("analyze", help="run the full analysis and print the report")
    _add_corpus_source(analyze)
    analyze.add_argument("--no-table1", action="store_true", help="skip the Table I computation")
    _add_session_flags(analyze)

    figures = sub.add_parser("figures", help="regenerate Figures 1-6")
    _add_corpus_source(figures)
    figures.add_argument("--output", required=True, help="directory for SVG/CSV figure files")
    _add_session_flags(figures)

    sub.add_parser("table1", help="print the Table I comparison")

    campaign = sub.add_parser(
        "campaign", help="declarative scenario sweeps with caching and resumption"
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)
    crun = csub.add_parser("run", help="expand a spec and execute missing units")
    crun.add_argument("--spec", required=True, help="JSON campaign spec file")
    crun.add_argument("--store", default=None,
                      help="campaign store directory (default: placed in the "
                           "session workspace, keyed by spec content)")
    crun.add_argument("--csv", help="also write the campaign frame to this CSV file")
    crun.add_argument("--max-units", type=int, default=None,
                      help="bound on new simulations this invocation (smoke runs)")
    crun.add_argument("--no-batch", action="store_true",
                      help="force the scalar per-unit simulator instead of the "
                           "vectorized batch kernel")
    crun.add_argument("--shard-size", type=_positive_int, default=None,
                      help="execute the sweep in shards of N units, flushing "
                           "each shard to the store before the next starts "
                           "(bounded-memory streaming; default: unsharded)")
    crun.add_argument("--workers", type=_positive_int, default=None,
                      help="fan shards out across N lease-coordinated worker "
                           "processes (requires --shard-size; results are "
                           "bit-identical to the serial run)")
    crun.add_argument("--retries", type=_positive_int, default=None,
                      help="attempts per unit before it is quarantined as a "
                           "poison unit (requires --shard-size; default: one "
                           "attempt, failures stay pending)")
    _add_session_flags(crun)
    cresume = csub.add_parser(
        "resume", help="continue an interrupted campaign from its store"
    )
    cresume.add_argument("--store", required=True)
    cresume.add_argument("--csv", help="also write the campaign frame to this CSV file")
    cresume.add_argument("--max-units", type=int, default=None)
    cresume.add_argument("--no-batch", action="store_true",
                         help="force the scalar per-unit simulator instead of the "
                              "vectorized batch kernel")
    cresume.add_argument("--shard-size", type=_positive_int, default=None,
                         help="resume shard by shard with this layout "
                              "(default: the layout recorded in the store, "
                              "else unsharded)")
    cresume.add_argument("--workers", type=_positive_int, default=None,
                         help="resume with N lease-coordinated worker "
                              "processes (sharded stores only)")
    cresume.add_argument("--retries", type=_positive_int, default=None,
                         help="attempts per unit before it is quarantined as "
                              "a poison unit (sharded stores only)")
    _add_session_flags(cresume)
    cworker = csub.add_parser(
        "worker",
        help="attach one claim-and-execute worker to an initialised "
             "streaming store (coordination is entirely through the "
             "store's shard ledger; run several against one store)",
    )
    cworker.add_argument("--store", required=True,
                         help="campaign store directory (must already hold a "
                              "streaming run's spec + shard layout)")
    cworker.add_argument("--worker-id", default=None,
                         help="stable name for this worker's lease records "
                              "(default: pid<PID>)")
    cworker.add_argument("--lease-ttl", type=float, default=None,
                         help="seconds before an unrefreshed claim becomes "
                              "reclaimable (default: 120; dead workers are "
                              "reclaimed immediately regardless)")
    cworker.add_argument("--no-batch", action="store_true",
                         help="force the scalar per-unit simulator instead "
                              "of the vectorized batch kernel")
    cworker.add_argument("--retries", type=_positive_int, default=None,
                         help="attempts per unit before it is quarantined "
                              "as a poison unit (default: one attempt)")
    cstatus = csub.add_parser("status", help="report campaign progress")
    cstatus.add_argument("--store", required=True)
    cquery = csub.add_parser(
        "query", help="filter/project a streamed campaign store through the "
                      "lazy plan engine, out of core (reads only the shard "
                      "bytes the plan needs)"
    )
    cquery.add_argument("--store", required=True, help="campaign store directory")
    cquery.add_argument("--where", action="append", default=None, metavar="EXPR",
                        help='row predicate like "watts > 250" or '
                             '"campaign_workload == ssj"; repeatable '
                             "(predicates conjoin)")
    cquery.add_argument("--columns", default=None,
                        help="comma-separated output columns "
                             "(default: every column)")
    cquery.add_argument("--limit", type=_positive_int, default=None,
                        help="stop after the first N matching rows")
    cquery.add_argument("--csv", default=None,
                        help="write matching rows to this file instead of stdout")
    cquery.add_argument("--explain", action="store_true",
                        help="print the optimized plan instead of executing it")
    cwatch = csub.add_parser(
        "watch", help="live per-shard progress, throughput and exact "
                      "quantiles of a campaign store"
    )
    cwatch.add_argument("--store", required=True, help="campaign store directory")
    cwatch.add_argument("--once", action="store_true",
                        help="render one snapshot and exit (CI/smoke mode)")
    cwatch.add_argument("--interval", type=float, default=2.0,
                        help="seconds between repaints (default: 2)")
    cwatch.add_argument("--metric", default=None,
                        help="frame column whose quantiles to show "
                             "(default: the headline efficiency metric)")
    cwatch.add_argument("--width", type=_positive_int, default=72,
                        help="render width in characters (default: 72)")
    cdoctor = csub.add_parser(
        "doctor", help="scan a campaign store for corruption, orphaned "
                       "artifacts and stale leases; --repair fixes what it "
                       "finds without inventing data"
    )
    cdoctor.add_argument("--store", required=True, help="campaign store directory")
    cdoctor.add_argument("--repair", action="store_true",
                         help="apply conservative repairs (atomic log rewrites, "
                              "damaged-artifact deletion + re-execution markers, "
                              "stale-lease release)")
    csubmit = csub.add_parser(
        "submit", help="submit a spec to a running campaign service "
                       "(fair-share scheduled against every other live job)"
    )
    csubmit.add_argument("--root", required=True,
                         help="service root directory (reads service.json "
                              "for the address)")
    csubmit.add_argument("--spec", required=True, help="JSON campaign spec file")
    csubmit.add_argument("--shard-size", type=_positive_int, default=None,
                         help="shard layout for the job (default: the "
                              "service's; part of the job identity)")
    csubmit.add_argument("--workers", type=_positive_int, default=None,
                         help="cap on the job's concurrently in-flight "
                              "shards (default: the whole pool)")
    csubmit.add_argument("--priority", choices=("high", "normal", "low"),
                         default=None,
                         help="fair-share class: deficit-round-robin weight "
                              "4/2/1 (default: normal)")
    csubmit.add_argument("--ttl", type=float, default=None,
                         help="seconds to retain the finished job's store "
                              "before eviction (default: the service's)")
    csubmit.add_argument("--wait", action="store_true",
                         help="stream events until the job is terminal and "
                              "print its result summary")
    ccancel = csub.add_parser(
        "cancel", help="cancel a queued/running service job: in-flight "
                       "shards drain, leases release, the partial store "
                       "stays resumable"
    )
    ccancel.add_argument("--root", required=True, help="service root directory")
    ccancel.add_argument("--job", required=True, help="job id to cancel")
    cjobs = csub.add_parser(
        "jobs", help="list a running campaign service's jobs and states"
    )
    cjobs.add_argument("--root", required=True, help="service root directory")

    serve = sub.add_parser(
        "serve",
        help="long-running campaign service: accept spec submissions over a "
             "local socket, dedup identical units through one shared result "
             "cache, stream progress events to clients",
    )
    serve.add_argument("--root", required=True,
                       help="service root directory (per-job stores under "
                            "jobs/, shared unit cache under results/)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to bind (default: 0 = OS-assigned; the "
                            "bound address is printed on startup)")
    serve.add_argument("--workers", type=_positive_int, default=None,
                       help="default per-job cap on concurrently in-flight "
                            "shards (default: the whole pool)")
    serve.add_argument("--shard-size", type=_positive_int, default=None,
                       help="shard layout for submitted jobs (default: 256)")
    serve.add_argument("--pool", type=_positive_int, default=None,
                       help="shared campaign-worker processes all jobs are "
                            "fair-share scheduled over (default: cpu count, "
                            "clamped to [2, 8])")
    serve.add_argument("--job-ttl", type=float, default=None,
                       help="seconds to retain a finished job's store before "
                            "evicting it from the service root (default: "
                            "keep forever)")

    profile = sub.add_parser(
        "profile", help="inspect span telemetry captured with REPRO_PROFILE=1"
    )
    psub = profile.add_subparsers(dest="profile_command", required=True)
    preport = psub.add_parser(
        "report", help="per-span self-time table from an events.jsonl log"
    )
    source = preport.add_mutually_exclusive_group()
    source.add_argument("--events", help="path to an events.jsonl file")
    source.add_argument("--store", help="campaign store whose events.jsonl to read")
    preport.add_argument("--top", type=_positive_int, default=15,
                         help="span names to list (default: 15)")
    _add_session_flags(preport)  # --workspace ws reads ws/events.jsonl
    return parser


def _retry_from_args(args: argparse.Namespace):
    """The :class:`RetryPolicy` behind ``--retries N`` (None when unset)."""
    retries = getattr(args, "retries", None)
    if retries is None:
        return None
    from ..faults import RetryPolicy

    return RetryPolicy(max_attempts=retries)


def _open_session(args: argparse.Namespace):
    """The session behind this invocation (policy from --jobs/--no-batch)."""
    from ..session.policy import ExecutionPolicy
    from ..session.session import Session

    policy = ExecutionPolicy.from_jobs(
        args.jobs,
        batch=not getattr(args, "no_batch", False),
        shard_size=getattr(args, "shard_size", None),
        retry=_retry_from_args(args),
    )
    return Session(workspace=args.workspace, policy=policy)


def _shard_progress(outcome, total_shards: int) -> None:
    """Streaming status line: one flushed (or reloaded) shard per line."""
    if outcome.reloaded:
        detail = "reloaded from store"
    else:
        detail = f"{outcome.cache_hits} cached, {outcome.simulated} simulated"
    print(
        f"  shard {outcome.index + 1}/{total_shards}: "
        f"{outcome.n_rows}/{outcome.n_units} rows ({detail})",
        flush=True,
    )


def _dataset(session, args: argparse.Namespace):
    """The dataset handle a corpus-reading command operates on."""
    text_path = getattr(args, "text_path", False)
    if args.corpus is not None:
        return session.dataset(corpus=args.corpus, text_path=text_path)
    return session.dataset(runs=args.runs, seed=args.seed, text_path=text_path)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    with _open_session(args) as session:
        return _dispatch(session, args)


def _dispatch(session, args: argparse.Namespace) -> int:
    if args.command == "generate":
        report = session.corpus(
            runs=args.runs, seed=args.seed, directory=args.output
        ).result()
        print(report.describe())
        return 0

    if args.command == "parse":
        dataset = _dataset(session, args)
        frame = dataset.result()
        print(dataset.summary().describe())
        frame.to_csv(args.output)
        print(f"wrote {len(frame)} runs x {len(frame.columns)} columns to {args.output}")
        return 0

    if args.command == "analyze":
        result = session.analysis(
            _dataset(session, args), table1=not args.no_table1
        ).result()
        print(result.summary())
        return 0

    if args.command == "figures":
        result = session.analysis(
            _dataset(session, args), table1=False, figures=True
        ).result()
        written = result.save_figures(args.output)
        for path in written:
            print(f"wrote {path}")
        return 0

    if args.command == "campaign":
        from ..errors import CampaignError

        # A missing or corrupt store is an operator mistake, not a crash:
        # report it as one line on stderr instead of a traceback.
        try:
            if args.campaign_command in ("submit", "cancel", "jobs"):
                from ..service import ServiceClient

                client = ServiceClient.for_root(args.root)
                if args.campaign_command == "submit":
                    import json
                    from pathlib import Path

                    payload = json.loads(
                        Path(args.spec).read_text(encoding="utf-8")
                    )
                    job = client.submit(
                        payload,
                        shard_size=args.shard_size,
                        workers=args.workers,
                        priority=args.priority,
                        ttl=args.ttl,
                    )
                    print(
                        f"job {job['job']}: state={job['state']} "
                        f"n_units={job['n_units']} "
                        f"priority={job['priority']} "
                        f"deduped={str(job['deduped']).lower()}"
                    )
                    if args.wait:
                        result = client.wait(job["job"])
                        print(
                            f"completed {result['completed']}"
                            f"/{result['total_units']} units in "
                            f"{result['total_shards']} shard(s) "
                            f"(cache hits {result['cache_hits']}, "
                            f"simulated {result['simulated']}, "
                            f"reloaded {result.get('reloaded', 0)})"
                        )
                    return 0
                if args.campaign_command == "cancel":
                    response = client.cancel(args.job)
                    print(f"job {response['job']}: {response['state']}")
                    return 0
                for job in client.jobs():
                    line = (
                        f"{job['job']}  {job['state']:<11} "
                        f"units={job['n_units']} priority={job['priority']}"
                    )
                    if job.get("evicted"):
                        line += " evicted"
                    print(line)
                return 0
            if args.campaign_command == "status":
                from ..campaign import CampaignStore

                print(CampaignStore(args.store).status().describe())
                return 0
            if args.campaign_command == "watch":
                from ..obs.watch import watch

                watch(
                    args.store,
                    once=args.once,
                    interval=args.interval,
                    metric=args.metric,
                    width=args.width,
                )
                return 0
            if args.campaign_command == "worker":
                import os

                from ..campaign import run_worker
                from ..campaign.leases import DEFAULT_LEASE_TTL

                worker_id = args.worker_id or f"pid{os.getpid()}"
                ttl = DEFAULT_LEASE_TTL if args.lease_ttl is None else args.lease_ttl
                shards = run_worker(
                    args.store,
                    worker_id,
                    batch=not args.no_batch,
                    lease_ttl=ttl,
                    handle_sigterm=True,
                    retry=_retry_from_args(args),
                )
                print(f"worker {worker_id}: flushed {shards} shard(s)")
                return 0
            if args.campaign_command == "doctor":
                from ..campaign import doctor_store

                report = doctor_store(args.store, repair=args.repair)
                print(report.describe())
                return 0 if not report.unresolved else 1
            if args.campaign_command == "query":
                from ..campaign import scan_shards
                from ..frame.csvio import frame_to_csv_text

                plan = scan_shards(args.store)
                if args.where:
                    for clause in args.where:
                        plan = plan.filter(_parse_where(clause))
                if args.columns:
                    names = [c.strip() for c in args.columns.split(",") if c.strip()]
                    plan = plan.select(names)
                if args.limit is not None:
                    plan = plan.head(args.limit)
                if args.explain:
                    print(plan.explain())
                    return 0
                frame = plan.collect()
                if args.csv:
                    frame.to_csv(args.csv)
                    print(f"wrote {len(frame)} rows to {args.csv}")
                else:
                    sys.stdout.write(frame_to_csv_text(frame))
                return 0
            if args.campaign_command == "run":
                if args.store is None and args.workspace is None:
                    print(
                        "error: campaign run needs --store or --workspace "
                        "(an ephemeral workspace would discard the store on exit)",
                        file=sys.stderr,
                    )
                    return 2
                if args.workers is not None and args.shard_size is None:
                    print(
                        "error: --workers needs --shard-size (shards are "
                        "the unit of distribution)",
                        file=sys.stderr,
                    )
                    return 2
                if args.retries is not None and args.shard_size is None:
                    print(
                        "error: --retries needs --shard-size (retry rounds "
                        "and quarantine are per-shard mechanics)",
                        file=sys.stderr,
                    )
                    return 2
                handle = session.campaign(
                    args.spec,
                    store=args.store,
                    max_units=args.max_units,
                    progress=_shard_progress,
                    workers=args.workers,
                )
                result = handle.result()
            else:  # resume
                from ..campaign import (
                    CampaignStore,
                    resume_campaign,
                    resume_streaming,
                )

                # A store that recorded a shard layout resumes at shard
                # granularity; --shard-size overrides (or enables) it.
                shard_size = args.shard_size
                if shard_size is None:
                    shard_size = CampaignStore(args.store).stored_shard_size()
                if shard_size is not None:
                    result = resume_streaming(
                        args.store,
                        shard_size=shard_size,
                        max_units=args.max_units,
                        policy=session.policy,
                        progress=_shard_progress,
                        workers=args.workers,
                    )
                else:
                    result = resume_campaign(
                        args.store,
                        max_units=args.max_units,
                        policy=session.policy,
                    )
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.describe())
        if args.csv:
            from ..campaign import StreamingCampaignResult

            # Streaming CSV export re-reads the shard artifacts, so it can
            # hit the same store corruption the run/resume block guards —
            # keep it one clean line too.
            try:
                if isinstance(result, StreamingCampaignResult):
                    if result.completed:
                        rows = result.write_csv(args.csv)
                        print(f"wrote {rows} rows to {args.csv}")
                    else:
                        print(f"no completed units; {args.csv} not written")
                elif len(result.frame):
                    result.frame.to_csv(args.csv)
                    print(f"wrote {len(result.frame)} rows to {args.csv}")
                else:
                    print(f"no completed units; {args.csv} not written")
            except CampaignError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        return 0 if not result.failures else 2

    if args.command == "serve":
        from ..service import serve_forever

        return serve_forever(
            root=args.root,
            host=args.host,
            port=args.port,
            workers=args.workers,
            shard_size=args.shard_size,
            pool=args.pool,
            job_ttl=args.job_ttl,
        )

    if args.command == "profile":
        from ..errors import CampaignError
        from ..obs.profile import (
            aggregate_spans,
            load_events,
            render_profile,
            resolve_events_path,
        )

        try:
            path = resolve_events_path(
                events=args.events, workspace=args.workspace, store=args.store
            )
            stats = aggregate_spans(load_events(path))
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_profile(stats, top=args.top))
        return 0

    if args.command == "table1":
        for row in session.table1():
            print(
                f"{row.benchmark:18s} {row.system:24s} {row.cpu_model:28s} "
                f"result {row.result:>10.1f} factor {row.factor:.2f} "
                f"(paper {row.paper_result:.0f} / {row.paper_factor:.2f})"
            )
        return 0

    return 1  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
