"""Shard-granular fair-share scheduling for the campaign service.

The service used to execute jobs one at a time on one executor thread, so
a 100k-unit sweep head-of-line-blocked every later submission.  The
:class:`FairScheduler` replaces that queue with Slurm-style fair sharing
at *shard* granularity: every ``queued``/``running`` job is multiplexed
over one shared pool of worker processes, and the next shard to dispatch
is chosen by **deficit round-robin** across jobs — each job accrues
deficit in proportion to its priority weight on every scheduling round
and spends it per dispatched unit, so a 16-unit job interleaves with (and
finishes long before) a streaming mega-sweep.

The pool is the campaign engine's :class:`~repro.campaign.sharding
.WorkerPool`; the scheduler keeps it for the service's life and respawns
workers that die.

Bit-identity under interleaving
-------------------------------
Pool workers never aggregate.  A dispatched shard runs through
:func:`~repro.campaign.sharding.run_shard` — a lease claim around
:func:`~repro.campaign.sharding.execute_shard`, the shard step every other
runner takes — whose only side effect is the shard's content-addressed
artifact plus its ledger record.  When a job's shards are all resolved,
a **serial finalize pass** (plain
:func:`~repro.campaign.sharding.stream_campaign` over the same store)
reloads the artifacts in shard order and reduces the aggregate exactly as
a clean serial run would.  Which worker executed a shard, and what it
interleaved with, can therefore never change a single byte of the job's
result — the same argument that pinned N-worker == serial identity.

The scheduler journals every decision (dispatch, result, worker death,
respawn, job lifecycle) to ``<root>/scheduler.jsonl`` — the ledger CI's
fairness gate asserts against and uploads as an artifact.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Callable, Iterator

from ..campaign import CampaignSpec, CampaignStore, stream_campaign
from ..campaign.leases import LeaseLedger
from ..campaign.sharding import (
    Shard,
    ShardTask,
    ShardTaskResult,
    WorkerPool,
    _shard_recorded_complete,
    iter_shards,
)
from ..errors import CampaignError
from ..io.jsonl import append_jsonl

__all__ = [
    "PRIORITY_WEIGHTS",
    "Job",
    "FairScheduler",
]

#: Deficit-round-robin weights per priority class: a ``high`` job accrues
#: scheduling credit 4x as fast as a ``low`` one.  Weights shape *latency*
#: only — every class makes progress on every round (no starvation), and
#: no class can change any job's computed bytes.
PRIORITY_WEIGHTS = {"high": 4, "normal": 2, "low": 1}

#: Dispatch attempts per shard before the scheduler stops handing it to
#: workers and leaves it for the job's serial finalize pass.  Two retries
#: absorb a killed/crashed worker; a shard that fails three *processes*
#: has a problem the authoritative serial pass should surface.
MAX_SHARD_ATTEMPTS = 3

_TERMINAL_STATES = ("complete", "failed", "cancelled")


@dataclass
class Job:
    """One submitted campaign: identity, store, lifecycle, scheduling knobs.

    Lifecycle: ``queued -> running -> finalizing -> complete`` with three
    exits — ``failed`` (finalize raised), ``cancelled`` (via ``cancel`` op
    or service drain; the partial store stays resumable), and back to
    ``queued`` when a resubmission revives a cancelled/failed/evicted job.
    ``cancelling`` is the transient between a cancel request and its
    in-flight shards draining.
    """

    job_id: str
    spec: CampaignSpec
    store_dir: Path
    shard_size: int
    cap: int | None = None  # max in-flight shards; None = pool size
    priority: str = "normal"
    ttl: float | None = None  # seconds to retain the store once terminal
    state: str = "queued"
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    summary: dict[str, Any] | None = None
    evicted: bool = False
    cancel_requested: bool = False
    resubmit_pending: bool = False

    @property
    def done(self) -> bool:
        return self.state in _TERMINAL_STATES

    def describe(self) -> dict[str, Any]:
        info: dict[str, Any] = {
            "job": self.job_id,
            "name": self.spec.name,
            "state": self.state,
            "n_units": self.spec.n_units,
            "shard_size": self.shard_size,
            "workers": self.cap or 1,
            "priority": self.priority,
            "store": str(self.store_dir),
        }
        if self.ttl is not None:
            info["ttl"] = self.ttl
        if self.evicted:
            info["evicted"] = True
        if self.error is not None:
            info["error"] = self.error
        return info

    def reset_for_resubmit(
        self, cap: int | None, priority: str, ttl: float | None
    ) -> None:
        """Revive a cancelled/failed/evicted job for a fresh run.

        The job object (and id) is reused so every client polling the old
        id observes the rerun; the store is reused too — a cancelled job's
        complete shards reload instead of re-executing.
        """
        self.cap = cap
        self.priority = priority
        self.ttl = ttl
        self.state = "queued"
        self.error = None
        self.summary = None
        self.evicted = False
        self.cancel_requested = False
        self.resubmit_pending = False
        self.submitted_at = time.time()
        self.finished_at = None


# --------------------------------------------------------------------------- #
# The fair scheduler
# --------------------------------------------------------------------------- #
class _JobRun:
    """Scheduler-side runtime state of one admitted job."""

    __slots__ = (
        "job",
        "store",
        "shard_iter",
        "buffer",
        "recorded",
        "deficit",
        "in_flight",
        "attempts",
        "abandoned",
        "resolved",
        "total_shards",
        "exhausted",
        "dispatched_units",
        "simulated",
        "cache_hits",
        "reloaded_units",
        "turn_accrued",
    )

    def __init__(self, job: Job, store: CampaignStore):
        self.job = job
        self.store = store
        self.shard_iter: Iterator[Shard] = iter_shards(
            job.spec, None, shard_size=job.shard_size
        )
        self.buffer: deque[Shard] = deque()  # requeued shards go here first
        # Admit-time snapshot of recorded shard results: what a resumed or
        # re-run store already holds.  Shards completed *during* this run
        # come back through the result queue, so the snapshot never needs
        # refreshing inside the dispatch loop.
        self.recorded = store.shard_entries()
        self.deficit = 0.0
        self.in_flight: dict[int, str] = {}  # shard index -> worker id
        self.attempts: dict[int, int] = {}
        self.abandoned: set[int] = set()
        self.resolved = 0
        self.total_shards = -(-job.spec.n_units // job.shard_size)
        self.exhausted = False
        self.dispatched_units = 0
        # True work accounting from the pool: the finalize pass only ever
        # reloads, so its own counters say nothing about what the job cost.
        self.simulated = 0
        self.cache_hits = 0
        # Units satisfied by already-recorded shards (resume/revival) —
        # neither simulated nor unit-cache hits, but not lost work either.
        self.reloaded_units = 0
        # Whether this run's current DRR turn has received its quantum.
        self.turn_accrued = False

    @property
    def weight(self) -> int:
        return PRIORITY_WEIGHTS.get(self.job.priority, PRIORITY_WEIGHTS["normal"])

    @property
    def quantum(self) -> float:
        return float(self.weight * self.job.shard_size)

    def next_shard(self) -> Shard | None:
        """The next shard needing a worker, skipping recorded-complete ones."""
        while True:
            if self.buffer:
                return self.buffer.popleft()
            if self.exhausted:
                return None
            shard = next(self.shard_iter, None)
            if shard is None:
                self.exhausted = True
                return None
            if _shard_recorded_complete(shard, self.recorded.get(shard.index)):
                # Resume: a prior run (or a cancelled first attempt) already
                # landed this shard — no worker round-trip needed, the
                # finalize pass will reload it.
                self.resolved += 1
                self.reloaded_units += shard.n_units
                continue
            return shard

    def has_pending(self) -> bool:
        return bool(self.buffer) or not self.exhausted

    def populate_done(self) -> bool:
        return not self.has_pending() and not self.in_flight


class FairScheduler:
    """Deficit-round-robin multiplexer of all live jobs over one worker pool.

    One scheduler thread owns all mutable scheduling state; the server's
    handler threads communicate through a locked inbox (:meth:`enqueue`,
    :meth:`request_cancel`) and read a per-loop immutable snapshot
    (:meth:`stats`).  A separate finalizer thread runs each populated
    job's serial aggregate pass so a long finalize never stalls dispatch.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        results_dir: str | os.PathLike | None,
        pool_size: int,
        jobs_provider: Callable[[], list[Job]] | None = None,
        poll_interval: float = 0.02,
    ):
        self.root = Path(root)
        self.results_dir = Path(results_dir) if results_dir is not None else None
        self.ledger_path = self.root / "scheduler.jsonl"
        self.pool_size = pool_size
        self.poll_interval = poll_interval
        self._jobs_provider = jobs_provider or (lambda: [])
        self._pool = WorkerPool(pool_size)
        self._inbox: deque[Job] = deque()
        self._inbox_lock = threading.Lock()
        self._runs: dict[str, _JobRun] = {}
        self._rotation: deque[str] = deque()  # DRR visit order over job ids
        self._finalize_queue: "Queue[tuple[Job, int, int, int] | None]" = Queue()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._finalizer: threading.Thread | None = None
        self._snapshot: dict[str, Any] = {"pool": [], "active": []}

    # -- lifecycle ------------------------------------------------------- #
    def start(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self._pool.start()
        self._ledger("scheduler_start", pool=self.pool_size)
        self._thread = threading.Thread(
            target=self._loop, name="service-scheduler", daemon=True
        )
        self._finalizer = threading.Thread(
            target=self._finalize_loop, name="service-finalizer", daemon=True
        )
        self._thread.start()
        self._finalizer.start()
        self._publish_snapshot()

    def stop(self, timeout: float = 60.0) -> bool:
        """Drain and shut down; returns ``False`` if threads failed to join.

        The drain finishes **in-flight shards only**: running jobs flip to
        ``cancelled`` with their partial stores intact (every landed shard
        reloads on resubmit or ``campaign resume``), jobs already fully
        populated still get their (cheap, reload-only) finalize pass, and
        queued jobs report ``cancelled`` rather than vanishing.
        """
        self._stop.set()
        deadline = time.monotonic() + timeout
        if self._thread is not None:
            self._thread.join(timeout=max(deadline - time.monotonic(), 0.1))
        if self._finalizer is not None:
            self._finalizer.join(timeout=max(deadline - time.monotonic(), 0.1))
        joined = not (
            (self._thread is not None and self._thread.is_alive())
            or (self._finalizer is not None and self._finalizer.is_alive())
        )
        self._ledger("scheduler_stop", joined=joined)
        return joined

    # -- server-facing API (any thread) ---------------------------------- #
    def enqueue(self, job: Job) -> None:
        """Hand a queued job to the scheduler loop."""
        with self._inbox_lock:
            self._inbox.append(job)
        self._ledger(
            "job_queued",
            job=job.job_id,
            n_units=job.spec.n_units,
            priority=job.priority,
            cap=job.cap,
            ttl=job.ttl,
        )
        self._record_job_event(job, "job_queued", priority=job.priority)

    def request_cancel(self, job: Job) -> bool:
        """Flag a queued/running job for cancellation; loop does the rest."""
        if job.done or job.state == "finalizing":
            return False
        job.cancel_requested = True
        if job.state in ("queued", "running"):
            job.state = "cancelling"
        self._ledger("cancel_requested", job=job.job_id)
        return True

    def stats(self) -> dict[str, Any]:
        """The last published scheduling snapshot (immutable; lock-free)."""
        return self._snapshot

    # -- ledger ----------------------------------------------------------- #
    def _ledger(self, record: str, **fields: Any) -> None:
        entry: dict[str, Any] = {"record": record, "ts": time.time()}
        entry.update(fields)
        try:
            append_jsonl(self.ledger_path, [entry])
        except OSError:  # pragma: no cover - ledger loss must not stop work
            pass

    def _record_job_event(self, job: Job, name: str, **fields: Any) -> None:
        try:
            store = CampaignStore(job.store_dir, results_dir=self.results_dir)
            store.record_event(name, job=job.job_id, **fields)
        except (OSError, CampaignError):  # pragma: no cover - telemetry only
            pass

    # -- scheduler loop (scheduler thread only) --------------------------- #
    def _loop(self) -> None:
        while True:
            try:
                if self._loop_once():
                    return
            except Exception as exc:  # the loop must never die silently:
                # one bad iteration (a corrupted store, a torn queue) is
                # journaled and skipped; every job it can't progress stays
                # visible in status rather than wedging the whole service.
                self._ledger(
                    "scheduler_error", error=f"{type(exc).__name__}: {exc}"
                )
                time.sleep(self.poll_interval)

    def _loop_once(self) -> bool:
        """One scheduling round; returns ``True`` once shutdown completes."""
        stopping = self._stop.is_set()
        self._drain_results()
        self._reap_workers(respawn=not stopping)
        self._admit(stopping)
        self._process_cancellations()
        if not stopping:
            self._dispatch()
        self._evict_expired()
        self._publish_snapshot()
        if stopping and self._drained():
            self._shutdown_runs()
            self._pool.shutdown()
            self._finalize_queue.put(None)
            self._publish_snapshot()
            return True
        self._tick()
        return False

    def _tick(self) -> None:
        """Block on the result queue for one poll interval (the loop clock)."""
        try:
            result = self._pool.result_queue.get(timeout=self.poll_interval)
        except (Empty, OSError):
            return
        self._handle_result(result)

    def _drained(self) -> bool:
        """Whether every in-flight shard has resolved (shutdown barrier)."""
        return all(not run.in_flight for run in self._runs.values())

    def _shutdown_runs(self) -> None:
        """Terminal-state every remaining run for a service drain."""
        for run in list(self._runs.values()):
            job = run.job
            if job.done or job.state == "finalizing":
                continue
            job.state = "cancelled"
            job.error = (
                "service shut down mid-run; completed shards are stored — "
                "resubmit (or `campaign resume` the store) to continue"
            )
            job.finished_at = time.time()
            self._ledger("job_cancelled", job=job.job_id, reason="shutdown")
        self._runs.clear()
        self._rotation.clear()
        with self._inbox_lock:
            pending = list(self._inbox)
            self._inbox.clear()
        for job in pending:
            if not job.done:
                job.state = "cancelled"
                job.error = "service shut down before the job ran"
                job.finished_at = time.time()
                self._ledger("job_cancelled", job=job.job_id, reason="shutdown")

    # -- results ----------------------------------------------------------- #
    def _drain_results(self) -> None:
        while True:
            try:
                result = self._pool.result_queue.get_nowait()
            except (Empty, OSError):
                return
            except Exception:  # pragma: no cover - torn pickle from a kill
                continue
            self._handle_result(result)

    def _handle_result(self, result: ShardTaskResult) -> None:
        task = self._pool.finish(result.worker)
        self._ledger(
            "result",
            job=result.job_id,
            index=result.index,
            worker=result.worker,
            status=result.status,
            error=result.error,
            n_rows=result.n_rows,
            reloaded=result.reloaded,
            wall_s=round(result.wall_s, 6),
        )
        run = self._runs.get(result.job_id)
        if run is None:
            return  # job was cancelled/shut down while the shard ran
        worker_id = run.in_flight.pop(result.index, None)
        if worker_id is None:
            return
        if result.status == "ok":
            run.resolved += 1
            run.simulated += result.simulated
            run.cache_hits += result.cache_hits
            if result.reloaded:
                # A worker found the shard already landed (racing claim or
                # artifact-probe recovery): its units did not run anywhere.
                run.reloaded_units += self._shard_for(run, result, task).n_units
        elif result.status == "held":
            # A live foreign claim (external `campaign worker`) — revisit
            # later without burning an attempt.
            run.attempts[result.index] = max(run.attempts.get(result.index, 1) - 1, 0)
            run.buffer.append(self._shard_for(run, result, task))
        else:
            attempts = run.attempts.get(result.index, 1)
            if attempts < MAX_SHARD_ATTEMPTS and not run.job.cancel_requested:
                run.buffer.append(self._shard_for(run, result, task))
            else:
                run.abandoned.add(result.index)
                run.resolved += 1
        self._maybe_finalize(run)

    @staticmethod
    def _shard_for(
        run: _JobRun, result: ShardTaskResult, task: ShardTask | None
    ) -> Shard:
        """The shard a result refers to, rebuilt by re-expansion if needed."""
        if (
            task is not None
            and task.job_id == result.job_id
            and task.shard.index == result.index
        ):
            return task.shard
        for shard in iter_shards(  # pragma: no cover - defensive fallback
            run.job.spec, None, shard_size=run.job.shard_size
        ):
            if shard.index == result.index:
                return shard
        raise CampaignError(  # pragma: no cover - expansion is deterministic
            f"shard {result.index} vanished from {run.job.job_id}'s expansion"
        )

    # -- worker management -------------------------------------------------- #
    def _reap_workers(self, respawn: bool) -> None:
        for worker_id, lost in self._pool.reap_dead():
            self._ledger(
                "worker_exit",
                worker=worker_id,
                job=lost.job_id if lost else None,
                index=lost.shard.index if lost else None,
            )
            if lost is not None:
                run = self._runs.get(lost.job_id)
                if run is not None and run.in_flight.pop(lost.shard.index, None):
                    # The dead worker's flushed-but-unrecorded work (if any)
                    # is adopted on retry via the recover probe; its lease
                    # self-invalidates (dead pid), so requeue is immediate.
                    attempts = run.attempts.get(lost.shard.index, 1)
                    if attempts < MAX_SHARD_ATTEMPTS:
                        run.buffer.append(lost.shard)
                    else:
                        run.abandoned.add(lost.shard.index)
                        run.resolved += 1
                    self._maybe_finalize(run)
            if respawn:
                worker = self._pool.spawn()
                self._ledger(
                    "respawn", worker=worker.worker_id, pid=worker.process.pid
                )

    # -- admission ---------------------------------------------------------- #
    def _admit(self, stopping: bool) -> None:
        with self._inbox_lock:
            incoming = list(self._inbox)
            self._inbox.clear()
        for job in incoming:
            if stopping:
                job.state = "cancelled"
                job.error = "service shut down before the job ran"
                job.finished_at = time.time()
                self._ledger("job_cancelled", job=job.job_id, reason="shutdown")
                continue
            if job.cancel_requested:
                self._finish_cancel(job, run=None)
                continue
            try:
                store = CampaignStore(job.store_dir, results_dir=self.results_dir)
                store.initialize_streaming(job.spec, job.shard_size)
            except (OSError, CampaignError) as exc:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
                self._ledger("job_failed", job=job.job_id, error=job.error)
                continue
            job.state = "running"
            run = _JobRun(job, store)
            self._runs[job.job_id] = run
            self._rotation.append(job.job_id)
            self._ledger(
                "job_admit",
                job=job.job_id,
                shards=run.total_shards,
                priority=job.priority,
                weight=run.weight,
            )
            store.record_event(
                "job_start",
                job=job.job_id,
                n_units=job.spec.n_units,
                n_shards=run.total_shards,
                priority=job.priority,
            )

    # -- deficit round-robin dispatch --------------------------------------- #
    def _advance_rotation(self, run: _JobRun) -> None:
        """End ``run``'s DRR turn: send it to the back, fresh accrual next."""
        self._rotation.rotate(-1)
        run.turn_accrued = False

    def _dispatch(self) -> None:
        """Deficit round-robin with *turn-holding* semantics.

        The front job keeps the floor across dispatch rounds until its
        turn's deficit is spent (or it blocks on its cap / runs out of
        shards); running out of **idle workers** does *not* end a turn.
        This matters because results trickle back one at a time: if the
        rotation advanced on every visit, each returning worker would go
        to whichever job happened to be in front and the share would
        collapse to 1:1 regardless of weights.  Holding the turn makes the
        long-run unit share proportional to each job's quantum
        (priority weight x shard size), which is the whole point.
        """
        idle = self._pool.idle_workers()
        fruitless = 0
        while idle and self._rotation and fruitless < len(self._rotation):
            job_id = self._rotation[0]
            run = self._runs.get(job_id)
            if run is None:  # stale id: the run was removed elsewhere
                self._rotation.popleft()
                continue
            if run.job.cancel_requested or not run.has_pending():
                self._advance_rotation(run)
                fruitless += 1
                continue
            cap = run.job.cap or self.pool_size
            if len(run.in_flight) >= cap:
                # Cap-blocked: no deficit accrual, so no banked burst later.
                self._advance_rotation(run)
                fruitless += 1
                continue
            if not run.turn_accrued:
                # One quantum per turn, clamped so a blocked stretch can't
                # bank an unbounded burst.  quantum >= shard_size, so every
                # turn dispatches at least one shard — no starvation.
                run.deficit = min(run.deficit + run.quantum, run.quantum * 4)
                run.turn_accrued = True
            progressed = False
            while idle and len(run.in_flight) < cap:
                try:
                    shard = run.next_shard()
                except Exception as exc:
                    # The expansion itself is broken (an axis the resolver
                    # rejects, a catalog drift): fail the job, not the loop.
                    self._fail_run(run, f"{type(exc).__name__}: {exc}")
                    break
                if shard is None:
                    # Everything left was recorded complete (resume): the
                    # skip above may just have resolved the tail.
                    self._maybe_finalize(run)
                    break
                if shard.n_units > run.deficit:
                    run.buffer.appendleft(shard)  # turn's credit is spent
                    break
                run.deficit -= shard.n_units
                worker = idle.pop()
                run.in_flight[shard.index] = worker.worker_id
                run.attempts[shard.index] = run.attempts.get(shard.index, 0) + 1
                run.dispatched_units += shard.n_units
                progressed = True
                self._pool.dispatch(
                    worker,
                    ShardTask(
                        job_id=run.job.job_id,
                        store_dir=str(run.job.store_dir),
                        results_dir=(
                            str(self.results_dir)
                            if self.results_dir is not None
                            else None
                        ),
                        shard=shard,
                    ),
                )
                self._ledger(
                    "dispatch",
                    job=run.job.job_id,
                    index=shard.index,
                    units=shard.n_units,
                    worker=worker.worker_id,
                    attempt=run.attempts[shard.index],
                    deficit=round(run.deficit, 3),
                )
            if idle and self._rotation and self._rotation[0] == job_id:
                # Stopped for a non-capacity reason: the turn is over.  (An
                # idle-exhausted stop keeps the floor for the next round;
                # a _fail_run/_maybe_finalize above may already have pulled
                # the job out of the rotation, hence the front check.)
                self._advance_rotation(run)
                fruitless = 0 if progressed else fruitless + 1

    # -- finalize ----------------------------------------------------------- #
    def _maybe_finalize(self, run: _JobRun) -> None:
        job = run.job
        if job.cancel_requested:
            if not run.in_flight:
                self._finish_cancel(job, run)
            return
        if run.populate_done() and job.state == "running":
            job.state = "finalizing"
            self._remove_run(run)
            self._ledger(
                "job_populated",
                job=job.job_id,
                shards=run.total_shards,
                abandoned=sorted(run.abandoned),
                dispatched_units=run.dispatched_units,
            )
            self._finalize_queue.put(
                (job, run.simulated, run.cache_hits, run.reloaded_units)
            )

    def _fail_run(self, run: _JobRun, error: str) -> None:
        """Terminal-fail a job whose shards cannot even be enumerated."""
        job = run.job
        self._remove_run(run)
        job.state = "failed"
        job.error = error
        job.finished_at = time.time()
        self._ledger("job_failed", job=job.job_id, error=error)
        self._record_job_event(job, "job_failed", error=error)

    def _remove_run(self, run: _JobRun) -> None:
        self._runs.pop(run.job.job_id, None)
        try:
            self._rotation.remove(run.job.job_id)
        except ValueError:
            pass

    def _finish_cancel(self, job: Job, run: _JobRun | None) -> None:
        """Complete a cancellation once no worker holds the job's shards."""
        if run is not None:
            self._remove_run(run)
            try:
                released = LeaseLedger(run.store, "scheduler").release_outstanding()
            except (OSError, CampaignError):
                released = []
            run.store.record_event(
                "job_cancelled", job=job.job_id, leases_released=released
            )
        else:
            released = []
        job.state = "cancelled"
        job.error = job.error or "cancelled by request"
        job.cancel_requested = False
        job.finished_at = time.time()
        self._ledger(
            "job_cancelled", job=job.job_id, leases_released=released
        )
        if job.resubmit_pending:
            # A submit raced the cancellation: honour it now that the
            # cancel has fully landed.
            job.reset_for_resubmit(job.cap, job.priority, job.ttl)
            with self._inbox_lock:
                self._inbox.append(job)
            self._ledger("job_queued", job=job.job_id, resubmitted=True)

    def _process_cancellations(self) -> None:
        for run in list(self._runs.values()):
            if run.job.cancel_requested and not run.in_flight:
                self._finish_cancel(run.job, run)

    def _finalize_loop(self) -> None:
        while True:
            item = self._finalize_queue.get()
            if item is None:
                return
            job, simulated, cache_hits, reloaded = item
            try:
                result = stream_campaign(
                    job.spec,
                    job.store_dir,
                    shard_size=job.shard_size,
                    results_dir=self.results_dir,
                )
            except Exception as exc:  # one bad job must not kill the finalizer
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
                job.finished_at = time.time()
                self._ledger("job_failed", job=job.job_id, error=job.error)
                continue
            # simulated/cache_hits come from the pool workers' shard results:
            # the finalize pass reloads every artifact, so its own counters
            # would misreport the job as all-cached.
            job.summary = {
                "total_units": result.total_units,
                "completed": result.completed,
                "cache_hits": cache_hits,
                "simulated": simulated,
                "reloaded": reloaded,
                "n_workers": self.pool_size,
                "total_shards": result.total_shards,
                "failures": [list(failure) for failure in result.failures],
                "describe": result.describe(),
                "aggregate": result.aggregate.to_dict(),
            }
            job.state = "complete"
            job.finished_at = time.time()
            self._ledger(
                "job_complete",
                job=job.job_id,
                completed=result.completed,
                simulated=simulated,
            )

    # -- TTL eviction -------------------------------------------------------- #
    def _evict_expired(self) -> None:
        now = time.time()
        for job in self._jobs_provider():
            if (
                job.ttl is None
                or not job.done
                or job.evicted
                or job.finished_at is None
                or now - job.finished_at < job.ttl
            ):
                continue
            shutil.rmtree(job.store_dir, ignore_errors=True)
            job.evicted = True
            job.summary = None  # the store is gone; a resubmit recomputes
            self._ledger("job_evicted", job=job.job_id, ttl=job.ttl)

    # -- snapshot -------------------------------------------------------------- #
    def _publish_snapshot(self) -> None:
        self._snapshot = {
            "pool": self._pool.describe(),
            "active": [
                {
                    "job": run.job.job_id,
                    "state": run.job.state,
                    "priority": run.job.priority,
                    "deficit": round(run.deficit, 3),
                    "in_flight": len(run.in_flight),
                    "resolved": run.resolved,
                    "total_shards": run.total_shards,
                }
                for run in self._runs.values()
            ],
        }
