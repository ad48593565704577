"""Campaign engine: declarative scenario sweeps with content-hash caching.

A *campaign* explores many simulation scenarios at once: a
:class:`CampaignSpec` declares sweeps over catalog generations, node counts,
:class:`~repro.simulator.director.SimulationOptions` fields, load-level sets
and seeds; expansion produces content-addressed units; every run executes
the missing ones shard by shard and flushes each shard to the store; the
rows come back as one analysis :class:`~repro.frame.Frame`
(:func:`run_campaign`) or stay on disk behind a streamed aggregate
(:func:`stream_campaign`), and flow straight into ``Session.analysis``.

Layers
------
* :mod:`repro.campaign.spec` — declarative sweep spec with grid/zip expansion,
* :mod:`repro.campaign.cache` — content-hash keys and the unit cache, an
  index over the shard artifacts that store every row,
* :mod:`repro.campaign.runner` — batched in-process unit simulation with
  per-unit error capture, and the resident runner that returns the whole
  campaign frame,
* :mod:`repro.campaign.aggregate` — columnar frame assembly,
* :mod:`repro.campaign.store` — resumable campaign directories (spec
  snapshot, manifest, ledger, shard manifest),
* :mod:`repro.campaign.sharding` — the shard step every run takes, and
  the bounded-memory streaming path: lazy fixed-size shards, each flushed
  to a columnar ``.npz`` artifact, executed serially or fanned out across
  a worker pool,
* :mod:`repro.campaign.leases` — lease records in the shard ledger that
  let cooperating worker processes claim shards and reclaim the work of
  crashed peers (with heartbeat renewal distinguishing slow from hung),
* :mod:`repro.campaign.reduce` — online (Welford) reducers that fold the
  per-shard frames into campaign aggregates without the full result set
  ever being resident,
* :mod:`repro.campaign.doctor` — store health checks and conservative
  repair behind ``spectrends campaign doctor`` (torn logs, checksum
  mismatches, orphaned artifacts, stale leases).

Quickstart
----------
::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="epyc-vs-xeon",
        sweep={
            "cpu_model": ["EPYC 9654", "Xeon Platinum 8480+"],
            "seed": [1, 2, 3],
        },
    )
    result = run_campaign(spec, "campaign-store/")
    print(result.describe())
"""

from .aggregate import FrameAccumulator, assemble_frame, summarize_store
from .cache import ResultCache, unit_key
from .doctor import DoctorIssue, DoctorReport, doctor_store
from .leases import DEFAULT_LEASE_TTL, Lease, LeaseHeartbeat, LeaseLedger
from .reduce import FrameReducer, OnlineMoments, reduce_frame
from .runner import CampaignResult, resume_campaign, run_campaign
from .sharding import (
    DEFAULT_SHARD_SIZE,
    Shard,
    ShardOutcome,
    StreamingCampaignResult,
    WorkerPool,
    iter_shards,
    resume_streaming,
    run_worker,
    scan_shards,
    stream_campaign,
)
from .spec import OPTION_AXES, PLAN_AXES, CampaignSpec, CampaignUnit
from .store import CampaignStatus, CampaignStore

__all__ = [
    "PLAN_AXES",
    "OPTION_AXES",
    "DEFAULT_SHARD_SIZE",
    "CampaignSpec",
    "CampaignUnit",
    "unit_key",
    "ResultCache",
    "FrameAccumulator",
    "assemble_frame",
    "summarize_store",
    "CampaignResult",
    "run_campaign",
    "resume_campaign",
    "Shard",
    "ShardOutcome",
    "StreamingCampaignResult",
    "iter_shards",
    "scan_shards",
    "stream_campaign",
    "resume_streaming",
    "run_worker",
    "WorkerPool",
    "DEFAULT_LEASE_TTL",
    "Lease",
    "LeaseHeartbeat",
    "LeaseLedger",
    "DoctorIssue",
    "DoctorReport",
    "doctor_store",
    "FrameReducer",
    "OnlineMoments",
    "reduce_frame",
    "CampaignStatus",
    "CampaignStore",
]
