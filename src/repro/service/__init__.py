"""Campaign service: a long-running front end over the campaign engine.

``spectrends serve`` turns the sharded campaign runner into a shared
facility: clients submit :class:`~repro.campaign.CampaignSpec` payloads
over a local socket line protocol (:mod:`repro.service.protocol`), get
back job handles, and stream progress events while a fair-share scheduler
(:mod:`repro.service.scheduler`) multiplexes every live job over one
shared pool of campaign worker processes — deficit round-robin at shard
granularity, so small jobs finish promptly even while a mega-sweep
streams, with per-job concurrency caps, priority classes, job TTL +
store eviction, and mid-job cancellation that releases leases.

Two layers of deduplication make the service cheap to share:

* **job-level** — identical submissions (same spec + shard layout)
  resolve to the same job and store, so a second client asking the same
  question attaches to the first client's run instead of starting one,
* **unit-level** — every job store points at one service-wide result
  cache (``<root>/results``), so distinct campaigns that overlap in units
  simulate each shared unit once, ever.

Layout of a service root::

    <root>/results/           shared content-addressed unit cache
    <root>/jobs/<job-id>/     one campaign store per distinct job
    <root>/scheduler.jsonl    scheduling ledger (dispatch/result/lifecycle)
    <root>/service.json       bound address, pid (written on startup)
"""

from ..campaign import WorkerPool
from .client import EventStream, ServiceClient
from .protocol import recv_message, send_message
from .scheduler import PRIORITY_WEIGHTS, FairScheduler, Job
from .server import CampaignService, serve_forever

__all__ = [
    "CampaignService",
    "EventStream",
    "FairScheduler",
    "Job",
    "PRIORITY_WEIGHTS",
    "ServiceClient",
    "WorkerPool",
    "recv_message",
    "send_message",
    "serve_forever",
]
