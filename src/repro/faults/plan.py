"""Deterministic, seeded fault injection for the campaign/service plane.

A :class:`FaultPlan` is a registry of :class:`FaultRule`\\ s: named *sites*
(hook points threaded through the real code paths — unit execution, shard
flush, ledger append, artifact read, service socket reads) crossed with
*triggers* (fire on the nth call to the site, or with a seeded
probability) and *kinds*:

``raise``
    raise :class:`~repro.errors.InjectedFault` at the site — the loud
    failure every per-unit/per-shard error path must capture,
``partial_write``
    at a write site, truncate the bytes actually written to ``fraction``
    of their length *without* raising — silent corruption, exactly what
    checksums and the corrupt-line-tolerant readers must catch,
``delay``
    sleep ``delay_s`` at the site — hung-socket and slow-worker
    scenarios,
``kill``
    ``SIGKILL`` the current process at the site — the crash-mid-window
    scenarios the lease/recovery protocol exists for.

Determinism: probability triggers draw from one seeded
:class:`random.Random` per (rule, site-call-counter) pair, and ``nth``
triggers count calls per site, so a plan replays identically run to run —
a failing chaos test reproduces with the same plan and seed.

Production cost: injection is enabled only when a plan is installed
(``REPRO_FAULTS`` env or :func:`install_fault_plan`); with no plan the
hook is one module-global ``is None`` check (gated ≤5% analytically in
``benchmarks/test_bench_faults.py``, same style as the tracing gate).

``REPRO_FAULTS`` accepts inline JSON or a path to a JSON file::

    REPRO_FAULTS='{"seed": 7, "rules": [
        {"site": "unit.execute", "kind": "raise", "nth": 3}
    ]}'

Known sites (``ctx`` is the per-call context string rules can ``where``-
match against):

==================  =====================================================
site                fires
==================  =====================================================
``unit.execute``    once per unit result round-trip (ctx: unit key)
``batch.run``       once per vectorized batch chunk (falls back to scalar)
``shard.flush``     once per shard artifact write (ctx: ``shard<i>``)
``artifact.read``   once per shard artifact load (ctx: artifact key)
``jsonl.append``    once per ledger/event append (ctx: file name)
``service.read``    once per service request read (ctx: client address)
==================  =====================================================
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..errors import CampaignError, InjectedFault

__all__ = [
    "FAULT_KINDS",
    "FaultRule",
    "FaultPlan",
    "fault_point",
    "install_fault_plan",
    "clear_fault_plan",
    "active_fault_plan",
    "resolve_fault_plan",
    "fault_plan_from_env",
]

FAULT_KINDS = ("raise", "partial_write", "delay", "kill")


@dataclass(frozen=True)
class FaultRule:
    """One site x trigger x kind injection rule.

    ``nth`` fires on exactly the nth call to the site (1-based);
    ``probability`` fires on each call with that seeded probability; a rule
    with neither fires on every call.  ``times`` caps total firings
    (``None`` = unlimited), ``where`` restricts firing to calls whose
    context string contains the substring — how a plan poisons one
    specific unit key or one specific ledger file.
    """

    site: str
    kind: str
    nth: int | None = None
    probability: float | None = None
    times: int | None = None
    where: str | None = None
    delay_s: float = 0.05
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise CampaignError(
                f"unknown fault kind {self.kind!r}; valid kinds: {FAULT_KINDS}"
            )
        if self.nth is not None and self.nth < 1:
            raise CampaignError(f"fault nth must be >= 1, got {self.nth}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise CampaignError("fault probability must be within [0, 1]")
        if not 0.0 < self.fraction < 1.0:
            raise CampaignError("partial-write fraction must be within (0, 1)")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise CampaignError(f"unknown fault rule fields: {sorted(unknown)}")
        if "site" not in data or "kind" not in data:
            raise CampaignError("a fault rule needs at least 'site' and 'kind'")
        return cls(**{str(k): v for k, v in data.items()})


class FaultPlan:
    """A set of rules plus the per-site call accounting that triggers them.

    Thread-safe: concurrent sites (service handler threads, the executor)
    share one counter table under a lock.  Worker *processes* re-resolve
    the plan from ``REPRO_FAULTS`` independently — each process replays
    its own deterministic schedule.
    """

    def __init__(self, rules: Iterable[FaultRule] = (), seed: int = 0):
        self.rules = tuple(rules)
        self.seed = int(seed)
        self.counters: dict[str, int] = {}
        self.fired: list[tuple[str, str, int]] = []  # (site, kind, call_no)
        self._lock = threading.Lock()

    def to_dict(self) -> dict[str, Any]:
        rules = []
        for rule in self.rules:
            entry: dict[str, Any] = {"site": rule.site, "kind": rule.kind}
            for name in ("nth", "probability", "times", "where"):
                value = getattr(rule, name)
                if value is not None:
                    entry[name] = value
            if rule.kind == "delay":
                entry["delay_s"] = rule.delay_s
            if rule.kind == "partial_write":
                entry["fraction"] = rule.fraction
            rules.append(entry)
        return {"seed": self.seed, "rules": rules}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        rules_data = data.get("rules", [])
        if not isinstance(rules_data, list):
            raise CampaignError("fault plan 'rules' must be a list")
        rules = [FaultRule.from_dict(entry) for entry in rules_data]
        return cls(rules, seed=int(data.get("seed", 0)))

    # ------------------------------------------------------------------ #
    def _fired_count(self, rule: FaultRule) -> int:
        return sum(1 for site, kind, _ in self.fired if site == rule.site and kind == rule.kind)

    def check(self, site: str, ctx: str = "") -> FaultRule | None:
        """Advance the site's call counter; return the rule that fires, if any.

        At most one rule fires per call (first match in plan order), so a
        plan's behaviour is independent of dict/set iteration order.
        """
        with self._lock:
            call_no = self.counters.get(site, 0) + 1
            self.counters[site] = call_no
            for rule in self.rules:
                if rule.site != site:
                    continue
                if rule.where is not None and rule.where not in ctx:
                    continue
                if rule.times is not None and self._fired_count(rule) >= rule.times:
                    continue
                if rule.nth is not None:
                    if call_no != rule.nth:
                        continue
                elif rule.probability is not None:
                    # One deterministic draw per (seed, rule identity, call):
                    # replaying the same plan replays the same schedule.
                    draw = random.Random(
                        f"{self.seed}:{rule.site}:{rule.kind}:{rule.where}:{call_no}"
                    ).random()
                    if draw >= rule.probability:
                        continue
                self.fired.append((site, rule.kind, call_no))
                return rule
        return None


# --------------------------------------------------------------------------- #
# The process-wide active plan and the hook the instrumented sites call
# --------------------------------------------------------------------------- #
_active_plan: FaultPlan | None = None
_install_lock = threading.Lock()


def fault_plan_from_env(environ: Mapping[str, str] | None = None) -> FaultPlan | None:
    """The plan ``REPRO_FAULTS`` asks for, or ``None`` when unset."""
    env = os.environ if environ is None else environ
    spec = env.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    return resolve_fault_plan(spec)


def resolve_fault_plan(spec: "FaultPlan | str | Mapping[str, Any]") -> FaultPlan:
    """A :class:`FaultPlan` from a plan, inline JSON, a JSON file path or a dict."""
    if isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, Mapping):
        return FaultPlan.from_dict(spec)
    text = spec.strip()
    if not text.startswith("{"):
        try:
            text = Path(text).read_text(encoding="utf-8")
        except OSError as exc:
            raise CampaignError(f"cannot read fault plan file {spec!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CampaignError(f"malformed fault plan JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CampaignError("a fault plan must be a JSON object")
    return FaultPlan.from_dict(data)


def install_fault_plan(
    plan: "FaultPlan | str | Mapping[str, Any] | None",
) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previously active plan.

    ``None`` uninstalls.  Callers that install a scoped plan (a policy-
    driven campaign run) restore the returned previous plan afterwards.
    """
    global _active_plan
    with _install_lock:
        previous = _active_plan
        _active_plan = None if plan is None else resolve_fault_plan(plan)
        return previous


def clear_fault_plan() -> None:
    """Uninstall any active plan (tests; idempotent)."""
    install_fault_plan(None)


def active_fault_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _active_plan


def fault_point(site: str, ctx: str = "") -> FaultRule | None:
    """Injection hook threaded through the real code paths.

    With no plan installed this is one global ``is None`` check — the
    production path.  With a plan, the firing rule's kind is applied:
    ``raise``/``delay``/``kill`` are handled here; a ``partial_write``
    rule is *returned* so the write site can tear its own bytes (only
    write sites honour it — elsewhere it is a no-op).
    """
    plan = _active_plan
    if plan is None:
        return None
    rule = plan.check(site, ctx)
    if rule is None:
        return None
    if rule.kind == "raise":
        raise InjectedFault(f"injected fault at {site}" + (f" ({ctx})" if ctx else ""))
    if rule.kind == "delay":
        time.sleep(rule.delay_s)
        return None
    if rule.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return rule  # partial_write: the caller applies the truncation


# Resolve REPRO_FAULTS once at import: the instrumented modules import this
# module anyway, and eager resolution keeps fault_point a single global read.
_env_plan = fault_plan_from_env()
if _env_plan is not None:  # pragma: no cover - exercised via subprocess tests
    _active_plan = _env_plan
del _env_plan
