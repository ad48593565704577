"""Live rendering of a running (or finished) campaign store.

``spectrends campaign watch`` tails a store's ``shards.jsonl`` and
``events.jsonl`` — both append-only, torn-tail tolerant — and renders:

* the unit/shard progress the store's own ``status`` reports,
* a per-shard completion strip (one glyph per shard),
* a throughput sparkline over the ``shard_flush`` event stream,
* the exact quantiles of one metric column — the last flushed shard's
  mid-run, the whole campaign's once a pass over every shard completes —
  with a sparkline of the per-shard median,
* threshold/drift alerts over the per-shard telemetry.

Everything here is a *reader* of campaign state: watch can attach to a
store mid-run from another process without perturbing the campaign (the
writer appends, the watcher polls).

The campaign layer is imported lazily inside functions so
:mod:`repro.obs` stays importable from inside :mod:`repro.campaign`.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, TextIO

from ..errors import CampaignError
from ..plotting.ascii import ascii_shard_strip, ascii_sparkline
from .alerts import Alert, AlertEngine, default_watch_rules

__all__ = ["render_watch_frame", "watch"]

#: Columns never offered as the default watch metric: sweep axes and
#: bookkeeping, not measurements.
_AXIS_COLUMNS = frozenset({"seed", "campaign_seed", "unit_index", "shard", "index"})

#: The paper's headline efficiency metric first, then sensible fallbacks.
_PREFERRED_METRICS = ("overall_ssj_ops_per_watt", "overall_efficiency", "power_100")


def _pick_metric(quantiles: dict[str, Any], metric: str | None) -> str | None:
    if metric is not None:
        if metric not in quantiles:
            raise CampaignError(
                f"metric {metric!r} is not in the campaign telemetry; "
                f"available: {sorted(quantiles) or 'none'}"
            )
        return metric
    for name in _PREFERRED_METRICS:
        if name in quantiles:
            return name
    for name in quantiles:
        if name not in _AXIS_COLUMNS:
            return name
    return next(iter(quantiles), None)


def _quantiles_by_label(event: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """An event's quantiles as ``{column: {label: value}}``.

    Events carry ``{column: [values]}`` plus one ``quantile_labels`` list;
    stores written before that format hold the per-column dicts directly.
    """
    quantiles = event.get("quantiles") or {}
    labels = event.get("quantile_labels")
    if labels is None:
        return quantiles
    return {name: dict(zip(labels, values)) for name, values in quantiles.items()}


def _whole_campaign_quantiles(events: list[dict[str, Any]]) -> dict[str, Any] | None:
    """Whole-campaign quantiles, if the latest pass covered every shard.

    Every pass ends in ``campaign_complete``, capped ones too; only a pass
    that folded all ``n_shards`` shards, with no flush after it, speaks for
    the whole campaign.  A one-shard pass leaves its quantiles in the
    ``shard_flush`` just before (they are the campaign's) rather than
    repeating them.
    """
    for position in range(len(events) - 1, -1, -1):
        event = events[position]
        kind = event.get("event")
        if kind == "shard_flush":
            return None
        if kind == "campaign_complete":
            if event.get("shards") != event.get("n_shards"):
                return None
            if "quantiles" not in event and event.get("shards") == 1:
                flushes = (e for e in reversed(events[:position]) if e.get("event") == "shard_flush")
                event = next(flushes, event)
            return _quantiles_by_label(event) if "quantiles" in event else None
    return None


def _shard_states(entries: dict[int, dict[str, Any]], total: int) -> list[str]:
    states = []
    for index in range(max(total, (max(entries) + 1) if entries else 0)):
        entry = entries.get(index)
        if entry is None:
            states.append("pending")
        elif entry.get("status") == "complete":
            states.append("complete")
        else:
            states.append("partial")
    return states


def _fmt(value: Any, precision: int = 4) -> str:
    if value is None:
        return "–"
    try:
        value = float(value)
    except (TypeError, ValueError):
        return str(value)
    if value != value:
        return "–"
    return f"{value:.{precision}g}"


def render_watch_frame(
    store_dir: str | os.PathLike,
    metric: str | None = None,
    width: int = 72,
    max_alerts: int = 5,
) -> str:
    """One rendered snapshot of a campaign store's telemetry.

    Pure function of the store's on-disk state — this is what the CLI's
    ``--once`` mode prints and what the live loop repaints.
    """
    from ..campaign.store import CampaignStore

    store = CampaignStore(store_dir)
    status = store.status()
    events = store.event_entries()
    flushes = [e for e in events if e.get("event") == "shard_flush"]
    strip_width = max(width - 10, 10)

    lines = [status.describe().splitlines()[0]]
    progress = status.shards
    if progress is not None:
        lines.append(f"  {progress.describe()}")
        states = _shard_states(store.shard_entries(), progress.total)
        lines.append(f"shards  {ascii_shard_strip(states, width=strip_width)}")
    if status.quarantined:
        state = "degraded" if status.is_degraded else "pending"
        lines.append(f"  {status.quarantined} unit(s) quarantined ({state})")

    if flushes:
        rates = [e.get("units_per_s") for e in flushes]
        finite = [r for r in rates if isinstance(r, (int, float))]
        last = finite[-1] if finite else None
        lines.append(
            f"rate    {ascii_sparkline(rates, width=strip_width)}"
            f"  last {_fmt(last)} units/s"
        )
        latest = flushes[-1]
        quantiles = _quantiles_by_label(latest)
        chosen = _pick_metric(quantiles, metric)
        if chosen is not None:
            history = [_quantiles_by_label(e).get(chosen, {}).get("p50") for e in flushes]
            final = _whole_campaign_quantiles(events)
            if final is not None:
                scope, estimates = "campaign", final.get(chosen) or {}
            else:
                scope, estimates = "last shard", quantiles.get(chosen) or {}
            summary = "  ".join(
                f"{label}={_fmt(value)}" for label, value in estimates.items()
            )
            lines.append(f"metric  {chosen}")
            lines.append(f"p50     {ascii_sparkline(history, width=strip_width)}")
            lines.append(f"  {scope} quantiles: {summary or '(none)'}")
        engine = AlertEngine(*default_watch_rules())
        raised: list[Alert] = []
        for event in flushes:
            raised.extend(engine.observe(event, shard=event.get("index")))
        if raised:
            lines.append("alerts:")
            for alert in raised[-max_alerts:]:
                where = f" (shard {alert.shard})" if alert.shard is not None else ""
                lines.append(f"  [{alert.kind}] {alert.message}{where}")
            if len(raised) > max_alerts:
                lines.append(f"  ... and {len(raised) - max_alerts} earlier")
    elif metric is not None:
        raise CampaignError(
            f"metric {metric!r} is not in the campaign telemetry; "
            "the store has no shard_flush events yet"
        )
    else:
        lines.append("(no shard telemetry yet — waiting for the first flush)")
    return "\n".join(lines)


def watch(
    store_dir: str | os.PathLike,
    once: bool = False,
    interval: float = 2.0,
    metric: str | None = None,
    width: int = 72,
    stream: TextIO | None = None,
    max_frames: int | None = None,
) -> int:
    """Render the store until its campaign completes (or once).

    Returns the number of frames rendered.  ``max_frames`` bounds the loop
    for tests; the interactive loop stops when the store reports itself
    complete one frame after rendering it.
    """
    from ..campaign.store import CampaignStore

    out = stream if stream is not None else sys.stdout
    store = CampaignStore(store_dir)
    frames = 0
    while True:
        text = render_watch_frame(store_dir, metric=metric, width=width)
        if frames > 0 and not once and out.isatty():  # pragma: no cover - terminal only
            out.write("\x1b[2J\x1b[H")
        out.write(text + "\n")
        out.flush()
        frames += 1
        if once:
            return frames
        if max_frames is not None and frames >= max_frames:
            return frames
        status = store.status()
        if status.is_complete:
            return frames
        time.sleep(interval)
