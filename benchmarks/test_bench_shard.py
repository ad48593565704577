"""Sharded streaming campaign benchmarks: bounded memory at 100k-unit scale.

The headline claim of the streaming path is that sweep size is bounded by
hardware, not RAM: resident memory is O(shard_size) because each shard's
rows are flushed to a columnar ``.npz`` store artifact before the next shard
starts.  ``test_shard_stream_100k_units_bounded_rss`` proves it end to end —
a 100,000-unit campaign executed in a subprocess must finish under a fixed
peak-RSS budget that the unsharded runner's resident plan + result set could
not fit in.  The timed benchmarks cover the two streaming regimes (cold
execution, warm shard-artifact reload) and are gated by the CI baseline.

Scale knobs: ``REPRO_SHARD_BENCH_UNITS`` overrides the 100k unit count for
quick local runs (the committed budget assumes the default).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import reduce_frame, run_campaign, stream_campaign
from repro.campaign.spec import CampaignSpec

#: Peak-RSS budget for the 100k-unit streaming run.  The interpreter plus
#: NumPy cost ~60 MiB before any campaign work and the streamed run peaks
#: near 70 MiB; a resident 100k-unit expansion with its result rows
#: measures well past 1 GiB, so the budget both bounds the streaming path
#: (with headroom for interpreter/NumPy variance across CI runners) and
#: rules out O(plan) residency outright.  The finalize pass that takes the
#: aggregate's exact quantiles reads one numeric column back from the shard
#: artifacts at a time: 8 B per unit (~0.8 MiB at 100k units) plus one
#: shard's mask, never the campaign frame.
RSS_BUDGET_MIB = 192

#: Cheapest valid unit: one measured level plus active idle, no noise draws.
FAST_BASE = {"load_levels": [1.0, 0.0], "measurement_noise": False}


def wide_spec(name: str, units: int) -> CampaignSpec:
    """A ``units``-unit sweep (two CPU generations x units/2 seeds)."""
    return CampaignSpec(
        name=name,
        sweep={
            "cpu_model": ["EPYC 9654", "Xeon Platinum 8480+"],
            "seed": list(range(units // 2)),
        },
        base=FAST_BASE,
    )


# --------------------------------------------------------------------------- #
# Bounded-memory proof (not a timed benchmark: one subprocess, one assertion)
# --------------------------------------------------------------------------- #
_RSS_SCRIPT = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from repro.campaign import stream_campaign
from repro.campaign.spec import CampaignSpec

units = int(sys.argv[3])
spec = CampaignSpec(
    name="rss-proof",
    sweep={
        "cpu_model": ["EPYC 9654", "Xeon Platinum 8480+"],
        "seed": list(range(units // 2)),
    },
    base={"load_levels": [1.0, 0.0], "measurement_noise": False},
)
result = stream_campaign(spec, sys.argv[2], shard_size=int(sys.argv[4]))
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    peak_kb /= 1024  # macOS reports bytes
print(json.dumps({
    "peak_mib": peak_kb / 1024,
    "completed": result.completed,
    "total_units": result.total_units,
    "total_shards": result.total_shards,
    "failures": len(result.failures),
}))
"""


def _stream_in_subprocess(store: Path, units: int, shard_size: int) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, str(src), str(store),
         str(units), str(shard_size)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_shard_stream_100k_units_bounded_rss(tmp_path):
    """A 100k-unit sharded campaign completes under the fixed RSS budget."""
    units = int(os.environ.get("REPRO_SHARD_BENCH_UNITS", "100000"))
    report = _stream_in_subprocess(tmp_path / "store", units, shard_size=1024)
    print(
        f"\n{report['completed']}/{report['total_units']} units in "
        f"{report['total_shards']} shards, peak RSS {report['peak_mib']:.1f} MiB "
        f"(budget {RSS_BUDGET_MIB} MiB)"
    )
    assert report["failures"] == 0
    assert report["completed"] == report["total_units"] == units
    assert report["peak_mib"] < RSS_BUDGET_MIB, (
        f"streaming campaign peaked at {report['peak_mib']:.1f} MiB, over the "
        f"{RSS_BUDGET_MIB} MiB budget - resident state is no longer O(shard)"
    )


def test_sharded_bit_identical_to_unsharded_1k(tmp_path):
    """Sharded and unsharded execution agree bit-for-bit on a 1k-unit plan."""
    spec = wide_spec("equiv-1k", 1000)
    unsharded = run_campaign(spec, tmp_path / "unsharded")
    sharded = stream_campaign(spec, tmp_path / "sharded", shard_size=128)
    assert unsharded.simulated == sharded.simulated == 1000
    assert sharded.frame().equals(unsharded.frame)
    assert sharded.aggregate.equals(reduce_frame(unsharded.frame))


# --------------------------------------------------------------------------- #
# Timed benchmarks (gated by the CI baseline)
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="shard")
def test_bench_shard_stream_cold(benchmark, tmp_path):
    """Cold streaming execution: 512 units simulated in 4 shard flushes."""
    spec = wide_spec("bench-cold", 512)
    counter = {"i": 0}

    def cold():
        counter["i"] += 1
        return stream_campaign(
            spec, tmp_path / f"store-{counter['i']}", shard_size=128
        )

    result = benchmark(cold)
    assert result.simulated == 512 and result.is_complete
    assert result.total_shards == 4


@pytest.mark.benchmark(group="shard")
def test_bench_shard_stream_warm(benchmark, tmp_path):
    """Warm replay of a completed sharded store: pure artifact reloads."""
    spec = wide_spec("bench-warm", 512)
    store = tmp_path / "store"
    cold = stream_campaign(spec, store, shard_size=128)
    assert cold.simulated == 512

    result = benchmark(stream_campaign, spec, store, shard_size=128)
    assert result.simulated == 0 and result.is_complete
    assert all(shard.reloaded for shard in result.shards)
    assert result.aggregate.equals(cold.aggregate)
