"""Campaign engine benchmarks: cold execution vs warm (fully cached) replay.

The cache win is the headline number of the campaign subsystem: a warm
invocation of the same spec over the same store performs zero simulations and
reduces the campaign to key hashing plus one checksum-verified shard artifact
load per recorded shard, several times faster than the cold run it replays.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign

#: 4 generations x 4 seeds with a shortened load ladder: big enough that the
#: cold/warm ratio is meaningful, small enough for the benchmark session.
BENCH_SPEC = {
    "name": "bench",
    "sweep": {
        "cpu_model": ["Xeon X5670", "Xeon E5-2699 v4",
                      "Xeon Platinum 8480+", "EPYC 9654"],
        "seed": [1, 2, 3, 4],
    },
    "base": {"load_levels": [1.0, 0.7, 0.5, 0.2, 0.1, 0.0]},
}


@pytest.mark.benchmark(group="campaign")
def test_bench_campaign_cold(benchmark, tmp_path):
    """Full expansion + simulation of all 16 units into a fresh store."""
    spec = CampaignSpec.from_dict(BENCH_SPEC)
    counter = {"i": 0}

    def cold():
        counter["i"] += 1
        return run_campaign(spec, tmp_path / f"store-{counter['i']}")

    result = benchmark(cold)
    assert result.simulated == 16 and result.cache_hits == 0
    assert len(result.frame) == 16


@pytest.mark.benchmark(group="campaign")
def test_bench_campaign_warm(benchmark, tmp_path):
    """Replay of the same spec over a completed store: all cache hits."""
    spec = CampaignSpec.from_dict(BENCH_SPEC)
    store = tmp_path / "store"
    cold = run_campaign(spec, store)
    assert cold.simulated == 16

    result = benchmark(run_campaign, spec, store)
    assert result.simulated == 0 and result.cache_hits == 16
    assert result.frame.equals(cold.frame)
    usage = result.frame.memory_usage()
    total_kb = result.frame.nbytes / 1024
    print(f"\ncampaign frame: {result.frame.shape[0]} rows x "
          f"{result.frame.shape[1]} columns, {total_kb:.1f} KiB "
          f"(heaviest column: {usage.row(0)['column']})")


@pytest.mark.benchmark(group="campaign")
def test_bench_campaign_status(benchmark, tmp_path):
    """Ledger + shard-record scan behind ``spectrends campaign status``."""
    spec = CampaignSpec.from_dict(BENCH_SPEC)
    store_dir = tmp_path / "store"
    run_campaign(spec, store_dir)

    status = benchmark(lambda: CampaignStore(store_dir).status())
    assert status.is_complete and status.total == 16
