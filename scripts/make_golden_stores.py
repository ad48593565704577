#!/usr/bin/env python3
"""Write the golden campaign stores that pin the pre-index store layout.

Until the unit cache moved into the shard artifacts, every store kept one
JSON file per completed unit under ``results/<2 hex>/<key>.json`` beside
its shard artifacts.  New code never writes that layout, but it must keep
reading it.  This script writes three tiny stores in it, a few shards of 4
units each, so ``tests/test_golden_stores.py`` can hold every later
version of the code to them:

* ``streamed/`` -- a complete streamed store (3 shards of 4 units),
* ``streamed-partial/`` -- the same spec streamed with ``max_units=6``:
  one complete shard, one half-flushed shard and one empty one,
* ``resident/`` -- the same spec through ``run_campaign`` with
  ``max_units=8`` (full per-unit manifest, no shard artifacts).

It also writes ``expected.json``: each store's ``status`` counts, and what
``resume`` did over a copy of it (simulated / cache hits / reloaded
shards), as the commit that wrote the stores computed them.

The committed fixtures were written at commit
c923b44985e393693d943e6e70fce8953dcc9f8f by running, from the repository
root::

    PYTHONPATH=src python scripts/make_golden_stores.py --out tests/data/golden

Run at a later commit the script writes that commit's layout instead, so
regenerate the fixtures only together with a store-format change that
keeps a read path for the old ones.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.campaign import (  # noqa: E402
    CampaignSpec,
    CampaignStore,
    resume_campaign,
    resume_streaming,
    run_campaign,
    stream_campaign,
)

SPEC = {
    "name": "golden",
    "sweep": {"cpu_model": ["Xeon X5670", "EPYC 9654"], "seed": [1, 2, 3, 4, 5, 6]},
    "base": {"load_levels": [1.0, 0.5, 0.0]},
}
SHARD_SIZE = 4


def write_stores(out: Path) -> None:
    spec = CampaignSpec.from_dict(SPEC)
    stream_campaign(spec, out / "streamed", shard_size=SHARD_SIZE)
    stream_campaign(spec, out / "streamed-partial", shard_size=SHARD_SIZE, max_units=6)
    run_campaign(spec, out / "resident", max_units=8)


def expected_outcomes(out: Path) -> dict:
    """``status`` of each store, and what a resume over a copy of it did."""
    expected = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("streamed", "streamed-partial", "resident"):
            status = CampaignStore(out / name).status()
            copy = Path(workdir) / name
            shutil.copytree(out / name, copy)
            if name == "resident":
                result = resume_campaign(copy)
                reloaded = 0
            else:
                result = resume_streaming(copy)
                reloaded = sum(1 for shard in result.shards if shard.reloaded)
            expected[name] = {
                "status": {
                    "total": status.total,
                    "completed": status.completed,
                    "failed": status.failed,
                    "pending": status.pending,
                },
                "resume": {
                    "simulated": result.simulated,
                    "cache_hits": result.cache_hits,
                    "reloaded_shards": reloaded,
                    "completed": result.completed,
                },
            }
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path, default=REPO / "tests" / "data" / "golden")
    args = parser.parse_args(argv)
    if args.out.exists():
        parser.error(f"{args.out} exists; remove it first to regenerate")
    args.out.mkdir(parents=True)
    write_stores(args.out)
    expected = expected_outcomes(args.out)
    (args.out / "expected.json").write_text(
        json.dumps({"spec": SPEC, "shard_size": SHARD_SIZE, "stores": expected},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(expected, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
