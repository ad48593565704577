"""Stores written in the per-unit JSON layout still read, resume and check out.

The fixtures under ``tests/data/golden/`` were written by
``scripts/make_golden_stores.py`` at the commit its docstring names, the
last one whose unit cache kept one JSON file per unit under ``results/``.
``expected.json`` holds what that commit's ``status`` and ``resume``
reported over them.  Each test runs on a copy, so the fixtures stay as
written.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    doctor_store,
    resume_campaign,
    resume_streaming,
    run_campaign,
    stream_campaign,
)
from repro.campaign.cache import INDEX_NAME
from repro.cli.main import main as cli_main

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))
STORES = sorted(EXPECTED["stores"])


def golden_copy(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name
    shutil.copytree(GOLDEN / name, target)
    return target


def unit_files(store_dir: Path) -> list[Path]:
    return sorted((store_dir / "results").glob("??/*.json"))


@pytest.mark.parametrize("name", STORES)
class TestGoldenStores:
    def test_layout_is_the_per_unit_one(self, name):
        expected = EXPECTED["stores"][name]
        assert len(unit_files(GOLDEN / name)) == expected["status"]["completed"]
        assert not (GOLDEN / name / "results" / INDEX_NAME).exists()

    def test_status_counts(self, tmp_path, name):
        status = CampaignStore(golden_copy(tmp_path, name)).status()
        counts = {
            "total": status.total,
            "completed": status.completed,
            "failed": status.failed,
            "pending": status.pending,
        }
        assert counts == EXPECTED["stores"][name]["status"]

    def test_resume_serves_legacy_rows_and_matches_a_fresh_run(self, tmp_path, name):
        store_dir = golden_copy(tmp_path, name)
        legacy = unit_files(store_dir)
        spec = CampaignSpec.from_dict(EXPECTED["spec"])
        if name == "resident":
            result = resume_campaign(store_dir)
            fresh = run_campaign(spec, tmp_path / "fresh")
            assert result.frame.equals(fresh.frame)
            reloaded = 0
        else:
            result = resume_streaming(store_dir)
            fresh = stream_campaign(spec, tmp_path / "fresh", shard_size=EXPECTED["shard_size"])
            assert result.frame().equals(fresh.frame())
            assert result.aggregate.equals(fresh.aggregate)
            reloaded = sum(1 for shard in result.shards if shard.reloaded)
        assert {
            "simulated": result.simulated,
            "cache_hits": result.cache_hits,
            "reloaded_shards": reloaded,
            "completed": result.completed,
        } == EXPECTED["stores"][name]["resume"]
        # The old layout is read, never written: new rows went to an index.
        assert unit_files(store_dir) == legacy
        assert (store_dir / "results" / INDEX_NAME).exists() == (result.simulated > 0)
        assert CampaignStore(store_dir).status().is_complete

    def test_doctor_is_healthy(self, tmp_path, name):
        store_dir = golden_copy(tmp_path, name)
        report = doctor_store(store_dir)
        assert report.healthy and not report.notes
        if name == "resident":
            resume_campaign(store_dir)
        else:
            resume_streaming(store_dir)
        report = doctor_store(store_dir)
        assert report.healthy and not report.notes

    def test_watch_once_renders(self, tmp_path, name, capsys):
        store_dir = golden_copy(tmp_path, name)
        assert cli_main(["campaign", "watch", "--store", str(store_dir), "--once"]) == 0
        status = EXPECTED["stores"][name]["status"]
        assert (
            f"campaign golden: {status['completed']}/{status['total']} units completed"
            in capsys.readouterr().out
        )
