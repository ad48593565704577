"""The unit cache served from shard artifacts through ``results/index.jsonl``.

Every completed row is stored once, in the artifact its run flushed; the
cache is an index of 64-bit key prefixes over those artifacts.  Pinned
here: a hit is the very row a fresh simulation gives (so hit-served shards
are byte-identical), every way an index entry can go bad is a miss that
re-simulates (never an exception), a cold stream writes one index line
per artifact and nothing else under ``results/``, and the in-memory index
costs ~16 bytes per key.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tracemalloc

import numpy as np
import pytest

import repro.campaign.cache as cache_module
from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    ResultCache,
    run_campaign,
    stream_campaign,
)
from repro.campaign.cache import INDEX_NAME
from repro.market.catalog import default_catalog
from repro.session.artifacts import ArtifactStore

FAST_BASE = {"load_levels": [1.0, 0.5, 0.0]}


def catalog_spec() -> CampaignSpec:
    """Every model of the default catalog, noise on and off, two seeds."""
    return CampaignSpec(
        name="catalog",
        sweep={
            "cpu_model": [entry.cpu.model for entry in default_catalog().entries],
            "measurement_noise": [True, False],
            "seed": [1, 2],
        },
    )


def small_spec(seeds=(1, 2, 3, 4)) -> CampaignSpec:
    return CampaignSpec(
        name="small",
        sweep={"cpu_model": ["Xeon X5670", "EPYC 9654"], "seed": list(seeds)},
        base=FAST_BASE,
    )


def sidecar_sha256(store_dir, artifact_key: str) -> str:
    path = CampaignStore(store_dir).shard_store.sidecar_path(artifact_key)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------- #
# (a) A hit is the row a fresh simulation gives
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def catalog_runs(tmp_path_factory):
    """Store ``a`` streams the whole catalog cold; ``b`` shares its results."""
    root = tmp_path_factory.mktemp("catalog")
    results = root / "resident" / "results"
    spec = catalog_spec()
    a = stream_campaign(spec, root / "a", shard_size=64, results_dir=results)
    b = stream_campaign(spec, root / "b", shard_size=64, results_dir=results)
    return root, a, b


class TestHitIdentity:
    def test_second_store_is_served_entirely_from_the_first(self, catalog_runs):
        _, a, b = catalog_runs
        assert a.simulated == a.total_units and a.cache_hits == 0
        assert b.simulated == 0 and b.cache_hits == b.total_units
        assert not any(shard.reloaded for shard in b.shards)

    def test_hit_served_sidecars_are_byte_identical(self, catalog_runs):
        root, a, b = catalog_runs
        assert len(a.shards) == len(b.shards) == 5
        for first, second in zip(a.shards, b.shards):
            assert first.artifact_key == second.artifact_key
            assert first.checksum == second.checksum
            assert sidecar_sha256(root / "a", first.artifact_key) == sidecar_sha256(
                root / "b", second.artifact_key
            )

    def test_aggregates_and_frames_equal(self, catalog_runs):
        _, a, b = catalog_runs
        assert b.aggregate.equals(a.aggregate)
        assert b.frame().equals(a.frame())

    def test_resident_run_reads_streamed_rows(self, catalog_runs):
        root, a, _ = catalog_runs
        # The streamed runs indexed into the resident store's own results/.
        resident = run_campaign(catalog_spec(), root / "resident")
        assert resident.simulated == 0
        assert resident.cache_hits == resident.total_units
        assert resident.frame.equals(a.frame())

    def test_streamed_run_reads_resident_rows(self, tmp_path):
        spec = small_spec()
        resident = run_campaign(spec, tmp_path / "resident")
        assert resident.simulated == spec.n_units
        streamed = stream_campaign(
            spec, tmp_path / "s", shard_size=3, results_dir=tmp_path / "resident" / "results"
        )
        assert streamed.simulated == 0 and streamed.cache_hits == spec.n_units
        assert streamed.frame().equals(resident.frame)


# --------------------------------------------------------------------------- #
# (b) Every bad index entry is a miss that re-simulates
# --------------------------------------------------------------------------- #
@pytest.fixture()
def indexed(tmp_path):
    """Store ``a`` streamed cold, store ``b`` served from it: 4 index lines."""
    results = tmp_path / "results"
    spec = small_spec()
    a = stream_campaign(spec, tmp_path / "a", shard_size=4, results_dir=results)
    b = stream_campaign(spec, tmp_path / "b", shard_size=4, results_dir=results)
    assert b.simulated == 0
    return tmp_path, spec, a, a.frame()


def rerun(root, spec):
    return stream_campaign(spec, root / "c", shard_size=4, results_dir=root / "results")


class TestIndexRobustness:
    def test_newest_artifact_is_tried_first(self, indexed, monkeypatch):
        root, spec, _, _ = indexed
        loaded = []
        original = ArtifactStore.get

        def spy(self, key):
            loaded.append(self.directory)
            return original(self, key)

        monkeypatch.setattr(ArtifactStore, "get", spy)
        key = spec.expand()[0].key
        assert ResultCache(root / "results").get(key) is not None
        assert [path.resolve() for path in loaded] == [(root / "b" / "shards").resolve()]

    def test_falls_through_to_an_older_artifact(self, indexed):
        root, spec, _, reference = indexed
        shutil.rmtree(root / "b" / "shards")
        cache = ResultCache(root / "results")
        unit = spec.expand()[0]
        assert cache.get(unit.key) is not None
        again = rerun(root, spec)
        assert again.simulated == 0 and again.frame().equals(reference)

    def test_deleted_artifacts_miss_and_resimulate(self, indexed):
        root, spec, _, reference = indexed
        shutil.rmtree(root / "a" / "shards")
        shutil.rmtree(root / "b" / "shards")
        assert ResultCache(root / "results").get(spec.expand()[0].key) is None
        again = rerun(root, spec)
        assert again.simulated == spec.n_units
        assert again.frame().equals(reference)

    def test_checksum_mismatch_misses(self, indexed):
        root, spec, a, reference = indexed
        for name in ("a", "b"):
            sidecar = CampaignStore(root / name).shard_store.sidecar_path(
                a.shards[0].artifact_key
            )
            data = bytearray(sidecar.read_bytes())
            data[len(data) // 2] ^= 0xFF  # one flipped bit of column data
            sidecar.write_bytes(bytes(data))
        assert ResultCache(root / "results").get(spec.expand()[0].key) is None
        again = rerun(root, spec)
        assert again.simulated == a.shards[0].n_rows
        assert again.frame().equals(reference)

    def test_torn_index_tail_misses(self, indexed):
        root, spec, a, reference = indexed
        index = root / "results" / INDEX_NAME
        lines = index.read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        # Tear the newest line (b's second shard), as a killed writer would.
        index.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        cache = ResultCache(root / "results")
        assert all(unit.key in cache for unit in spec.expand())  # a's lines hold
        shutil.rmtree(root / "a" / "shards")
        again = rerun(root, spec)
        # Only b's first shard is still both indexed and on disk.
        assert again.cache_hits == a.shards[0].n_rows == 4
        assert again.simulated == spec.n_units - 4
        assert again.frame().equals(reference)

    def test_prefix_collisions_check_the_full_key(self, tmp_path, monkeypatch):
        # One hex digit of prefix: every probe meets many colliding rows.
        monkeypatch.setattr(cache_module, "PREFIX_HEX", 1)
        results = tmp_path / "results"
        spec = small_spec()
        a = stream_campaign(spec, tmp_path / "a", shard_size=4, results_dir=results)
        b = stream_campaign(spec, tmp_path / "b", shard_size=4, results_dir=results)
        assert b.simulated == 0 and b.frame().equals(a.frame())
        other = small_spec(seeds=(5, 6, 7, 8))
        fresh = stream_campaign(other, tmp_path / "c", shard_size=4, results_dir=results)
        assert fresh.cache_hits == 0 and fresh.simulated == other.n_units
        clean = stream_campaign(other, tmp_path / "clean", shard_size=4)
        assert fresh.frame().equals(clean.frame())


# --------------------------------------------------------------------------- #
# (c) A cold stream writes one index line per artifact, nothing else
# --------------------------------------------------------------------------- #
def test_cold_stream_writes_one_index_line_and_no_unit_files(tmp_path, monkeypatch):
    calls = []
    original = ResultCache.put

    def counting(self, *args, **kwargs):
        calls.append(args[1])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ResultCache, "put", counting)
    spec = CampaignSpec(
        name="cold",
        sweep={"cpu_model": ["Xeon X5670", "Xeon E5-2699 v4", "EPYC 9654", "Xeon Platinum 8480+"],
               "seed": list(range(256))},
        base=FAST_BASE,
    )
    result = stream_campaign(spec, tmp_path / "store")
    assert result.simulated == spec.n_units == 1024
    assert calls == [result.shards[0].artifact_key]
    results = tmp_path / "store" / "results"
    assert [path.name for path in results.rglob("*")] == [INDEX_NAME]
    (line,) = results.joinpath(INDEX_NAME).read_text(encoding="utf-8").splitlines()
    entry = json.loads(line)
    assert entry["shards"] == "../shards"
    assert entry["checksum"] == result.shards[0].checksum
    assert entry["keys"] == "".join(unit.key[:16] for unit in spec.iter_units())


# --------------------------------------------------------------------------- #
# (d) ~16 bytes per indexed key
# --------------------------------------------------------------------------- #
def test_index_of_60k_keys_holds_under_2_mib(tmp_path):
    rng = np.random.default_rng(7)
    results = tmp_path / "results"
    results.mkdir()
    with open(results / INDEX_NAME, "w", encoding="utf-8") as handle:
        for line in range(60):
            prefixes = rng.integers(0, 2**63, size=1000, dtype=np.int64)
            handle.write(
                json.dumps(
                    {
                        "shards": f"../store{line}/shards",
                        "artifact": f"{line:064x}",
                        "checksum": f"{line:064x}",
                        "keys": "".join(f"{int(p):016x}" for p in prefixes),
                    }
                )
                + "\n"
            )
    cache = ResultCache(results)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache.sync()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 2 * 1024 * 1024
    # Every key is indexed (membership is by prefix).
    assert f"{int(prefixes[-1]):016x}" + "0" * 48 in cache
