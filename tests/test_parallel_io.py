"""Tests for the parallel executor and the IO helpers."""


import pytest

from repro.errors import ReproError
from repro.io import Workspace, ensure_dir
from repro.parallel import (
    ParallelConfig,
    chunk_indices,
    parallel_map,
    parallel_starmap,
    split_evenly,
)


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _fail(x):
    raise ValueError(f"boom {x}")


class TestChunking:
    def test_chunk_indices_cover_range(self):
        chunks = chunk_indices(10, 3)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_chunk_indices_empty(self):
        assert chunk_indices(0, 4) == []

    def test_chunk_indices_invalid(self):
        with pytest.raises(ReproError):
            chunk_indices(10, 0)

    def test_split_evenly_sizes(self):
        chunks = split_evenly(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert sum(chunks, []) == list(range(10))

    def test_split_evenly_more_parts_than_items(self):
        chunks = split_evenly([1, 2], 4)
        assert len(chunks) == 4
        assert sum(chunks, []) == [1, 2]

    def test_split_evenly_invalid(self):
        with pytest.raises(ReproError):
            split_evenly([1], 0)


class TestParallelMap:
    def test_serial_order_preserved(self):
        assert parallel_map(_square, range(20)) == [i * i for i in range(20)]

    def test_thread_backend(self):
        config = ParallelConfig(backend="thread", max_workers=4, serial_threshold=0, chunk_size=3)
        assert parallel_map(_square, range(25), config) == [i * i for i in range(25)]

    def test_process_backend(self):
        config = ParallelConfig(backend="process", max_workers=2, serial_threshold=0, chunk_size=8)
        assert parallel_map(_square, range(30), config) == [i * i for i in range(30)]

    def test_starmap(self):
        assert parallel_starmap(_add, [(1, 2), (3, 4)]) == [3, 7]

    def test_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_fail, [1, 2, 3])

    def test_empty_input(self):
        assert parallel_map(_square, []) == []

    def test_invalid_backend_rejected(self):
        with pytest.raises(ReproError):
            ParallelConfig(backend="gpu")

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ReproError):
            ParallelConfig(chunk_size=0)

    def test_effective_workers_serial(self):
        assert ParallelConfig(backend="serial").effective_workers == 1

    def test_effective_workers_default_positive(self):
        assert ParallelConfig().effective_workers >= 1


class TestWorkspace:
    def test_create_layout(self, tmp_path):
        workspace = Workspace.create(tmp_path / "ws")
        assert workspace.raw_results.is_dir()
        assert workspace.processed.is_dir()
        assert workspace.figures.is_dir()
        assert workspace.reports.is_dir()
        assert workspace.dataset_csv.parent == workspace.processed

    def test_ensure_dir_idempotent(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert ensure_dir(target) == ensure_dir(target)
        assert target.is_dir()
