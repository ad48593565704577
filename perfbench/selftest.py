"""Self-tests of the benchmark's own arithmetic and tracing.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import tempfile
import unittest
from pathlib import Path

from probe import NOMINAL_S, slowdown
from stats import (
    allocated_bytes,
    covered_length,
    self_times,
    spread,
    tail_percentile,
    units_per_s,
)
from tracing import Recorder

ROOT = Path(__file__).resolve().parent.parent


class SelfTime(unittest.TestCase):
    def test_nested_children_count_once(self):
        # root [0, 10] > a [1, 6] > b [2, 4]: b is a's child only.
        spans = [(0.0, 10.0, -1), (1.0, 6.0, 0), (2.0, 4.0, 1)]
        self.assertEqual(self_times(spans), [5.0, 3.0, 2.0])

    def test_back_to_back_children(self):
        spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (3.0, 7.0, 0), (7.0, 8.0, 0)]
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_overlapping_children_use_their_union(self):
        spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (4.0, 6.0, 0)]
        self.assertEqual(self_times(spans)[0], 5.0)

    def test_child_is_clipped_to_its_parent(self):
        self.assertEqual(covered_length(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]), 1.5)

    def test_self_times_sum_to_the_root(self):
        spans = [(0.0, 9.0, -1), (1.0, 4.0, 0), (1.5, 2.5, 1), (5.0, 8.0, 0)]
        self.assertAlmostEqual(sum(self_times(spans)), 9.0)

    def test_recorder_nests_wrapped_calls(self):
        import types

        module = types.SimpleNamespace()
        module.inner = lambda: None
        module.outer = lambda: [module.inner() for _ in range(3)]
        recorder = Recorder()
        recorder.wrap(module, "inner", "inner")
        recorder.wrap(module, "outer", "outer")
        module.outer()  # not recorded outside an op
        root = recorder.begin_op(7)
        module.outer()
        recorder.end_op(root)
        recorder.unwrap_all()
        self.assertEqual([span[0] for span in recorder.spans], ["op", "outer"] + ["inner"] * 3)
        self.assertEqual([span[3] for span in recorder.spans], [-1, 0, 1, 1, 1])
        self.assertEqual(recorder.op_counts()[7]["inner"], 3)
        self.assertEqual(set(recorder.op_layers()), {7})


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(list(range(1, 20))))  # 9 above the median
        self.assertEqual(tail_percentile(list(range(1, 21))), (50.0, 10.0))

    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(tail_percentile(values), (90.0, 90.0))
        self.assertEqual(tail_percentile(list(range(1, 1001))), (99.0, 990.0))

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 30 + [2.0] * 5
        self.assertIsNone(tail_percentile(values))


class Aggregation(unittest.TestCase):
    def test_units_per_s_divides_totals_not_mean_of_rates(self):
        # 100 units in 1 s and 300 units in 1 s: 200/s, and a slow
        # 100-unit op weighs by its time, not as one rate among two.
        self.assertEqual(units_per_s([100, 300], [1.0, 1.0]), 200.0)
        self.assertEqual(units_per_s([100, 100], [1.0, 3.0]), 50.0)

    def test_slowdown_scales_times_to_the_nominal_host(self):
        # Probes at nominal read 1; a host twice as slow after the op and
        # nominal before reads 1.5, so a 3 s op reports as 2 s.
        self.assertEqual(slowdown(NOMINAL_S, NOMINAL_S), 1.0)
        self.assertAlmostEqual(slowdown(NOMINAL_S, 2 * NOMINAL_S), 1.5)
        wall = 3.0 / slowdown(NOMINAL_S, 2 * NOMINAL_S)
        self.assertAlmostEqual(units_per_s([1000], [wall]), 500.0)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(spread([10.0, 10.0, 10.0, 10.0]), 0.0)
        self.assertAlmostEqual(spread([8.0, 9.0, 10.0, 11.0, 12.0]), 3.0 / 10.0)


class AllocatedBytes(unittest.TestCase):
    def test_walk_counts_files_and_directories(self):
        scratch = ROOT / ".bench_run"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as root:
            empty = allocated_bytes(root)
            Path(root, "sub").mkdir()
            Path(root, "sub", "row.json").write_bytes(b"x" * 1600)
            Path(root, "blob").write_bytes(os.urandom(10_000))
            expected = empty + sum(
                os.lstat(path).st_blocks * 512
                for path in (Path(root, "sub"), Path(root, "sub", "row.json"), Path(root, "blob"))
            )
            self.assertEqual(allocated_bytes(root), expected)
            # A small file still fills whole blocks.
            self.assertGreaterEqual(os.lstat(Path(root, "sub", "row.json")).st_blocks * 512, 1600)

    def test_links_are_not_followed(self):
        scratch = ROOT / ".bench_run"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as root, tempfile.TemporaryDirectory(
            dir=scratch
        ) as other:
            Path(other, "big").write_bytes(os.urandom(100_000))
            before = allocated_bytes(root)
            os.symlink(Path(other, "big"), Path(root, "link"))
            self.assertLess(allocated_bytes(root) - before, 100_000)


if __name__ == "__main__":
    unittest.main()
