"""Tests for the exception hierarchy, canonical field helpers and run records."""

import numpy as np
import pytest

from repro import errors
from repro.parser.fields import LOAD_LEVELS, RunRecord, level_field


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)
            assert issubclass(cls, Exception)

    def test_frame_error_family(self):
        for cls in (errors.ColumnError, errors.GroupByError, errors.JoinError,
                    errors.CSVError):
            assert issubclass(cls, errors.FrameError)

    def test_parse_error_location_formatting(self):
        error = errors.ParseError("bad field", path="r1.txt", line=12)
        assert "r1.txt:12" in str(error)
        assert error.path == "r1.txt" and error.line == 12

    def test_parse_error_without_location(self):
        assert str(errors.ParseError("bad field")) == "bad field"

    def test_field_error_is_parse_error(self):
        assert issubclass(errors.FieldError, errors.ParseError)

    def test_filter_error_is_analysis_error(self):
        assert issubclass(errors.FilterError, errors.AnalysisError)

    def test_catching_base_class_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.SimulationError("boom")


class TestLevelField:
    def test_zero_padded_names(self):
        assert level_field("power", 70) == "power_070"
        assert level_field("ssj_ops", 100) == "ssj_ops_100"
        assert level_field("actual_load", 10) == "actual_load_010"

    def test_names_sort_lexicographically_with_level(self):
        names = [level_field("power", level) for level in sorted(LOAD_LEVELS)]
        assert names == sorted(names)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            level_field("energy", 50)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            level_field("power", 55)

    def test_non_integer_levels_rejected(self):
        # 70.0 == 70 and hashes alike, so a name table must not accept it.
        for level in (70.0, "70", None):
            with pytest.raises(ValueError):
                level_field("power", level)
        assert level_field("power", np.int64(70)) == "power_070"

    def test_load_levels_definition(self):
        assert LOAD_LEVELS[0] == 100
        assert LOAD_LEVELS[-1] == 10
        assert len(LOAD_LEVELS) == 10
        assert list(LOAD_LEVELS) == sorted(LOAD_LEVELS, reverse=True)


class TestRunRecord:
    def test_set_and_get_level(self):
        record = RunRecord(run_id="r")
        record.set_level("power", 70, 123.4)
        assert record.get_level("power", 70) == 123.4
        assert record.get_level("power", 80) is None

    def test_to_dict_contains_every_level_column(self):
        row = RunRecord(run_id="r").to_dict()
        for kind in ("power", "ssj_ops", "actual_load"):
            for level in LOAD_LEVELS:
                assert level_field(kind, level) in row
                assert row[level_field(kind, level)] is None

    def test_to_dict_flattens_per_level(self):
        record = RunRecord(run_id="r")
        record.set_level("ssj_ops", 100, 1000.0)
        row = record.to_dict()
        assert row["ssj_ops_100"] == 1000.0
        assert "per_level" not in row

    def test_defaults(self):
        record = RunRecord()
        assert record.accepted is True
        assert record.cpu_vendor is None
        assert record.nodes is None
