"""Property-based tests (hypothesis) on the core data structures and models.

These check invariants rather than specific values:

* Frame/Column operations preserve lengths, masks and round-trip through CSV,
* statistics respect their mathematical bounds,
* the power model is monotonic in load and internally consistent,
* the report renderer and parser form a lossless round trip for the fields
  the analysis uses.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frame import Column, Frame
from repro.frame.csvio import frame_from_csv_text, frame_to_csv_text
from repro.plotting.scale import Extent, LinearScale, nice_ticks
from repro.powermodel import (
    CPUFamily,
    CPUSpec,
    DVFSModel,
    GenerationProfile,
    ServerConfiguration,
    ServerPowerModel,
    Vendor,
)
from repro.stats import box_stats, linear_fit, pearson, summarize
from repro.units import MonthDate

settings.register_profile(
    "repro", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
optional_floats = st.one_of(st.none(), finite_floats)


# --------------------------------------------------------------------------- #
# Frame / Column invariants
# --------------------------------------------------------------------------- #
@given(st.lists(optional_floats, max_size=200))
def test_column_length_and_missing_count(values):
    column = Column.from_values(values, kind="float")
    assert len(column) == len(values)
    assert column.count() == sum(1 for v in values if v is not None)
    assert column.isna().sum() == len(values) - column.count()


@given(st.lists(optional_floats, min_size=1, max_size=100))
def test_column_fillna_removes_all_missing(values):
    filled = Column.from_values(values, kind="float").fillna(0.0)
    assert filled.count() == len(values)


@given(st.lists(finite_floats, min_size=1, max_size=100))
def test_column_sort_is_ordered(values):
    column = Column.from_values(values, kind="float")
    ordered = column.take(column.sort_indices()).to_list()
    assert ordered == sorted(ordered)


@given(st.lists(optional_floats, max_size=100), st.lists(st.booleans(), max_size=100))
def test_column_filter_length(values, mask_values):
    n = min(len(values), len(mask_values))
    column = Column.from_values(values[:n], kind="float")
    mask = np.asarray(mask_values[:n], dtype=bool)
    assert len(column.filter(mask)) == int(mask.sum())


@given(
    st.lists(
        st.tuples(finite_floats, st.sampled_from(["Intel", "AMD", "Other"])),
        min_size=1, max_size=120,
    )
)
def test_groupby_partitions_rows(rows):
    frame = Frame.from_dict(
        {"value": [r[0] for r in rows], "vendor": [r[1] for r in rows]}
    )
    sizes = frame.groupby("vendor").agg({"n": ("value", "size")})
    assert sizes["n"].sum() == len(frame)
    assert set(sizes["vendor"].to_list()) == {r[1] for r in rows}


@given(
    st.lists(optional_floats, min_size=1, max_size=60),
    st.lists(st.one_of(st.none(), st.text(alphabet="abcXYZ ,;", max_size=8)),
             min_size=1, max_size=60),
)
def test_csv_round_trip(floats, strings):
    n = min(len(floats), len(strings))
    frame = Frame.from_dict({"x": floats[:n], "label": strings[:n]})
    restored = frame_from_csv_text(frame_to_csv_text(frame))
    assert len(restored) == n
    for original, loaded in zip(frame["x"].to_list(), restored["x"].to_list()):
        if original is None:
            assert loaded is None
        else:
            assert loaded == pytest.approx(original, rel=1e-9, abs=1e-9)
    # Blank strings are indistinguishable from missing in CSV; both map to None.
    for original, loaded in zip(frame["label"].to_list(), restored["label"].to_list()):
        if original is None or original.strip() == "":
            assert loaded is None or loaded == original
        else:
            assert str(loaded) == original


#: Values whose inferred column is built by one NumPy conversion: Python and
#: NumPy numbers (unsigned too) past float precision and int64 range, NaNs of
#: any sign and payload, infinities and missing values.
numeric_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(min_value=-(2**65), max_value=2**65),
    st.integers(min_value=2**53 - 4, max_value=2**53 + 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
    st.integers(min_value=-128, max_value=127).map(np.int8),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.floats(allow_nan=True).map(np.float64),
)
integer_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.integers(min_value=0, max_value=65535).map(np.uint16),
)


def _per_value_kind(values) -> str:
    """Kind inference one value at a time: the reference for the type scan."""
    seen = set()
    for value in values:
        if value is None:
            continue
        if isinstance(value, (bool, np.bool_)):
            seen.add("bool")
        elif isinstance(value, (int, np.integer)):
            seen.add("int")
        elif isinstance(value, (float, np.floating)):
            seen.add("float")
        else:
            return "str"
    for kind in ("float", "int", "bool"):
        if kind in seen:
            return kind
    return "float"


def _built(values, kind=None):
    try:
        return Column.from_values(values, kind=kind)
    except OverflowError as exc:  # past int64 or float range: both routes raise
        return type(exc)


@settings(max_examples=300)
@given(st.one_of(st.lists(numeric_scalars, max_size=12), st.lists(integer_scalars, max_size=12)))
def test_inferred_column_equals_per_value_build(values):
    kind = _per_value_kind(values)
    inferred = _built(values)
    reference = _built(values, kind=kind)  # an explicit kind takes the per-value loop
    if not isinstance(reference, Column):
        assert inferred is reference
        return
    assert inferred.kind == reference.kind == kind
    assert inferred.values.dtype == reference.values.dtype
    assert inferred.values.tobytes() == reference.values.tobytes()
    assert inferred.mask.tobytes() == reference.mask.tobytes()


# --------------------------------------------------------------------------- #
# Statistics invariants
# --------------------------------------------------------------------------- #
@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_summary_bounds(values):
    summary = summarize(values)
    tolerance = 1e-9 * (1.0 + abs(summary.maximum) + abs(summary.minimum))
    assert summary.minimum <= summary.q25 + tolerance
    assert summary.q25 <= summary.median + tolerance
    assert summary.median <= summary.q75 + tolerance
    assert summary.q75 <= summary.maximum + tolerance
    assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance


@given(st.lists(finite_floats, min_size=2, max_size=200))
def test_pearson_within_unit_interval(values):
    other = [v * 2 + 1 for v in values]
    result = pearson(values, other)
    assert math.isnan(result) or -1.0000001 <= result <= 1.0000001


@given(
    st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=100)
    .filter(
        lambda pairs: max(p[0] for p in pairs) - min(p[0] for p in pairs) > 1e-3
    )
)
def test_linear_fit_residuals_orthogonal_to_x(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    fit = linear_fit(x, y)
    residuals = np.asarray(y) - fit.predict(np.asarray(x))
    xs = np.asarray(x) - np.mean(x)
    # Least squares: residuals are uncorrelated with x.  The numerical noise
    # floor scales with the magnitudes of the inputs, not of the residuals.
    noise_floor = (np.abs(y).max() + 1.0) * (np.abs(xs).max() + 1.0) * len(x)
    assert abs(float(np.dot(residuals, xs))) <= 1e-7 * noise_floor


@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_box_stats_whiskers_contain_quartiles(values):
    stats = box_stats(values)
    assert stats.whisker_low <= stats.q25 <= stats.median <= stats.q75 <= stats.whisker_high
    for outlier in stats.outliers:
        assert outlier < stats.whisker_low or outlier > stats.whisker_high


@given(st.floats(min_value=-1e5, max_value=1e5), st.floats(min_value=1e-3, max_value=1e5))
def test_linear_scale_invertible(low, span):
    extent = Extent(low, low + span)
    scale = LinearScale(extent, 0.0, 640.0)
    value = low + span / 3
    assert scale.invert(scale(value)) == pytest.approx(value, rel=1e-6, abs=1e-6)


@given(st.floats(min_value=-1e4, max_value=1e4), st.floats(min_value=1e-3, max_value=1e4),
       st.integers(min_value=2, max_value=12))
def test_nice_ticks_sorted_within_domain(low, span, count):
    extent = Extent(low, low + span)
    ticks = nice_ticks(extent, count)
    assert ticks == sorted(ticks)
    assert all(extent.low - 1e-9 <= t <= extent.high + 1e-9 for t in ticks)


# --------------------------------------------------------------------------- #
# Power model invariants
# --------------------------------------------------------------------------- #
def _profile(s: float, q: float, t: float, iq: float) -> GenerationProfile:
    # Normalise *before* construction: the constructor validates the sum,
    # and when s + q + t > 0.99 the clamped linear fraction would push it
    # past the tolerance.
    linear = max(1.0 - s - q - t, 0.01)
    total = s + linear + q + t
    return GenerationProfile(
        static_fraction=s / total,
        linear_fraction=linear / total,
        quadratic_fraction=q / total,
        turbo_fraction=t / total,
        idle_quotient_mean=iq,
    ).normalized()


profile_strategy = st.builds(
    _profile,
    st.floats(min_value=0.05, max_value=0.7),
    st.floats(min_value=0.0, max_value=0.25),
    st.floats(min_value=0.0, max_value=0.15),
    st.floats(min_value=1.0, max_value=2.5),
)

cpu_strategy = st.builds(
    lambda profile, cores, freq, tdp, year: CPUSpec(
        model=f"Synthetic {cores}C",
        vendor=Vendor.INTEL,
        family=CPUFamily.XEON,
        codename="Hypothesis",
        cores=cores,
        threads_per_core=2,
        base_frequency_mhz=freq,
        max_turbo_mhz=freq * 1.3,
        tdp_w=tdp,
        release=MonthDate(year, 6),
        ssj_ops_per_socket=cores * freq * 25.0,
        profile=profile,
    ),
    profile_strategy,
    st.integers(min_value=2, max_value=128),
    st.floats(min_value=1500.0, max_value=3800.0),
    st.floats(min_value=40.0, max_value=400.0),
    st.integers(min_value=2006, max_value=2024),
)


@given(cpu_strategy, st.integers(min_value=1, max_value=2),
       st.floats(min_value=8.0, max_value=1024.0))
def test_power_model_monotonic_and_bounded(cpu, sockets, memory_gb):
    model = ServerPowerModel(
        ServerConfiguration(cpu=cpu, sockets=sockets, memory_gb=memory_gb)
    )
    loads = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    powers = [model.node_power_w(load) for load in loads]
    assert all(p > 0 for p in powers)
    assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))
    idle = model.active_idle_power_w()
    assert 0 < idle <= model.extrapolated_idle_power_w() + 1e-9
    assert idle < powers[-1]
    assert model.overall_efficiency() > 0


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.1, max_value=1.0))
def test_dvfs_activity_factor_bounded(effectiveness, load, floor):
    model = DVFSModel(governor_effectiveness=effectiveness, frequency_floor=floor)
    value = model.activity_factor(load)
    assert 0.0 <= value <= 1.0
    assert value <= load + 1e-9
