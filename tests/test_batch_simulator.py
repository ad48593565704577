"""Batch/scalar simulator equivalence.

The contract of :class:`repro.simulator.batch.BatchDirector` is that batched
execution is a pure optimisation: per run it reproduces the scalar
:class:`RunDirector` bit-for-bit, with measurement noise off and on (every
run draws from its own seeded stream in the scalar order).  These tests pin
that contract field by field, including through random plans (Hypothesis)
and the event-fidelity fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.market.catalog import default_catalog
from repro.market.fleet import SystemPlan
from repro.simulator import (
    BatchDirector,
    BatchPowerAnalyzer,
    RunDirector,
    SimulationOptions,
)

CATALOG = default_catalog()
MODEL_NAMES = [entry.cpu.model for entry in CATALOG.entries]

RESULT_FIELDS = ("target_load", "actual_load", "ssj_ops", "average_power_w")


def make_plan(
    model: str,
    sockets: int = 2,
    nodes: int = 1,
    memory_gb: float = 64.0,
    psu_rating_w: float = 800.0,
    run_id: str = "batch-test-0",
) -> SystemPlan:
    release = CATALOG.get(model).cpu.release
    test_date = release.shift(3)
    return SystemPlan(
        run_id=run_id,
        hw_avail=release,
        sw_avail=test_date.shift(-1),
        test_date=test_date,
        publication_date=test_date.shift(2),
        cpu_model=model,
        sockets=sockets,
        nodes=nodes,
        memory_gb=memory_gb,
        os_name="SUSE Linux Enterprise Server 15",
        jvm_name="OpenJDK 17.0.2",
        system_vendor="Batch Works",
        system_model="BT-100",
        psu_rating_w=psu_rating_w,
    )


def grid_plans() -> list[SystemPlan]:
    """A small heterogeneous grid: several eras, node counts and sockets."""
    plans = []
    for index, model in enumerate(
        ["Xeon X5670", "Xeon E5-2699 v4", "Xeon Platinum 8480+", "EPYC 9654"]
    ):
        for nodes, sockets in ((1, 2), (2, 1), (4, 2)):
            plans.append(
                make_plan(
                    model,
                    sockets=sockets,
                    nodes=nodes,
                    memory_gb=32.0 * sockets * nodes,
                    psu_rating_w=1100.0,
                    run_id=f"batch-grid-{index}-{nodes}-{sockets}",
                )
            )
    return plans


def assert_runs_identical(scalar_run, batch_run):
    """Field-for-field exact equality of two RunResults."""
    assert batch_run.plan == scalar_run.plan
    assert batch_run.cpu == scalar_run.cpu
    assert batch_run.configuration == scalar_run.configuration
    assert batch_run.accepted == scalar_run.accepted
    assert batch_run.calibrated_ops == scalar_run.calibrated_ops
    assert len(batch_run.levels) == len(scalar_run.levels)
    for scalar_level, batch_level in zip(scalar_run.levels, batch_run.levels):
        for field in RESULT_FIELDS:
            assert getattr(batch_level, field) == getattr(scalar_level, field), field


class TestExactEquivalence:
    """measurement_noise=False: the batch kernel is bit-for-bit the scalar path."""

    def test_grid_noise_free(self):
        options = SimulationOptions(measurement_noise=False)
        plans = grid_plans()
        scalar = [RunDirector(options=options).run(plan) for plan in plans]
        batch = BatchDirector(options=options).run_batch(plans)
        for scalar_run, batch_run in zip(scalar, batch):
            assert_runs_identical(scalar_run, batch_run)

    def test_grid_with_noise_is_also_exact(self):
        # Stronger than the advertised distributional guarantee: the noise
        # streams are drawn per run in scalar order from the same seeds, so
        # on one platform the noisy results match exactly too.
        options = SimulationOptions(measurement_noise=True)
        plans = grid_plans()
        scalar = [RunDirector(options=options).run(plan) for plan in plans]
        batch = BatchDirector(options=options).run_batch(plans)
        for scalar_run, batch_run in zip(scalar, batch):
            assert_runs_identical(scalar_run, batch_run)

    def test_short_ladder_noise_free(self):
        options = SimulationOptions(
            measurement_noise=False, load_levels=(1.0, 0.7, 0.3, 0.0)
        )
        plans = grid_plans()[:4]
        scalar = [RunDirector(options=options).run(plan) for plan in plans]
        batch = BatchDirector(options=options).run_batch(plans)
        for scalar_run, batch_run in zip(scalar, batch):
            assert_runs_identical(scalar_run, batch_run)

    def test_per_plan_seeds_match_scalar_corpus_seeds(self):
        options = SimulationOptions(measurement_noise=False)
        plans = grid_plans()[:6]
        seeds = [11, 22, 33, 44, 55, 66]
        scalar = [
            RunDirector(options=options, corpus_seed=seed).run(plan)
            for plan, seed in zip(plans, seeds)
        ]
        batch = BatchDirector(options=options).run_batch(plans, seeds=seeds)
        for scalar_run, batch_run in zip(scalar, batch):
            assert_runs_identical(scalar_run, batch_run)

    def test_run_convenience_wrapper(self):
        options = SimulationOptions(measurement_noise=False)
        plan = make_plan("EPYC 9654")
        assert_runs_identical(
            RunDirector(options=options).run(plan),
            BatchDirector(options=options).run(plan),
        )

    @settings(deadline=None, max_examples=25)
    @given(
        model=st.sampled_from(MODEL_NAMES),
        sockets=st.integers(min_value=1, max_value=4),
        nodes=st.integers(min_value=1, max_value=4),
        memory_gb=st.floats(min_value=8.0, max_value=2048.0),
        psu_rating_w=st.sampled_from([460.0, 800.0, 1600.0, 2400.0]),
        corpus_seed=st.integers(min_value=0, max_value=2**31 - 1),
        run_tag=st.integers(min_value=0, max_value=10**6),
        load_levels=st.sampled_from(
            [None, (1.0, 0.0), (1.0, 0.5, 0.0), (1.0, 0.8, 0.6, 0.4, 0.2, 0.0)]
        ),
        interval_duration_s=st.sampled_from([60.0, 240.0, 431.0]),
    )
    def test_random_plans_agree_on_every_field(
        self,
        model,
        sockets,
        nodes,
        memory_gb,
        psu_rating_w,
        corpus_seed,
        run_tag,
        load_levels,
        interval_duration_s,
    ):
        plan = make_plan(
            model,
            sockets=sockets,
            nodes=nodes,
            memory_gb=memory_gb,
            psu_rating_w=psu_rating_w,
            run_id=f"batch-prop-{run_tag}",
        )
        options = SimulationOptions(
            measurement_noise=False,
            load_levels=load_levels,
            interval_duration_s=interval_duration_s,
        )
        scalar_run = RunDirector(options=options, corpus_seed=corpus_seed).run(plan)
        batch_run = BatchDirector(options=options, corpus_seed=corpus_seed).run_batch(
            [plan]
        )[0]
        assert_runs_identical(scalar_run, batch_run)

    @settings(deadline=None, max_examples=40)
    @given(
        models=st.lists(st.sampled_from(MODEL_NAMES), min_size=1, max_size=4),
        sockets=st.integers(min_value=1, max_value=4),
        nodes=st.integers(min_value=1, max_value=4),
        corpus_seed=st.integers(min_value=0, max_value=2**31 - 1),
        run_tag=st.integers(min_value=0, max_value=10**6),
        load_levels=st.sampled_from(
            [None, (1.0, 0.0), (1.0, 0.5, 0.0), (1.0, 0.8, 0.6, 0.4, 0.2, 0.0)]
        ),
        interval_duration_s=st.sampled_from([60.0, 240.0, 431.0]),
        calibration_noise_sigma=st.sampled_from([0.0, 0.001, 0.01, 0.2]),
        throughput_variation_sigma=st.sampled_from([0.0, 0.03, 0.5]),
        power_variation_sigma=st.sampled_from([0.0, 0.04, 0.5]),
    )
    def test_random_noisy_plans_agree_on_every_field(
        self,
        models,
        sockets,
        nodes,
        corpus_seed,
        run_tag,
        load_levels,
        interval_duration_s,
        calibration_noise_sigma,
        throughput_variation_sigma,
        power_variation_sigma,
    ):
        # The noisy twin of the test above: every draw the scalar director
        # takes from its run's generator (calibration, throughput and power
        # variation, calibration intervals, level and idle sampling, the
        # idle quotient) comes out of the batch kernel bit for bit, zero
        # sigmas (which skip draws) included.
        plans = [
            make_plan(model, sockets=sockets, nodes=nodes, run_id=f"batch-noise-{run_tag}-{i}")
            for i, model in enumerate(models)
        ]
        options = SimulationOptions(
            measurement_noise=True,
            load_levels=load_levels,
            interval_duration_s=interval_duration_s,
            calibration_noise_sigma=calibration_noise_sigma,
            throughput_variation_sigma=throughput_variation_sigma,
            power_variation_sigma=power_variation_sigma,
        )
        scalar = [RunDirector(options=options, corpus_seed=corpus_seed).run(p) for p in plans]
        batch = BatchDirector(options=options, corpus_seed=corpus_seed).run_batch(plans)
        for scalar_run, batch_run in zip(scalar, batch):
            assert_runs_identical(scalar_run, batch_run)


class TestNoisyDistributions:
    """measurement_noise=True: same seeded streams, same distributions."""

    def test_noisy_runs_agree_distributionally(self):
        options = SimulationOptions(measurement_noise=True)
        plans = [
            make_plan("Xeon E5-2699 v4", run_id=f"batch-noise-{seed}")
            for seed in range(40)
        ]
        seeds = list(range(40))
        scalar = [
            RunDirector(options=options, corpus_seed=seed).run(plan)
            for plan, seed in zip(plans, seeds)
        ]
        batch = BatchDirector(options=options).run_batch(plans, seeds=seeds)

        def moments(runs):
            full = np.array([run.full_load.average_power_w for run in runs])
            idle = np.array([run.active_idle.average_power_w for run in runs])
            efficiency = np.array([run.overall_efficiency for run in runs])
            return full, idle, efficiency

        for scalar_values, batch_values in zip(moments(scalar), moments(batch)):
            assert np.mean(batch_values) == pytest.approx(
                np.mean(scalar_values), rel=1e-6
            )
            assert np.std(batch_values) == pytest.approx(
                np.std(scalar_values), rel=1e-4
            )
            # Per-run the seeded streams line up, so the agreement is far
            # tighter than distributional: allow only last-ULP-scale drift.
            assert np.allclose(batch_values, scalar_values, rtol=1e-9)


class TestBatchDirectorBehaviour:
    def test_event_fidelity_falls_back_to_scalar(self):
        options = SimulationOptions(fidelity="event", interval_duration_s=5.0)
        plans = grid_plans()[:3]
        scalar = [RunDirector(options=options).run(plan) for plan in plans]
        batch = BatchDirector(options=options).run_batch(plans)
        for scalar_run, batch_run in zip(scalar, batch):
            assert_runs_identical(scalar_run, batch_run)

    def test_empty_batch(self):
        assert BatchDirector().run_batch([]) == []

    def test_mismatched_seeds_rejected(self):
        plans = grid_plans()[:2]
        with pytest.raises(SimulationError):
            BatchDirector().run_batch(plans, seeds=[1])

    def test_results_preserve_input_order(self):
        options = SimulationOptions(measurement_noise=False)
        plans = grid_plans()
        batch = BatchDirector(options=options).run_batch(plans)
        assert [run.plan.run_id for run in batch] == [plan.run_id for plan in plans]

    def test_windowed_batch_is_bit_identical(self):
        # max_rows bounds the (runs x levels) temporaries; per-run seeded
        # RNG streams make the windowed evaluation bit-identical to one
        # monolithic call, noise on or off.
        for noise in (False, True):
            options = SimulationOptions(measurement_noise=noise)
            plans = grid_plans()
            director = BatchDirector(options=options)
            monolithic = director.run_batch(plans, max_rows=None)
            windowed = director.run_batch(plans, max_rows=3)
            for mono_run, window_run in zip(monolithic, windowed):
                assert_runs_identical(mono_run, window_run)

    def test_invalid_max_rows_rejected(self):
        with pytest.raises(SimulationError):
            BatchDirector().run_batch(grid_plans()[:2], max_rows=0)


class TestBatchPowerAnalyzer:
    def test_validation_matches_scalar_analyzer(self):
        with pytest.raises(SimulationError):
            BatchPowerAnalyzer(accuracy=0.06)
        with pytest.raises(SimulationError):
            BatchPowerAnalyzer(sample_noise_w=-1.0)
        with pytest.raises(SimulationError):
            BatchPowerAnalyzer(sample_rate_hz=0.0)
        with pytest.raises(SimulationError):
            BatchPowerAnalyzer().samples(0.0)

    def test_negative_true_power_rejected(self):
        analyzer = BatchPowerAnalyzer()
        with pytest.raises(SimulationError):
            analyzer.measure_power(np.array([100.0, -1.0]), 1.0, 0.0)

    def test_measurement_formula(self):
        analyzer = BatchPowerAnalyzer(sample_noise_w=0.0, accuracy=0.0)
        true_power = np.array([[100.0, 50.0], [10.0, 0.0]])
        measured = analyzer.measure_power(true_power, 1.0, 0.0)
        assert np.array_equal(measured, true_power)
        # Noise can never push a reading below zero.
        clipped = analyzer.measure_power(np.array([1.0]), 1.0, -5.0)
        assert clipped[0] == 0.0
