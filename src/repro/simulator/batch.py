"""Vectorized batch simulation: many benchmark runs as NumPy arrays.

:class:`BatchDirector` is the array-oriented counterpart of
:class:`repro.simulator.director.RunDirector`.  Where the scalar director
walks one Python loop per load level per node, the batch director simulates
N runs at once: calibration, the graduated load ladder and active idle are
evaluated as ``(runs x levels)`` matrices through the array-aware power
model, and the per-run measurement chain collapses into a handful of
vectorized expressions.  Campaigns with thousands of units become
simulator-bound on NumPy kernels instead of the Python interpreter.

Equivalence contract
--------------------
Batched results are **bit-for-bit identical** to the scalar director, run
by run:

* every run's RNG is seeded exactly as the scalar path seeds it (SHA-256 of
  ``"{seed}:{run_id}"``), so content-hash campaign cache keys stay valid,
* stochastic draws are pulled from each run's own generator in precisely the
  scalar order (analyzer calibration, throughput/power variation,
  calibration intervals, one sampling draw per measured level, the idle
  quotient, the idle sampling draw),
* the deterministic math goes through the same NumPy primitives the scalar
  model methods use (see :mod:`repro.powermodel`), so elementwise array
  evaluation reproduces the scalar floating-point results exactly.

The event-driven fidelity simulates an explicit queue whose length depends
on random arrivals — inherently sequential — so ``fidelity="event"`` falls
back to the scalar director per run.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..faults.plan import fault_point
from ..market.catalog import Catalog, default_catalog
from ..market.fleet import SystemPlan
from ..powermodel.server import ServerConfiguration, ServerPowerModel
from .director import RunDirector, SimulationOptions, _seed_from
from .measurement import BatchPowerAnalyzer
from .result import RunMatrices, RunResult

__all__ = ["BatchDirector"]

#: Calibration intervals the SPEC run rules prescribe (see ``calibration``).
_CALIBRATION_INTERVALS = 3

#: Default rows per vectorized window.  Every per-run RNG stream is seeded
#: independently, so evaluating a large batch in fixed-size windows is
#: bit-identical to one monolithic call — the window only bounds the
#: ``(runs x levels)`` temporaries, keeping kernel memory O(window) when a
#: caller (the sharded campaign runner, say) hands over thousands of plans.
DEFAULT_MAX_ROWS = 4096


class BatchDirector:
    """Executes many benchmark runs at once as array operations.

    Parameters mirror :class:`RunDirector`; ``corpus_seed`` is the default
    seed for plans whose seed is not given per run in :meth:`run_batch`.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        options: SimulationOptions | None = None,
        corpus_seed: int = 2024,
    ):
        self.catalog = catalog or default_catalog()
        self.options = options or SimulationOptions()
        self.corpus_seed = corpus_seed
        self._scalar = RunDirector(self.catalog, self.options, corpus_seed)

    # ------------------------------------------------------------------ #
    def build_configuration(self, plan: SystemPlan) -> ServerConfiguration:
        """Server configuration (one node) described by a plan."""
        return self._scalar.build_configuration(plan)

    def run(self, plan: SystemPlan) -> RunResult:
        """Simulate a single plan (convenience wrapper over the batch path)."""
        return self.run_batch([plan])[0]

    def run_batch(
        self,
        plans: Sequence[SystemPlan],
        seeds: Sequence[int] | None = None,
        max_rows: int | None = DEFAULT_MAX_ROWS,
    ) -> list[RunResult]:
        """Simulate every plan; results are ordered like the input.

        ``seeds`` optionally gives each plan its own corpus seed (campaign
        units sweep seeds); by default every plan uses ``corpus_seed``.
        ``max_rows`` bounds the rows of any single vectorized evaluation
        (``None`` disables windowing); results are bit-identical either way
        because every run draws from its own seeded RNG stream.
        """
        return [
            result
            for window in self.run_windows(plans, seeds, max_rows)
            for result in window.results()
        ]

    def run_windows(
        self,
        plans: Sequence[SystemPlan],
        seeds: Sequence[int] | None = None,
        max_rows: int | None = DEFAULT_MAX_ROWS,
    ) -> list[RunMatrices]:
        """The runs :meth:`run_batch` simulates, as one matrix set per window.

        The windows cover ``plans`` in input order, at most ``max_rows``
        runs each.  A window whose runs :meth:`run_batch` could not turn
        into results (a negative power or throughput) is returned all the
        same; :meth:`RunMatrices.check_levels` finds it.
        """
        plans = list(plans)
        if seeds is None:
            seeds = [self.corpus_seed] * len(plans)
        else:
            seeds = [int(seed) for seed in seeds]
            if len(seeds) != len(plans):
                raise SimulationError("seeds must match plans one-to-one")
        if max_rows is not None and max_rows < 1:
            raise SimulationError(f"max_rows must be >= 1, got {max_rows}")
        if not plans:
            return []
        # A raise here fails the whole vectorized call; the campaign runner
        # falls back to per-unit scalar execution, which must converge.
        fault_point("batch.run", ctx=f"plans{len(plans)}")
        from ..obs.trace import get_tracer

        options = self.options
        with get_tracer().span("batch.run", plans=len(plans), fidelity=options.fidelity):
            if options.fidelity == "event":
                # Event-mode queueing is sequential by nature; delegate per run.
                return [
                    RunMatrices.from_results(
                        [
                            RunDirector(self.catalog, options, seed).run(plan)
                            for plan, seed in zip(plans, seeds)
                        ]
                    )
                ]
            step = len(plans) if max_rows is None else max_rows
            return [
                self._run_window(plans[start : start + step], seeds[start : start + step])
                for start in range(0, len(plans), step)
            ]

    def _run_window(self, plans: list[SystemPlan], seeds: list[int]) -> RunMatrices:
        """One vectorized evaluation of up to ``max_rows`` plans."""
        options = self.options
        levels = options.effective_load_levels
        measured = [level for level in levels if level != 0.0]
        n_runs = len(plans)
        n_measured = len(measured)

        # One configuration per distinct hardware plan and one model per
        # distinct configuration; runs sharing hardware share the model
        # evaluation below.  The repr keeps apart numbers that compare equal
        # but differ (0.0 and -0.0), so every run gets the configuration its
        # own plan builds.
        configurations: list[ServerConfiguration] = []
        row_model: list[int] = []
        models: list[ServerPowerModel] = []
        model_rows: list[list[int]] = []
        by_hardware: dict[tuple, tuple[ServerConfiguration, int]] = {}
        by_configuration: dict[ServerConfiguration, int] = {}
        for row, plan in enumerate(plans):
            hardware = (
                plan.cpu_model,
                plan.os_name,
                plan.jvm_name,
                plan.system_vendor,
                plan.system_model,
                repr((plan.sockets, plan.nodes, plan.memory_gb, plan.psu_rating_w)),
            )
            known = by_hardware.get(hardware)
            if known is None:
                configuration = self.build_configuration(plan)
                index = by_configuration.get(configuration)
                if index is None:
                    index = by_configuration[configuration] = len(models)
                    models.append(ServerPowerModel(configuration))
                    model_rows.append([])
                known = by_hardware[hardware] = (configuration, index)
            configurations.append(known[0])
            row_model.append(known[1])
            model_rows[known[1]].append(row)

        analyzer = BatchPowerAnalyzer(
            sample_noise_w=1.5 if options.measurement_noise else 0.0,
            accuracy=0.005 if options.measurement_noise else 0.0,
        )
        quotient_sigma = [model.package_cstates.quotient_sigma for model in models]
        noise = self._draw_noise_streams(
            plans, seeds, [quotient_sigma[index] for index in row_model], analyzer, n_measured
        )

        nodes = np.array([plan.nodes for plan in plans], dtype=float)

        # Calibration: true maximum perturbed per interval, calibrated rate
        # is the mean of the last two intervals (SPEC run rules).  The first
        # interval's rate (with its warm-up penalty) never enters the mean,
        # so only its noise draw is consumed, not its value.
        max_ops = np.array([model.max_throughput_ops() for model in models])[row_model]
        true_max = max_ops * noise.throughput_factor
        rate_2 = true_max * 1.0 * noise.calibration[:, 1]
        rate_3 = true_max * 1.0 * noise.calibration[:, 2]
        calibrated = (rate_2 + rate_3) / 2.0

        # Graduated levels: the analytic scheduler always reaches the target
        # rate scaled from the *calibrated* maximum; calibration error shifts
        # the achieved fraction of the *true* maximum slightly.
        targets = np.array(measured)
        achieved_rate = targets[None, :] * calibrated[:, None]
        achieved_fraction = np.minimum(achieved_rate / true_max[:, None], 1.0)

        # Power model, vectorized per configuration group over (runs x levels).
        node_power = np.empty((n_runs, n_measured))
        extrapolated_idle = np.empty(n_runs)
        base_quotient = np.empty(n_runs)
        for model, rows in zip(models, model_rows):
            node_power[rows, :] = model.node_power_w(achieved_fraction[rows, :])
            extrapolated_idle[rows] = model.extrapolated_idle_power_w()
            base_quotient[rows] = model.package_cstates.effective_quotient(
                model.configuration.logical_cpus_per_node
            )

        true_level_power = node_power * noise.power_factor[:, None] * nodes[:, None]
        measured_power = analyzer.measure_power(
            true_level_power, noise.analyzer_factor[:, None], noise.level[:, :]
        )
        reported_ops = achieved_rate * nodes[:, None]

        # Active idle: package C-states divide the extrapolated idle power by
        # the achieved quotient (with per-run spread when noise is on).
        quotient = np.maximum(base_quotient * noise.idle_quotient, 1.0)
        true_idle_power = (extrapolated_idle / quotient) * noise.power_factor * nodes
        measured_idle = analyzer.measure_power(
            true_idle_power, noise.analyzer_factor, noise.idle
        )

        return RunMatrices(
            plans=plans,
            configurations=configurations,
            targets=tuple(measured),
            actual_load=achieved_fraction,
            ssj_ops=reported_ops,
            power=measured_power,
            idle_power=measured_idle,
            idle_ops=np.zeros(n_runs),
            calibrated_ops=[rate * plan.nodes for rate, plan in zip(calibrated.tolist(), plans)],
            accepted=[plan.accepted for plan in plans],
        )

    # ------------------------------------------------------------------ #
    def _draw_noise_streams(
        self,
        plans: list[SystemPlan],
        seeds: list[int],
        quotient_sigmas: list[float],
        analyzer: BatchPowerAnalyzer,
        n_measured: int,
    ) -> "_NoiseStreams":
        """Per-run stochastic draws, pulled in exactly the scalar order.

        ``quotient_sigmas`` gives each run's idle-quotient spread (its
        power model's package C-state sigma).
        """
        options = self.options
        n_runs = len(plans)
        streams = _NoiseStreams.identity(n_runs, n_measured)
        if not options.measurement_noise:
            return streams
        level_sigma = analyzer.interval_noise_sigma(options.interval_duration_s)
        # A run's draws in scalar order: analyzer calibration offset;
        # throughput and power variation; the calibration intervals (none at
        # sigma 0, matching the scalar ``calibrate``); one sampling draw per
        # measured level, in ladder order; the idle quotient spread (none at
        # sigma 0); the idle sampling draw.  ``normal(0, s)`` is
        # ``0.0 + s * z`` of the generator's next standard normal ``z``, so
        # one ``standard_normal(k)`` per run scaled by each draw's sigma
        # consumes the same stream and gives the same floats.
        head = [
            analyzer.calibration_sigma(),
            options.throughput_variation_sigma,
            options.power_variation_sigma,
        ]
        n_calibration = _CALIBRATION_INTERVALS if options.calibration_noise_sigma > 0 else 0
        head += [options.calibration_noise_sigma] * n_calibration
        first_level = len(head)
        sigmas_by_quotient: dict[float, np.ndarray] = {}
        for row, (plan, seed, quotient_sigma) in enumerate(zip(plans, seeds, quotient_sigmas)):
            sigmas = sigmas_by_quotient.get(quotient_sigma)
            if sigmas is None:
                quotient = [quotient_sigma] if quotient_sigma > 0 else []
                sigmas = np.array(head + [level_sigma] * n_measured + quotient + [level_sigma])
                sigmas_by_quotient[quotient_sigma] = sigmas
            rng = np.random.Generator(np.random.PCG64(_seed_from(plan.run_id, seed)))
            draws = (0.0 + sigmas * rng.standard_normal(len(sigmas))).tolist()
            streams.analyzer_factor[row] = 1.0 + draws[0]
            # Scalar np.exp per draw, so the factors are the exact floats the
            # scalar path computes.
            streams.throughput_factor[row] = float(np.exp(draws[1]))
            streams.power_factor[row] = float(np.exp(draws[2]))
            for interval in range(n_calibration):
                streams.calibration[row, interval] = float(np.exp(draws[3 + interval]))
            streams.level[row, :] = draws[first_level : first_level + n_measured]
            if quotient_sigma > 0:
                streams.idle_quotient[row] = float(np.exp(draws[-2]))
            streams.idle[row] = draws[-1]
        return streams


class _NoiseStreams:
    """Arrays of per-run stochastic factors (identity when noise is off)."""

    __slots__ = (
        "analyzer_factor",
        "throughput_factor",
        "power_factor",
        "calibration",
        "level",
        "idle_quotient",
        "idle",
    )

    def __init__(self, analyzer_factor, throughput_factor, power_factor,
                 calibration, level, idle_quotient, idle):
        self.analyzer_factor = analyzer_factor
        self.throughput_factor = throughput_factor
        self.power_factor = power_factor
        self.calibration = calibration
        self.level = level
        self.idle_quotient = idle_quotient
        self.idle = idle

    @classmethod
    def identity(cls, n_runs: int, n_measured: int) -> "_NoiseStreams":
        return cls(
            analyzer_factor=np.ones(n_runs),
            throughput_factor=np.ones(n_runs),
            power_factor=np.ones(n_runs),
            calibration=np.ones((n_runs, _CALIBRATION_INTERVALS)),
            level=np.zeros((n_runs, n_measured)),
            idle_quotient=np.ones(n_runs),
            idle=np.zeros(n_runs),
        )
