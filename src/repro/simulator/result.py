"""Benchmark run results.

A :class:`RunResult` mirrors the content of one published SPEC Power report:
system description, per-load-level performance and power, the active-idle
measurement and the overall ssj_ops/W score.  The report writer
(:mod:`repro.reportgen`) serialises these objects; the parser reads the
serialised form back — together they close the round-trip the analysis code
is tested against.

:class:`RunMatrices` holds many runs of one load ladder as ``(runs x
levels)`` arrays: the batch kernel's native output, which campaign rows are
derived from column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..errors import SimulationError
from ..market.fleet import SystemPlan
from ..powermodel.cpu import CPUSpec
from ..powermodel.server import ServerConfiguration

__all__ = ["LoadLevelResult", "RunMatrices", "RunResult"]


@dataclass(frozen=True)
class LoadLevelResult:
    """One graduated measurement interval (or the active-idle interval)."""

    target_load: float
    actual_load: float
    ssj_ops: float
    average_power_w: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_load <= 1.0:
            raise SimulationError("target_load must be in [0, 1]")
        if self.average_power_w < 0:
            raise SimulationError("average_power_w must be >= 0")
        if self.ssj_ops < 0:
            raise SimulationError("ssj_ops must be >= 0")

    @property
    def is_active_idle(self) -> bool:
        return self.target_load == 0.0

    @property
    def performance_to_power_ratio(self) -> float:
        if self.average_power_w <= 0:
            return 0.0
        return self.ssj_ops / self.average_power_w


@dataclass(frozen=True)
class RunResult:
    """A complete simulated SPECpower_ssj2008 run for one submission."""

    plan: SystemPlan
    cpu: CPUSpec
    configuration: ServerConfiguration
    levels: tuple[LoadLevelResult, ...]
    calibrated_ops: float
    accepted: bool = True

    def __post_init__(self) -> None:
        if not self.levels:
            raise SimulationError("a run needs at least one measured level")

    # ------------------------------------------------------------------ #
    @property
    def active_idle(self) -> LoadLevelResult:
        """The active-idle interval (target load 0 %)."""
        for level in self.levels:
            if level.is_active_idle:
                return level
        raise SimulationError("run has no active idle interval")

    @property
    def load_levels(self) -> list[LoadLevelResult]:
        """The graduated levels, highest target load first, idle excluded."""
        graded = [level for level in self.levels if not level.is_active_idle]
        return sorted(graded, key=lambda level: -level.target_load)

    @property
    def full_load(self) -> LoadLevelResult:
        levels = self.load_levels
        if not levels or levels[0].target_load != 1.0:
            raise SimulationError("run has no 100 % load level")
        return levels[0]

    # ------------------------------------------------------------------ #
    @property
    def total_nodes(self) -> int:
        return self.plan.nodes

    @property
    def total_sockets(self) -> int:
        return self.plan.nodes * self.plan.sockets

    @property
    def overall_efficiency(self) -> float:
        """Overall ssj_ops/W: sum of ops divided by sum of power, idle included."""
        total_ops = sum(level.ssj_ops for level in self.levels)
        total_power = sum(level.average_power_w for level in self.levels)
        if total_power <= 0:
            raise SimulationError("total power must be positive")
        return total_ops / total_power

    def level_at(self, target_load: float) -> LoadLevelResult:
        """The measurement at a specific target load (e.g. ``0.7``)."""
        for level in self.levels:
            if abs(level.target_load - target_load) < 1e-9:
                return level
        raise SimulationError(f"no measurement at target load {target_load}")

    def summary(self) -> dict:
        """Compact dictionary used by examples and quick inspection."""
        full = self.full_load
        idle = self.active_idle
        return {
            "run_id": self.plan.run_id,
            "cpu": self.cpu.model,
            "vendor": self.cpu.vendor.value,
            "sockets": self.plan.sockets,
            "nodes": self.plan.nodes,
            "hw_avail": str(self.plan.hw_avail),
            "overall_ssj_ops_per_watt": round(self.overall_efficiency, 1),
            "full_load_power_w": round(full.average_power_w, 1),
            "active_idle_power_w": round(idle.average_power_w, 1),
            "idle_fraction": round(idle.average_power_w / full.average_power_w, 4)
            if full.average_power_w > 0
            else None,
        }


@dataclass(frozen=True, eq=False)
class RunMatrices:
    """Many simulated runs of one load ladder, as arrays.

    Row ``i`` is the run of ``plans[i]`` on ``configurations[i]``.  The
    ``(runs x levels)`` matrices ``actual_load``, ``ssj_ops`` and ``power``
    have one column per measured target load of ``targets`` (highest first,
    the order :attr:`RunResult.levels` lists them); active idle, always the
    last level of a run, is the ``(runs,)`` arrays ``idle_power`` and
    ``idle_ops``.  ``calibrated_ops`` and ``accepted`` are per-run Python
    values.  :meth:`results` and :meth:`from_results` convert to and from
    :class:`RunResult` objects without changing a bit.
    """

    plans: Sequence[SystemPlan]
    configurations: Sequence[ServerConfiguration]
    targets: tuple[float, ...]
    actual_load: np.ndarray
    ssj_ops: np.ndarray
    power: np.ndarray
    idle_power: np.ndarray
    idle_ops: np.ndarray
    calibrated_ops: Sequence[float]
    accepted: Sequence[Any]

    def __len__(self) -> int:
        return len(self.plans)

    @classmethod
    def from_results(cls, results: Sequence[RunResult]) -> "RunMatrices":
        """The matrices of results that share one ladder, active idle last."""
        if not results:
            raise SimulationError("no results to stack")
        targets = tuple(level.target_load for level in results[0].levels)
        if targets[-1] != 0.0 or 0.0 in targets[:-1]:
            raise SimulationError("a run must measure active idle last, and only there")
        for result in results:
            if tuple(level.target_load for level in result.levels) != targets:
                raise SimulationError("stacked runs must share one load ladder")
        shape = (len(results), len(targets) - 1)
        measured = [result.levels[:-1] for result in results]
        return cls(
            plans=[result.plan for result in results],
            configurations=[result.configuration for result in results],
            targets=targets[:-1],
            actual_load=np.array(
                [[level.actual_load for level in levels] for levels in measured], dtype=float
            ).reshape(shape),
            ssj_ops=np.array(
                [[level.ssj_ops for level in levels] for levels in measured], dtype=float
            ).reshape(shape),
            power=np.array(
                [[level.average_power_w for level in levels] for levels in measured],
                dtype=float,
            ).reshape(shape),
            idle_power=np.array(
                [result.levels[-1].average_power_w for result in results], dtype=float
            ),
            idle_ops=np.array([result.levels[-1].ssj_ops for result in results], dtype=float),
            calibrated_ops=[result.calibrated_ops for result in results],
            accepted=[result.accepted for result in results],
        )

    def check_levels(self) -> None:
        """Raise what :meth:`results` would raise for an invalid level."""
        bad = (self.power < 0) | (self.ssj_ops < 0)
        bad_idle = (self.idle_power < 0) | (self.idle_ops < 0)
        if bad.any() or bad_idle.any():
            self.results()

    def results(self) -> list[RunResult]:
        """One :class:`RunResult` per run, levels in ladder order, idle last."""
        results = []
        rows = zip(
            self.plans,
            self.configurations,
            self.actual_load.tolist(),
            self.ssj_ops.tolist(),
            self.power.tolist(),
            self.idle_power.tolist(),
            self.idle_ops.tolist(),
            self.calibrated_ops,
            self.accepted,
        )
        for plan, configuration, actual, ops, power, idle, idle_ops, calibrated, ok in rows:
            levels = [
                LoadLevelResult(
                    target_load=target,
                    actual_load=level_actual,
                    ssj_ops=level_ops,
                    average_power_w=level_power,
                )
                for target, level_actual, level_ops, level_power in zip(
                    self.targets, actual, ops, power
                )
            ]
            levels.append(
                LoadLevelResult(
                    target_load=0.0, actual_load=0.0, ssj_ops=idle_ops, average_power_w=idle
                )
            )
            results.append(
                RunResult(
                    plan=plan,
                    cpu=configuration.cpu,
                    configuration=configuration,
                    levels=tuple(levels),
                    calibrated_ops=calibrated,
                    accepted=ok,
                )
            )
        return results
