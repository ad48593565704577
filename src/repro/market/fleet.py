"""Sampling of complete submissions: the synthetic SPEC Power fleet.

A :class:`FleetSampler` turns the market trajectories
(:mod:`repro.market.trends`), the CPU catalog
(:mod:`repro.market.catalog`) and the anomaly plan
(:mod:`repro.market.anomalies`) into a :class:`FleetPlan`: one
:class:`SystemPlan` per submission, ready to be simulated by
:mod:`repro.simulator` and written by :mod:`repro.reportgen`.

The plan reproduces the paper's dataset funnel by construction: for the
default parameters it contains 1017 submissions, of which 57 carry a defect
(rejected before analysis), 9 use non-x86 CPUs, 6 use desktop CPUs and 269
use more than one node or more than two sockets, leaving 676 analysable runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import CatalogError
from ..parser.validation import MAX_PLAUSIBLE_CORES
from ..powermodel.cpu import Vendor
from ..units import MonthDate
from .anomalies import AnomalyKind, AnomalyPlan, default_anomaly_plan
from .catalog import Catalog, CatalogEntry, default_catalog
from .trends import MarketTrends, default_trends

__all__ = ["SystemPlan", "FleetPlan", "FleetSampler", "sample_fleet"]

_PSU_SIZES = (350.0, 460.0, 550.0, 750.0, 800.0, 1100.0, 1300.0, 1600.0, 2000.0, 2400.0)

_MODEL_TEMPLATES: dict[str, tuple[str, ...]] = {
    "Hewlett Packard Enterprise": ("ProLiant DL360", "ProLiant DL380", "ProLiant ML350"),
    "Dell Inc.": ("PowerEdge R640", "PowerEdge R740", "PowerEdge R6525"),
    "Fujitsu": ("PRIMERGY RX2530", "PRIMERGY RX300", "PRIMERGY TX300"),
    "Lenovo Global Technology": ("ThinkSystem SR630", "ThinkSystem SR650", "ThinkSystem SR645"),
    "IBM Corporation": ("System x3650", "System x3550", "Flex System x240"),
    "Supermicro": ("SuperServer 1029U", "SuperServer 2029U", "A+ Server 2024US"),
    "Inspur Corporation": ("NF5180M5", "NF5280M6", "NF8260M5"),
    "Huawei Technologies": ("FusionServer RH2288", "FusionServer 2288H", "TaiShan 2280"),
    "ASUSTeK Computer": ("RS720-E9", "RS700-E10", "RS720A-E11"),
    "Acer Incorporated": ("Altos R380", "Altos R360", "Altos R520"),
    "Quanta Computer": ("QuantaGrid D52B", "QuantaGrid D43K", "QuantaPlex T42S"),
}


@dataclass(frozen=True)
class SystemPlan:
    """Everything needed to simulate and report one submission."""

    run_id: str
    hw_avail: MonthDate
    sw_avail: MonthDate
    test_date: MonthDate
    publication_date: MonthDate
    cpu_model: str
    sockets: int
    nodes: int
    memory_gb: float
    os_name: str
    jvm_name: str
    system_vendor: str
    system_model: str
    psu_rating_w: float
    category: str = "server"  # "server", "other_vendor" or "desktop"
    anomaly: AnomalyKind | None = None
    accepted: bool = True

    @property
    def is_rejectable(self) -> bool:
        """True when the submission carries an injected defect."""
        return self.anomaly is not None

    @property
    def file_name(self) -> str:
        return f"{self.run_id}.txt"


@dataclass(frozen=True)
class FleetPlan:
    """An ordered collection of system plans plus generation metadata."""

    systems: tuple[SystemPlan, ...]
    seed: int
    parsed_target: int

    def __len__(self) -> int:
        return len(self.systems)

    @property
    def clean(self) -> list[SystemPlan]:
        """Plans without injected defects (the paper's 960 parsed runs)."""
        return [plan for plan in self.systems if plan.anomaly is None]

    @property
    def defective(self) -> list[SystemPlan]:
        return [plan for plan in self.systems if plan.anomaly is not None]

    def count_category(self, category: str) -> int:
        return sum(1 for plan in self.clean if plan.category == category)

    def count_multi(self) -> int:
        """Clean server-class plans with >1 node or >2 sockets."""
        return sum(
            1
            for plan in self.clean
            if plan.category == "server" and (plan.nodes > 1 or plan.sockets > 2)
        )

    def analysable(self) -> list[SystemPlan]:
        """Plans expected to survive the paper's full filter pipeline."""
        return [
            plan
            for plan in self.clean
            if plan.category == "server" and plan.nodes == 1 and plan.sockets <= 2
        ]


class FleetSampler:
    """Deterministic sampler of submission plans.

    Parameters
    ----------
    total_parsed_runs:
        Number of defect-free submissions (the paper's 960).  The numbers of
        non-x86, desktop and multi-node/socket submissions scale with it.
    catalog, trends, anomalies:
        Market model components; defaults reproduce the paper's dataset.
    """

    def __init__(
        self,
        total_parsed_runs: int = 960,
        catalog: Catalog | None = None,
        trends: MarketTrends | None = None,
        anomalies: AnomalyPlan | None = None,
        other_vendor_runs: int | None = None,
        desktop_runs: int | None = None,
        multi_node_or_socket_runs: int | None = None,
    ):
        if total_parsed_runs < 30:
            raise CatalogError("total_parsed_runs must be >= 30")
        self.total_parsed_runs = total_parsed_runs
        self.catalog = catalog or default_catalog()
        self.trends = trends or default_trends()
        scale = total_parsed_runs / 960.0
        self.anomalies = anomalies or default_anomaly_plan().scaled(scale)
        self.other_vendor_runs = (
            other_vendor_runs if other_vendor_runs is not None else max(round(9 * scale), 1)
        )
        self.desktop_runs = (
            desktop_runs if desktop_runs is not None else max(round(6 * scale), 1)
        )
        self.multi_runs = (
            multi_node_or_socket_runs
            if multi_node_or_socket_runs is not None
            else round(269 * scale)
        )
        if self.other_vendor_runs + self.desktop_runs + self.multi_runs > total_parsed_runs:
            raise CatalogError("special-category runs exceed total_parsed_runs")

    # ------------------------------------------------------------------ #
    def sample(self, seed: int = 2024) -> FleetPlan:
        """Produce a fleet plan; identical seeds yield identical plans."""
        rng = np.random.default_rng(seed)
        year_counts = self.trends.runs_per_year(self.total_parsed_runs)

        plans: list[SystemPlan] = []
        index = 0
        for year in sorted(year_counts):
            for _ in range(year_counts[year]):
                plans.append(self._sample_system(rng, year, index, category="server"))
                index += 1

        # Re-assign a deterministic subset of plans to the special categories
        # the paper filters out (non-x86 CPUs, desktop CPUs, multi-node/socket).
        plans = self._assign_special_categories(rng, plans)

        # Defective submissions on top of the parsed population.
        for kind in self.anomalies.expand():
            year = int(rng.choice(sorted(year_counts), p=self._year_probabilities(year_counts)))
            plan = self._sample_system(rng, year, index, category="server")
            plans.append(replace(plan, anomaly=kind, accepted=kind != AnomalyKind.NOT_ACCEPTED))
            index += 1

        # Stable ordering by run id keeps files and downstream frames aligned.
        plans.sort(key=lambda plan: plan.run_id)
        return FleetPlan(tuple(plans), seed=seed, parsed_target=self.total_parsed_runs)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _year_probabilities(year_counts: dict[int, int]) -> np.ndarray:
        years = sorted(year_counts)
        weights = np.asarray([year_counts[y] for y in years], dtype=np.float64)
        return weights / weights.sum()

    def _assign_special_categories(
        self, rng: np.random.Generator, plans: list[SystemPlan]
    ) -> list[SystemPlan]:
        plans = list(plans)
        n = len(plans)
        order = rng.permutation(n)
        cursor = 0

        other_entries = [
            e for e in self.catalog.filtered_entries() if e.cpu.vendor == Vendor.OTHER
        ]
        desktop_entries = [
            e for e in self.catalog.filtered_entries() if e.cpu.vendor != Vendor.OTHER
        ]

        def reassign(count: int, entries: Sequence[CatalogEntry], category: str) -> None:
            nonlocal cursor
            if not entries and count > 0:
                raise CatalogError(f"no catalog entries available for category {category!r}")
            assigned = 0
            while assigned < count and cursor < n:
                position = int(order[cursor])
                cursor += 1
                plan = plans[position]
                entry = entries[int(rng.integers(len(entries)))]
                plans[position] = replace(
                    plan,
                    category=category,
                    cpu_model=entry.cpu.model,
                    sockets=int(rng.choice(entry.typical_sockets)),
                    nodes=1,
                    memory_gb=self._memory_for(rng, entry, 1),
                )
                assigned += 1

        reassign(self.other_vendor_runs, other_entries, "other_vendor")
        reassign(self.desktop_runs, desktop_entries, "desktop")

        # Multi-node or >2-socket submissions among the remaining server plans.
        assigned_multi = 0
        while assigned_multi < self.multi_runs and cursor < n:
            position = int(order[cursor])
            cursor += 1
            plan = plans[position]
            if plan.category != "server":
                continue
            if rng.random() < 0.55:
                nodes = int(rng.choice([2, 4, 8, 16], p=[0.25, 0.40, 0.25, 0.10]))
                sockets = int(rng.choice([1, 2], p=[0.3, 0.7]))
                # A clean plan must pass validation: halve an oversized
                # cluster rather than redraw, so no extra random numbers are
                # consumed and every plan within the limit stays unchanged.
                cores = self.catalog.get(plan.cpu_model).cpu.cores * sockets
                while nodes > 2 and nodes * cores > MAX_PLAUSIBLE_CORES:
                    nodes //= 2
            else:
                nodes = 1
                sockets = int(rng.choice([4, 8], p=[0.8, 0.2]))
            plans[position] = replace(plan, nodes=nodes, sockets=sockets)
            assigned_multi += 1
        return plans

    def _memory_for(
        self, rng: np.random.Generator, entry: CatalogEntry, sockets: int
    ) -> float:
        multiplier = float(rng.choice([0.5, 1.0, 1.0, 2.0]))
        memory = entry.typical_memory_gb_per_socket * sockets * multiplier
        return float(max(4.0, memory))

    def _psu_rating(self, entry: CatalogEntry, sockets: int, memory_gb: float) -> float:
        estimate = sockets * entry.cpu.tdp_w * 1.35 + memory_gb * 0.4 + 120.0
        for size in _PSU_SIZES:
            if size >= estimate:
                return size
        return _PSU_SIZES[-1]

    def _system_model(self, rng: np.random.Generator, vendor: str, year: int) -> str:
        templates = _MODEL_TEMPLATES.get(vendor, ("Server X100",))
        base = str(rng.choice(templates))
        generation = max(1, (year - 2004) // 2)
        suffix = rng.choice(
            [f" Gen{generation}", f" M{generation}", f" V{max(generation - 7, 1)}", ""]
        )
        return base + str(suffix)

    def _sample_system(
        self, rng: np.random.Generator, year: int, index: int, category: str
    ) -> SystemPlan:
        vendor = Vendor.AMD if rng.random() < self.trends.amd_probability(year) else Vendor.INTEL
        candidates = self.catalog.available_in(year, vendor=vendor, server_only=True)
        if not candidates:
            candidates = self.catalog.available_in(year, vendor=None, server_only=True)
        if not candidates:
            raise CatalogError(f"no catalog entries available for year {year}")
        weights = np.asarray([entry.popularity for entry in candidates], dtype=np.float64)
        entry = candidates[int(rng.choice(len(candidates), p=weights / weights.sum()))]

        # Base plans stay at one node and at most two sockets; the dedicated
        # multi-node / multi-socket reassignment in _assign_special_categories
        # is the only source of larger configurations, which keeps the funnel
        # counts exact.
        allowed_sockets = tuple(s for s in entry.typical_sockets if s <= 2) or (2,)
        sockets = self.trends.sample_sockets(rng, allowed=allowed_sockets)
        nodes = 1
        memory = self._memory_for(rng, entry, sockets)

        hw_month = int(rng.integers(1, 13))
        hw_avail = MonthDate(year, hw_month)
        # SPEC Power was first published in late 2007; earlier hardware was
        # tested retroactively.
        earliest_test = MonthDate(2007, 11)
        test_date = hw_avail.shift(int(rng.integers(0, 7)))
        if test_date < earliest_test:
            test_date = earliest_test.shift(int(rng.integers(0, 4)))
        publication = test_date.shift(int(rng.integers(1, 4)))
        sw_avail = test_date.shift(-int(rng.integers(0, 13)))

        os_name = self.trends.operating_system(year, rng)
        system_vendor = self.trends.sample_system_vendor(rng)

        return SystemPlan(
            run_id=f"power_ssj2008-{publication.year:04d}{publication.month:02d}-{index:05d}",
            hw_avail=hw_avail,
            sw_avail=sw_avail,
            test_date=test_date,
            publication_date=publication,
            cpu_model=entry.cpu.model,
            sockets=sockets,
            nodes=nodes,
            memory_gb=memory,
            os_name=os_name,
            jvm_name=self.trends.jvm_name(year, os_name),
            system_vendor=system_vendor,
            system_model=self._system_model(rng, system_vendor, year),
            psu_rating_w=self._psu_rating(entry, sockets, memory),
            category=category,
        )


# --------------------------------------------------------------------------- #
#: Process-wide memo of default-configuration fleet samples, keyed by
#: ``(total_parsed_runs, seed)``.  ``FleetPlan``/``SystemPlan`` are frozen, so
#: one sampled plan is safely shared by every consumer (corpus writer,
#: parse-bypass derivation, campaigns); bounded because each entry holds the
#: full plan tuple (~1k dataclasses at the default fleet size).
_FLEET_MEMO: dict[tuple[int, int], FleetPlan] = {}
_FLEET_MEMO_MAX = 8


def sample_fleet(
    total_parsed_runs: int = 960, seed: int = 2024, catalog: Catalog | None = None
) -> FleetPlan:
    """Sample a fleet, memoizing the default-market configuration.

    Equivalent to ``FleetSampler(total_parsed_runs, catalog).sample(seed)``.
    With ``catalog=None`` (the memoized process-wide default catalog) the
    sample is a pure function of ``(total_parsed_runs, seed)`` and is cached
    across callers — resampling the fleet used to be ~30% of a cold dataset
    derivation.  A custom catalog always samples fresh: its entries are
    caller-owned and carry no cheap identity to key on.
    """
    if catalog is not None:
        return FleetSampler(total_parsed_runs=total_parsed_runs, catalog=catalog).sample(seed)
    key = (total_parsed_runs, seed)
    plan = _FLEET_MEMO.get(key)
    if plan is None:
        plan = FleetSampler(total_parsed_runs=total_parsed_runs).sample(seed)
        if len(_FLEET_MEMO) >= _FLEET_MEMO_MAX:
            _FLEET_MEMO.pop(next(iter(_FLEET_MEMO)))
        _FLEET_MEMO[key] = plan
    return plan
