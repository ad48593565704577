"""Declarative campaign specifications.

A :class:`CampaignSpec` names a sweep over the scenario space of the
simulator: which catalog generations to run, how many nodes per submission,
which :class:`~repro.simulator.director.SimulationOptions` variants and which
seeds.  ``expand`` turns the spec into a concrete, ordered list of
:class:`CampaignUnit`\\ s — one fully-resolved simulation each — using either
the cross product of all axes (``"grid"``) or position-wise pairing
(``"zip"``).

The expansion is purely a function of the spec and the catalog; two
expansions of the same spec produce identical units with identical
content-hash keys, which is what makes campaign caching and resumption safe.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..errors import CampaignError
from ..market.catalog import Catalog, CatalogEntry, default_catalog
from ..market.fleet import SystemPlan
from ..simulator.director import SimulationOptions
from ..units import MonthDate
from .cache import encode_options, entry_digest, unit_key, unit_key_parts

__all__ = [
    "PLAN_AXES",
    "OPTION_AXES",
    "CampaignUnit",
    "CampaignSpec",
    # Keying's reference function, still looked up here by the per-layer
    # trace (perfbench/tracing.py); expansions hash templates instead.
    "unit_key",
]

#: Axes resolved into the :class:`SystemPlan` of a unit.
PLAN_AXES: tuple[str, ...] = ("cpu_model", "nodes", "sockets", "memory_gb")

#: Axes resolved into the :class:`SimulationOptions` of a unit.
OPTION_AXES: tuple[str, ...] = (
    "fidelity",
    "interval_duration_s",
    "measurement_noise",
    "calibration_noise_sigma",
    "throughput_variation_sigma",
    "power_variation_sigma",
    "load_levels",
)

_ALL_AXES: tuple[str, ...] = PLAN_AXES + OPTION_AXES + ("seed",)

#: Axes a unit's plan signature is taken over: everything but the seed.
_SIGNATURE_AXES: tuple[str, ...] = PLAN_AXES + OPTION_AXES

# Fixed, plausibility-only plan fields: campaign submissions are synthetic
# scenario probes, not market samples, so vendor strings stay constant.
_SYSTEM_VENDOR = "Campaign Works"
_SYSTEM_MODEL = "Sweep S100"
_OS_NAME = "SUSE Linux Enterprise Server 15"
_JVM_NAME = "OpenJDK 17.0.2"

_PSU_SIZES = (350.0, 460.0, 550.0, 750.0, 800.0, 1100.0, 1300.0,
              1600.0, 2000.0, 2400.0)

#: SPEC Power was first published in late 2007; campaign plans for earlier
#: hardware reuse that earliest plausible test date.
_EARLIEST_TEST = MonthDate(2007, 11)


@dataclass(frozen=True)
class CampaignUnit:
    """One fully-resolved simulation of a campaign.

    ``key`` is the content hash of ``(params, seed)`` — the identity used by
    the result cache and the run ledger.  ``run_id`` is derived from the key,
    so the per-run RNG stream is itself a function of the unit's content.
    """

    index: int
    key: str
    params: Mapping[str, Any]
    plan: SystemPlan
    options: SimulationOptions
    seed: int

    @property
    def unit_id(self) -> str:
        return self.plan.run_id

    def describe(self) -> str:
        parts = ", ".join(f"{name}={value}" for name, value in self.params.items())
        return f"{self.unit_id} ({parts})"


class _PlanTemplate(NamedTuple):
    """What every unit with one plan signature shares: all but its seed.

    ``head + str(seed) + tail`` is the unit's key payload (see
    :func:`~repro.campaign.cache.unit_key_parts`), and ``plan`` holds the
    :class:`SystemPlan` fields other than the run id.
    """

    head: str
    tail: str
    options: SimulationOptions
    plan: dict[str, Any]


@dataclass
class _ExpansionMemo:
    """Work one expansion shares across its units.

    An expansion resolves against one catalog and a few values per axis, so
    each catalog entry is digested, each options value built and encoded,
    and each plan signature resolved once per expansion rather than once
    per unit.  A unit then costs one seed splice, one SHA-256 and its plan
    and unit objects.
    """

    #: CPU model -> :func:`entry_digest` of its catalog entry.
    digests: dict[str, str] = field(default_factory=dict)
    #: Ids of the option axis values -> (options, :func:`encode_options` text).
    options: dict[tuple[int, ...], tuple[SimulationOptions, str]] = field(
        default_factory=dict
    )
    #: The signature axes this spec sets (the same for each of its units).
    axes: tuple[str, ...] | None = None
    #: Plan signature (ids of the signature axis values) -> its template.
    plans: dict[tuple[int, ...], _PlanTemplate] = field(default_factory=dict)


def _default_sockets(entry: CatalogEntry) -> int:
    """Largest typical socket count within the paper's 1-2 socket focus."""
    typical = [s for s in entry.typical_sockets if s <= 2]
    return max(typical) if typical else min(entry.typical_sockets)


def _psu_rating(entry: CatalogEntry, sockets: int, memory_gb: float) -> float:
    estimate = sockets * entry.cpu.tdp_w * 1.35 + memory_gb * 0.4 + 120.0
    for size in _PSU_SIZES:
        if size >= estimate:
            return size
    return _PSU_SIZES[-1]


def _normalise_value(axis: str, value: Any) -> Any:
    if axis == "load_levels" and value is not None:
        if not isinstance(value, Iterable) or isinstance(value, str):
            raise CampaignError("load_levels values must be sequences of loads")
        return tuple(float(level) for level in value)
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep over the simulator's scenario space.

    Attributes
    ----------
    name:
        Campaign name; becomes part of the store layout and unit ids.
    sweep:
        Mapping of axis name → sequence of values.  Valid axes are
        :data:`PLAN_AXES`, :data:`OPTION_AXES` and ``"seed"``.
    base:
        Fixed values for axes *not* swept (same axis names).  Unset plan
        axes fall back to the catalog entry's typical configuration, unset
        option axes to the :class:`SimulationOptions` defaults, the seed
        to 2024.
    expansion:
        ``"grid"`` (cross product, default) or ``"zip"`` (position-wise;
        all swept axes must have equal lengths).
    """

    name: str
    sweep: Mapping[str, Sequence[Any]]
    base: Mapping[str, Any] = field(default_factory=dict)
    expansion: str = "grid"

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "").replace("_", "").isalnum():
            raise CampaignError(
                f"campaign name must be a non-empty slug, got {self.name!r}"
            )
        if self.expansion not in ("grid", "zip"):
            raise CampaignError(f"unknown expansion mode {self.expansion!r}")
        if not self.sweep:
            raise CampaignError("campaign sweep must name at least one axis")
        sweep: dict[str, tuple] = {}
        for axis, values in self.sweep.items():
            if axis not in _ALL_AXES:
                raise CampaignError(
                    f"unknown sweep axis {axis!r}; valid axes: {sorted(_ALL_AXES)}"
                )
            values = tuple(_normalise_value(axis, v) for v in values)
            if not values:
                raise CampaignError(f"sweep axis {axis!r} has no values")
            if len(set(map(repr, values))) != len(values):
                raise CampaignError(f"sweep axis {axis!r} repeats values")
            sweep[axis] = values
        if self.expansion == "zip":
            lengths = {len(v) for v in sweep.values()}
            if len(lengths) > 1:
                raise CampaignError(
                    "zip expansion requires equal-length axes; got lengths "
                    f"{ {a: len(v) for a, v in sweep.items()} }"
                )
        base: dict[str, Any] = {}
        for axis, value in self.base.items():
            if axis not in _ALL_AXES:
                raise CampaignError(f"unknown base axis {axis!r}")
            if axis in sweep:
                raise CampaignError(f"axis {axis!r} is both swept and fixed")
            base[axis] = _normalise_value(axis, value)
        object.__setattr__(self, "sweep", sweep)
        object.__setattr__(self, "base", base)

    # ------------------------------------------------------------------ #
    @property
    def axes(self) -> tuple[str, ...]:
        """Swept axis names in declaration order."""
        return tuple(self.sweep)

    @property
    def n_units(self) -> int:
        """Number of units the spec expands to."""
        if self.expansion == "zip":
            return len(next(iter(self.sweep.values())))
        product = 1
        for values in self.sweep.values():
            product *= len(values)
        return product

    # ------------------------------------------------------------------ #
    def _iter_assignments(self) -> Iterator[dict[str, Any]]:
        """Lazily yield axis assignments in expansion order.

        ``itertools.product`` materialises only one value tuple at a time,
        so iterating assignments never holds the cross product in memory —
        the property the sharded streaming runner relies on.
        """
        axes = list(self.sweep)
        if self.expansion == "zip":
            rows = zip(*(self.sweep[a] for a in axes))
        else:
            rows = itertools.product(*(self.sweep[a] for a in axes))
        for row in rows:
            yield dict(zip(axes, row))

    def _resolve_unit(
        self,
        index: int,
        assignment: dict[str, Any],
        catalog: Catalog,
        memo: _ExpansionMemo,
    ) -> CampaignUnit:
        params = dict(self.base)
        params.update(assignment)
        if memo.axes is None:
            memo.axes = tuple(axis for axis in _SIGNATURE_AXES if axis in params)
        # Axis values are the spec's own objects (from ``base`` or a
        # ``sweep`` tuple), alive for the whole expansion, so their ids name
        # one value exactly; equality would conflate 120 with 120.0, whose
        # keys differ.
        signature = tuple([id(params[axis]) for axis in memo.axes])
        template = memo.plans.get(signature)
        if template is None:
            # A new signature resolves in full, so a bad value fails at the
            # first unit that carries it.
            template = memo.plans[signature] = self._plan_template(params, catalog, memo)
        seed = int(params.get("seed", 2024))
        key = hashlib.sha256(f"{template.head}{seed}{template.tail}".encode()).hexdigest()
        # The run id seeds the per-run RNG stream, so it must be a function
        # of the unit's *content* only — never of the campaign name — or the
        # same cache key could map to different simulated results.
        plan = SystemPlan(run_id=f"campaign-{key[:16]}", **template.plan)
        # ``params`` keeps the *assignment view* (swept + explicitly fixed
        # axes) for frame annotation; resolved defaults stay out of it so
        # campaign columns mirror what the spec author wrote.
        return CampaignUnit(
            index=index,
            key=key,
            params=params,
            plan=plan,
            options=template.options,
            seed=seed,
        )

    def _plan_template(
        self, params: dict[str, Any], catalog: Catalog, memo: _ExpansionMemo
    ) -> _PlanTemplate:
        """Resolve everything a unit derives from its plan signature."""
        cpu_model = params.get("cpu_model")
        if cpu_model is None:
            raise CampaignError(
                "campaign needs a 'cpu_model' axis or base value"
            )
        entry = catalog.get(cpu_model)

        nodes = int(params.get("nodes", 1))
        if nodes < 1:
            raise CampaignError(f"nodes must be >= 1, got {nodes}")
        sockets = int(params.get("sockets", _default_sockets(entry)))
        if sockets < 1:
            raise CampaignError(f"sockets must be >= 1, got {sockets}")
        memory_gb = float(
            params.get("memory_gb", entry.typical_memory_gb_per_socket * sockets)
        )

        option_axes = [axis for axis in OPTION_AXES if axis in params]
        token = tuple(id(params[axis]) for axis in option_axes)
        memoized = memo.options.get(token)
        if memoized is None:
            options = SimulationOptions(**{axis: params[axis] for axis in option_axes})
            memoized = memo.options[token] = (options, encode_options(options))
        options, encoded_options = memoized

        digest = memo.digests.get(cpu_model)
        if digest is None:
            digest = memo.digests[cpu_model] = entry_digest(entry)

        head, tail = unit_key_parts(
            {
                "cpu_model": cpu_model,
                "nodes": nodes,
                "sockets": sockets,
                "memory_gb": memory_gb,
                # The simulated result depends on the catalog entry behind
                # the model name, not just the name: a custom catalog with
                # the same model but different silicon must miss the cache.
                "catalog_entry": digest,
            },
            encoded_options,
        )

        release = entry.cpu.release
        test_date = release.shift(2)
        if test_date < _EARLIEST_TEST:
            test_date = _EARLIEST_TEST
        plan = {
            "hw_avail": release,
            "sw_avail": test_date.shift(-1),
            "test_date": test_date,
            "publication_date": test_date.shift(2),
            "cpu_model": cpu_model,
            "sockets": sockets,
            "nodes": nodes,
            "memory_gb": memory_gb,
            "os_name": _OS_NAME,
            "jvm_name": _JVM_NAME,
            "system_vendor": _SYSTEM_VENDOR,
            "system_model": _SYSTEM_MODEL,
            "psu_rating_w": _psu_rating(entry, sockets, memory_gb),
            "category": "server",
        }
        return _PlanTemplate(head, tail, options, plan)

    def iter_units(
        self, catalog: Catalog | None = None, check_duplicates: bool = True
    ) -> Iterator[CampaignUnit]:
        """Lazily resolve the spec into ordered, content-addressed units.

        Units are yielded one at a time in expansion order; the full unit
        list is never materialised, which keeps a consumer that processes
        units in bounded windows (the sharded streaming runner) at O(window)
        memory.  Duplicate-scenario detection keeps only the seen *keys*
        resident (64 hex chars per unit, orders of magnitude lighter than
        the units themselves); ``check_duplicates=False`` drops even that.
        """
        catalog = catalog or default_catalog()
        memo = _ExpansionMemo()
        seen: dict[str, int] = {}
        for index, assignment in enumerate(self._iter_assignments()):
            unit = self._resolve_unit(index, assignment, catalog, memo)
            if check_duplicates:
                if unit.key in seen:
                    raise CampaignError(
                        f"units {seen[unit.key]} and {unit.index} resolve to "
                        "the same scenario; remove the redundant axis values"
                    )
                seen[unit.key] = unit.index
            yield unit

    def expand(self, catalog: Catalog | None = None) -> tuple[CampaignUnit, ...]:
        """Resolve the spec into ordered, content-addressed units."""
        return tuple(self.iter_units(catalog))

    # ------------------------------------------------------------------ #
    # Serialisation (JSON round-trip used by the CLI and the store)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "expansion": self.expansion,
            "sweep": {axis: list(values) for axis, values in self.sweep.items()},
            "base": dict(self.base),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if "name" not in data or "sweep" not in data:
            raise CampaignError("campaign spec needs 'name' and 'sweep' entries")
        unknown = set(data) - {"name", "sweep", "base", "expansion"}
        if unknown:
            raise CampaignError(f"unknown campaign spec entries: {sorted(unknown)}")
        return cls(
            name=data["name"],
            sweep=data["sweep"],
            base=data.get("base", {}),
            expansion=data.get("expansion", "grid"),
        )

    @classmethod
    def from_json_file(cls, path: str | os.PathLike) -> "CampaignSpec":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CampaignError(f"cannot read campaign spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CampaignError(f"malformed campaign spec {path}: {exc}") from exc
        return cls.from_dict(data)
