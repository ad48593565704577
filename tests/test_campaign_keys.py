"""Unit keys pinned as literals.

A unit key is the content hash every store, cache entry and run id is
derived from, so a change that moves one silently re-keys every existing
store.  These pins cover the default and a custom catalog, every plan and
option axis, the default seed, and grid and zip expansion; a deliberate
key change must update them together with ``SCHEMA_VERSION``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import CampaignSpec
from repro.market.catalog import Catalog, default_catalog


def _custom_catalog() -> Catalog:
    """The default catalog with one entry's silicon changed and one model added."""
    entries = []
    for entry in default_catalog().entries:
        if entry.cpu.model == "EPYC 9654":
            entries.append(replace(entry, cpu=replace(entry.cpu, tdp_w=entry.cpu.tdp_w * 2)))
            entries.append(replace(entry, cpu=replace(entry.cpu, model="EPYC 9999")))
        else:
            entries.append(entry)
    return Catalog(entries)


def _single(axis: str, value, model: str = "Xeon Platinum 8480+") -> CampaignSpec:
    return CampaignSpec(name=f"pin-{axis}", sweep={axis: [value]}, base={"cpu_model": model})


#: label -> (spec, uses the custom catalog)
CASES = {
    "grid": (
        CampaignSpec(
            name="pin-grid", sweep={"cpu_model": ["Xeon X5670", "EPYC 9654"], "seed": [1, 2]}
        ),
        False,
    ),
    "zip": (
        CampaignSpec(
            name="pin-zip",
            sweep={"cpu_model": ["Xeon X5670", "EPYC 9654"], "nodes": [2, 4]},
            expansion="zip",
        ),
        False,
    ),
    "default-seed": (
        CampaignSpec(name="pin-default", sweep={"cpu_model": ["Xeon Platinum 8480+"]}),
        False,
    ),
    "base-fixed": (
        CampaignSpec(
            name="pin-base",
            sweep={"seed": [3]},
            base={"cpu_model": "Xeon X5670", "load_levels": [1.0, 0.0], "measurement_noise": False},
        ),
        False,
    ),
    "nodes": (_single("nodes", 8), False),
    "sockets": (_single("sockets", 1), False),
    "memory_gb": (_single("memory_gb", 96.0), False),
    "fidelity": (_single("fidelity", "event"), False),
    "interval_duration_s": (_single("interval_duration_s", 120.0), False),
    "measurement_noise": (_single("measurement_noise", False), False),
    "calibration_noise_sigma": (_single("calibration_noise_sigma", 0.02), False),
    "throughput_variation_sigma": (_single("throughput_variation_sigma", 0.05), False),
    "power_variation_sigma": (_single("power_variation_sigma", 0.06), False),
    "load_levels": (_single("load_levels", [1.0, 0.5, 0.0]), False),
    "custom-silicon": (_single("seed", 1, model="EPYC 9654"), True),
    "custom-model": (_single("seed", 1, model="EPYC 9999"), True),
}

EXPECTED = {
    "base-fixed": [
        "138a2fbe8577073c945c6960b70d85db5c9ae43417b3970124ce4a4b71fc6925",
    ],
    "calibration_noise_sigma": [
        "3b7c6dfe20ce717aabfe4c785079c3cad1aa80b8bf578327fa0dd90f0cfe77c0",
    ],
    "custom-model": [
        "07d129bbf332972094d79709b8f9404673ff42a0b5a3eeb76571d87d085f9eca",
    ],
    "custom-silicon": [
        "10ebb2aadc615075a67f3902b46627756477fdc9b868a06a537413e49dae2600",
    ],
    "default-seed": [
        "1a80aa35e8b15553e8bfc8f941da5d98bb6dd493a8933eafca87ebf1a6cb006c",
    ],
    "fidelity": [
        "06d761f030d6a478a59dc5adc4e18a4cc7233b4e3d840ca5e98cf5e786abe8aa",
    ],
    "grid": [
        "bc411a34a4ab749fe9435ed89c9e99a9050b6c4a3e2f3d6fe2ce47aa59f55a36",
        "afd1967a1dcdb6a1432c2824dd0ec4835eed939021e794ee73074187086dd815",
        "022dda26069d39bfa0701a0b4e374500c0789824c190cb3344ee5b3a47ac8ae0",
        "82c49b10b01f83f36758cef253e5ec6d1f3b128039756b7dad02d5dbcaa1f050",
    ],
    "interval_duration_s": [
        "9cfdb1b7db8ddc1e1d10741ecdbc2f9799b808dd5f4e70648357b42861245d6d",
    ],
    "load_levels": [
        "531dcca9ea44a2656a376dfc07e1ec2c6111ab1457e6dccabefcd7daae369438",
    ],
    "measurement_noise": [
        "3bc1d8231dd26bc8e0fd6adc17bc16c9dcf62ca89672fa90ceac5e908fb16f30",
    ],
    "memory_gb": [
        "fa6ee95ac913886971d6af3b433a924aeca9164d8bb35b3f14f424363abe318a",
    ],
    "nodes": [
        "d8b5e81dfe37b05beb001baeda0d1a75eebfa4fc9afc779f1e31ab1ce4101805",
    ],
    "power_variation_sigma": [
        "e3fc8e9a63854cc98422119b9783e2687320939692c21bcb2f383fab2ebe71dd",
    ],
    "sockets": [
        "c42cf890c40359eac84f4a0e9016f744ef1524c5bcbe4e8b63584cf763580772",
    ],
    "throughput_variation_sigma": [
        "62ca131650480d29584caebbfad9ea2011827958ac7230698b059241d18e7648",
    ],
    "zip": [
        "d9469aa1ec0f3990874101642273b63f350833b65969f5657f4ebb730ae1ad5d",
        "abd2289d72a48323bced5668d3e3abe8da2d3b2912d72b91cccd547c35f2354b",
    ],
}


@pytest.fixture(scope="module")
def custom_catalog() -> Catalog:
    return _custom_catalog()


@pytest.mark.parametrize("label", sorted(CASES))
def test_unit_keys_are_pinned(label, custom_catalog):
    spec, custom = CASES[label]
    keys = [unit.key for unit in spec.iter_units(custom_catalog if custom else None)]
    assert keys == EXPECTED[label]


def test_pins_cover_twenty_distinct_keys():
    keys = [key for pinned in EXPECTED.values() for key in pinned]
    assert len(keys) == len(set(keys)) == 20


def test_run_ids_derive_from_keys():
    spec, _ = CASES["grid"]
    for unit, key in zip(spec.iter_units(), EXPECTED["grid"]):
        assert unit.unit_id == f"campaign-{key[:16]}"
