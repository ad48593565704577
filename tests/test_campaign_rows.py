"""Campaign rows are derived from simulated results, never from report text.

Campaign rows come from the column path: the kernel's matrices become one
record block per chunk (``derive_block``), validated by column predicates.
``derive_record`` promises the record ``parse_result_text(render_report(r))``
would give.  The runner keeps both per-unit routes as references
(``_roundtrip_result`` and ``_text_roundtrip_result``); these tests hold
every campaign unit of the default catalog to them, across the option and
plan axes, and pin that a cold streamed campaign no longer renders or parses
anything.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignSpec, runner, stream_campaign
from repro.campaign.runner import dispatch_simulations
from repro.market.catalog import default_catalog
from repro.simulator import BatchDirector

MODELS = [entry.cpu.model for entry in default_catalog().entries]

ORACLE_SPECS = [
    # Option axes on a short ladder: both fidelities, noise on and off.
    # Short intervals keep the event engine at a few ms per unit.
    CampaignSpec(
        name="oracle-options",
        sweep={
            "cpu_model": MODELS,
            "fidelity": ["analytic", "event"],
            "measurement_noise": [True, False],
        },
        base={"load_levels": [1.0, 0.6, 0.3, 0.0], "interval_duration_s": 1.0, "seed": 11},
    ),
    # Plan axes on the full ladder.  A 16-node, 2-socket plan of a 144- or
    # 192-core part exceeds MAX_PLAUSIBLE_CORES, so validation rejects it.
    CampaignSpec(
        name="oracle-plans",
        sweep={"cpu_model": MODELS, "nodes": [1, 16], "sockets": [1, 2]},
        base={"seed": 12},
    ),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.name)
def test_derived_rows_equal_the_text_route_for_every_unit(spec):
    units = spec.expand()
    outcomes = dispatch_simulations(list(units), True, None)
    assert len(outcomes) == len(units)
    by_key = {unit.key: unit for unit in units}
    for key, row, error in outcomes:
        unit = by_key[key]
        result = BatchDirector(options=unit.options).run_batch([unit.plan], seeds=[unit.seed])[0]
        # The column form's row is a view into its chunk's block; as a dict
        # it must be the record route's row and the text route's row.
        # repr: exact floats, NaN-safe, and the row's column order counts.
        column = repr((key, None if row is None else dict(row), error))
        assert column == repr(runner._roundtrip_result(key, unit.plan, result)), key
        assert column == repr(runner._text_roundtrip_result(key, unit.plan, result)), key
    errors = [error for _, _, error in outcomes if error is not None]
    assert len(errors) < len(units)
    if spec.name == "oracle-plans":
        assert any("implausible_core_count" in error for error in errors)


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "scalar"])
def test_cold_stream_never_renders_or_parses(tmp_path, monkeypatch, batch):
    def text_route(*args, **kwargs):
        raise AssertionError("campaign rows must not go through report text")

    monkeypatch.setattr(runner, "render_report", text_route)
    monkeypatch.setattr(runner, "parse_result_text", text_route)
    spec = CampaignSpec(
        name="no-text",
        sweep={"cpu_model": ["Xeon X5670", "EPYC 9654"], "seed": [1, 2, 3, 4]},
        base={"load_levels": [1.0, 0.5, 0.0]},
    )
    result = stream_campaign(spec, tmp_path / "store", shard_size=4, batch=batch)
    assert result.failures == ()
    assert result.simulated == result.completed == spec.n_units
    assert result.status == "complete"
