"""Statistical sanity checks on the sampled fleet and the generated corpus.

These complement test_market.py: rather than checking the sampler's API,
they check distributional properties the analysis depends on (uniqueness of
run ids, plausible configurations, era-consistent software stacks).
"""

import re

import numpy as np
import pytest

from repro.market import FleetSampler, default_catalog


@pytest.fixture(scope="module")
def fleet():
    return FleetSampler(total_parsed_runs=240, catalog=default_catalog()).sample(seed=99)


class TestPlanDistributions:
    def test_run_ids_unique(self, fleet):
        run_ids = [plan.run_id for plan in fleet.systems]
        assert len(run_ids) == len(set(run_ids))

    def test_file_names_are_txt(self, fleet):
        assert all(plan.file_name.endswith(".txt") for plan in fleet.systems)

    def test_every_year_has_runs(self, fleet):
        years = {plan.hw_avail.year for plan in fleet.clean}
        assert set(range(2007, 2024)) <= years

    def test_memory_positive_and_plausible(self, fleet):
        for plan in fleet.systems:
            assert 2.0 <= plan.memory_gb <= 8192.0

    def test_sockets_and_nodes_positive(self, fleet):
        for plan in fleet.systems:
            assert plan.sockets >= 1 and plan.nodes >= 1

    def test_cpu_models_exist_in_catalog(self, fleet):
        catalog = default_catalog()
        for plan in fleet.systems:
            catalog.get(plan.cpu_model)  # raises CatalogError if unknown

    def test_cpu_release_not_long_after_hw_avail(self, fleet):
        """Server-class systems use CPUs released around their availability.

        The handful of non-x86/desktop stand-ins (which the paper filters out
        anyway) are exempt: they are drawn from a small catalog without
        matching the year.
        """
        catalog = default_catalog()
        for plan in fleet.clean:
            if plan.category != "server":
                continue
            release = catalog.get(plan.cpu_model).cpu.release
            # Release may precede availability by years (long-lived SKUs) but
            # should never be far in the future of the availability date.
            assert release.decimal_year <= plan.hw_avail.decimal_year + 1.5

    def test_operating_system_matches_era(self, fleet):
        for plan in fleet.clean:
            if plan.hw_avail.year <= 2009:
                assert "2019" not in plan.os_name and "2022" not in plan.os_name
            if "Windows Server 2003" in plan.os_name:
                assert plan.hw_avail.year <= 2008

    def test_system_models_look_like_products(self, fleet):
        pattern = re.compile(r"[A-Za-z]")
        for plan in fleet.systems:
            assert pattern.search(plan.system_model)
            assert plan.system_vendor

    def test_amd_share_rises_over_time(self, fleet):
        early = [p for p in fleet.clean if p.hw_avail.year < 2015]
        late = [p for p in fleet.clean if p.hw_avail.year >= 2019]
        catalog = default_catalog()

        def amd_share(plans):
            vendors = [catalog.get(p.cpu_model).cpu.vendor.value for p in plans]
            return np.mean([v == "AMD" for v in vendors])

        assert amd_share(late) > amd_share(early)

    def test_dual_socket_most_common(self, fleet):
        sockets = [p.sockets for p in fleet.clean if p.category == "server"]
        assert sockets.count(2) > sockets.count(1)

    def test_defective_plans_have_anomaly_kinds(self, fleet):
        kinds = {plan.anomaly for plan in fleet.defective}
        assert None not in kinds
        assert len(kinds) >= 5  # the scaled plan keeps every class


class TestDeterminismAcrossComponents:
    def test_same_seed_same_reports(self, tmp_path):
        from repro.reportgen import CorpusWriter

        CorpusWriter(tmp_path / "a", total_parsed_runs=40, seed=21).write()
        CorpusWriter(tmp_path / "b", total_parsed_runs=40, seed=21).write()
        files_a = sorted(p.name for p in (tmp_path / "a").glob("*.txt"))
        files_b = sorted(p.name for p in (tmp_path / "b").glob("*.txt"))
        assert files_a == files_b
        for name in files_a[:10]:
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()

    def test_different_seed_changes_measurements(self, tmp_path):
        from repro.reportgen import CorpusWriter

        CorpusWriter(tmp_path / "a", total_parsed_runs=40, seed=1).write()
        CorpusWriter(tmp_path / "b", total_parsed_runs=40, seed=2).write()
        text_a = sorted((tmp_path / "a").glob("*.txt"))[0].read_text()
        text_b = sorted((tmp_path / "b").glob("*.txt"))[0].read_text()
        assert text_a != text_b


class TestCleanPlansValidate:
    def test_every_clean_plan_validates_at_seed_12030(self):
        """A clean plan must survive validation; this seed once drew a
        16-node x 2-socket x 192-core plan (6,144 cores) past the limit."""
        from repro.market.fleet import sample_fleet
        from repro.parser.validation import MAX_PLAUSIBLE_CORES
        from repro.reportgen.records import derive_corpus_report

        fleet = sample_fleet(960, seed=12030)
        catalog = default_catalog()
        for plan in fleet.clean:
            cores = catalog.get(plan.cpu_model).cpu.cores * plan.sockets * plan.nodes
            assert cores <= MAX_PLAUSIBLE_CORES, plan.run_id
        report = derive_corpus_report("seed-12030", seed=12030, batch=True)
        clean = {plan.file_name for plan in fleet.clean}
        assert not clean & {rejected.file_name for rejected in report.rejected}
        assert report.parsed_count == len(clean) == 960
