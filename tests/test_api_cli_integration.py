"""End-to-end tests: public API, CLI and full-pipeline integration."""

import pytest

from repro import Frame, Session
from repro.cli.main import build_parser, main
from repro.session.session import analyze_frame


def parse_corpus(directory):
    with Session() as session:
        return session.dataset(corpus=directory).parse_report()


class TestApi:
    def test_generate_and_load(self, corpus_dir, run_frame):
        # corpus_dir / run_frame fixtures already exercise generate + load;
        # check the invariants the paper relies on.
        assert isinstance(run_frame, Frame)
        assert len(run_frame) > 100
        assert "overall_efficiency" in run_frame

    def test_parse_corpus_report(self, corpus_dir):
        report = parse_corpus(corpus_dir)
        assert report.parsed_count > 0
        assert len(report.rejected) > 0

    def test_quick_dataset_keeps_files_when_directory_given(self, tmp_path):
        with Session() as session:
            corpus = session.corpus(runs=40, seed=3, directory=tmp_path / "kept")
            frame = session.dataset(corpus=corpus).result()
        assert len(frame) > 0
        assert list((tmp_path / "kept").glob("*.txt"))

    def test_analyze_result(self, analysis_result, run_frame):
        assert analysis_result.unfiltered.shape[0] == len(run_frame)
        assert len(analysis_result.filtered) < len(run_frame)
        assert "Reproduction report" in analysis_result.summary()
        assert analysis_result.era_comparisons

    def test_analyze_with_figures(self, run_frame, tmp_path):
        result = analyze_frame(run_frame, table1=False, figures=True)
        assert len(result.figures) == 6
        written = result.save_figures(tmp_path)
        assert len(written) >= 12  # at least one CSV and one SVG per figure
        assert all(path.exists() for path in written)

    def test_analyze_derives_when_needed(self, corpus_dir):
        report = parse_corpus(corpus_dir)
        raw = report.to_frame()  # no derived columns yet
        result = analyze_frame(raw, table1=False)
        assert "overall_efficiency" in result.unfiltered


class TestDatasetFunnel:
    """The synthetic corpus must reproduce the paper's dataset structure."""

    def test_defective_files_rejected(self, corpus_dir):
        report = parse_corpus(corpus_dir)
        reasons = report.rejection_counts()
        # Every defect class injected by the generator is caught by the
        # validation layer.
        assert set(reasons) <= {
            "not_accepted", "ambiguous_date", "implausible_date", "ambiguous_cpu",
            "missing_node_count", "inconsistent_core_thread", "implausible_core_count",
        }
        assert reasons["not_accepted"] >= 1

    def test_filter_funnel_matches_fleet_plan(self, corpus_dir, run_frame):
        from repro.core import apply_paper_filters

        filtered, report = apply_paper_filters(run_frame)
        assert report.removed_by("non_intel_amd_cpu") >= 1
        assert report.removed_by("non_server_cpu") >= 1
        assert report.removed_by("multi_node_or_gt2_sockets") > 10
        assert len(filtered) > 0.5 * len(run_frame)

    def test_vendor_and_os_composition(self, run_frame):
        vendors = run_frame.value_counts("cpu_vendor")
        assert vendors["cpu_vendor"].to_list()[0] == "Intel"
        families = set(run_frame["os_family"].to_list())
        assert "Windows" in families and "Linux" in families


class TestCli:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("generate", "parse", "analyze", "figures", "table1"):
            assert command in text

    def test_generate_and_parse_commands(self, tmp_path, capsys):
        corpus = tmp_path / "cli_corpus"
        assert main(["generate", "--output", str(corpus), "--runs", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "report files" in out
        csv_path = tmp_path / "runs.csv"
        assert main(["parse", "--corpus", str(corpus), "--output", str(csv_path)]) == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_analyze_command(self, corpus_dir, capsys):
        assert main(["analyze", "--corpus", corpus_dir, "--no-table1"]) == 0
        out = capsys.readouterr().out
        assert "Headline findings" in out

    def test_figures_command(self, corpus_dir, tmp_path, capsys):
        assert main(["figures", "--corpus", corpus_dir, "--output", str(tmp_path / "figs")]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert any((tmp_path / "figs").glob("*.svg"))

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "power_ssj2008" in out
        assert "SR645" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
