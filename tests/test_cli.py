"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_figure_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--app", "x264"])
        assert args.allocator == "cash"
        assert args.intervals == 1000


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "x264" in out and "cash" in out and "fig10" in out

    def test_run(self, capsys):
        code = main(
            ["run", "--app", "hmmer", "--allocator", "optimal",
             "--intervals", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hmmer / Optimal" in out
        assert "$" in out

    def test_figure_fig1(self, capsys):
        assert main(["figure", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "phase 10" in out

    def test_figure_tab3_small(self, capsys):
        assert main(["figure", "tab3", "--intervals", "40"]) == 0
        out = capsys.readouterr().out
        assert "Ratio to Optimal" in out
        assert "geomean" in out

    def test_figure_fig9_small(self, capsys):
        assert main(["figure", "fig9", "--intervals", "24"]) == 0
        out = capsys.readouterr().out
        assert "Mcycles" in out

    def test_figure_tiers_small(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # BENCH_CYCLE.json lands here
        assert main(["figure", "tiers", "--intervals", "300", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "err %" in out
        assert "mean |err|" in out
        assert "tier cells" in out
        assert (tmp_path / "BENCH_CYCLE.json").exists()

    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "Slice expansion" in out
        assert "runtime iteration" in out

    def test_export_fig1(self, tmp_path, capsys):
        code = main(["export", "--outdir", str(tmp_path), "--name", "fig1"])
        assert code == 0
        files = list(tmp_path.glob("fig1_*.tsv"))
        assert len(files) == 11  # 10 phases + summary

    def test_sweep_records_timing(self, tmp_path, capsys):
        code = main(
            ["sweep", "--apps", "x264", "--allocators", "cash",
             "--seeds", "0", "--intervals", "30", "--jobs", "1",
             "--bench-out", str(tmp_path / "BENCH_PERF.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cells/s" in out
        assert (tmp_path / "BENCH_PERF.json").exists()
