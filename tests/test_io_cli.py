"""Tests for dataset persistence and the CLI."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.core.experiments import all_experiments, experiment, paper_artefacts
from repro.scanner.io import (
    dump_dataset,
    dumps_dataset,
    export_quality_csv,
    export_success_series_csv,
    load_dataset,
    loads_dataset,
)


class TestDatasetIO:
    def test_round_trip(self, scan_dataset):
        text = dumps_dataset(scan_dataset)
        loaded = loads_dataset(text)
        assert len(loaded) == len(scan_dataset)
        assert loaded.interval == scan_dataset.interval
        assert tuple(loaded.vantages) == tuple(scan_dataset.vantages)
        original = scan_dataset.records[0]
        restored = loaded.records[0]
        assert restored.vantage == original.vantage
        assert restored.outcome == original.outcome
        assert restored.timestamp == original.timestamp
        assert restored.this_update == original.this_update

    def test_analysis_identical_after_round_trip(self, scan_dataset):
        from repro.core import analyze_availability
        loaded = loads_dataset(dumps_dataset(scan_dataset))
        a = analyze_availability(scan_dataset)
        b = analyze_availability(loaded)
        assert a.failure_rate == b.failure_rate
        assert a.never_successful_anywhere == b.never_successful_anywhere

    def test_header_first_line(self, scan_dataset):
        text = dumps_dataset(scan_dataset)
        header = json.loads(text.splitlines()[0])
        assert header["format"] == "repro-scan"
        assert header["version"] == 1

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            loads_dataset("")

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            loads_dataset('{"format": "something-else"}\n')

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError):
            loads_dataset('{"format": "repro-scan", "version": 99}\n')

    def test_success_series_csv(self, scan_dataset):
        buffer = io.StringIO()
        export_success_series_csv(scan_dataset, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "timestamp,vantage,success_pct"
        assert len(lines) > 10

    def test_quality_csv(self, scan_dataset):
        buffer = io.StringIO()
        export_quality_csv(scan_dataset, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0].startswith("responder_url,")
        # Header + one row per responder that ever produced a parseable
        # response (unreachable/malformed ones have no quality row).
        assert 30 <= len(lines) - 1 <= 40


class TestExperimentRegistry:
    def test_every_paper_artefact_present(self):
        ids = {e.experiment_id for e in paper_artefacts()}
        for expected in ("sec4-deployment", "fig2", "fig3", "fig4", "fig5",
                         "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                         "fig12", "tbl1", "tbl2", "tbl3", "sec5-freshness",
                         "sec8-readiness"):
            assert expected in ids

    def test_benchmarks_exist_on_disk(self):
        import os
        root = os.path.join(os.path.dirname(__file__), "..")
        for entry in all_experiments():
            assert os.path.exists(os.path.join(root, entry.benchmark)), \
                entry.benchmark

    def test_modules_importable(self):
        import importlib
        for entry in all_experiments():
            for module in entry.modules:
                importlib.import_module(module)

    def test_lookup(self):
        assert experiment("tbl2").paper_ref == "Table 2"
        with pytest.raises(KeyError):
            experiment("fig99")


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "tbl2"])
        assert args.command == "run"
        assert args.scale == "small"

    @pytest.mark.parametrize("command", ["browsers", "servers", "audit",
                                         "readiness"])
    def test_deleted_table_commands_exit_2(self, command):
        # Every paper table now comes from `repro run <id>`.
        with pytest.raises(SystemExit) as exited:
            main([command])
        assert exited.value.code == 2

    def test_run_tbl2_prints_table2(self, tmp_path, capsys):
        assert main(["run", "tbl2", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Firefox 60 (Linux)" in out
        assert "respect_must_staple" in out

    def test_run_tbl3_prints_table3(self, tmp_path, capsys):
        assert main(["run", "tbl3", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "apache-2.4.18" in out
        assert "pause conn." in out

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "tbl1" in out

    def test_issue_command(self, capsys):
        assert main(["issue", "cli.example", "--must-staple"]) == 0
        out = capsys.readouterr().out
        from repro.x509.pem import certificates_from_pem
        chain = certificates_from_pem(out)
        assert len(chain) == 2
        assert chain[0].must_staple
        assert chain[0].matches_hostname("cli.example")

    def test_run_tbl1_prints_table1(self, tmp_path, capsys):
        assert main(["run", "tbl1", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ocsp.camerfirma.com" in out

    def test_run_sec8_readiness_prints_report(self, tmp_path, capsys):
        assert main(["run", "sec8-readiness",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "NOT READY" in out
        assert "Is the web ready for OCSP Must-Staple?  NO" in out

    def test_run_prints_no_csv_series(self, tmp_path, capsys):
        # fig12's renderer writes a CSV; run prints only the summary.
        assert main(["run", "fig12", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cloudflare_domains" not in out
        assert out.rstrip().splitlines()[-1].startswith("manifest:")

    def test_run_table_is_the_figures_file(self, tmp_path, capsys):
        # One renderer: `repro run tbl2` prints exactly the bytes that
        # `repro figures` writes to table2_browsers.txt.
        from repro.core.figures import ARTEFACTS, FigureScale
        from repro.runtime import run_experiment
        assert main(["run", "tbl2", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        name, render = ARTEFACTS["tbl2"]
        assert name == "table2_browsers.txt"
        table = render(run_experiment("tbl2", cache_dir=str(tmp_path),
                                      scale=FigureScale.small()))
        assert out.endswith("\n\n" + table)

    def test_scan_and_analyze(self, tmp_path, capsys):
        scan_file = tmp_path / "scan.jsonl"
        assert main(["scan", "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(scan_file)]) == 0
        assert scan_file.exists()
        assert main(["analyze", str(scan_file)]) == 0
        out = capsys.readouterr().out
        assert "failure rate by vantage" in out

    def test_scan_shares_the_fig3_cache(self, tmp_path, capsys):
        # scan builds fig3 on default_config("fig3", scale), so a scan
        # after `repro run fig3` on one cache executes no shard.
        cache = str(tmp_path / "cache")
        assert main(["run", "fig3", "--cache-dir", cache]) == 0
        assert "cache: miss" in capsys.readouterr().out
        assert main(["scan", "--cache-dir", cache,
                     "--out", str(tmp_path / "scan.jsonl")]) == 0
        assert "(cache: hit)" in capsys.readouterr().err

    def test_scan_events_replay(self, tmp_path, capsys):
        scan_file = tmp_path / "scan.jsonl"
        events = tmp_path / "events.jsonl"
        assert main(["scan", "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(scan_file),
                     "--events", str(events)]) == 0
        assert loads_dataset(scan_file.read_text()).records
        err = capsys.readouterr().err
        assert f"events to {events}" in err
        assert main(["monitor", "replay", str(events),
                     "--partitions", "2"]) == 0
        out = capsys.readouterr().out
        assert "availability:" in out
        assert "DIVERGED" not in out

    def test_figures_no_cache_reaches_generate_all(self, tmp_path,
                                                   monkeypatch):
        import repro.core.figures as figures
        seen = {}

        def fake_generate_all(outdir, scale, **kwargs):
            seen.update(outdir=outdir, scale=scale, **kwargs)
            return []

        monkeypatch.setattr(figures, "generate_all", fake_generate_all)
        assert main(["figures", "--out", str(tmp_path), "--no-cache",
                     "--cache-dir", str(tmp_path / "c"), "--seed", "9",
                     "--workers", "2"]) == 0
        assert seen["cache"] is False
        assert seen["cache_dir"] == str(tmp_path / "c")
        assert seen["workers"] == 2
        assert seen["scale"].seed == 9
        assert seen["scale"].n_responders == figures.FigureScale().n_responders

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])


def test_readme_lists_every_command():
    # README's `python -m repro <cmd>` examples name exactly the
    # subcommands the parser accepts: no deleted command lingers and
    # no command goes undocumented.
    import argparse
    import re
    from pathlib import Path
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = set(re.findall(r"python -m repro ([a-z][a-z-]*)", readme))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert documented == set(subparsers.choices)
