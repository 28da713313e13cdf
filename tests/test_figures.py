"""Tests for the figure/table data generator (the "data release")."""

import csv
import os

import pytest

from repro.core.figures import FigureScale, generate_all


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("release")
    scale = FigureScale(n_responders=40, certs_per_responder=1, scan_days=3,
                        scan_interval=12 * 3600, alexa_size=2_000,
                        corpus_size=2_000, consistency_scale=2_000, seed=13)
    written = generate_all(str(outdir), scale)
    return outdir, written


EXPECTED_FILES = [
    "sec4_deployment.txt",
    "fig2_adoption.csv",
    "fig3_availability.csv",
    "fig4_domains_unable.csv",
    "fig5_unusable.csv",
    "fig6_certs_cdf.csv",
    "fig7_serials_cdf.csv",
    "fig8_validity_cdf.csv",
    "fig9_margin_cdf.csv",
    "fig10_time_deltas.csv",
    "fig11_stapling_adoption.csv",
    "fig12_history.csv",
    "table1_discrepancies.txt",
    "table2_browsers.txt",
    "table3_webservers.txt",
    "sec8_readiness.txt",
]


class TestGenerateAll:
    def test_every_artefact_has_a_file(self, release):
        outdir, written = release
        names = {os.path.basename(path) for path in written}
        for expected in EXPECTED_FILES:
            assert expected in names
            assert (outdir / expected).stat().st_size > 0

    def test_fig3_csv_schema(self, release):
        outdir, _ = release
        with open(outdir / "fig3_availability.csv") as stream:
            rows = list(csv.DictReader(stream))
        assert rows
        assert set(rows[0]) == {"timestamp", "vantage", "success_pct"}
        assert all(0 <= float(row["success_pct"]) <= 100 for row in rows)
        vantages = {row["vantage"] for row in rows}
        assert len(vantages) == 6

    def test_fig8_contains_infinity(self, release):
        outdir, _ = release
        with open(outdir / "fig8_validity_cdf.csv") as stream:
            values = [row["value"] for row in csv.DictReader(stream)]
        assert "inf" in values  # blank-nextUpdate responders

    def test_fig12_has_29_months(self, release):
        outdir, _ = release
        with open(outdir / "fig12_history.csv") as stream:
            rows = list(csv.DictReader(stream))
        assert len(rows) == 29
        assert rows[0]["month"] == "2016-05"

    def test_table2_text(self, release):
        outdir, _ = release
        text = (outdir / "table2_browsers.txt").read_text()
        assert "Firefox 60 (Linux)" in text

    def test_table3_text(self, release):
        outdir, _ = release
        text = (outdir / "table3_webservers.txt").read_text()
        assert "pause conn." in text
        assert "nginx-1.13.12" in text

    def test_deterministic(self, release, tmp_path):
        outdir, _ = release
        scale = FigureScale(n_responders=40, certs_per_responder=1, scan_days=3,
                            scan_interval=12 * 3600, alexa_size=2_000,
                            corpus_size=2_000, consistency_scale=2_000, seed=13)
        generate_all(str(tmp_path), scale)
        a = (outdir / "fig3_availability.csv").read_text()
        b = (tmp_path / "fig3_availability.csv").read_text()
        assert a == b


def test_no_cache_uses_a_private_cache(tmp_path, monkeypatch):
    # --no-cache must not touch the named cache, yet the scan campaign
    # still runs once: generate_all backs it with a temporary cache.
    import repro.core.figures as figures
    seen = []
    monkeypatch.setattr(figures, "_generate_all",
                        lambda outdir, scale, workers, cache_dir:
                        seen.append(cache_dir) or [])
    named = str(tmp_path / "cache")
    generate_all(str(tmp_path), cache=False, cache_dir=named)
    generate_all(str(tmp_path), cache=True, cache_dir=named)
    assert seen[0] != named and "repro-figures-" in seen[0]
    assert seen[1] == named
