"""Figure/table data generation — the reproduction's "data release".

The paper promises "we will be making our code and data publicly
available"; this module is that artifact's generator.  It runs every
analysis at a configurable scale and writes one machine-readable file
per paper artefact into an output directory:

    from repro.core.figures import FigureScale, generate_all
    written = generate_all("results/", FigureScale.small())

Every artefact is produced through :func:`repro.runtime.run_experiment`
on its default config at the given scale, so the heavy inputs are
shared: Figures 3 and 5-9 read one scan campaign's shards from the
artifact cache, and Table 1 / Figure 10 share one consistency
cross-check.  :data:`ARTEFACTS` holds the one renderer of each
artefact; ``python -m repro figures --out results/`` writes them all,
and ``python -m repro run <id>`` prints the paper tables among them.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simnet import DAY, HOUR
from .render import render_table


@dataclass
class FigureScale:
    """How big a campaign to run for the data files."""

    n_responders: int = 70
    certs_per_responder: int = 1
    scan_days: int = 7
    scan_interval: int = 12 * HOUR
    alexa_size: int = 8_000
    corpus_size: int = 8_000
    consistency_scale: int = 200
    seed: int = 7

    @classmethod
    def small(cls) -> "FigureScale":
        """Finishes in well under a minute."""
        return cls()

    @classmethod
    def full(cls) -> "FigureScale":
        """The benchmark-suite scale (minutes)."""
        return cls(n_responders=134, certs_per_responder=2, scan_days=132,
                   scan_interval=DAY, alexa_size=20_000, corpus_size=20_000,
                   consistency_scale=40)


def _csv(header: List[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _table(header: List[str], rows) -> str:
    return render_table(header, rows) + "\n"


def _sec4_deployment(result) -> str:
    def cell(row) -> str:
        if row["metric"] == "must_staple_fraction_unboosted":
            return f"{row['value']:.6f}"
        return f"{row['value']:.4f}"
    return _table(["metric", "value"],
                  [[row["metric"], cell(row)] for row in result.rows])


def _cdf(result) -> str:
    # to_dict() maps the Figure-8 blank-nextUpdate infinity to "inf".
    return _csv(["value", "cdf"], [(row["value"], f"{row['cdf']:.4f}")
                                   for row in result.to_dict()["rows"]])


def _table3(result) -> str:
    from ..webserver import EXPERIMENTS
    return _table(["software", *EXPERIMENTS],
                  [[row["software"], *[row[name] for name in EXPERIMENTS]]
                   for row in result.rows])


#: Experiment id -> (file name, render(result) -> the file's text), in
#: the order :func:`generate_all` runs them: Figures 3 and 5-9 share
#: one scan campaign's cache entries, Table 1 and Figure 10 one
#: cross-check.  A ``.txt`` file is a paper table, which ``repro run``
#: also prints.
ARTEFACTS: Dict[str, Tuple[str, Callable[[Any], str]]] = {
    "sec4-deployment": ("sec4_deployment.txt", _sec4_deployment),
    "fig2": ("fig2_adoption.csv", lambda result: _csv(
        ["rank_bin", "https_pct", "ocsp_pct"],
        [(row["rank_bin"], f"{row['https_pct']:.2f}",
          f"{row['ocsp_pct']:.2f}") for row in result.rows])),
    "fig11": ("fig11_stapling_adoption.csv", lambda result: _csv(
        ["rank_bin", "stapling_pct"],
        [(row["rank_bin"], f"{row['stapling_pct']:.2f}")
         for row in result.rows])),
    "fig3": ("fig3_availability.csv", lambda result: _csv(
        ["timestamp", "vantage", "success_pct"],
        [(row["timestamp"], row["vantage"], f"{row['success_pct']:.3f}")
         for row in result.rows])),
    "fig4": ("fig4_domains_unable.csv", lambda result: _csv(
        ["timestamp", "vantage", "domains_unable"],
        [(row["ts"], row["vantage"], f"{row['unable']:.0f}")
         for row in result.rows])),
    "fig5": ("fig5_unusable.csv", lambda result: _csv(
        ["timestamp", "error_class", "pct"],
        [(row["timestamp"], row["error_class"], f"{row['pct']:.4f}")
         for row in result.rows])),
    "fig6": ("fig6_certs_cdf.csv", _cdf),
    "fig7": ("fig7_serials_cdf.csv", _cdf),
    "fig8": ("fig8_validity_cdf.csv", _cdf),
    "fig9": ("fig9_margin_cdf.csv", _cdf),
    "tbl1": ("table1_discrepancies.txt", lambda result: _table(
        ["ocsp_url", "unknown", "good", "revoked"],
        [[row["ocsp_url"], row["unknown"], row["good"], row["revoked"]]
         for row in result.rows])),
    "fig10": ("fig10_time_deltas.csv", lambda result: _csv(
        ["ocsp_url", "serial", "delta_seconds"],
        [(row["ocsp_url"], row["serial"], row["delta"])
         for row in result.rows if row["delta"] != 0])),
    "tbl2": ("table2_browsers.txt", lambda result: _table(
        ["browser", "request_ocsp", "respect_must_staple", "own_ocsp"],
        [[row["browser"], row["request_ocsp"], row["respect_must_staple"],
          row["own_ocsp"]] for row in result.rows])),
    "fig12": ("fig12_history.csv", lambda result: _csv(
        ["month", "ocsp_pct", "stapling_pct", "cloudflare_domains"],
        [(row["month"], row["ocsp_pct"], row["stapling_pct"],
          row["cloudflare_domains"]) for row in result.rows])),
    "tbl3": ("table3_webservers.txt", _table3),
    "sec8-readiness": ("sec8_readiness.txt", lambda result:
                       result.artifacts["report"].render() + "\n"),
}


def paper_table(result) -> Optional[str]:
    """*result*'s paper table as text, or ``None`` when its artefact is
    a CSV series (or it has none)."""
    name, render = ARTEFACTS.get(result.experiment_id, ("", None))
    return render(result) if name.endswith(".txt") else None


def generate_all(outdir: str, scale: Optional[FigureScale] = None,
                 workers: int = 1, cache: bool = True,
                 cache_dir: Optional[str] = None) -> List[str]:
    """Generate every artefact's data file; returns the written paths.

    Each experiment runs on ``default_config(id, scale)``, as
    ``repro run`` runs it.  *workers* parallelizes shard execution
    (same bytes at any count).  Without a *cache_dir*, or with *cache*
    off, a private temporary cache still backs the run, so the scan
    campaign that feeds Figures 3 and 5-9 executes exactly once.
    """
    if cache and cache_dir is not None:
        return _generate_all(outdir, scale, workers, cache_dir)
    with tempfile.TemporaryDirectory(prefix="repro-figures-") as tmp:
        return _generate_all(outdir, scale, workers, tmp)


def _generate_all(outdir: str, scale: Optional[FigureScale],
                  workers: int, cache_dir: str) -> List[str]:
    from ..runtime import run_experiment

    os.makedirs(outdir, exist_ok=True)
    written: List[str] = []
    for experiment_id, (name, render) in ARTEFACTS.items():
        result = run_experiment(experiment_id, workers=workers, cache=True,
                                cache_dir=cache_dir, scale=scale)
        path = os.path.join(outdir, name)
        with open(path, "w", newline="") as stream:
            stream.write(render(result))
        written.append(path)
    return written
