"""The experiment registry: every paper artefact, programmatically.

Maps each table/figure (and extension study) to its paper reference,
the modules implementing it, and the benchmark that regenerates it —
the machine-readable version of DESIGN.md's experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..refs import is_ref, resolve_ref


@dataclass(frozen=True)
class Experiment:
    """One reproducible artefact."""

    experiment_id: str
    title: str
    paper_ref: str
    modules: Tuple[str, ...]
    benchmark: str
    workload: str
    #: Literal ``module:function`` entrypoint consumed by
    #: :func:`repro.runtime.run_experiment`.  Always a plain string
    #: literal in the registry source (never built at runtime), so the
    #: effect analyzer (:mod:`repro.analyze`) discovers and certifies
    #: every runner statically.
    runner: str = ""

    def resolve_runner(self) -> Callable:
        """Import and return this experiment's runner function."""
        if not self.runner:
            raise ValueError(
                f"experiment {self.experiment_id!r} has no runner")
        return resolve_ref(self.runner)


_EXPERIMENTS: List[Experiment] = [
    Experiment(
        "sec4-deployment", "Deployment of OCSP and Must-Staple", "Section 4",
        ("repro.datasets.corpus", "repro.core.adoption"),
        "benchmarks/test_sec4_deployment.py",
        "seeded Censys-substitute corpus (20k records ~ 112.8M certs)",
        runner="repro.runtime.runners:run_sec4_deployment",
    ),
    Experiment(
        "fig2", "OCSP adoption vs website popularity", "Figure 2",
        ("repro.datasets.alexa", "repro.core.adoption"),
        "benchmarks/test_fig2_adoption.py",
        "Alexa model, 10,000-rank bins",
        runner="repro.runtime.runners:run_fig2",
    ),
    Experiment(
        "fig3", "Fraction of successful OCSP requests over time", "Figure 3",
        ("repro.datasets.world", "repro.scanner.hourly", "repro.core.availability"),
        "benchmarks/test_fig3_availability.py",
        "134 responders x 2 certs x 6 vantages, Apr 25 - Sep 4 2018",
        runner="repro.runtime.runners:run_fig3",
    ),
    Experiment(
        "fig4", "Alexa domains unable to fetch OCSP", "Figure 4",
        ("repro.scanner.alexa_scan", "repro.datasets.world"),
        "benchmarks/test_fig4_outage_impact.py",
        "606,367 Alexa OCSP domains mapped onto the responder world",
        runner="repro.runtime.runners:run_fig4",
    ),
    Experiment(
        "fig5", "Unusable responses by error class", "Figure 5",
        ("repro.ocsp.verify", "repro.core.quality"),
        "benchmarks/test_fig5_validity.py",
        "hourly scan + malformed/serial/signature classification",
        runner="repro.runtime.runners:run_fig5",
    ),
    Experiment(
        "fig6", "Certificates per OCSP response (CDF)", "Figure 6",
        ("repro.core.quality",),
        "benchmarks/test_fig6_certs_per_response.py",
        "per-responder averages over the hourly scan",
        runner="repro.runtime.runners:run_fig6",
    ),
    Experiment(
        "fig7", "Serial numbers per OCSP response (CDF)", "Figure 7",
        ("repro.core.quality",),
        "benchmarks/test_fig7_serials_per_response.py",
        "per-responder averages over the hourly scan",
        runner="repro.runtime.runners:run_fig7",
    ),
    Experiment(
        "fig8", "Validity period CDF", "Figure 8",
        ("repro.core.quality",),
        "benchmarks/test_fig8_validity_period.py",
        "per-responder validity periods; blank nextUpdate = infinity",
        runner="repro.runtime.runners:run_fig8",
    ),
    Experiment(
        "fig9", "thisUpdate margin CDF", "Figure 9",
        ("repro.core.quality",),
        "benchmarks/test_fig9_thisupdate_margin.py",
        "received-minus-thisUpdate per responder, NTP-synced clients",
        runner="repro.runtime.runners:run_fig9",
    ),
    Experiment(
        "tbl1", "CRL vs OCSP revocation-status discrepancies", "Table 1",
        ("repro.scanner.consistency", "repro.ca.registry"),
        "benchmarks/test_table1_discrepancy.py",
        "1:40-scaled 728,261 revoked serials across 7+ CAs",
        runner="repro.runtime.runners:run_tbl1",
    ),
    Experiment(
        "fig10", "OCSP-vs-CRL revocation time deltas", "Figure 10",
        ("repro.scanner.consistency",),
        "benchmarks/test_fig10_revocation_time.py",
        "same cross-check; msocsp lag, negative tail, 4-year extreme",
        runner="repro.runtime.runners:run_fig10",
    ),
    Experiment(
        "tbl2", "Browser Must-Staple support matrix", "Table 2",
        ("repro.browser",),
        "benchmarks/test_table2_browsers.py",
        "16 browser/OS combos vs a staple-less Must-Staple site",
        runner="repro.runtime.runners:run_tbl2",
    ),
    Experiment(
        "fig11", "OCSP Stapling adoption vs popularity", "Figure 11",
        ("repro.datasets.alexa", "repro.core.adoption"),
        "benchmarks/test_fig11_stapling_adoption.py",
        "Alexa model, 10,000-rank bins",
        runner="repro.runtime.runners:run_fig11",
    ),
    Experiment(
        "fig12", "Adoption over time (May 2016 - Sep 2018)", "Figure 12",
        ("repro.datasets.history", "repro.core.adoption"),
        "benchmarks/test_fig12_adoption_history.py",
        "monthly snapshots incl. the June-2017 Cloudflare jump",
        runner="repro.runtime.runners:run_fig12",
    ),
    Experiment(
        "tbl3", "Web server stapling conformance", "Table 3",
        ("repro.webserver",),
        "benchmarks/test_table3_webservers.py",
        "4 experiments x {Apache, Nginx, ideal}",
        runner="repro.runtime.runners:run_tbl3",
    ),
    Experiment(
        "sec5-freshness", "On-demand generation & non-overlap", "Section 5.4",
        ("repro.core.quality",),
        "benchmarks/test_sec5_freshness.py",
        "producedAt-vs-receipt analysis over the hourly scan",
        runner="repro.runtime.runners:run_sec5_freshness",
    ),
    Experiment(
        "sec8-readiness", "The readiness verdict", "Section 8",
        ("repro.core.report",),
        "benchmarks/test_sec8_readiness.py",
        "all principals combined",
        runner="repro.runtime.runners:run_sec8_readiness",
    ),
    # Extensions beyond the paper's evaluation.
    Experiment(
        "ext-multistaple", "RFC 6961 multi-stapling (chain statuses)",
        "Section 2.3 (extension)",
        ("repro.webserver.multistaple",),
        "benchmarks/test_ext_multistaple.py",
        "revoked-intermediate detection with/without status_request_v2",
        runner="repro.runtime.runners:run_ext_multistaple",
    ),
    Experiment(
        "ext-attack-window", "Replay/strip attack windows",
        "Sections 2.3 & 5.4 (extension)",
        ("repro.core.attacks",),
        "benchmarks/test_ext_attack_window.py",
        "attack window vs staple validity period, per browser policy",
        runner="repro.runtime.runners:run_ext_attack_window",
    ),
    Experiment(
        "ext-latency", "OCSP lookup latency, direct vs CDN-fronted",
        "Section 3 (Stark 291 ms vs Zhu 20 ms)",
        ("repro.core.latency", "repro.scanner.cdn"),
        "benchmarks/test_ext_latency.py",
        "24 simulated hours of lookups from six vantages",
        runner="repro.runtime.runners:run_ext_latency",
    ),
    Experiment(
        "ext-alternatives", "Revocation mechanism exposure windows",
        "Section 3 (extension)",
        ("repro.core.alternatives",),
        "benchmarks/test_ext_alternatives.py",
        "CRL vs OCSP vs Must-Staple vs short-lived certificates",
        runner="repro.runtime.runners:run_ext_alternatives",
    ),
    Experiment(
        "ext-whatif", "Universal Must-Staple enforcement on today's stack",
        "Section 8 ordering argument (extension)",
        ("repro.core.whatif",),
        "benchmarks/test_ext_deployment_whatif.py",
        "fleet of Must-Staple sites x {Apache, Nginx, ideal} x flaky responders",
        runner="repro.runtime.runners:run_ext_whatif",
    ),
    Experiment(
        "ext-response-size", "Response size vs embedded certificates",
        "Figure 6 discussion (extension)",
        ("repro.core.quality",),
        "benchmarks/test_ext_response_size.py",
        "per-responder response sizes over the hourly scan",
        runner="repro.runtime.runners:run_ext_response_size",
    ),
    Experiment(
        "abl-apache-patch", "Apache with the reported bugs fixed",
        "Section 7.2 / Bugzilla #62400 ablation",
        ("repro.webserver.apache",),
        "benchmarks/test_ablation_apache_patch.py",
        "conformance + outage lockout, stock vs patched",
        runner="repro.runtime.runners:run_abl_apache_patch",
    ),
    Experiment(
        "abl-parser", "Strict vs lenient DER parsing", "DESIGN ablation",
        ("repro.asn1.decoder",),
        "benchmarks/test_ablation_parser.py",
        "garbage corpus + BER-tolerance probes",
        runner="repro.runtime.runners:run_abl_parser",
    ),
    Experiment(
        "abl-keysize", "RSA key size", "DESIGN ablation",
        ("repro.crypto.rsa",),
        "benchmarks/test_ablation_keysize.py",
        "512/1024/2048-bit sign/verify semantics and cost",
        runner="repro.runtime.runners:run_abl_keysize",
    ),
    Experiment(
        "chaos-availability", "Availability under injected fault scenarios",
        "Figures 3-4 (chaos extension)",
        ("repro.faults.scenarios", "repro.faults.experiments",
         "repro.scanner.hourly"),
        "benchmarks/test_chaos_availability.py",
        "hourly scan x {baseline, brownout, blackout, tail-latency, stale}",
        runner="repro.faults.experiments:run_chaos_availability",
    ),
    Experiment(
        "chaos-client-outcomes", "Client policies under fault scenarios",
        "Tables 2 & Section 8 (chaos extension)",
        ("repro.faults.policy", "repro.faults.experiments",
         "repro.ocsp.client"),
        "benchmarks/test_chaos_client_outcomes.py",
        "scenario x {soft-fail, Must-Staple hard-fail, no-check} grid",
        runner="repro.faults.experiments:run_chaos_client_outcomes",
    ),
    Experiment(
        "hostile-corpus", "Parser survival under structure-aware mutation",
        "Figure 5 'malformed response' (robustness extension)",
        ("repro.hostile.mutate", "repro.hostile.corpus",
         "repro.asn1.decoder", "repro.lint.engine", "repro.ocsp.verify"),
        "benchmarks/test_hostile_corpus.py",
        "seeded DER mutants x {certificate, OCSP, CRL} x parse/lint/verify",
        runner="repro.hostile.experiments:run_hostile_corpus",
    ),
    Experiment(
        "serve-loadtest", "Responder daemon byte-identity and throughput",
        "Section 6 responder-side serving (daemon extension)",
        ("repro.serve.app", "repro.serve.loadgen", "repro.ca.responder"),
        "benchmarks/test_serve_loadtest.py",
        "seeded traffic x {daemon path, in-process core} identity + warm-cache load",
        runner="repro.serve.experiments:run_serve_loadtest",
    ),
    Experiment(
        "monitor-convergence", "Streaming reducer merges vs batch pipeline",
        "Section 5.2 availability (streaming-monitor extension)",
        ("repro.monitor.events", "repro.monitor.reducers",
         "repro.monitor.replay", "repro.core.availability"),
        "benchmarks/test_monitor_replay.py",
        "event-log partitions x {forward, backward} merge folds vs batch digests",
        runner="repro.monitor.experiments:run_monitor_convergence",
    ),
]

#: Every entry must carry a literal, well-formed runner ref — checked
#: at import time so a malformed registry can never reach execution.
for _entry in _EXPERIMENTS:
    if not is_ref(_entry.runner):
        raise ValueError(
            f"experiment {_entry.experiment_id!r} has a malformed runner "
            f"ref: {_entry.runner!r}")
del _entry


def all_experiments() -> List[Experiment]:
    """Every registered experiment, paper order first."""
    return list(_EXPERIMENTS)


def experiment(experiment_id: str) -> Experiment:
    """Look up one experiment by id."""
    for entry in _EXPERIMENTS:
        if entry.experiment_id == experiment_id:
            return entry
    raise KeyError(experiment_id)


def paper_artefacts() -> List[Experiment]:
    """Just the paper's own tables/figures/sections."""
    return [e for e in _EXPERIMENTS
            if not e.experiment_id.startswith(("ext-", "abl-"))]


def index_table() -> str:
    """Render the registry as a text table (used by the CLI)."""
    from .render import render_table
    return render_table(
        ["id", "paper ref", "benchmark"],
        [[e.experiment_id, e.paper_ref, e.benchmark] for e in _EXPERIMENTS],
        title="Experiment index",
    )
