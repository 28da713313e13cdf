"""Shard workers and experiment runners.

Two layers live here:

* **shard workers** — module-level pure functions of a JSON payload,
  referenced by dotted name from :mod:`repro.runtime.sharding` so
  shard specs stay picklable.  Workers rebuild whatever world/config
  they need from the payload (memoized per process) and return plain
  row dicts, which is what the artifact cache stores.
* **experiment runners** — one per registry entry, named in
  ``Experiment.runner`` (the chaos, hostile, serve and monitor
  experiments keep theirs beside their workers, in each package's
  ``experiments`` module).  A runner plans shards, hands them to the
  :class:`~repro.runtime.supervisor.SupervisedExecutor` it is given
  (``ctx.run_shards``), merges rows, and runs the (cheap) analysis
  stage in the parent process.

Scan-based experiments (Figures 3, 5-9, §5.4, response size) share one
campaign shard family, so a warm cache computed for ``fig3`` also
satisfies ``fig5``-``fig9`` at the same scale.  Table 1 and Figure 10
share the consistency worker the same way.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from ..canon import stable_digest
from ..memo import BoundedMemo
from ..scanner.io import record_to_dict
from .configs import (
    AlexaRunConfig,
    AttackWindowConfig,
    ConsistencyRunConfig,
    CorpusRunConfig,
    LatencyConfig,
    OutageImpactConfig,
    ReadinessConfig,
    ScanCampaignConfig,
    SeedConfig,
    WhatIfRunConfig,
)
from .sharding import (
    alexa_shards,
    campaign_window,
    consistency_shards,
    corpus_shards,
    merge_scan_rows,
    outage_impact_shards,
    scan_shards,
    single_shard,
)

#: Per-process world memo: rebuilding a MeasurementWorld dominates
#: small-shard cost, and every shard of one campaign shares a world.
_WORLD_MEMO: BoundedMemo[str, Any] = BoundedMemo(8)


def _world_for(world_dict: Dict[str, Any]):
    from ..datasets.world import MeasurementWorld, WorldConfig
    return _WORLD_MEMO.lookup(
        stable_digest(world_dict),
        lambda _: MeasurementWorld(WorldConfig.from_dict(world_dict)))


# ---------------------------------------------------------------------------
# shard workers
# ---------------------------------------------------------------------------

def scan_shard(payload: Dict[str, Any],
               network: Any = None) -> List[Dict[str, Any]]:
    """Probe one contiguous target range from every vantage, over
    *network* (default: the world's own; the chaos scan passes a
    :class:`repro.faults.FaultyNetwork`).

    Rows are scan-file dicts plus the global target index ``ti`` and
    vantage index ``vi`` that the deterministic merge sorts on.  The
    loop mirrors HourlyScanner.run (time-outer, target, vantage-inner)
    so each target's signed response is generated once and served to
    all vantages from the responder's epoch cache.
    """
    from ..scanner.hourly import HourlyScanner
    from ..simnet.vantage import VANTAGE_POINTS
    config = ScanCampaignConfig.from_dict(payload["campaign"])
    world = _world_for(payload["campaign"]["world"])
    vantages = list(config.vantages or VANTAGE_POINTS)
    lo, hi = payload["lo"], payload["hi"]
    scanner = HourlyScanner(world, vantages=vantages,
                            interval=config.interval, network=network)
    targets = world.scan_targets()[lo:hi]
    start, end = campaign_window(config)

    rows: List[Dict[str, Any]] = []
    now = start
    while now < end:
        for ti, target in enumerate(targets, start=lo):
            # Mirror HourlyScanner.run: expired certificates drop out.
            if target.certificate.validity.not_after < now:
                continue
            for vi, vantage in enumerate(vantages):
                row = record_to_dict(scanner.probe(target, vantage, now))
                row["ti"] = ti
                row["vi"] = vi
                rows.append(row)
        now += config.interval
    return rows


def corpus_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Generate one record-index range of the certificate corpus."""
    from ..datasets.corpus import CorpusConfig, generate_records
    config = CorpusConfig.from_dict(payload["corpus"])
    return [record.to_dict()
            for record in generate_records(config, payload["lo"], payload["hi"])]


def alexa_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Generate one rank-sample range of the Alexa model (quota not
    yet applied — that is a global post-pass in the parent)."""
    from ..datasets.alexa import AlexaConfig, generate_domains
    config = AlexaConfig.from_dict(payload["alexa"])
    return [record.to_dict()
            for record in generate_domains(config, payload["lo"], payload["hi"])]


def outage_impact_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Figure 4 for one vantage point."""
    from ..scanner.alexa_scan import AlexaAvailability
    world = _world_for(payload["world"])
    availability = AlexaAvailability(world, seed=payload["seed"])
    vantage = payload["vantage"]
    series = availability.series(payload["times"], vantages=[vantage])
    return [{"vantage": vantage, "ts": ts, "unable": unable}
            for ts, unable in series[vantage]]


def consistency_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The full CRL↔OCSP cross-check, kind-tagged per row so Table 1
    and Figure 10 both read from this one cache entry."""
    from ..scanner.consistency import (ConsistencyConfig, ConsistencyWorld,
                                       run_consistency_scan)
    report = run_consistency_scan(ConsistencyWorld(ConsistencyConfig(
        scale=payload["scale"], seed=payload["seed"])))
    rows: List[Dict[str, Any]] = []
    for row in report.discrepant_rows():
        rows.append({"kind": "discrepancy", "ocsp_url": row.ocsp_url,
                     "unknown": row.unknown, "good": row.good,
                     "revoked": row.revoked})
    for delta in report.time_deltas:
        rows.append({"kind": "delta", "ocsp_url": delta.ocsp_url,
                     "serial": delta.serial_number, "delta": delta.delta})
    rows.append({
        "kind": "summary",
        "responses_collected": report.responses_collected,
        "serials_checked": report.serials_checked,
        "differing_time_fraction": report.differing_time_fraction(),
        "reasons_differing": report.reasons.differing,
        "reasons_crl_only": report.reasons.crl_only,
    })
    return rows


def browsers_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Table 2: the browser Must-Staple matrix."""
    from ..browser import run_browser_tests
    report = run_browser_tests()
    rows = []
    for row in report.rows:
        cells = row.cells()
        rows.append({
            "browser": row.policy.label,
            "request_ocsp": cells["Request OCSP response"],
            "respect_must_staple": cells["Respect OCSP Must-Staple"],
            "own_ocsp": cells["Send own OCSP request"],
            "compliant": row.policy.label in report.compliant_browsers,
        })
    return rows


def webservers_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Table 3: web server stapling conformance."""
    from ..webserver import (ApacheServer, EXPERIMENTS, IdealServer,
                             NginxServer, run_conformance)
    rows = []
    for server_class in (ApacheServer, NginxServer, IdealServer):
        report = run_conformance(server_class)
        cells = report.as_row()
        rows.append({"software": report.software,
                     **{name: cells[name] for name in EXPERIMENTS}})
    return rows


def history_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Figure 12: adoption over time."""
    from ..core.adoption import figure12_history
    history = figure12_history()
    return [{"month": s.label, "ocsp_pct": s.ocsp_pct,
             "stapling_pct": s.stapling_pct,
             "cloudflare_domains": s.cloudflare_stapling_domains}
            for s in history.snapshots]


def readiness_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Section 8: one row per principal verdict."""
    from ..core.report import assess_readiness
    from ..datasets.corpus import CertificateCorpus, CorpusConfig
    config = ReadinessConfig.from_dict(payload["config"])
    world = _world_for(payload["config"]["world"])
    corpus = CertificateCorpus(CorpusConfig.from_dict(payload["config"]["corpus"]))
    report = assess_readiness(world=world, corpus=corpus,
                              scan_days=config.scan_days,
                              scan_interval=config.scan_interval)
    return [{"principal": verdict.principal, "ready": verdict.ready,
             "findings": list(verdict.findings)}
            for verdict in report.verdicts]


def latency_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Extension: direct vs CDN-fronted lookup latency."""
    from ..core.latency import measure_cdn_latency, measure_direct_latency
    config = LatencyConfig.from_dict(payload["config"])
    world = _world_for(payload["config"]["world"])
    rows = []
    for kind, report in (("direct", measure_direct_latency(world, hours=config.hours)),
                         ("cdn", measure_cdn_latency(world, hours=config.hours))):
        edge = sum(1 for s in report.samples_ms if s <= 20) / len(report.samples_ms)
        rows.append({"kind": kind, "median_ms": report.median_ms,
                     "p90_ms": report.percentile_ms(90),
                     "p99_ms": report.percentile_ms(99),
                     "samples": len(report.samples_ms),
                     "edge_fraction": edge})
    return rows


def _attack_site(validity: int, seed: int, now: int):
    from ..ca import CertificateAuthority, OCSPResponder, ResponderProfile
    from ..crypto import generate_keypair
    from ..simnet import DAY, Network, ocsp_service
    from ..webserver import IdealServer
    from ..x509 import TrustStore
    ca = CertificateAuthority.create_root(
        "ATW CA", "http://ocsp.atw.test", not_before=now - 365 * DAY)
    leaf = ca.issue_leaf("atw.example", generate_keypair(512, rng=seed),
                         not_before=now - DAY, must_staple=True,
                         lifetime=400 * DAY)
    responder = OCSPResponder(
        ca, "http://ocsp.atw.test",
        ResponderProfile(update_interval=None, this_update_margin=0,
                         validity_period=validity),
        epoch_start=now - 7 * DAY)
    network = Network()
    network.bind("ocsp.atw.test",
                 network.add_origin("atw", "us-east",
                                    ocsp_service(responder)))
    server = IdealServer(chain=[leaf, ca.certificate], issuer=ca.certificate,
                         network=network)
    trust = TrustStore([ca.certificate])
    ca.revoke(leaf, now, reason=1)
    return ca, leaf, server, network, trust


def attack_window_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Extension: replay windows per validity + strip/block outcomes."""
    from ..browser import by_label
    from ..core.attacks import AttackerCapabilities, measure_attack_window
    from ..simnet import DAY, HOUR, MEASUREMENT_START
    config = AttackWindowConfig.from_dict(payload["config"])
    now = MEASUREMENT_START
    firefox = by_label()["Firefox 60 (Linux)"]
    chrome = by_label()["Chrome 66 (Linux)"]
    rows = []
    for validity in config.validities:
        ca, leaf, server, network, trust = _attack_site(validity, config.seed, now)
        outcome = measure_attack_window(
            firefox, server, leaf, ca.certificate, trust,
            AttackerCapabilities(replay_staple=True),
            revoked_at=now, horizon=config.horizon, step=HOUR,
            network=network, server_tick=server.tick)
        rows.append({"kind": "replay", "validity": validity,
                     "window": outcome.window,
                     "unbounded": outcome.unbounded})
    strip = AttackerCapabilities(strip_staple=True, block_ocsp=True)
    for label, policy in (("firefox", firefox), ("chrome", chrome)):
        ca, leaf, server, network, trust = _attack_site(DAY, config.seed, now)
        outcome = measure_attack_window(
            policy, server, leaf, ca.certificate, trust, strip,
            revoked_at=now, horizon=config.horizon, step=DAY,
            network=network, server_tick=server.tick)
        rows.append({"kind": "strip-block", "browser": label,
                     "window": outcome.window,
                     "unbounded": outcome.unbounded})
    return rows


def multistaple_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Extension: RFC 6961 vs a revoked intermediate."""
    from ..ca import CertificateAuthority, OCSPResponder, ResponderProfile
    from ..crypto import generate_keypair
    from ..simnet import DAY, HOUR, MEASUREMENT_START, Network, ocsp_service
    from ..tls import ClientHello
    from ..webserver import MultiStapleServer, verify_chain_staples
    now = MEASUREMENT_START
    seed = payload["config"]["seed"]
    root = CertificateAuthority.create_root(
        "MS Root", "http://ocsp.msroot.test", not_before=now - 3 * 365 * DAY)
    intermediate = root.create_intermediate("MS Intermediate",
                                            "http://ocsp.msint.test")
    leaf = intermediate.issue_leaf("multi.example",
                                   generate_keypair(512, rng=seed),
                                   not_before=now - DAY)
    network = Network()
    for name, authority in (("msroot", root), ("msint", intermediate)):
        responder = OCSPResponder(
            authority, f"http://ocsp.{name}.test",
            ResponderProfile(update_interval=None, this_update_margin=HOUR),
            epoch_start=now - 7 * DAY)
        network.bind(f"ocsp.{name}.test",
                     network.add_origin(f"{name}-ocsp", "us-east",
                                        ocsp_service(responder)))
    server = MultiStapleServer(
        chain=[leaf, intermediate.certificate, root.certificate],
        issuer=intermediate.certificate, network=network)
    issuers = [intermediate.certificate, root.certificate, root.certificate]

    server.tick(now)
    v1_hello = ClientHello("multi.example", status_request=True)
    v2_hello = ClientHello("multi.example", status_request=True,
                           status_request_v2=True)
    before_v2 = verify_chain_staples(
        server.handle_connection(v2_hello, now), issuers, now)
    root.revoke(intermediate.certificate, now + HOUR, reason=2)
    server.cache = None
    server._chain_cache.clear()
    server.tick(now + 2 * HOUR)
    after_v1 = server.handle_connection(v1_hello, now + 2 * HOUR)
    after_v2 = verify_chain_staples(
        server.handle_connection(v2_hello, now + 2 * HOUR),
        issuers, now + 2 * HOUR)
    return [
        {"stage": "healthy-v2", "verdicts": list(before_v2)},
        {"stage": "revoked-v1",
         "staple_present": after_v1.stapled_ocsp is not None,
         "chain_staples_present": after_v1.stapled_ocsp_chain is not None},
        {"stage": "revoked-v2", "verdicts": list(after_v2)},
    ]


def alternatives_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Extension: exposure windows across revocation mechanisms."""
    from ..core.alternatives import MechanismParameters, compare_mechanisms
    from ..simnet import DAY
    parameters = MechanismParameters(ocsp_validity=4 * DAY,
                                     short_lived_lifetime=3 * DAY)
    return [{"mechanism": row.mechanism, "benign_window": row.benign_window,
             "attacked_window": row.attacked_window, "notes": row.notes}
            for row in compare_mechanisms(parameters)]


def whatif_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Extension: universal Must-Staple enforcement."""
    from ..core.whatif import WhatIfConfig, run_whatif
    config = WhatIfRunConfig.from_dict(payload["config"])
    result = run_whatif(WhatIfConfig(n_sites=config.n_sites))
    return [{"software": software, "failed": failed, "total": total}
            for software, (failed, total) in sorted(result.by_software.items())]


def apache_patch_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Ablation: Apache stock vs the authors' reported fixes."""
    from ..browser import Verdict, by_label, connect
    from ..ca import CertificateAuthority, OCSPResponder, ResponderProfile
    from ..crypto import generate_keypair
    from ..simnet import (DAY, HOUR, MEASUREMENT_START, FailureKind, Network,
                          ocsp_service,
                          OutageWindow)
    from ..webserver import ApachePatchedServer, ApacheServer, run_conformance
    from ..x509 import TrustStore
    now = MEASUREMENT_START
    seed = payload["config"]["seed"]

    def lockout_hours(server_class) -> int:
        ca = CertificateAuthority.create_root(
            "Patch CA", "http://ocsp.patch.test", not_before=now - 365 * DAY)
        leaf = ca.issue_leaf("patch.example", generate_keypair(512, rng=seed),
                             not_before=now - DAY, must_staple=True)
        responder = OCSPResponder(
            ca, "http://ocsp.patch.test",
            ResponderProfile(update_interval=None, this_update_margin=HOUR,
                             validity_period=DAY),
            epoch_start=now - 7 * DAY)
        network = Network()
        origin = network.add_origin("patch", "us-east",
                                    ocsp_service(responder))
        network.bind("ocsp.patch.test", origin)
        origin.add_outage(OutageWindow(now + 6 * HOUR, now + 12 * HOUR,
                                       kind=FailureKind.TCP))
        server = server_class(chain=[leaf, ca.certificate],
                              issuer=ca.certificate, network=network)
        firefox = by_label()["Firefox 60 (Linux)"]
        trust = TrustStore([ca.certificate])
        locked = 0
        for hour in range(24):
            outcome = connect(firefox, server, "patch.example", trust,
                              now + hour * HOUR)
            if outcome.verdict is not Verdict.ACCEPTED:
                locked += 1
        return locked

    rows = []
    for variant, server_class in (("stock", ApacheServer),
                                  ("patched", ApachePatchedServer)):
        report = run_conformance(server_class)
        for result in report.results:
            rows.append({"kind": "conformance", "variant": variant,
                         "experiment": result.name, "passed": result.passed,
                         "note": result.note})
        rows.append({"kind": "lockout", "variant": variant,
                     "hours": lockout_hours(server_class)})
    return rows


def parser_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Ablation: strict vs lenient DER parsing."""
    from ..asn1 import Reader
    from ..asn1.errors import ASN1Error
    from ..ocsp import OCSPResponse
    garbage = [b"", b"0", b"<html><script>x</script></html>", b"\x30\x82"]

    def parses(body: bytes, lenient: bool) -> bool:
        try:
            OCSPResponse.from_der(body, lenient=lenient)
            return True
        except (ASN1Error, ValueError):
            return False

    rows = [{"kind": "garbage", "body": body.hex(),
             "strict_rejects": not parses(body, False),
             "lenient_rejects": not parses(body, True)}
            for body in garbage]
    ber_integer = b"\x02\x81\x01\x05"  # BER long-form length, not DER
    try:
        Reader(ber_integer).read_integer()
        strict_rejects = False
    except ASN1Error:
        strict_rejects = True
    rows.append({"kind": "ber-integer", "body": ber_integer.hex(),
                 "strict_rejects": strict_rejects,
                 "lenient_value": Reader(ber_integer,
                                         lenient=True).read_integer()})
    return rows


def keysize_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:  # repro: allow-effect[WALL_CLOCK] -- timing columns are measurements, not deterministic content
    """Ablation: RSA key size — semantics per size, with costs.

    The timing columns are measurements, not deterministic content;
    cached rows keep the timings of the run that produced them.
    """
    from ..crypto import generate_keypair, is_valid, sign, verify
    rows = []
    for bits in (512, 1024, 2048):
        started = time.perf_counter()
        key = generate_keypair(bits, rng=bits)
        signature = sign(key, b"ocsp response bytes")
        verify(key.public_key, b"ocsp response bytes", signature)
        tamper_rejected = not is_valid(key.public_key, b"tampered bytes",
                                       signature)
        keygen_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        for _ in range(10):
            sign(key, b"x")
        sign_ms = (time.perf_counter() - started) / 10 * 1000
        rows.append({"bits": bits, "semantics_ok": tamper_rejected,
                     "keygen_ms": round(keygen_ms, 3),
                     "sign_ms": round(sign_ms, 3)})
    return rows


# ---------------------------------------------------------------------------
# shared runner helpers
# ---------------------------------------------------------------------------

def merged_scan(ctx, config: ScanCampaignConfig):
    """Plan, execute, and merge one scan campaign."""
    return merge_scan_rows(config, ctx.run_shards(scan_shards(config)))


def _built_corpus(ctx, config: CorpusRunConfig):
    from ..datasets.corpus import CertificateCorpus, CertificateRecord
    outputs = ctx.run_shards(corpus_shards(config))
    records = [CertificateRecord.from_dict(row)
               for rows in outputs for row in rows]
    return CertificateCorpus.from_records(config.corpus, records)


def _built_alexa(ctx, config: AlexaRunConfig):
    from ..datasets.alexa import AlexaModel, DomainRecord
    outputs = ctx.run_shards(alexa_shards(config))
    records = [DomainRecord.from_dict(row)
               for rows in outputs for row in rows]
    return AlexaModel.from_records(config.alexa, records, quota_applied=False)


def _consistency_rows(ctx, config: ConsistencyRunConfig):
    rows = ctx.run_shards(consistency_shards(config))[0]
    summary = next(row for row in rows if row["kind"] == "summary")
    return rows, summary


# ---------------------------------------------------------------------------
# experiment runners (Experiment.runner entrypoints)
# ---------------------------------------------------------------------------

def run_sec4_deployment(ctx, config: CorpusRunConfig) -> Dict[str, Any]:
    from ..core.adoption import deployment_stats
    corpus = _built_corpus(ctx, config)
    stats = deployment_stats(corpus)
    boost = config.corpus.must_staple_boost
    unboosted = stats.must_staple_fraction / boost
    shares = stats.must_staple_ca_shares()
    rows = [{"metric": "ocsp_fraction", "value": stats.ocsp_fraction},
            {"metric": "must_staple_fraction_unboosted", "value": unboosted}]
    rows += [{"metric": f"must_staple_share[{name}]", "value": share}
             for name, share in shares.items()]
    return {
        "rows": rows,
        "summary": {"ocsp_fraction": stats.ocsp_fraction,
                    "must_staple_fraction_unboosted": unboosted,
                    "records": len(corpus)},
        "artifacts": {"corpus": corpus, "stats": stats},
    }


def run_fig2(ctx, config: AlexaRunConfig) -> Dict[str, Any]:
    from ..core.adoption import figure2_adoption
    alexa = _built_alexa(ctx, config)
    adoption = figure2_adoption(alexa, bin_width=config.bin_width)
    https = adoption.curves["Domains with certificate"]
    ocsp = adoption.curves["Certificates with OCSP responder"]
    rows = [{"rank_bin": bin_start, "https_pct": https_pct, "ocsp_pct": ocsp_pct}
            for (bin_start, https_pct), (_, ocsp_pct) in zip(https, ocsp)]
    return {
        "rows": rows,
        "series": dict(adoption.curves),
        "summary": {
            "https_avg": adoption.average("Domains with certificate"),
            "ocsp_avg": adoption.average("Certificates with OCSP responder"),
        },
        "artifacts": {"alexa": alexa, "adoption": adoption},
    }


def run_fig11(ctx, config: AlexaRunConfig) -> Dict[str, Any]:
    from ..core.adoption import figure11_adoption
    alexa = _built_alexa(ctx, config)
    adoption = figure11_adoption(alexa, bin_width=config.bin_width)
    curve = adoption.curves["OCSP domains that support OCSP Stapling"]
    rows = [{"rank_bin": bin_start, "stapling_pct": pct}
            for bin_start, pct in curve]
    return {
        "rows": rows,
        "series": dict(adoption.curves),
        "summary": {"stapling_avg": adoption.average(
            "OCSP domains that support OCSP Stapling")},
        "artifacts": {"alexa": alexa, "adoption": adoption},
    }


def run_fig3(ctx, config: ScanCampaignConfig) -> Dict[str, Any]:
    from ..core.availability import analyze_availability
    dataset = merged_scan(ctx, config)
    report = analyze_availability(dataset)
    rows = [{"timestamp": ts, "vantage": vantage, "success_pct": pct}
            for vantage, points in report.success_series.items()
            for ts, pct in points]
    return {
        "rows": rows,
        "series": dict(report.success_series),
        "summary": {
            "probes": len(dataset),
            "responders": report.responder_count,
            "failure_rate": dict(report.failure_rate),
            "overall_failure_rate": report.overall_failure_rate,
            "never_successful_anywhere": len(report.never_successful_anywhere),
            "outage_fraction": report.outage_fraction,
        },
        "artifacts": {"dataset": dataset, "report": report},
    }


def run_fig4(ctx, config: OutageImpactConfig) -> Dict[str, Any]:
    outputs = ctx.run_shards(outage_impact_shards(config))
    rows = [row for shard_rows in outputs for row in shard_rows]
    series: Dict[str, List[Any]] = {}
    for row in rows:
        series.setdefault(row["vantage"], []).append((row["ts"], row["unable"]))
    return {
        "rows": rows,
        "series": series,
        "summary": {"peak_unable": max((row["unable"] for row in rows),
                                       default=0.0)},
    }


def run_fig5(ctx, config: ScanCampaignConfig) -> Dict[str, Any]:
    from ..core.quality import validity_series
    dataset = merged_scan(ctx, config)
    fig5 = validity_series(dataset)
    rows = [{"timestamp": ts, "error_class": outcome.name, "pct": pct}
            for outcome, points in fig5.series.items()
            for ts, pct in points]
    return {
        "rows": rows,
        "series": {outcome.name: points
                   for outcome, points in fig5.series.items()},
        "summary": {"probes": len(dataset)},
        "artifacts": {"dataset": dataset, "validity_series": fig5},
    }


def _cdf_runner(ctx, config: ScanCampaignConfig, cdf_name: str) -> Dict[str, Any]:
    from ..core import quality
    dataset = merged_scan(ctx, config)
    qualities = quality.responder_quality(dataset)
    cdf = getattr(quality, cdf_name)(qualities)
    rows = [{"value": value, "cdf": fraction} for value, fraction in cdf]
    return {
        "rows": rows,
        "series": {cdf_name: list(cdf)},
        "summary": {"responders": len(qualities)},
        "artifacts": {"dataset": dataset, "qualities": qualities},
    }


def run_fig6(ctx, config: ScanCampaignConfig) -> Dict[str, Any]:
    return _cdf_runner(ctx, config, "certificates_cdf")


def run_fig7(ctx, config: ScanCampaignConfig) -> Dict[str, Any]:
    return _cdf_runner(ctx, config, "serials_cdf")


def run_fig8(ctx, config: ScanCampaignConfig) -> Dict[str, Any]:
    return _cdf_runner(ctx, config, "validity_cdf")


def run_fig9(ctx, config: ScanCampaignConfig) -> Dict[str, Any]:
    return _cdf_runner(ctx, config, "margin_cdf")


def run_tbl1(ctx, config: ConsistencyRunConfig) -> Dict[str, Any]:
    rows, summary = _consistency_rows(ctx, config)
    discrepancies = [row for row in rows if row["kind"] == "discrepancy"]
    return {
        "rows": discrepancies,
        "summary": {
            "responses_collected": summary["responses_collected"],
            "serials_checked": summary["serials_checked"],
            "discrepant_responders": len(discrepancies),
        },
    }


def run_fig10(ctx, config: ConsistencyRunConfig) -> Dict[str, Any]:
    rows, summary = _consistency_rows(ctx, config)
    deltas = [row for row in rows if row["kind"] == "delta"]
    nonzero = [row["delta"] for row in deltas if row["delta"] != 0]
    return {
        "rows": deltas,
        "series": {"nonzero_deltas": sorted(nonzero)},
        "summary": {
            "differing_time_fraction": summary["differing_time_fraction"],
            "max_delta": max(nonzero, default=0),
            "min_delta": min(nonzero, default=0),
        },
    }


def run_tbl2(ctx, config: SeedConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("browsers_shard", config, "tbl2"))[0]
    return {
        "rows": rows,
        "summary": {"compliant": [row["browser"] for row in rows
                                  if row["compliant"]]},
    }


def run_tbl3(ctx, config: SeedConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("webservers_shard", config, "tbl3"))[0]
    return {"rows": rows, "summary": {"servers": len(rows)}}


def run_fig12(ctx, config: SeedConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("history_shard", config, "fig12"))[0]
    return {
        "rows": rows,
        "series": {
            "ocsp_pct": [(row["month"], row["ocsp_pct"]) for row in rows],
            "stapling_pct": [(row["month"], row["stapling_pct"])
                             for row in rows],
        },
        "summary": {"months": len(rows)},
    }


def run_sec5_freshness(ctx, config: ScanCampaignConfig) -> Dict[str, Any]:
    from ..core.quality import quality_headlines
    dataset = merged_scan(ctx, config)
    headlines = quality_headlines(dataset)
    summary = {
        "responders": headlines.responders,
        "not_on_demand": headlines.not_on_demand,
        "non_overlapping": headlines.non_overlapping,
        "zero_margin": headlines.zero_margin,
        "blank_next_update": headlines.blank_next_update,
    }
    return {
        "rows": [dict(metric=key, value=value)
                 for key, value in summary.items()],
        "summary": summary,
        "artifacts": {"dataset": dataset, "headlines": headlines},
    }


def run_sec8_readiness(ctx, config: ReadinessConfig) -> Dict[str, Any]:
    from ..core.report import PrincipalVerdict, ReadinessReport
    rows = ctx.run_shards(single_shard("readiness_shard", config,
                                       "readiness"))[0]
    report = ReadinessReport(verdicts=[
        PrincipalVerdict(principal=row["principal"], ready=row["ready"],
                         findings=list(row["findings"]))
        for row in rows])
    return {
        "rows": rows,
        "summary": {"web_is_ready": report.web_is_ready},
        "artifacts": {"report": report},
    }


def run_ext_multistaple(ctx, config: SeedConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("multistaple_shard", config,
                                       "multistaple"))[0]
    revoked_v2 = next(row for row in rows if row["stage"] == "revoked-v2")
    return {
        "rows": rows,
        "summary": {"v2_detects_revoked_intermediate":
                    revoked_v2["verdicts"][1] is False},
    }


def run_ext_attack_window(ctx, config: AttackWindowConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("attack_window_shard", config,
                                       "attack-window"))[0]
    replay = {row["validity"]: row["window"]
              for row in rows if row["kind"] == "replay"}
    strip = {row["browser"]: row for row in rows
             if row["kind"] == "strip-block"}
    return {
        "rows": rows,
        "summary": {
            "replay_windows": replay,
            "chrome_unbounded": strip["chrome"]["unbounded"],
            "firefox_window": strip["firefox"]["window"],
        },
    }


def run_ext_latency(ctx, config: LatencyConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("latency_shard", config, "latency"))[0]
    by_kind = {row["kind"]: row for row in rows}
    return {
        "rows": rows,
        "summary": {
            "direct_median_ms": by_kind["direct"]["median_ms"],
            "cdn_median_ms": by_kind["cdn"]["median_ms"],
            "cdn_edge_fraction": by_kind["cdn"]["edge_fraction"],
        },
    }


def run_ext_alternatives(ctx, config: SeedConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("alternatives_shard", config,
                                       "alternatives"))[0]
    return {"rows": rows, "summary": {"mechanisms": len(rows)}}


def run_ext_whatif(ctx, config: WhatIfRunConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("whatif_shard", config, "whatif"))[0]
    failed = sum(row["failed"] for row in rows)
    total = sum(row["total"] for row in rows)
    return {
        "rows": rows,
        "summary": {"overall_failure_rate": failed / total if total else 0.0},
    }


def run_ext_response_size(ctx, config: ScanCampaignConfig) -> Dict[str, Any]:
    from ..core.quality import responder_quality, size_by_certificate_count
    dataset = merged_scan(ctx, config)
    qualities = responder_quality(dataset)
    by_count = size_by_certificate_count(qualities)
    rows = [{"certificates": count, "avg_bytes": size}
            for count, size in sorted(by_count.items())]
    return {
        "rows": rows,
        "summary": {"max_avg_bytes": max(by_count.values(), default=0.0)},
        "artifacts": {"dataset": dataset, "qualities": qualities},
    }


def run_abl_apache_patch(ctx, config: SeedConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("apache_patch_shard", config,
                                       "apache-patch"))[0]
    lockout = {row["variant"]: row["hours"]
               for row in rows if row["kind"] == "lockout"}
    return {"rows": rows, "summary": {"lockout_hours": lockout}}


def run_abl_parser(ctx, config: SeedConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("parser_shard", config, "parser"))[0]
    garbage = [row for row in rows if row["kind"] == "garbage"]
    return {
        "rows": rows,
        "summary": {
            "garbage_bodies": len(garbage),
            "strict_rejects_all": all(row["strict_rejects"] for row in garbage),
        },
    }


def run_abl_keysize(ctx, config: SeedConfig) -> Dict[str, Any]:
    rows = ctx.run_shards(single_shard("keysize_shard", config, "keysize"))[0]
    return {
        "rows": rows,
        "summary": {"semantics_ok": all(row["semantics_ok"] for row in rows)},
    }
