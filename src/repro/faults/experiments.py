"""Chaos experiments: scenario sweeps through the shared runtime.

Two registry entries live here, planned/executed/merged exactly like
every other experiment (content-addressed shards, byte-identical
merges at any worker count):

* ``chaos-availability`` — the Figure-3 hourly scan repeated under
  each fault scenario, reporting availability and added latency per
  scenario;
* ``chaos-client-outcomes`` — a scenario × client-policy grid of
  resilient OCSP lookups, reporting how many connections succeed,
  soft-fail, get rescued by the CRL fallback, or would break under a
  Must-Staple hard-fail.

Shard payloads carry scenario *names*; workers rebuild the plan from
the catalogue, so cache keys stay small and stable.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..canon import split_ranges
from ..simnet import DAY, HTTPResponse, Network
from ..simnet.http import split_url
from .policy import client_policy
from .scenarios import FaultyNetwork, scenario

_WORKERS = "repro.faults.experiments"


# ---------------------------------------------------------------------------
# shard workers
# ---------------------------------------------------------------------------

def _crl_service(authority):
    """Serve the authority's CRL, rebuilt (and cached) once per day."""
    built: Dict[int, bytes] = {}

    def handle(request, now: int) -> HTTPResponse:
        epoch = now - now % DAY
        if epoch not in built:
            built[epoch] = authority.build_crl(epoch).der
        return HTTPResponse(status_code=200, body=built[epoch],
                            headers={"Content-Type": "application/pkix-crl"})

    return handle


def crl_bindings(world) -> Network:
    """A side network binding every authority's CRL distribution point.

    The measurement world advertises CRL URLs in its certificates but
    never binds them (the paper's scans are OCSP-only); the chaos
    client experiments need them reachable for the CRL-fallback
    policies.  Bindings live in a *separate* Network consulted by
    :class:`FaultyNetwork`, so the shared world stays untouched.
    """
    extra = Network()
    bound = set()
    for site in world.sites:
        crl_url = getattr(site.authority, "crl_url", None)
        if not crl_url:
            continue
        host = split_url(crl_url)[1]
        if host in bound:
            continue
        bound.add(host)
        origin = extra.add_origin(f"crl:{host}", site.region,
                                  _crl_service(site.authority))
        extra.bind(host, origin)
    return extra


def chaos_scan_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One contiguous target range of one scenario's hourly scan.

    :func:`repro.runtime.runners.scan_shard` over the world's network
    wrapped in the scenario's :class:`FaultyNetwork` — the
    ``baseline`` scenario is the empty plan and reproduces the plain
    scan byte-for-byte.
    """
    from ..runtime.runners import _world_for, scan_shard
    world = _world_for(payload["campaign"]["world"])
    plan = scenario(payload["scenario"], seed=payload["fault_seed"])
    return scan_shard(payload, FaultyNetwork(world.network, plan))


def chaos_client_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One (scenario, policy) cell of the client-outcome grid."""
    from ..ocsp import OCSPClient
    from ..runtime.runners import _world_for
    from ..simnet.vantage import VANTAGE_POINTS
    world = _world_for(payload["world"])
    plan = scenario(payload["scenario"], seed=payload["fault_seed"])
    policy = client_policy(payload["policy"])
    network = FaultyNetwork(world.network, plan, extra=crl_bindings(world))
    vantages = list(payload.get("vantages") or VANTAGE_POINTS)
    targets = world.scan_targets()

    rows: List[Dict[str, Any]] = []
    for vantage in vantages:
        client = OCSPClient(network, vantage=vantage, policy=policy)
        for ts in payload["times"]:
            counts = {"ok": 0, "soft_fail": 0, "broken": 0,
                      "crl_rescue": 0, "no_check": 0}
            attempts = 0
            timeouts = 0
            latency_ms = 0.0
            for target in targets:
                result = client.check(target.certificate,
                                      target.site.authority.certificate, ts)
                attempts += len(result.attempts)
                timeouts += result.timeouts
                latency_ms += result.total_elapsed_ms
                if result.skipped:
                    counts["no_check"] += 1
                elif result.via_crl:
                    counts["crl_rescue"] += 1
                elif result.ok:
                    counts["ok"] += 1
                elif policy.hard_fail:
                    counts["broken"] += 1
                else:
                    counts["soft_fail"] += 1
            rows.append({"vantage": vantage, "ts": ts,
                         "connections": len(targets), **counts,
                         "attempts": attempts, "timeouts": timeouts,
                         "latency_ms": round(latency_ms, 3)})
    return rows


# ---------------------------------------------------------------------------
# shard planners
# ---------------------------------------------------------------------------

def chaos_scan_shards(config) -> List:
    """Scenario-major target-range shards (a pure function of config)."""
    from ..runtime.executor import ShardSpec
    campaign = config.campaign.to_dict()
    n_targets = (config.campaign.world.n_responders
                 * config.campaign.world.certs_per_responder)
    return [
        ShardSpec(worker=f"{_WORKERS}:chaos_scan_shard",
                  payload={"campaign": campaign, "scenario": name,
                           "fault_seed": config.fault_seed,
                           "lo": lo, "hi": hi},
                  label=f"chaos[{name}][{lo}:{hi}]")
        for name in config.scenarios
        for lo, hi in split_ranges(n_targets, config.campaign.target_chunks)
    ]


def chaos_client_shards(config) -> List:
    """One shard per (scenario, policy) grid cell."""
    from ..runtime.executor import ShardSpec
    return [
        ShardSpec(worker=f"{_WORKERS}:chaos_client_shard",
                  payload={"world": config.world.to_dict(), "scenario": name,
                           "policy": policy, "times": list(config.times),
                           "vantages": (list(config.vantages)
                                        if config.vantages else None),
                           "fault_seed": config.fault_seed},
                  label=f"chaos[{name}][{policy}]")
        for name in config.scenarios
        for policy in config.policies
    ]


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def run_chaos_availability(ctx, config) -> Dict[str, Any]:
    """Figures 3/4 extended: availability under each fault scenario."""
    from ..core.availability import analyze_availability
    from ..runtime.sharding import merge_scan_rows
    from ..scanner.results import ProbeOutcome
    outputs = ctx.run_shards(chaos_scan_shards(config))
    chunks = len(outputs) // len(config.scenarios)

    rows: List[Dict[str, Any]] = []
    series: Dict[str, Any] = {}
    scenarios_summary: Dict[str, Any] = {}
    datasets = {}
    for index, name in enumerate(config.scenarios):
        shard_rows = outputs[index * chunks:(index + 1) * chunks]
        dataset = merge_scan_rows(config.campaign, shard_rows)
        datasets[name] = dataset
        report = analyze_availability(dataset)
        mean_ms = (sum(r.elapsed_ms for r in dataset.records)
                   / len(dataset.records)) if dataset.records else 0.0
        # Figure-5 layer: transport succeeded but the response didn't
        # verify (stale/tampered bodies fail *here*, not in Figure 3).
        usable = sum(1 for r in dataset.records
                     if r.outcome is ProbeOutcome.OK)
        unusable = (100.0 * (1.0 - usable / len(dataset.records))
                    if dataset.records else 0.0)
        for vantage, points in report.success_series.items():
            series[f"{name}/{vantage}"] = points
            rows += [{"scenario": name, "timestamp": ts, "vantage": vantage,
                      "success_pct": pct} for ts, pct in points]
        scenarios_summary[name] = {
            "overall_failure_rate": report.overall_failure_rate,
            "unusable_rate": round(unusable, 6),
            "mean_elapsed_ms": round(mean_ms, 3),
            "never_successful_anywhere":
                len(report.never_successful_anywhere),
        }

    baseline = scenarios_summary.get("baseline")
    if baseline is not None:
        for name, entry in scenarios_summary.items():
            entry["added_latency_ms"] = round(
                entry["mean_elapsed_ms"] - baseline["mean_elapsed_ms"], 3)
            entry["added_failure_rate"] = round(
                entry["overall_failure_rate"]
                - baseline["overall_failure_rate"], 6)
            entry["added_unusable_rate"] = round(
                entry["unusable_rate"] - baseline["unusable_rate"], 6)

    return {
        "rows": rows,
        "series": series,
        "summary": {"scenarios": scenarios_summary,
                    "probes_per_scenario": (len(datasets[config.scenarios[0]])
                                            if config.scenarios else 0)},
        "artifacts": {"datasets": datasets},
    }


def run_chaos_client_outcomes(ctx, config) -> Dict[str, Any]:
    """The scenario × client-policy resilience grid."""
    specs = chaos_client_shards(config)
    outputs = ctx.run_shards(specs)

    rows: List[Dict[str, Any]] = []
    grid: Dict[str, Any] = {}
    cells = [(name, policy) for name in config.scenarios
             for policy in config.policies]
    for (name, policy), shard_rows in zip(cells, outputs):
        connections = sum(row["connections"] for row in shard_rows)
        totals = {key: sum(row[key] for row in shard_rows)
                  for key in ("ok", "soft_fail", "broken", "crl_rescue",
                              "no_check", "attempts", "timeouts")}
        latency = sum(row["latency_ms"] for row in shard_rows)
        for row in shard_rows:
            rows.append({"scenario": name, "policy": policy, **row})
        proceeded = connections - totals["broken"]
        grid[f"{name}/{policy}"] = {
            "connections": connections,
            "ok_fraction": totals["ok"] / connections if connections else 0.0,
            "broken_fraction":
                totals["broken"] / connections if connections else 0.0,
            "crl_rescue_fraction":
                totals["crl_rescue"] / connections if connections else 0.0,
            "soft_fail_fraction":
                totals["soft_fail"] / connections if connections else 0.0,
            "no_check_fraction":
                totals["no_check"] / connections if connections else 0.0,
            #: Connections that loaded the page (however unsafely).
            "proceed_fraction":
                proceeded / connections if connections else 0.0,
            "mean_attempts":
                totals["attempts"] / connections if connections else 0.0,
            "timeouts": totals["timeouts"],
            "mean_latency_ms":
                round(latency / connections, 3) if connections else 0.0,
        }

    # The headline the tentpole asks for: the fraction of connections
    # a Must-Staple hard-fail would break, per scenario.
    hard_fail_broken = {
        name: grid[f"{name}/{policy}"]["broken_fraction"]
        for name in config.scenarios
        for policy in config.policies
        if client_policy(policy).hard_fail
    }
    return {
        "rows": rows,
        "series": {"hard_fail_broken": sorted(hard_fail_broken.items())},
        "summary": {"grid": grid, "hard_fail_broken": hard_fail_broken},
    }
