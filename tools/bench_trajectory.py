#!/usr/bin/env python3
"""Recorded perf trajectory for the headline campaigns.

Runs ``fig3`` (the availability scan), ``hostile-corpus`` (the
mutation survival matrix), ``serve-loadtest`` (the responder
daemon's byte-identity + warm-cache load test), and
``monitor-convergence`` (streaming reducer merges vs the batch
pipeline) through
:func:`repro.runtime.run_experiment` twice each — cold (fresh cache,
every shard executes) and warm (same cache, every shard restores) —
and emits one JSON artifact per campaign:

* ``BENCH_fig3_availability.json``
* ``BENCH_hostile_corpus.json``
* ``BENCH_serve_loadtest.json``
* ``BENCH_monitor_replay.json``
* ``BENCH_dist_socket.json`` (``fig3`` over the TCP socket transport:
  wall time plus wire telemetry — frames, reconnects, reclaims)
* ``BENCH_fig3_full.json`` (``fig3`` at paper scale, cold only and
  serial: 212,256 probes, where re-parsing the certificates embedded
  in responses dominates; there is no warm leg)

Each artifact records wall time (cold and warm), shard count, and the
warm-run cache hit rate; ``serve-loadtest`` additionally records its
summary throughput (req/s, p50/p99 latency) and identity verdict, and
``monitor-convergence`` its convergence verdict plus the event replay
rate, which this tool measures itself
(:func:`repro.monitor.replay.replay_rate` over the cold run's dataset).
With committed baselines under ``benchmarks/baselines/`` the tool
doubles as a regression gate: shard count and cache hit rate must not
regress at all (both are deterministic), byte-identity must hold,
and cold wall time / serving throughput must stay within
``REPRO_BENCH_TOLERANCE`` (default 0.25 — the >25%% CI gate) of the
baseline.

Usage::

    python tools/bench_trajectory.py [--out-dir DIR] [--workers N]
    python tools/bench_trajectory.py --campaign serve-loadtest
    python tools/bench_trajectory.py --write-baseline   # refresh baselines

Exit code 0 when clean (or no baseline committed yet), 1 on
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SCHEMA = "repro-bench/1"
BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"

#: experiment id -> artifact stem.
CAMPAIGNS = {
    "fig3": "BENCH_fig3_availability",
    "hostile-corpus": "BENCH_hostile_corpus",
    "serve-loadtest": "BENCH_serve_loadtest",
    "monitor-convergence": "BENCH_monitor_replay",
    "dist-socket": "BENCH_dist_socket",
    "fig3-full": "BENCH_fig3_full",
}

#: Short spellings accepted by ``--campaign``.
CAMPAIGN_ALIASES = {"monitor": "monitor-convergence"}

#: Summary fields copied into the artifact when the experiment's
#: summary carries them (the serve-loadtest throughput headline, the
#: monitor's event count and convergence verdict).
SUMMARY_FIELDS = ("req_per_s", "p50_ms", "p99_ms", "byte_identical",
                  "events", "converged", "merge_commutes")


def _tolerance() -> float:
    return float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25"))


def bench_campaign(experiment_id: str, workers: int) -> Dict[str, object]:
    """Cold+warm run of one campaign against a fresh cache."""
    from repro.runtime import run_experiment

    cache_dir = tempfile.mkdtemp(prefix=f"bench-{experiment_id}-")
    try:
        started = time.perf_counter()
        cold = run_experiment(experiment_id, workers=workers,
                              cache=True, cache_dir=cache_dir)
        cold_wall = time.perf_counter() - started

        started = time.perf_counter()
        warm = run_experiment(experiment_id, workers=workers,
                              cache=True, cache_dir=cache_dir)
        warm_wall = time.perf_counter() - started
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    shards = len(warm.manifest.shards)
    hit_rate = (warm.manifest.cached / shards) if shards else 0.0
    record = {
        "schema": SCHEMA,
        "experiment": experiment_id,
        "workers": workers,
        "shards": shards,
        "cold_wall_s": round(cold_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
        "cache_hit_rate": round(hit_rate, 4),
        "cold_cache": cold.cache_status,
        "warm_cache": warm.cache_status,
        "code_version": warm.manifest.code_version,
    }
    # Timing summaries come from the COLD run: the warm run restores
    # cached shard rows, whose timings are the cold run's anyway.
    for field in SUMMARY_FIELDS:
        if field in cold.summary:
            record[field] = cold.summary[field]
    if experiment_id == "monitor-convergence":
        # The replay rate is read here, never stored in rows: the
        # median of repeated replays of the cold run's event log.
        from repro.monitor.replay import dataset_to_events, replay_rate
        record["events_per_s"] = replay_rate(
            dataset_to_events(cold.artifacts["dataset"]))
    return record


def bench_dist_socket(workers: int) -> Dict[str, object]:
    """Cold+warm ``fig3`` over the TCP socket transport.

    The cold leg runs against an explicitly constructed
    :class:`~repro.runtime.sock.SocketTransport` that forks and owns its
    fleet, so the artifact can record the wire telemetry (frames each
    way, reconnects, reclaims) alongside wall time; the warm leg
    exercises the string-transport path (``transport="socket"``) end
    to end.
    """
    from repro.runtime import SocketTransport, run_experiment

    fleet = max(2, min(workers, 4))
    cache_dir = tempfile.mkdtemp(prefix="bench-dist-socket-")
    transport = SocketTransport("127.0.0.1", 0, workers=fleet)
    try:
        started = time.perf_counter()
        cold = run_experiment("fig3", workers=fleet, cache=True,
                              cache_dir=cache_dir, transport=transport,
                              shard_timeout=120.0)
        cold_wall = time.perf_counter() - started
        stats = transport.stats()
    finally:
        transport.close()

    try:
        started = time.perf_counter()
        warm = run_experiment("fig3", workers=fleet, cache=True,
                              cache_dir=cache_dir, transport="socket",
                              listen="127.0.0.1:0",
                              shard_timeout=120.0)
        warm_wall = time.perf_counter() - started
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    shards = len(warm.manifest.shards)
    hit_rate = (warm.manifest.cached / shards) if shards else 0.0
    return {
        "schema": SCHEMA,
        "experiment": "fig3",
        "transport": "socket",
        "workers": fleet,
        "shards": shards,
        "cold_wall_s": round(cold_wall, 3),
        "warm_wall_s": round(warm_wall, 3),
        "cache_hit_rate": round(hit_rate, 4),
        "cold_cache": cold.cache_status,
        "warm_cache": warm.cache_status,
        "code_version": warm.manifest.code_version,
        # Wire telemetry from the cold leg.  frames_sent varies with
        # heartbeat timing, so the gate only bounds the failure
        # counters (see compare()).
        "frames_sent": stats["frames_sent"],
        "frames_received": stats["frames_received"],
        "connects": stats["connects"],
        "reconnects": stats["reconnects"],
        "jobs_reclaimed": stats["jobs_reclaimed"],
        "protocol_errors": stats["protocol_errors"],
    }


def bench_fig3_full() -> Dict[str, object]:
    """Cold, serial ``fig3`` at :meth:`FigureScale.full` scale.

    One in-process worker, so the wall time is the campaign's compute
    path alone; a warm leg would only restore cached shards and is
    already covered by the default-scale ``fig3`` campaign.
    """
    from repro.core.figures import FigureScale
    from repro.runtime import default_config, run_experiment

    config = default_config("fig3", FigureScale.full())
    cache_dir = tempfile.mkdtemp(prefix="bench-fig3-full-")
    try:
        started = time.perf_counter()
        cold = run_experiment("fig3", config=config, workers=1,
                              cache=True, cache_dir=cache_dir)
        cold_wall = time.perf_counter() - started
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "schema": SCHEMA,
        "experiment": "fig3",
        "scale": "full",
        "workers": 1,
        "shards": len(cold.manifest.shards),
        "cold_wall_s": round(cold_wall, 3),
        "cold_cache": cold.cache_status,
        "code_version": cold.manifest.code_version,
    }


def compare(current: Dict[str, object], baseline: Dict[str, object],
            tolerance: float) -> List[str]:
    """Regressions of *current* vs *baseline* (empty when clean)."""
    problems: List[str] = []
    if current["shards"] != baseline["shards"]:
        problems.append(
            f"shard count changed: {baseline['shards']} -> "
            f"{current['shards']} (update the baseline if intentional)")
    if "cache_hit_rate" in baseline and \
            current["cache_hit_rate"] < baseline["cache_hit_rate"]:
        problems.append(
            f"cache hit rate regressed: {baseline['cache_hit_rate']} -> "
            f"{current['cache_hit_rate']}")
    limit = float(baseline["cold_wall_s"]) * (1.0 + tolerance)
    if float(current["cold_wall_s"]) > limit:
        problems.append(
            f"cold wall time regressed >{tolerance * 100:.0f}%: "
            f"{baseline['cold_wall_s']}s -> {current['cold_wall_s']}s "
            f"(limit {limit:.3f}s)")
    if current.get("byte_identical") is False:
        problems.append("daemon path is no longer byte-identical to the "
                        "in-process responder core")
    if current.get("converged") is False or \
            current.get("merge_commutes") is False:
        problems.append("streaming reducer merges no longer converge "
                        "byte-identically to the batch pipeline")
    if "req_per_s" in current and "req_per_s" in baseline:
        floor = float(baseline["req_per_s"]) * (1.0 - tolerance)
        if float(current["req_per_s"]) < floor:
            problems.append(
                f"serving throughput regressed >{tolerance * 100:.0f}%: "
                f"{baseline['req_per_s']} -> {current['req_per_s']} req/s "
                f"(floor {floor:.0f})")
    if "events_per_s" in current and "events_per_s" in baseline:
        floor = float(baseline["events_per_s"]) * (1.0 - tolerance)
        if float(current["events_per_s"]) < floor:
            problems.append(
                f"event replay rate regressed >{tolerance * 100:.0f}%: "
                f"{baseline['events_per_s']} -> "
                f"{current['events_per_s']} events/s (floor {floor:.0f})")
    # Socket-transport health: an undisturbed localhost campaign has
    # no business reclaiming leases or hitting protocol errors.  These
    # gate at the baseline's level, not zero, so a deliberately noisy
    # future baseline stays expressible; frames_sent is telemetry only
    # (heartbeat counts vary with scheduling).
    for counter in ("jobs_reclaimed", "protocol_errors"):
        if counter in current and counter in baseline:
            if int(current[counter]) > int(baseline[counter]):
                problems.append(
                    f"{counter} regressed: {baseline[counter]} -> "
                    f"{current[counter]} on an undisturbed campaign")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".",
                        help="where the BENCH_*.json artifacts land")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--write-baseline", action="store_true",
                        help="refresh benchmarks/baselines/ instead of "
                             "comparing against it")
    parser.add_argument("--campaign", action="append", default=None,
                        choices=sorted(CAMPAIGNS) + sorted(CAMPAIGN_ALIASES),
                        help="run only this campaign (repeatable; "
                             "default: all)")
    args = parser.parse_args(argv)
    if args.campaign is not None:
        args.campaign = [CAMPAIGN_ALIASES.get(name, name)
                         for name in args.campaign]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tolerance = _tolerance()
    failures: List[str] = []

    selected = {name: stem for name, stem in CAMPAIGNS.items()
                if args.campaign is None or name in args.campaign}
    for experiment_id, stem in selected.items():
        if experiment_id == "dist-socket":
            record = bench_dist_socket(args.workers)
        elif experiment_id == "fig3-full":
            record = bench_fig3_full()
        else:
            record = bench_campaign(experiment_id, args.workers)
        artifact = out_dir / f"{stem}.json"
        artifact.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n")
        warm = (f", warm {record['warm_wall_s']}s, "
                f"hit rate {record['cache_hit_rate']}"
                if "warm_wall_s" in record else "")
        print(f"{experiment_id}: {record['shards']} shards, "
              f"cold {record['cold_wall_s']}s{warm} -> {artifact}")

        baseline_path = BASELINE_DIR / f"{stem}.json"
        if args.write_baseline:
            BASELINE_DIR.mkdir(parents=True, exist_ok=True)
            baseline_path.write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n")
            print(f"  baseline written: {baseline_path}")
        elif baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
            for problem in compare(record, baseline, tolerance):
                failures.append(f"{experiment_id}: {problem}")
        else:
            print(f"  no baseline at {baseline_path}; comparison skipped")

    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1
    print("bench trajectory clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
