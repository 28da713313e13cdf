"""The repository benchmark: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scan-cold --seed 0 --seconds 30 --trace 0

Workloads (why each was chosen is in ``BENCHMARK.json`` and
``spec.json``):

* ``scan-cold``     — cold Figure 3 campaign in a fresh interpreter,
  then the scan family rerun warm from its cache;
* ``serve-open``    — ``repro serve`` over loopback TCP: a cold and a
  warm pipelined burst, then an open-loop rate ladder;
* ``hostile-fleet`` — the hostile corpus in hundreds of small shards
  over a ``SocketTransport`` with one spawned socket worker.

``--trace 0`` measures with tracing off and prints the end-to-end
table; ``--trace 1`` alternates untraced and traced samples and prints
the per-layer table plus the tracing overhead.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).

With two or more CPUs the benchmark runs itself (load generator,
coordinator) on one and every process under test on another, and it
reports times in seconds at a reference machine speed measured while
the workload runs (``speed.py``); raw wall-clock medians are printed
beside them.  ``record_refs.py`` re-records the scan-cold output
references when a change is meant to alter experiment output.

``--daemon-seed N`` (``serve-open`` only) starts the daemon over a
world built from another seed than the ground truth; it exists to show
that the output check fires (digest mismatch, non-zero ``fail_frac``).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (ROOT, BenchError, cpu_roles, emit_result,  # noqa: E402
                    load_spec, median, metric, place, print_table,
                    require_program, write_spans)
from speed import SpeedProbe  # noqa: E402

WORKLOADS = ("scan-cold", "serve-open", "hostile-fleet")

#: Where a traced run leaves its spans (one JSON file per workload+seed).
SPANS_DIR = ROOT / ".perfbench_spans"

#: The end-to-end metrics every workload reports in its result line.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("rerun_s", "s"),
              ("peak_rss_mb", "MiB"))


def normalize(samples: List[Dict[str, Any]], probe: SpeedProbe) -> None:
    """Set each sample's timings to the median of their reference-speed
    values (see ``speed.py``) and keep the wall-clock median in ``raw``.

    ``sample["timings"][name]`` lists ``(seconds, (start, end))`` for
    every repeat of that phase in the sample.
    """
    for sample in samples:
        sample["raw"] = {}
        for name, _ in END_TO_END[:3]:
            timings = sample["timings"][name]
            sample["raw"][name] = median([s for s, _ in timings])
            sample[name] = median([probe.normalize(s, window)
                                   for s, window in timings])


def failures(checks: Dict[str, bool], attempted: int,
             failed_operations: int) -> int:
    """Failed operations; a failed output check fails the whole run."""
    return failed_operations if all(checks.values()) else attempted


def end_to_end_table(workload: str, samples: List[Dict[str, Any]],
                     peak_rss_mb: float, attempted: int, failed: int,
                     checks: Dict[str, bool], notes: Dict[str, str],
                     extra_rows: Sequence[Sequence[Any]] = ()
                     ) -> Dict[str, Dict[str, Any]]:
    rows = [("metric", "unit", "n", "median", "min", "max", "raw median",
             "what")]
    metrics = {}
    for name, unit in END_TO_END[:3]:
        values = [sample[name] for sample in samples]
        raw = median([sample["raw"][name] for sample in samples])
        metrics[name] = metric(median(values), unit)
        rows.append((name, unit, len(values), f"{median(values):.4f}",
                     f"{min(values):.4f}", f"{max(values):.4f}",
                     f"{raw:.4f}", notes[name]))
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MiB")
    rows.append(("peak_rss_mb", "MiB", len(samples), f"{peak_rss_mb:.1f}",
                 "", "", "", notes["peak_rss_mb"]))
    rows.extend(extra_rows)
    rows.append(("fail_frac", "ratio", attempted,
                 f"{failed / attempted:.6f}", "", "", "",
                 f"{failed} failed / {attempted} attempted"))
    print_table(f"{workload} end-to-end (tracing off; times in seconds at "
                f"reference machine speed, raw wall clock beside)", rows)
    print_table("output checks", [(("PASS" if ok else "FAIL"), name)
                                  for name, ok in checks.items()])
    return metrics


def run_scan_cold(spec, args, probe) -> int:
    import scan_cold
    result = scan_cold.run(spec, args.seed, args.seconds, args.trace)
    normalize(result["samples"] + result["traced"], probe)
    samples, checks = result["samples"], result["checks"]
    every = samples + result["traced"]
    attempted = sum(s["shards"]["cold"] + s["shards"]["warm"] for s in every)
    failed = failures(checks, attempted, 0)
    print(f"scan-cold: campaign offset {result['offset']} h, "
          f"{len(samples)} untraced / {len(result['traced'])} traced samples")
    notes = {"setup_s": "interpreter start + import",
             "run_s": "cold fig3: 8 shards, world build + scan + verify",
             "rerun_s": "warm fig3, fig5-9, ext-response-size from cache",
             "peak_rss_mb": "campaign process (median of samples)"}
    metrics = end_to_end_table(
        "scan-cold", samples,
        median([s["peak_rss_mb"] for s in samples]),
        attempted, failed, checks, notes)
    return finish(args, attempted, failed, metrics, samples,
                  result["traced"], "scan-cold")


def run_serve_open(spec, args, probe) -> int:
    import serve_open
    result = serve_open.run(spec, args.seed, args.seconds, args.trace,
                            args.daemon_seed)
    normalize(result["samples"] + result["traced"], probe)
    samples = result["samples"]
    every = samples + result["traced"]
    attempted = sum(s["attempted"] for s in every)
    failed_requests = sum(s["failed"] for s in every)
    checks = {
        "stream digests == expected_digest(direct_responses(...))":
            all(s["digest_ok"] for s in every),
        "no protocol errors or dropped connections": all(
            s["stats"].get("daemon", {}).get("protocol_errors", 1) == 0
            and s["stats"].get("daemon", {}).get("dropped_connections", 1)
            == 0 for s in every),
    }
    failed = failures(checks, attempted, failed_requests)
    serve_spec = spec["serve_open"]
    print(f"serve-open: {result['distinct_cert_ids']} distinct CertIDs, "
          f"burst of {serve_spec['burst']} requests, "
          f"{len(samples)} untraced / {len(result['traced'])} traced daemons")
    print(f"first burst stream digest {samples[0]['first_digest']} "
          f"(expected {result['burst_digest']})")
    serve_open.print_ladder(result["ladder"], serve_spec)
    notes = {"setup_s": "daemon spawn until /-/healthz is 200",
             "run_s": "pipelined burst into the empty pre-signed cache",
             "rerun_s": "the same burst again, warm cache",
             "peak_rss_mb": "daemon (median of samples)"}
    metrics = end_to_end_table(
        "serve-open", samples, median([s["peak_rss_mb"] for s in samples]),
        attempted, failed, checks, notes,
        serve_open.ladder_rows(result["ladder"], serve_spec))
    return finish(args, attempted, failed, metrics, samples,
                  result["traced"], "serve-open")


def run_hostile_fleet(spec, args, probe) -> int:
    import hostile_fleet
    result = hostile_fleet.run(spec, args.seed, args.seconds, args.trace)
    normalize(result["samples"] + result["traced"], probe)
    samples, checks = result["samples"], result["checks"]
    every = samples + result["traced"]
    attempted = sum(s["shards"] for s in every)
    failed = failures(checks, attempted, sum(
        s["failed_shards"] + s["wire"]["protocol_errors"]
        + s["wire"]["jobs_reclaimed"] for s in every))
    print(f"hostile-fleet: {result['mutants']} mutants in "
          f"{samples[0]['cold_shards']} shards, one socket worker, "
          f"{len(samples)} untraced / {len(result['traced'])} traced samples")
    notes = {"setup_s": "listen + worker spawn until connected",
             "run_s": "cold campaign over the socket transport",
             "rerun_s": "disjoint corpus, warm worker, artifact cache off",
             "peak_rss_mb": "coordinator + worker (median worker peak)"}
    rss = result["coordinator_rss_mb"] + median(
        [s["worker_rss_mb"] for s in samples])
    metrics = end_to_end_table("hostile-fleet", samples, rss, attempted,
                               failed, checks, notes)
    return finish(args, attempted, failed, metrics, samples,
                  result["traced"], "hostile-fleet")


def finish(args, attempted: int, failed: int,
           metrics: Dict[str, Any], samples, traced, workload: str) -> int:
    if args.trace:
        import layers
        layer_values = layers.workload_metrics(samples, traced)
        layers.print_layers(workload, layer_values, traced)
        spans_path = SPANS_DIR / f"{workload}-seed{args.seed}.json"
        write_spans(spans_path, {
            "workload": workload, "seed": args.seed,
            "samples": [sample["documents"] for sample in traced]})
        print(f"spans of every traced process: {spans_path}")
        units = layers.metric_units()
        metrics = {name: metric(layer_values[name], unit)
                   for name, unit in units.items()}
    emit_result(failed == 0, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--daemon-seed", type=int, default=None,
                        help="serve-open only: start the daemon over a "
                             "different world (the output check must fail)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        require_program()
        spec = load_spec()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    runner = {"scan-cold": run_scan_cold, "serve-open": run_serve_open,
              "hostile-fleet": run_hostile_fleet}[args.workload]
    load_cpus, system_cpus = cpu_roles()
    place(0, load_cpus)
    probe = SpeedProbe(system_cpus)
    try:
        return runner(spec, args, probe)
    except Exception:  # the benchmark's boundary: report, exit non-zero
        traceback.print_exc()
        return 1
    finally:
        probe.close()


if __name__ == "__main__":
    raise SystemExit(main())
