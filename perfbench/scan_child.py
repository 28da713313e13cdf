"""One ``scan-cold`` sample, in a fresh interpreter.

Usage: ``python perfbench/scan_child.py --offset K --cache-dir DIR
[--spans SPANS.json]``

Prints ``READY`` once the program is imported (the parent times
interpreter start plus import as ``setup_s``), then runs the cold
Figure 3 campaign into an empty cache, reruns the whole scan family
warm from that cache, and prints one JSON line with timings, content
digests, shard counts and its own peak RSS.

A fresh process per sample matters: the runtime memoizes the built
world per process, so a second campaign in one interpreter would skip
key generation that every real cold run pays.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program, result_digest, self_peak_rss_mb  # noqa: E402

#: The warm phase, in order.  Every one reads the Figure 3 campaign's
#: shards from the cache the cold phase filled.
SCAN_FAMILY = ("fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
               "ext-response-size")

#: The campaign window moves by whole hours inside the 12 h scan
#: interval: the same world and probe count, different probe instants.
OFFSETS = 12
HOUR = 3600


def scan_config(offset: int):
    """The default-scale Figure 3 campaign shifted by *offset* hours."""
    from repro.runtime import default_config
    config = default_config("fig3")
    return dataclasses.replace(config, start=config.start + offset * HOUR,
                               end=config.end + offset * HOUR)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--offset", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    require_program()
    from repro.runtime import run_experiment
    print("READY", flush=True)

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    config = scan_config(args.offset)

    phase_start = time.perf_counter_ns()
    started = time.perf_counter()
    cold = run_experiment("fig3", config=config, workers=1,
                          cache_dir=args.cache_dir)
    run_s = time.perf_counter() - started
    cold_end = time.perf_counter_ns()
    digests = {"cold:fig3": result_digest(cold)}
    shards = {"cold": len(cold.provenance.shards),
              "cold_cached": sum(r.cached for r in cold.provenance.shards),
              "warm": 0, "warm_executed": 0}

    started = time.perf_counter()
    for experiment_id in SCAN_FAMILY:
        warm = run_experiment(experiment_id, config=config, workers=1,
                              cache_dir=args.cache_dir)
        digests[experiment_id] = result_digest(warm)
        shards["warm"] += len(warm.provenance.shards)
        shards["warm_executed"] += sum(not r.cached
                                       for r in warm.provenance.shards)
    rerun_s = time.perf_counter() - started
    phase_end = time.perf_counter_ns()

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    print(json.dumps({
        "run_s": run_s, "rerun_s": rerun_s, "digests": digests,
        "shards": shards, "peak_rss_mb": self_peak_rss_mb(),
        "cold_window": [phase_start, cold_end],
        "warm_window": [cold_end, phase_end]}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
