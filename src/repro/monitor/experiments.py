"""The ``monitor-convergence`` experiment: shard-level reducer merges.

One scan campaign feeds both sides.  The runner executes the
campaign's own scan shards (the ones ``fig3`` runs, so a shared cache
serves them) and reads their rows twice:

* the **stream side** orders the rows by their global ``(ts, ti, vi)``
  coordinates, slices them by target index into ``partitions``
  contiguous ranges, turns each slice into probe events and reduces it
  to its *reducer states*;
* the **batch side** merges the same rows into the scan dataset
  exactly as the figure campaigns do, and analyzes it with
  :func:`~repro.core.availability.analyze_availability`.

The runner merges the partition states **in both fold directions**,
finalizes, and compares digests against the batch report.
``summary["converged"]`` is the acceptance bit CI gates on.  Rows hold
the partition states only; the replay rate is a measurement, taken by
:func:`repro.monitor.replay.replay_rate` in the bench tooling, never a
row.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, Dict, List

from ..canon import split_ranges


def _state_rows(config, outputs) -> List[Dict[str, Any]]:
    """One ``state`` row per (partition, reducer) over the scan rows."""
    from .reducers import default_reducers
    from .replay import rows_to_events
    n_targets = (config.campaign.world.n_responders
                 * config.campaign.world.certs_per_responder)
    ranges = split_ranges(n_targets, config.partitions)
    starts = [lo for lo, _ in ranges]
    slices: List[List[Dict[str, Any]]] = [[] for _ in ranges]
    ordered = sorted((row for shard_rows in outputs for row in shard_rows),
                     key=itemgetter("ts", "ti", "vi"))
    for row in ordered:
        slices[bisect_right(starts, row["ti"]) - 1].append(row)
    reducers = sorted(default_reducers().items())
    rows: List[Dict[str, Any]] = []
    for (lo, hi), scan_rows in zip(ranges, slices):
        events = list(rows_to_events(scan_rows))
        for name, reducer in reducers:
            rows.append({"kind": "state", "reducer": name,
                         "lo": lo, "hi": hi, "events": len(events),
                         "state": reducer.reduce(events)})
    return rows


def run_monitor_convergence(ctx, config) -> Dict[str, Any]:
    """Reduce the campaign's scan rows in partitions; prove stream ==
    batch, both folds."""
    from ..canon import stable_digest
    from ..core.availability import analyze_availability
    from ..runtime.sharding import merge_scan_rows, scan_shards
    from .reducers import default_reducers
    from .replay import merge_states

    outputs = ctx.run_shards(scan_shards(config.campaign))
    rows = _state_rows(config, outputs)
    states_by_reducer: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        states_by_reducer.setdefault(row["reducer"], []).append(row)

    reducers = default_reducers()
    finals: Dict[str, Any] = {}
    fold_digests: Dict[str, Dict[str, str]] = {}
    for name, state_rows in sorted(states_by_reducer.items()):
        reducer = reducers[name]
        states = [row["state"] for row in state_rows]
        forward = merge_states(reducer, states)
        backward = merge_states(reducer, list(reversed(states)))
        finals[name] = reducer.finalize(forward)
        fold_digests[name] = {
            "forward": stable_digest(reducer.finalize(forward)),
            "backward": stable_digest(reducer.finalize(backward)),
        }

    # The batch side: the deterministic dataset merge the figures use,
    # analyzed by the one-partition replay that core.availability is.
    dataset = merge_scan_rows(config.campaign, outputs)
    batch_report = analyze_availability(dataset)
    batch_digest = stable_digest(batch_report)
    stream_digest = fold_digests["availability"]["forward"]
    merge_commutes = all(d["forward"] == d["backward"]
                         for d in fold_digests.values())
    converged = stream_digest == batch_digest and merge_commutes

    availability = finals["availability"]
    response_stats = finals["response-stats"]
    partitions = states_by_reducer["availability"]
    series = {
        "success_series": dict(availability.success_series),
        "events_by_partition": [
            (f"[{row['lo']}:{row['hi']})", row["events"])
            for row in partitions],
    }
    return {
        "rows": rows,
        "series": series,
        "summary": {
            "events": sum(row["events"] for row in partitions),
            "partitions": config.partitions,
            "converged": converged,
            "merge_commutes": merge_commutes,
            "batch_digest": batch_digest,
            "stream_digest": stream_digest,
            "responders": availability.responder_count,
            "overall_failure_rate": availability.overall_failure_rate,
            "outage_fraction": availability.outage_fraction,
            "status_counts": response_stats["status_counts"],
            "latency_mean_ms": response_stats["latency_mean_ms"],
            "size_mean_bytes": response_stats["size_mean_bytes"],
        },
        "artifacts": {"dataset": dataset, "batch_report": batch_report,
                      "finals": finals},
    }
