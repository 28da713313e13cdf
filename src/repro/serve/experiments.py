"""The ``serve-loadtest`` experiment: identity plus throughput.

Two shard kinds over the same seeded traffic stream:

* **identity shards** (pure) — contiguous request ranges replayed
  through the daemon's :class:`~repro.serve.app.ServeApp` and, for the
  same bytes and simulated clock, through the in-process
  :func:`~repro.simnet.ocsp_http_exchange`; each row records the
  per-range match count and both body digests, so "the daemon path is
  byte-identical to the simulated responder" merges byte-identically
  at any worker count;
* **one throughput shard** (WALL_CLOCK-pragma'd, like the keysize
  ablation) — warms the responders' response caches with one replay,
  then times a second, emitting req/s, p50/p99 latency, and the cache
  hit rate.
  Timing columns are measurements: cached rows keep the numbers of the
  run that produced them.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..canon import split_ranges

_WORKERS = "repro.serve.experiments"

#: Histogram bucket upper bounds, in milliseconds (the last bucket is
#: open-ended).
LATENCY_BUCKETS_MS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0)


def _world_and_traffic(payload: Dict[str, Any]):
    from ..datasets.world import MeasurementWorld, WorldConfig
    from .loadgen import synthesize_traffic
    world = MeasurementWorld(WorldConfig.from_dict(payload["world"]))
    traffic = synthesize_traffic(world, payload["requests"],
                                 seed=payload["seed"],
                                 get_fraction=payload["get_fraction"],
                                 nonce_fraction=payload["nonce_fraction"])
    return world, traffic


# ---------------------------------------------------------------------------
# shard workers
# ---------------------------------------------------------------------------

def serve_identity_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Replay one request range both ways; count byte mismatches."""
    from ..simnet.clock import HOUR
    from .app import ServeApp
    from .loadgen import direct_responses, expected_digest
    world, traffic = _world_and_traffic(payload)
    now = world.config.start + HOUR
    window = traffic[payload["lo"]:payload["hi"]]
    app = ServeApp.for_world(world, now=now)
    served = [app.exchange(request).body for request in window]
    stats = app.stats()
    direct = direct_responses(world, window, now)
    mismatches = sum(1 for s, d in zip(served, direct) if s != d)
    return [{
        "kind": "identity",
        "lo": payload["lo"], "hi": payload["hi"],
        "requests": len(window),
        "mismatches": mismatches,
        "served_digest": expected_digest(served),
        "direct_digest": expected_digest(direct),
        "cache_hits": stats["cache"]["hits"],
        "cache_misses": stats["cache"]["misses"],
        "signed": stats["signed"],
    }]


def serve_throughput_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Warm-cache replay of the whole stream, timed per request.

    The wall-clock timing lives in :func:`repro.serve.loadgen
    .replay_inprocess`, which carries the ``allow-effect[WALL_CLOCK]``
    grant; timing columns are measurements, not deterministic content.
    """
    from ..simnet.clock import HOUR
    from .app import ServeApp
    from .loadgen import replay_inprocess
    world, traffic = _world_and_traffic(payload)
    now = world.config.start + HOUR
    app = ServeApp.for_world(world, now=now)
    replay_inprocess(app, traffic, record_latency=False)  # warm
    report = replay_inprocess(app, traffic)
    cache = app.stats()["cache"]
    lookups = cache["hits"] + cache["misses"]
    histogram = [0] * (len(LATENCY_BUCKETS_MS) + 1)
    for latency in report.latencies_ms:
        for bucket, bound in enumerate(LATENCY_BUCKETS_MS):
            if latency <= bound:
                histogram[bucket] += 1
                break
        else:
            histogram[-1] += 1
    return [{
        "kind": "throughput",
        "requests": report.requests,
        "duration_s": round(report.duration_s, 6),
        "req_per_s": round(report.req_per_s, 1),
        "p50_ms": round(report.percentile_ms(50), 4),
        "p99_ms": round(report.percentile_ms(99), 4),
        "latency_histogram": histogram,
        "status_counts": {str(code): count for code, count
                          in sorted(report.status_counts.items())},
        "body_digest": report.body_digest,
        "cache_hit_rate": (round(cache["hits"] / lookups, 6)
                           if lookups else 0.0),
    }]


# ---------------------------------------------------------------------------
# shard planner
# ---------------------------------------------------------------------------

def serve_loadtest_shards(config) -> List:
    """Identity ranges plus one trailing throughput shard."""
    from ..runtime.executor import ShardSpec
    base = {"world": config.world.to_dict(), "seed": config.seed,
            "requests": config.requests,
            "get_fraction": config.get_fraction,
            "nonce_fraction": config.nonce_fraction}
    shards = [
        ShardSpec(worker=f"{_WORKERS}:serve_identity_shard",
                  payload={**base, "lo": lo, "hi": hi},
                  label=f"serve-identity[{lo}:{hi}]")
        for lo, hi in split_ranges(config.requests, config.chunks)
    ]
    shards.append(
        ShardSpec(worker=f"{_WORKERS}:serve_throughput_shard",
                  payload=base, label="serve-throughput"))
    return shards


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def run_serve_loadtest(ctx, config) -> Dict[str, Any]:
    """Fan the replay out, then fold identity + throughput."""
    outputs = ctx.run_shards(serve_loadtest_shards(config))
    rows = [row for shard_rows in outputs for row in shard_rows]
    identity = [row for row in rows if row["kind"] == "identity"]
    throughput = next(row for row in rows if row["kind"] == "throughput")

    requests = sum(row["requests"] for row in identity)
    mismatches = sum(row["mismatches"] for row in identity)
    digest_breaks = sum(1 for row in identity
                        if row["served_digest"] != row["direct_digest"])
    series = {
        "mismatches_by_range": [
            (f"[{row['lo']}:{row['hi']})", row["mismatches"])
            for row in identity],
        "latency_histogram": [
            (f"<={bound}ms", count) for bound, count in zip(
                LATENCY_BUCKETS_MS, throughput["latency_histogram"])
        ] + [(f">{LATENCY_BUCKETS_MS[-1]}ms",
              throughput["latency_histogram"][-1])],
    }
    return {
        "rows": rows,
        "series": series,
        "summary": {
            "requests": requests,
            "identity_mismatches": mismatches,
            "identity_digest_breaks": digest_breaks,
            "byte_identical": mismatches == 0 and digest_breaks == 0,
            "req_per_s": throughput["req_per_s"],
            "p50_ms": throughput["p50_ms"],
            "p99_ms": throughput["p99_ms"],
            "cache_hit_rate": throughput["cache_hit_rate"],
            "status_counts": throughput["status_counts"],
        },
        "artifacts": {},
    }
