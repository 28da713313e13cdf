"""Daemon extension — responder serving byte-identity and throughput.

The ``serve-loadtest`` experiment replays a seeded corpus-derived
request stream two ways: through the daemon's serving application
(Host routing over the responder core) and through the in-process
transport-neutral responder core.  The two must be byte-identical for
every request — the whole point of the transport-neutral API — and the
warm-cache path must sustain daemon-grade throughput.
"""

from conftest import banner

from repro.runtime import default_config, run_experiment


def test_serve_loadtest(benchmark):
    config = default_config("serve-loadtest")

    result = benchmark.pedantic(
        run_experiment, args=("serve-loadtest",),
        kwargs={"config": config}, rounds=1, iterations=1)

    summary = result.summary
    banner("Serve load test: identity + warm-cache throughput")
    print(f"  requests: {summary['requests']}  "
          f"mismatches: {summary['identity_mismatches']}")
    print(f"  warm-cache: {summary['req_per_s']:.0f} req/s  "
          f"p50 {summary['p50_ms']:.3f} ms  p99 {summary['p99_ms']:.3f} ms")
    print(f"  cache hit rate: {summary['cache_hit_rate']:.3f}")

    # The whole point: the daemon path answers byte-identically to the
    # in-process responder core for every request in the stream.
    assert summary["byte_identical"]
    assert summary["identity_mismatches"] == 0
    assert summary["requests"] == config.requests
    # Every request got an HTTP answer (OCSP errors are 200s with an
    # error envelope; nothing 4xx/5xx in clean traffic).
    assert set(summary["status_counts"]) == {"200"}
    # The core's response cache actually carries the warm replay, and the
    # headline throughput target holds with a cold-start safety margin.
    assert summary["cache_hit_rate"] > 0.9
    assert summary["req_per_s"] >= 10_000
    assert summary["p99_ms"] < 10.0
