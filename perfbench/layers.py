"""Per-layer metrics from traced samples, under the names
``BENCHMARK.json`` lists.

Every workload reports every name; a layer a workload never enters
reads 0, which is itself the prediction for that workload.  Ratios are
printed with their bases in the table; in the result line a ratio with
a zero base reads 0.  ``runtime.sock.poll.wait_ms`` is the time spent
in polls that returned no outcome (the coordinator idle, waiting on
the fleet); ``runtime.sock.overhead_ms_per_shard`` is the mean JOB-sent
to outcome-returned round trip minus the mean worker execute time.
``trace.unattributed_ms`` is the part of the traced ``run_s`` that no
root span covers in the process running the campaign (the scan child,
the coordinator, or the daemon).  All values are medians over the traced samples of one run and cover
the whole measured phase (``run_s`` and ``rerun_s``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from common import median, percentile, print_table

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_ms``.
SPAN_LAYERS = (
    "datasets.world.build",
    "crypto.prime.generate_prime",
    "crypto.rsa.raw_sign",
    "crypto.rsa.raw_verify",
    "x509.certificate.from_der",
    "ocsp.request.from_der",
    "ocsp.response.from_der",
    "ocsp.verify.verify_response",
    "ca.responder.handle",
    "simnet.network.fetch",
    "scanner.hourly.probe",
    "serve.app.dispatch",
    "runtime.cache.load",
    "runtime.cache.store",
    "runtime.sock.dispatch",
    "runtime.sock.poll",
    "runtime.worker.execute",
    "hostile.corpus.classify_mutant",
    "lint.engine.lint_der",
    "runtime.sharding.merge_scan_rows",
    "core.availability.analyze_availability",
    "core.quality",
)

#: Layers whose rejections matter (hostile input): ``<layer>.fail``.
FAIL_LAYERS = (
    "x509.certificate.from_der",
    "ocsp.request.from_der",
    "ocsp.response.from_der",
    "ocsp.verify.verify_response",
)

#: name -> unit for the metrics that are not calls/self_ms/fail.
EXTRA_UNITS = {
    "datasets.world.build_ms": "ms",
    "asn1.oid.decode.calls": "count",
    "x509.certificate.from_der.distinct": "count",
    "x509.certificate.repeat_ratio": "ratio",
    "ocsp.response.from_der.distinct": "count",
    "ocsp.response.repeat_ratio": "ratio",
    "ca.responder.sign_ratio": "ratio",
    "serve.cache.hits": "count",
    "serve.cache.misses": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.batcher.signed": "count",
    "serve.batcher.coalesced": "count",
    "serve.batcher.largest_batch": "count",
    "serve.daemon.protocol_errors": "count",
    "serve.daemon.dropped_connections": "count",
    "serve.loadgen.lag_ms": "ms",
    "serve.loadgen.backlog": "count",
    "runtime.cache.store.bytes": "B",
    "runtime.cache.load.bytes": "B",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.sock.poll.wait_ms": "ms",
    "runtime.sock.frames_sent": "count",
    "runtime.sock.frames_received": "count",
    "runtime.sock.reconnects": "count",
    "runtime.sock.jobs_reclaimed": "count",
    "runtime.sock.protocol_errors": "count",
    "runtime.sock.roundtrip_ms": "ms",
    "runtime.worker.execute_ms": "ms",
    "runtime.sock.overhead_ms_per_shard": "ms",
    "trace.spans": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_s": "s",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    for layer in FAIL_LAYERS:
        units[f"{layer}.fail"] = "count"
    units.update(EXTRA_UNITS)
    return units


def _ratio(top: float, base: float) -> float:
    return top / base if base else 0.0


def sample_metrics(sample: Dict[str, Any]) -> Dict[str, float]:
    """One traced sample's per-layer metrics.

    The sample carries ``layers`` (from :func:`tracer.layer_stats`),
    ``documents`` (the raw trace of every process), and optionally
    ``wire`` (socket transport counters), ``stats`` (the daemon's
    ``/-/stats``) and ``steps`` (the serve rate ladder).
    """
    layers = sample["layers"]

    def stat(layer: str, key: str) -> float:
        return layers[layer][key] if layer in layers else 0

    documents = sample["documents"]

    def total(section: str, key: str) -> float:
        return sum(doc[section].get(key, 0) for doc in documents)

    out: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = stat(layer, "calls")
        out[f"{layer}.self_ms"] = stat(layer, "self_ms")
    for layer in FAIL_LAYERS:
        out[f"{layer}.fail"] = stat(layer, "fail")
    out["datasets.world.build_ms"] = stat("datasets.world.build", "span_ms")
    out["asn1.oid.decode.calls"] = stat("asn1.oid.decode", "calls")
    for layer, ratio in (("x509.certificate.from_der",
                          "x509.certificate.repeat_ratio"),
                         ("ocsp.response.from_der",
                          "ocsp.response.repeat_ratio")):
        distinct = total("distinct", layer)
        out[f"{layer}.distinct"] = distinct
        out[ratio] = _ratio(stat(layer, "calls"), distinct)
    out["ca.responder.sign_ratio"] = _ratio(
        stat("crypto.rsa.raw_sign", "calls"),
        stat("ca.responder.handle", "calls"))

    stats = sample.get("stats") or {}
    cache = stats.get("cache", {})
    batcher = stats.get("batcher", {})
    daemon = stats.get("daemon", {})
    out["serve.cache.hits"] = cache.get("hits", 0)
    out["serve.cache.misses"] = cache.get("misses", 0)
    out["serve.cache.hit_ratio"] = _ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0))
    for key in ("signed", "coalesced", "largest_batch"):
        out[f"serve.batcher.{key}"] = batcher.get(key, 0)
    for key in ("protocol_errors", "dropped_connections"):
        out[f"serve.daemon.{key}"] = daemon.get(key, 0)
    steps = sample.get("steps") or []
    lags = [lag for step in steps for lag in step["lag_ms"]]
    out["serve.loadgen.lag_ms"] = percentile(lags, 99) if lags else 0.0
    out["serve.loadgen.backlog"] = max(
        (step["backlog_end"] for step in steps), default=0)

    out["runtime.cache.store.bytes"] = total("sums",
                                             "runtime.cache.store.bytes")
    out["runtime.cache.load.bytes"] = total("sums", "runtime.cache.load.bytes")
    hits = total("sums", "runtime.cache.load.hit")
    out["runtime.cache.hit_ratio"] = _ratio(
        hits, hits + total("sums", "runtime.cache.load.miss"))
    out["runtime.sock.poll.wait_ms"] = stat("runtime.sock.poll", "wait_ms")
    wire = sample.get("wire") or {}
    for key in ("frames_sent", "frames_received", "reconnects",
                "jobs_reclaimed", "protocol_errors"):
        out[f"runtime.sock.{key}"] = wire.get(key, 0)
    roundtrips = [ms for doc in documents for ms in doc["roundtrips_ms"]]
    execute_ms = _ratio(stat("runtime.worker.execute", "span_ms"),
                        stat("runtime.worker.execute", "calls"))
    out["runtime.worker.execute_ms"] = execute_ms
    roundtrip_ms = sum(roundtrips) / len(roundtrips) if roundtrips else 0.0
    out["runtime.sock.roundtrip_ms"] = roundtrip_ms
    out["runtime.sock.overhead_ms_per_shard"] = \
        roundtrip_ms - execute_ms if roundtrips else 0.0
    out["trace.spans"] = sum(len(doc["spans"]) for doc in documents)
    out["trace.unattributed_ms"] = sample["unattributed_ms"]
    return out


def workload_metrics(untraced: List[Dict[str, Any]],
                     traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median over traced samples, plus the tracing overhead."""
    per_sample = [sample_metrics(sample) for sample in traced]
    out = {name: median([m[name] for m in per_sample])
           for name in per_sample[0]}
    out["trace.overhead_s"] = (median([s["run_s"] for s in traced])
                               - median([s["run_s"] for s in untraced]))
    return out


def print_layers(workload: str, metrics: Dict[str, float],
                 traced: List[Dict[str, Any]]) -> None:
    """The per-layer table: calls, self, wait, fail; then the ratios."""
    layers: Dict[str, Dict[str, float]] = {}
    for layer in SPAN_LAYERS + ("asn1.oid.decode",):
        values = [s["layers"].get(layer) for s in traced]
        values = [v for v in values if v]
        if values:
            layers[layer] = {key: median([v[key] for v in values])
                             for key in values[0]}
    rows: List[Tuple[Any, ...]] = [("layer", "calls", "self_ms", "wait_ms",
                                    "fail")]
    for layer in SPAN_LAYERS + ("asn1.oid.decode",):
        entry = layers.get(layer)
        if not entry or not entry["calls"]:
            continue
        rows.append((layer, f"{entry['calls']:g}", f"{entry['self_ms']:.1f}",
                     f"{entry['wait_ms']:.1f}", f"{entry['fail']:g}"))
    print_table(f"{workload} per-layer (traced; median of {len(traced)} "
                f"traced sample(s))", rows)
    ratio_rows = [("metric", "value", "base")]
    bases = {
        "x509.certificate.repeat_ratio": (
            "{:g} calls / {:g} distinct DER",
            "x509.certificate.from_der.calls",
            "x509.certificate.from_der.distinct"),
        "ocsp.response.repeat_ratio": (
            "{:g} calls / {:g} distinct DER",
            "ocsp.response.from_der.calls", "ocsp.response.from_der.distinct"),
        "ca.responder.sign_ratio": (
            "{:g} signs / {:g} handles",
            "crypto.rsa.raw_sign.calls", "ca.responder.handle.calls"),
        "serve.cache.hit_ratio": (
            "{:g} hits / ({:g} + {:g}) lookups",
            "serve.cache.hits", "serve.cache.hits", "serve.cache.misses"),
        "runtime.cache.hit_ratio": (
            "of {:g} loads", "runtime.cache.load.calls"),
    }
    for name, (template, *keys) in bases.items():
        ratio_rows.append((name, f"{metrics[name]:.3f}",
                           template.format(*(metrics[k] for k in keys))))
    for name in ("runtime.sock.roundtrip_ms", "runtime.worker.execute_ms",
                 "runtime.sock.overhead_ms_per_shard",
                 "runtime.sock.frames_sent", "runtime.sock.frames_received",
                 "runtime.sock.reconnects", "runtime.sock.jobs_reclaimed",
                 "runtime.sock.protocol_errors",
                 "runtime.cache.store.bytes", "runtime.cache.load.bytes",
                 "serve.batcher.signed", "serve.batcher.coalesced",
                 "serve.batcher.largest_batch", "serve.loadgen.lag_ms",
                 "serve.loadgen.backlog", "datasets.world.build_ms",
                 "trace.spans", "trace.unattributed_ms", "trace.overhead_s"):
        ratio_rows.append((name, f"{metrics[name]:.3f}", ""))
    print_table(f"{workload} derived per-layer metrics", ratio_rows)
