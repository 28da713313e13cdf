"""Layer tracing from outside the program.

The benchmark never edits ``src/``.  Instead, a traced run wraps the
public entry point of each layer — the attribute callers look up —
with a recorder that keeps one span per call in memory: layer name,
start and end (``perf_counter_ns``, system-wide monotonic on Linux, so
spans from the daemon, the worker and the benchmark share one clock),
the enclosing span, and the id of the root span it belongs to (one
shard, one request).  Spans are written out once, at exit.

Self time is a span's duration minus the durations of its direct
children; because every wrapped call is synchronous, children nest
strictly inside their parent and self times of one process add up to
the time covered by its root spans.

``asn1.oid.decode`` runs ~100k times per scan campaign, so it is only
counted: a span per call would make the trace measure itself.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import write_spans

#: (layer name, module, attribute path, extra).  The attribute is
#: patched where it is defined and wherever a module bound it by name.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("datasets.world.build", "repro.datasets.world",
     "MeasurementWorld.__init__", ""),
    ("crypto.prime.generate_prime", "repro.crypto.prime",
     "generate_prime", ""),
    ("crypto.rsa.raw_sign", "repro.crypto.rsa", "RSAPrivateKey.raw_sign", ""),
    ("crypto.rsa.raw_verify", "repro.crypto.rsa",
     "RSAPublicKey.raw_verify", ""),
    ("asn1.oid.decode", "repro.asn1.oid",
     "ObjectIdentifier.decode_content", "count"),
    ("x509.certificate.from_der", "repro.x509.certificate",
     "Certificate.from_der", "distinct"),
    ("ocsp.request.from_der", "repro.ocsp.request", "OCSPRequest.from_der", ""),
    ("ocsp.response.from_der", "repro.ocsp.response",
     "OCSPResponse.from_der", "distinct"),
    ("ocsp.verify.verify_response", "repro.ocsp.verify", "verify_response", ""),
    ("ca.responder.handle", "repro.ca.responder", "OCSPResponder.handle", ""),
    ("simnet.network.fetch", "repro.simnet.network", "Network.fetch", ""),
    ("scanner.hourly.probe", "repro.scanner.hourly", "HourlyScanner.probe", ""),
    ("serve.app.dispatch", "repro.serve.app", "ServeApp.dispatch", ""),
    ("runtime.cache.load", "repro.runtime.cache", "ArtifactCache.load",
     "cache-load"),
    ("runtime.cache.store", "repro.runtime.cache", "ArtifactCache.store",
     "cache-store"),
    ("runtime.sock.dispatch", "repro.runtime.sock",
     "SocketTransport.dispatch", ""),
    ("runtime.sock.poll", "repro.runtime.sock", "SocketTransport.poll",
     "poll"),
    ("runtime.sock.encode_frame", "repro.runtime.sock", "encode_frame",
     "frame"),
    ("runtime.worker.execute", "repro.runtime.executor", "resolve_worker",
     "resolver"),
    ("hostile.corpus.classify_mutant", "repro.hostile.corpus",
     "classify_mutant", ""),
    ("lint.engine.lint_der", "repro.lint.engine", "LintEngine.lint_der", ""),
    ("runtime.sharding.merge_scan_rows", "repro.runtime.sharding",
     "merge_scan_rows", ""),
    ("core.availability.analyze_availability", "repro.core.availability",
     "analyze_availability", ""),
)

#: Every public function of this module counts as the ``core.quality``
#: layer (the Figure 5-9 and response-size analyses).
CORE_QUALITY = "repro.core.quality"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: [name id, start ns, end ns, parent index, root index, failed]
        self.spans: List[List[int]] = []
        self.counters: Counter = Counter()
        self.distinct: Dict[str, set] = defaultdict(set)
        self.sums: Counter = Counter()
        self.roundtrips_ms: List[float] = []
        self._job_sent: Dict[Any, int] = {}
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[[tuple, dict, Any, List[int]], None]]
             = None) -> Callable:
        """*fn* recording one span per call under *name*."""
        name_id = self._name_id(name)
        spans = self.spans
        clock = time.perf_counter_ns
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            if stack:
                parent = stack[-1]
                root = spans[parent][4]
            else:
                parent = -1
                root = index
            span = [name_id, clock(), 0, parent, root, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- hooks for layers with more than calls and time ---------------

    def _wrap_distinct(self, name: str, fn: Callable) -> Callable:
        # Rejected documents count as distinct inputs too, so record
        # the input before the call can raise.
        seen = self.distinct[name]
        inner = self.wrap(name, fn)

        def traced(*args, **kwargs):
            der = args[1] if len(args) > 1 else kwargs.get("der")
            seen.add(hash(der))
            return inner(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _cache_load_after(self, args, kwargs, result, span) -> None:
        if result is None:
            self.sums["runtime.cache.load.miss"] += 1
            return
        self.sums["runtime.cache.load.hit"] += 1
        self.sums["runtime.cache.load.bytes"] += _entry_size(args)

    def _cache_store_after(self, args, kwargs, result, span) -> None:
        self.sums["runtime.cache.store.bytes"] += _entry_size(args)

    def _poll_after(self, args, kwargs, result, span) -> None:
        now = time.perf_counter_ns()
        if not result:
            self.sums["runtime.sock.poll.wait_ns"] += span[2] - span[1]
        for outcome in result:
            sent = self._job_sent.pop(outcome.ticket, None)
            if sent is not None:
                self.roundtrips_ms.append((now - sent) / 1e6)

    def _frame_after(self, args, kwargs, result, span) -> None:
        kind = args[0] if args else kwargs.get("kind")
        if kind == "JOB":
            body = args[1] if len(args) > 1 else kwargs.get("body")
            self._job_sent[body.get("ticket")] = span[2]

    def _resolver(self, name: str, resolve: Callable) -> Callable:
        def traced_resolve(ref, *args, **kwargs):
            return self.wrap(name, resolve(ref, *args, **kwargs))

        traced_resolve.__wrapped__ = resolve
        return traced_resolve

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per tracer)."""
        if self._undo:
            return
        for name, module_name, attribute, extra in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                self._patch_method(getattr(module, class_name), method,
                                   lambda fn, n=name, e=extra:
                                   self._wrapper(n, e, fn))
            else:
                original = getattr(module, attribute)
                self._patch_function(original,
                                     self._wrapper(name, extra, original))
        module = importlib.import_module(CORE_QUALITY)
        for attribute, value in sorted(vars(module).items()):
            if (callable(value) and not attribute.startswith("_")
                    and getattr(value, "__module__", "") == CORE_QUALITY
                    and not isinstance(value, type)):
                self._patch_function(value, self.wrap(
                    f"core.quality.{attribute}", value))

    def _wrapper(self, name: str, extra: str, fn: Callable) -> Callable:
        if extra == "count":
            return self.count(name, fn)
        if extra == "distinct":
            return self._wrap_distinct(name, fn)
        if extra == "resolver":
            return self._resolver(name, fn)
        after = {"cache-load": self._cache_load_after,
                 "cache-store": self._cache_store_after,
                 "poll": self._poll_after,
                 "frame": self._frame_after}.get(extra)
        return self.wrap(name, fn, after)

    def _patch_method(self, cls: type, method: str,
                      make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((cls, method, raw))
        setattr(cls, method, replacement)

    def _patch_function(self, original: Callable,
                        replacement: Callable) -> None:
        """Rebind *original* in every loaded ``repro`` module."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attribute, original))
                    setattr(module, attribute, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output -------------------------------------------------------

    def document(self) -> Dict[str, Any]:
        """Everything recorded, JSON-ready."""
        return {
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counters),
            "distinct": {name: len(seen)
                         for name, seen in self.distinct.items()},
            "sums": dict(self.sums),
            "roundtrips_ms": self.roundtrips_ms,
        }

    def dump(self, path: str) -> None:
        write_spans(Path(path), self.document())


def _entry_size(args: tuple) -> int:
    """Size of the cache file behind ``cache.load/store(key, ...)``."""
    cache, key = args[0], args[1]
    try:
        return os.path.getsize(cache._path(key))
    except OSError:
        return 0


def load_document(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


# ---------------------------------------------------------------------------
# the per-layer table
# ---------------------------------------------------------------------------

def layer_stats(documents: List[Dict[str, Any]]
                ) -> Dict[str, Dict[str, float]]:
    """calls / self_ms / wait_ms / fail per layer over every process."""
    stats: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ms": 0.0, "span_ms": 0.0, "wait_ms": 0.0,
                 "fail": 0})
    for document in documents:
        names = document["names"]
        spans = document["spans"]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, _root, _failed in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name_id, start, end, parent, _root, failed) \
                in enumerate(spans):
            name = names[name_id]
            if name.startswith("core.quality."):
                name = "core.quality"
            entry = stats[name]
            entry["calls"] += 1
            entry["span_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[index]) / 1e6
            entry["fail"] += failed
        for name, count in document["counters"].items():
            stats[name]["calls"] += count
        stats["runtime.sock.poll"]["wait_ms"] += \
            document["sums"].get("runtime.sock.poll.wait_ns", 0) / 1e6
    return stats


def root_span_ms(document: Dict[str, Any],
                 window: Optional[Tuple[int, int]] = None) -> float:
    """Wall time covered by root spans (the attributed part)."""
    total = 0
    for _name_id, start, end, parent, _root, _failed in document["spans"]:
        if parent < 0 and (window is None
                           or window[0] <= start <= window[1]):
            total += end - start
    return total / 1e6
