"""``hostile-fleet``: hundreds of small hostile-corpus shards over a socket.

Each sample listens on a fresh :class:`repro.runtime.SocketTransport`,
spawns exactly one ``repro worker --connect`` (set-up is listen plus
spawn until the worker's HELLO arrives), runs the hostile corpus cold
through that transport into an empty cache (``run_s``), then a
second, disjoint corpus (another mutation seed) over the same, now
warm worker with the artifact cache switched off (``rerun_s``): every
shard is dispatched and computed, but nothing touches the shared disk,
whose write latency drifts with other tenants.  ``run_s - rerun_s`` is
what a cold worker and the cache writes add.  The
transport's stop broadcast then ends the worker.  With one worker,
every shard's dispatch -> result round trip sits on the critical path.

Every mutant is a distinct malformed document, so memoizing parses
cannot help here: this is the counter-workload to ``scan-cold``.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import (BENCH_DIR, ROOT, Deadline, child_env, cpu_roles,
                    peak_rss_mb_of, place, remove_tree, result_digest,
                    self_peak_rss_mb, stop_process, work_dir)

CONNECT_TIMEOUT_S = 60.0


def hostile_configs(spec: Dict[str, Any], seed: int):
    """(cold corpus, rerun corpus): disjoint mutant sets, same shape."""
    from repro.runtime import HostileCorpusConfig
    return tuple(HostileCorpusConfig(seed=spec["base_seed"] + seed + offset,
                                     chunks=spec["chunks"])
                 for offset in (0, spec["rerun_seed_offset"]))


def _failed_shards(result) -> int:
    """Shards that were quarantined or needed more than one attempt."""
    manifest = result.manifest
    if manifest is None:
        return 0
    return len(manifest.quarantined()) + manifest.retried


def sample(config, rerun_config, work, index: int, tracer=None,
           spans_path: Optional[str] = None) -> Dict[str, Any]:
    from repro.runtime import SocketTransport, run_experiment

    cache_dir = str(work / f"cache-{index}")
    started = time.perf_counter()
    transport = SocketTransport(host="127.0.0.1", port=0)
    worker = None
    try:
        address = f"{transport.host}:{transport.port}"
        worker_args = ["worker", "--connect", address, "--id",
                       f"bench-{index}", "--cache-dir", cache_dir]
        if spans_path:
            command = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                       spans_path] + worker_args
        else:
            command = [sys.executable, "-m", "repro"] + worker_args
        worker = subprocess.Popen(command, env=child_env(), cwd=str(ROOT),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        place(worker.pid, cpu_roles()[1])
        while transport.stats()["connects"] < 1:
            transport.poll(0.002)
            if time.perf_counter() - started > CONNECT_TIMEOUT_S \
                    or worker.poll() is not None:
                raise RuntimeError("socket worker never connected")
        setup_s = time.perf_counter() - started

        if tracer is not None:
            tracer.install()
        gc.collect()
        window_start = time.perf_counter_ns()
        t0 = time.perf_counter()
        cold = run_experiment("hostile-corpus", config=config,
                              cache_dir=cache_dir, transport=transport)
        run_s = time.perf_counter() - t0
        cold_end = time.perf_counter_ns()
        gc.collect()
        t0 = time.perf_counter()
        warm = run_experiment("hostile-corpus", config=rerun_config,
                              cache=False, transport=transport)
        rerun_s = time.perf_counter() - t0
        window_end = time.perf_counter_ns()
        if tracer is not None:
            tracer.uninstall()
        worker_rss = peak_rss_mb_of(worker.pid) or 0.0
        wire = transport.stats()
    finally:
        transport.close()
        if worker is not None:
            stop_process(worker)
    return {
        "setup_s": setup_s, "run_s": run_s, "rerun_s": rerun_s,
        "cold_digest": result_digest(cold), "warm_digest": result_digest(warm),
        "shards": len(cold.manifest.shards) + len(warm.manifest.shards),
        "cold_shards": len(cold.manifest.shards),
        "warm_dispatched": warm.manifest.computed,
        "failed_shards": _failed_shards(cold) + _failed_shards(warm),
        "wire": wire, "worker_rss_mb": worker_rss,
        "cold_window": [window_start, cold_end],
        "timings": {
            "setup_s": [(setup_s, (started, started + setup_s))],
            "run_s": [(run_s, (window_start / 1e9, cold_end / 1e9))],
            "rerun_s": [(rerun_s, (cold_end / 1e9, window_end / 1e9))]},
    }


def run(spec: Dict[str, Any], seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    from repro.runtime import run_experiment
    from tracer import Tracer, layer_stats, load_document, root_span_ms

    hostile_spec = spec["hostile_fleet"]
    config, rerun_config = hostile_configs(hostile_spec, seed)
    deadline = Deadline(seconds)
    work = work_dir("hostile")
    samples: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        while (not samples or (trace and not traced)
               or deadline.remaining() > 0):
            index = len(samples) + len(traced)
            if trace and len(traced) < len(samples):
                tracer = Tracer()
                spans = str(work / f"spans-{index}.json")
                result = sample(config, rerun_config, work, index, tracer,
                                spans)
                coordinator = tracer.document()
                documents = [coordinator, load_document(spans)]
                result["layers"] = layer_stats(documents)
                result["documents"] = documents
                result["unattributed_ms"] = result["run_s"] * 1e3 - \
                    root_span_ms(coordinator, tuple(result["cold_window"]))
                traced.append(result)
            else:
                samples.append(sample(config, rerun_config, work, index))
        coordinator_rss = self_peak_rss_mb()

        # The references: the same configs, serial and in-process.
        references = [run_experiment("hostile-corpus", config=c, cache=False)
                      for c in (config, rerun_config)]
    finally:
        remove_tree(work)

    checks = check(hostile_spec, config, references, samples + traced)
    return {"samples": samples, "traced": traced, "checks": checks,
            "coordinator_rss_mb": coordinator_rss,
            "mutants": references[0].summary["mutants"]}


def check(spec: Dict[str, Any], config, references,
          samples: List[Dict[str, Any]]) -> Dict[str, bool]:
    """Output checks; each entry is one named verdict."""
    want, want_rerun = (result_digest(r) for r in references)
    summary = references[0].summary
    checks = {
        "socket cold == serial in-process":
            all(s["cold_digest"] == want for s in samples),
        "socket rerun == serial in-process":
            all(s["warm_digest"] == want_rerun for s in samples),
        "rerun dispatched every shard":
            all(s["warm_dispatched"] == s["cold_shards"] for s in samples),
        "0 unexpected exceptions": all(
            r.summary["unexpected_exceptions"] == 0 for r in references),
        "0 fixed-point failures": all(
            r.summary["fixed_point_failures"] == 0 for r in references),
    }
    if config.seed == spec["frozen_matrix_seed"]:
        frozen_path = ROOT / spec["frozen_matrix"]
        frozen = json.loads(frozen_path.read_text(encoding="utf-8"))
        checks["matrix == frozen expected_matrix.json"] = all(
            frozen[key] == summary[key]
            for key in ("matrix", "by_kind", "outcomes"))
    return checks
