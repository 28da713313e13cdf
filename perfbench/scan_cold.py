"""``scan-cold``: the researcher's campaign, cold then warm.

Each sample is a fresh interpreter (``scan_child.py``) with an empty
cache directory: ``setup_s`` is interpreter start plus import,
``run_s`` the cold default-scale Figure 3 campaign (8 shards, 5,880
probes: world build with key generation, responder signing, DER decode
and ``verify_response``), ``rerun_s`` Figure 3, Figures 5-9 and the
response-size extension rerun warm from the cache that campaign filled.

The benchmark seed picks the campaign window (one of
``scan_child.OFFSETS`` hour offsets); every cold and warm result is
compared with the digest recorded for that window in ``spec.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any, Dict, List

from common import (BENCH_DIR, Deadline, child_env, cpu_roles, place,
                    remove_tree, stop_process, work_dir)
from scan_child import OFFSETS, SCAN_FAMILY

CHILD_TIMEOUT_S = 150.0


def sample(work, index: int, offset: int, spans_path=None
           ) -> Dict[str, Any]:
    command = [sys.executable, str(BENCH_DIR / "scan_child.py"),
               "--offset", str(offset),
               "--cache-dir", str(work / f"cache-{index}")]
    if spans_path:
        command += ["--spans", spans_path]
    started = time.perf_counter()
    proc = subprocess.Popen(command, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    place(proc.pid, cpu_roles()[1])
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if ready.strip() != "READY":
            raise RuntimeError(f"scan child did not start: {ready!r}")
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        stop_process(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"scan child exited {proc.returncode}")
    result = json.loads(output.strip().splitlines()[-1])
    result["timings"] = {
        "setup_s": [(setup_s, (started, started + setup_s))],
        "run_s": [(result["run_s"],
                   tuple(t / 1e9 for t in result["cold_window"]))],
        "rerun_s": [(result["rerun_s"],
                     tuple(t / 1e9 for t in result["warm_window"]))]}
    result["setup_s"] = setup_s
    return result


def run(spec: Dict[str, Any], seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    from tracer import layer_stats, load_document, root_span_ms

    offset = seed % OFFSETS
    references = spec["scan_references"][str(offset)]
    deadline = Deadline(seconds)
    work = work_dir("scan")
    samples: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        while (not samples or (trace and not traced)
               or deadline.remaining() > 0):
            index = len(samples) + len(traced)
            if trace and len(traced) < len(samples):
                spans = str(work / f"spans-{index}.json")
                result = sample(work, index, offset, spans)
                document = load_document(spans)
                result["layers"] = layer_stats([document])
                result["documents"] = [document]
                result["unattributed_ms"] = result["run_s"] * 1e3 - \
                    root_span_ms(document, tuple(result["cold_window"]))
                traced.append(result)
            else:
                samples.append(sample(work, index, offset))
    finally:
        remove_tree(work)
    return {"samples": samples, "traced": traced, "offset": offset,
            "checks": check(references, samples + traced)}


def check(references: Dict[str, str], samples: List[Dict[str, Any]]
          ) -> Dict[str, bool]:
    return {
        "cold fig3 == recorded reference": all(
            s["digests"]["cold:fig3"] == references["fig3"] for s in samples),
        "warm reruns == recorded references": all(
            s["digests"][e] == references[e]
            for s in samples for e in SCAN_FAMILY),
        "warm reruns executed nothing": all(
            s["shards"]["warm_executed"] == 0 for s in samples),
        "cold run executed every shard": all(
            s["shards"]["cold_cached"] == 0 for s in samples),
    }
