"""Self-chaos harness for the supervised runtime.

PR 3 injects faults into the *simulated* OCSP network; this module
injects faults into the *runtime itself* — the process pool, the
worker functions, the artifact cache — so the supervisor's recovery
machinery can be proven rather than trusted.  :func:`chaos_shard`
wraps any real shard worker and misbehaves deterministically for the
first ``fail_times`` attempts:

* ``crash`` — ``os._exit`` mid-shard, the way an OOM-killed or
  segfaulted worker dies: no exception, no cleanup, just an exited
  process and a closed connection;
* ``hang``  — sleep far past any shard timeout, the way a wedged
  network read hangs;
* ``transient`` — raise :class:`repro.faults.TransientShardError`
  (classified retry-worthy);
* ``permanent`` — raise :class:`repro.faults.PermanentShardError`
  (classified quarantine-on-sight).

Attempt counting must survive the very crashes it provokes, so it
lives in the filesystem: each attempt appends one line to a marker
file in a caller-provided scratch directory before deciding whether
to misbehave.  The marker persists across worker restarts *and*
whole-run restarts — which is exactly what lets a test script a
"fails this run, succeeds on resume" shard.

The chaos wrapper changes *when* rows are produced, never *which*
rows: once the fault budget is exhausted it delegates to the wrapped
worker untouched, so merged output must stay byte-identical to an
undisturbed serial run — the determinism contract PR 2 established,
now holding under fire.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

from ..canon import stable_digest
from ..faults.classify import PermanentShardError, TransientShardError
from .executor import ShardSpec, resolve_worker

#: The chaos modes scripts can request.
CHAOS_MODES = ("crash", "hang", "transient", "permanent")

#: Exit code of an injected crash — distinctive in supervisor logs.
CRASH_EXIT_CODE = 23


def chaos_wrap(spec: ShardSpec, mode: str, fail_times: int,
               scratch: str, hang_s: float = 3600.0) -> ShardSpec:
    """Wrap *spec* so its first *fail_times* attempts fail via *mode*.

    *scratch* is the directory holding the attempt markers; tests pass
    a tmpdir so runs stay isolated.  The wrapper's payload embeds the
    inner worker and payload verbatim, so the (different) cache key
    still content-addresses the same rows.
    """
    if mode not in CHAOS_MODES:
        raise ValueError(f"unknown chaos mode {mode!r} "
                         f"(known: {', '.join(CHAOS_MODES)})")
    return ShardSpec(
        worker="repro.runtime.chaos:chaos_shard",
        payload={"inner": spec.worker, "inner_payload": spec.payload,
                 "mode": mode, "fail_times": fail_times,
                 "scratch": scratch, "hang_s": hang_s},
        label=f"chaos[{mode}x{fail_times}]:{spec.label}")


def _attempt_number(scratch: str, token: str) -> int:  # repro: allow-effect[FS_READ,FS_WRITE] -- crash-safe attempt markers are the tested behavior; scratch dir is per-run
    """Record this attempt and return its 1-based number.

    Append-then-count keeps the bookkeeping crash-safe: the marker is
    on disk *before* any fault fires, so even ``os._exit`` cannot lose
    an attempt.
    """
    os.makedirs(scratch, exist_ok=True)
    path = os.path.join(scratch, f"{token}.attempts")
    with open(path, "a") as stream:
        stream.write("attempt\n")
    with open(path) as stream:
        return sum(1 for _ in stream)


def chaos_shard(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Misbehave for the first ``fail_times`` attempts, then delegate."""
    token = stable_digest({"inner": payload["inner"],
                           "payload": payload["inner_payload"],
                           "mode": payload["mode"]})
    attempt = _attempt_number(payload["scratch"], token)
    if attempt <= payload["fail_times"]:
        mode = payload["mode"]
        if mode == "crash":
            os._exit(CRASH_EXIT_CODE)  # repro: allow-effect[PROCESS] -- injected crash is the experiment; supervisor restarts the attempt
        elif mode == "hang":
            time.sleep(float(payload.get("hang_s", 3600.0)))  # repro: allow-effect[WALL_CLOCK] -- injected hang is the experiment; supervisor timeout kills it
            # Normally unreachable — the supervisor kills us first.  If
            # the hang outlived the timeout, the attempt still fails.
            raise TransientShardError(
                f"injected hang outlived the supervisor (attempt {attempt})")
        elif mode == "transient":
            raise TransientShardError(
                f"injected transient fault (attempt {attempt})")
        elif mode == "permanent":
            raise PermanentShardError(
                f"injected permanent fault (attempt {attempt})")
        else:
            raise ValueError(f"unknown chaos mode {mode!r}")
    return resolve_worker(payload["inner"])(payload["inner_payload"])
