#!/usr/bin/env python3
"""Resume smoke test: SIGKILL a supervised run mid-flight, resume it,
and require output byte-identical to an undisturbed serial run.

This is the crash-tolerance contract of
``repro.runtime.supervisor.SupervisedExecutor`` exercised end to end,
the way a real campaign dies: the *whole process* is killed with
SIGKILL (no signal handlers, no atexit, no chance to flush), not a
worker inside it.  Because the supervisor persists every shard to the
artifact cache the moment it completes, the resumed invocation only
recomputes the shards the kill interrupted — and the merged result
must not bear a single byte of evidence that anything happened.

Steps:

1. start ``repro run fig3 --workers 4`` against a fresh
   cache directory;
2. wait until at least one shard has been persisted, then SIGKILL the
   process, and require that its worker processes (the rest of its
   process group) are gone within ``ORPHAN_WAIT_S``: a forked worker
   must notice that its coordinator died;
3. re-invoke the same command to completion (the resume);
4. run the undisturbed serial baseline with the cache disabled;
5. compare ``rows`` / ``series`` / ``summary`` exactly, and verify
   the surviving cache passes ``repro cache verify``.

Usage: ``python tools/resume_smoke.py [cache_dir]`` (default:
``.resume-smoke-cache``; the directory is wiped first).  Exit 0 on
success.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
KILL_WAIT_S = 180.0
ORPHAN_WAIT_S = 10.0
ENTRIES_BEFORE_KILL = 2


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _run_cmd(cache_dir: str) -> list:
    return [sys.executable, "-m", "repro", "run", "fig3",
            "--workers", "4", "--cache-dir", cache_dir,
            "--json"]


def _cache_entries(cache_dir: str) -> int:
    """Live (non-quarantined) entries currently persisted."""
    root = Path(cache_dir)
    if not root.is_dir():
        return 0
    return sum(1 for path in root.glob("*/*.jsonl")
               if path.parent.name != "corrupt")


def _group_alive(pgid: int) -> bool:
    """Whether any process of group *pgid* still runs (zombies waiting
    for a reaper count as gone)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue                      # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _result_doc(stdout: str) -> dict:
    document = json.loads(stdout)
    return {"rows": document["rows"], "series": document["series"],
            "summary": document["summary"]}


def main() -> int:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else ".resume-smoke-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)

    # 1-2. Start the supervised run; SIGKILL it once shards are landing.
    # Its own session, so its process group is exactly the run and the
    # workers it forked.
    process = subprocess.Popen(_run_cmd(cache_dir), env=_env(),
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL,
                               start_new_session=True)
    deadline = time.time() + KILL_WAIT_S
    while (time.time() < deadline and process.poll() is None
           and _cache_entries(cache_dir) < ENTRIES_BEFORE_KILL):
        time.sleep(0.05)
    killed = process.poll() is None
    if killed:
        process.send_signal(signal.SIGKILL)
    process.wait()
    survivors = _cache_entries(cache_dir)
    if killed:
        print(f"killed mid-run with {survivors} shard(s) persisted")
        deadline = time.time() + ORPHAN_WAIT_S
        while _group_alive(process.pid):
            if time.time() > deadline:
                print(f"workers outlived their killed coordinator by "
                      f"more than {ORPHAN_WAIT_S:g}s")
                os.killpg(process.pid, signal.SIGKILL)
                return 1
            time.sleep(0.1)
        print("every forked worker exited after the kill")
    else:
        # Machine too fast: the run finished before the kill window.
        # The resume leg still proves a full warm restore.
        print(f"run finished before the kill ({survivors} shards cached); "
              f"resume degenerates to a warm-cache check")

    # 3. Resume: same command, same cache — must complete cleanly.
    resumed = subprocess.run(_run_cmd(cache_dir), env=_env(),
                             capture_output=True, text=True)
    if resumed.returncode != 0:
        print(f"resume failed (exit {resumed.returncode}):\n{resumed.stderr}")
        return 1
    resumed_doc = json.loads(resumed.stdout)
    cached = resumed_doc["manifest"]["cached"]
    computed = resumed_doc["manifest"]["computed"]
    print(f"resume: {cached} shards from cache, {computed} recomputed")
    if killed and survivors and cached < survivors:
        print(f"expected at least {survivors} cached shards on resume")
        return 1

    # 4. The undisturbed serial baseline (cache off: nothing shared).
    serial = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig3", "--workers", "1",
         "--no-cache", "--json"],
        env=_env(), capture_output=True, text=True)
    if serial.returncode != 0:
        print(f"serial baseline failed:\n{serial.stderr}")
        return 1

    # 5. Byte-identical content, and an intact cache.
    if _result_doc(resumed.stdout) != _result_doc(serial.stdout):
        print("MISMATCH: resumed output differs from undisturbed serial run")
        return 1
    print("resumed output identical to undisturbed serial run")
    verify = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "verify",
         "--cache-dir", cache_dir],
        env=_env(), capture_output=True, text=True)
    print(verify.stdout.strip())
    if verify.returncode != 0:
        print("cache verify failed after the kill")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
