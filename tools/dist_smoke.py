#!/usr/bin/env python3
"""Distributed-runtime smoke test: a 3-worker socket-fleet campaign
degraded mid-run must complete and merge byte-identical to an
undisturbed serial run.

The fleet degrades the way a real one does, through a hostile wire:
every worker connects through a ``repro.runtime.netchaos.ChaosProxy``
running the deterministic ``reset`` plan (connections RST
mid-conversation at seeded frame indices), and two hosts fail
outright:

* one worker dies (SIGKILL — no signal handlers, no cleanup, its
  connection drops and its lease stops being renewed);
* one worker wedges (SIGSTOP — the process is alive and its socket
  open, but its heartbeat thread is frozen, so its lease expires
  exactly as a dead host's does).

Workers must reconnect-and-resume through the resets; the coordinator
must reclaim both faulted workers' leases and reissue their jobs to
the survivor; and the merged result must not bear a single byte of
evidence that topology or fault order changed mid-campaign.

Steps:

1. start ``repro run fig3 --transport socket --no-spawn``, a chaos
   proxy in front of it, and three ``repro worker --connect``
   processes dialing through the proxy;
2. once shards start landing in the cache, SIGKILL one worker and
   SIGSTOP another;
3. require the run to complete successfully on the surviving worker;
4. run the undisturbed serial baseline with the cache disabled and
   compare ``rows`` / ``series`` / ``summary`` exactly;
5. verify the shared cache's integrity, then stop and reap the fleet.

Usage: ``python tools/dist_smoke.py [scratch_dir]`` (default scratch:
``.dist-smoke``; the directory is wiped first).  Exit 0 on success.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket as socketlib
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
FAULT_WAIT_S = 180.0
RUN_WAIT_S = 300.0
ENTRIES_BEFORE_FAULTS = 1
CHAOS_SEED = 20260808


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _free_port() -> int:
    with socketlib.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _cache_entries(cache_dir: str) -> int:
    root = Path(cache_dir)
    if not root.is_dir():
        return 0
    return sum(1 for path in root.glob("*/*.jsonl")
               if path.parent.name != "corrupt")


def _result_doc(stdout: str) -> dict:
    document = json.loads(stdout)
    return {"rows": document["rows"], "series": document["series"],
            "summary": document["summary"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scratch", nargs="?", default=".dist-smoke")
    args = parser.parse_args()

    scratch = args.scratch
    shutil.rmtree(scratch, ignore_errors=True)
    cache_dir = os.path.join(scratch, "cache")
    os.makedirs(scratch, exist_ok=True)

    from repro.runtime.netchaos import ChaosProxy, netchaos_plan

    proxy = None
    coordinator: Optional[subprocess.Popen] = None
    workers: List[subprocess.Popen] = []
    stopped: List[subprocess.Popen] = []

    try:
        # 1. Coordinator first (it owns the listening socket), then a
        # deterministic chaos proxy in front of it, then the fleet
        # dialing through the proxy.  The workers' bounded dial
        # backoff absorbs the bind races on both hops.
        listen_port = _free_port()
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "fig3",
             "--transport", "socket",
             "--listen", f"127.0.0.1:{listen_port}", "--no-spawn",
             "--cache-dir", cache_dir,
             "--lease", "0.5", "--shard-timeout", "60",
             "--retries", "4", "--json"],
            env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        proxy = ChaosProxy("127.0.0.1", listen_port,
                           netchaos_plan("reset", CHAOS_SEED))
        proxy.start()
        for index in range(3):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"127.0.0.1:{proxy.port}",
                 "--id", f"smoke-{index}",
                 "--cache-dir", cache_dir, "--reconnect", "12"],
                env=_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL))

        # 2. Fault injection once real work is landing.
        deadline = time.time() + FAULT_WAIT_S
        while (time.time() < deadline and coordinator.poll() is None
               and _cache_entries(cache_dir) < ENTRIES_BEFORE_FAULTS):
            time.sleep(0.05)
        if coordinator.poll() is None:
            workers[0].send_signal(signal.SIGKILL)
            workers[1].send_signal(signal.SIGSTOP)
            stopped.append(workers[1])
            print("faults injected behind a resetting proxy: worker "
                  "smoke-0 SIGKILLed, smoke-1 SIGSTOPped; smoke-2 must "
                  "finish the campaign")
        else:
            # Machine too fast: the campaign drained before the fault
            # window.  The byte-identity leg below still proves the
            # 3-worker merge; the reclaim paths are covered by
            # tests/test_sock.py.
            print("run finished before the fault window; "
                  "checking byte-identity only")

        # 3. The campaign must still complete.
        try:
            stdout, stderr = coordinator.communicate(timeout=RUN_WAIT_S)
        except subprocess.TimeoutExpired:
            coordinator.kill()
            print("coordinator did not finish after the faults")
            return 1
        if coordinator.returncode != 0:
            print(f"coordinator failed (exit {coordinator.returncode}):\n"
                  f"{stderr}")
            return 1
        manifest = json.loads(stdout)["manifest"]
        print(f"campaign complete: {manifest['computed']} computed, "
              f"{manifest['cached']} cached, {manifest['retried']} retried")
        print(f"chaos proxy: {proxy.counts['connections']} "
              f"connections, {proxy.counts['frames']} frames, "
              f"{proxy.counts['resets']} resets")

        # 4. Byte-identity against the undisturbed serial baseline.
        serial = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig3",
             "--workers", "1", "--no-cache", "--json"],
            env=_env(), capture_output=True, text=True)
        if serial.returncode != 0:
            print(f"serial baseline failed:\n{serial.stderr}")
            return 1
        if _result_doc(stdout) != _result_doc(serial.stdout):
            print("MISMATCH: socket fleet output differs from serial run")
            return 1
        print("socket fleet output identical to undisturbed serial run")

        # 5. The shared cache survived the carnage intact.
        verify = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "verify",
             "--cache-dir", cache_dir],
            env=_env(), capture_output=True, text=True)
        print(verify.stdout.strip())
        if verify.returncode != 0:
            print("cache verify failed after the faults")
            return 1
        return 0
    finally:
        # Wind the fleet down.  Connected workers got a stop RETRACT
        # when the coordinator's transport closed (or exhaust their
        # reconnect budget against the dead proxy).  SIGCONT the
        # frozen one (a stopped process reads no frames), then a kill
        # escalation for anything still wedged.
        if coordinator is not None and coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait()
        if proxy is not None:
            proxy.stop()
        for process in stopped:
            try:
                process.send_signal(signal.SIGCONT)
            except OSError:
                pass
        for process in workers:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            except OSError:
                pass


if __name__ == "__main__":
    raise SystemExit(main())
