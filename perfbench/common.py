"""Shared pieces of the benchmark: paths, statistics, processes, results.

Everything here is benchmark-side.  The program under test is reached
only through ``src/`` (put on ``sys.path`` / ``PYTHONPATH``), and every
file the benchmark writes lives under ``.perfbench_work/`` in the
checkout, which :func:`work_dir` creates and the caller removes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_spec() -> Dict[str, Any]:
    """The frozen benchmark parameters (``spec.json``)."""
    with open(BENCH_DIR / "spec.json", encoding="utf-8") as stream:
        return json.load(stream)


def require_program() -> None:
    """Refuse to run without the program's sources next to us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}; run "
                         f"from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # An artifact cache left to its default location would live in the
    # user's home directory; keep it inside the checkout (children
    # inherit this).
    os.environ["REPRO_CACHE_DIR"] = str(WORK_ROOT / "default-cache")


def child_env() -> Dict[str, str]:
    """Environment for processes under test: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def work_dir(label: str) -> Path:
    """A fresh scratch directory for one benchmark process."""
    path = WORK_ROOT / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()             # only when no other run uses it
    except OSError:
        pass


def digest_json(document: Any) -> str:
    """SHA-256 of a canonical JSON rendering (sorted keys)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: Any) -> str:
    """Digest of an ``ExperimentResult``'s content (rows, series,
    summary) — timings and provenance are left out on purpose."""
    return digest_json({"rows": result.rows, "series": result.series,
                        "summary": result.summary})


# -- statistics ---------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p99.9/p99/p95/p90/p50 with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return None


# -- processes ----------------------------------------------------------------

def peak_rss_mb_of(pid: int) -> Optional[float]:
    """A live process's peak resident set (``VmHWM``), in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_process(proc: subprocess.Popen, signum: Optional[int] = None,
                 grace_s: float = 10.0) -> None:
    """Ask a child to stop (optionally with *signum*), wait, then kill."""
    if proc.poll() is None and signum is not None:
        try:
            proc.send_signal(signum)
        except OSError:
            pass
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


@functools.lru_cache(maxsize=None)
def cpu_roles() -> Tuple[Optional[FrozenSet[int]], Optional[FrozenSet[int]]]:
    """(load CPUs, system CPUs): two disjoint CPUs when we may use two.

    The benchmark process (load generator, coordinator) runs on the
    first, every process under test and the speed probe on the second.
    Left to itself the scheduler keeps a load generator and the server
    it wakes on one CPU for seconds, which halves throughput at random
    moments; fixed placement removes that bimodality.  With one CPU
    nothing is pinned.  Computed once, before the benchmark pins
    itself.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None, None
    if len(cpus) < 2:
        return None, None
    return frozenset(cpus[:1]), frozenset(cpus[1:2])


def place(pid: int, cpus: Optional[FrozenSet[int]]) -> None:
    """Pin *pid* (0 = this process) to *cpus*, if placement is in use."""
    if cpus:
        try:
            os.sched_setaffinity(pid, cpus)
        except ProcessLookupError:
            pass          # already exited; its return code tells the rest


class Deadline:
    """The measurement window of one run (``--seconds``)."""

    def __init__(self, seconds: float) -> None:
        self.ends = time.perf_counter() + seconds

    def remaining(self) -> float:
        return self.ends - time.perf_counter()


def write_spans(path: Path, document: Dict[str, Any]) -> None:
    """Write a traced run's spans (atomically) for later analysis."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(document, stream, separators=(",", ":"))
    os.replace(tmp, path)


# -- the result line ----------------------------------------------------------

def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def print_table(title: str, rows: Iterable[Sequence[Any]]) -> None:
    """A plain aligned table on stdout (before the result line)."""
    rows = [[str(cell) for cell in row] for row in rows]
    print(f"== {title}")
    if not rows:
        return
    widths = [max(len(row[i]) for row in rows if i < len(row))
              for i in range(max(len(row) for row in rows))]
    for row in rows:
        print("  " + "  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> None:
    """The last stdout line: the machine-readable result object."""
    sys.stdout.flush()
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()
