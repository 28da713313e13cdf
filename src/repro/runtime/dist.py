"""The fleet's lease table: job documents, leases, and result arbitration.

The socket fleet (:mod:`repro.runtime.sock`) spreads a campaign's
shards over ``repro worker`` processes on any number of hosts.  This
module holds the pure rules that decide each attempt's fate, plus the
helpers that start and reap a local fleet.  The coordinator keeps one
table row per dispatched attempt; a row moves through four states:

* **dispatch** — the attempt becomes a :func:`job_document` under a
  fresh ticket.  Its ``digest`` binds it to its work content, and its
  :func:`job_name` is unique per attempt, so no two attempts can be
  confused.
* **lease** — once a worker holds the job, a :func:`lease_document`
  names the owner and a deadline.  The worker's :func:`heartbeat`
  thread renews it, and stops renewing once the shard's wall-clock
  budget (the supervisor's ``shard_timeout``) is spent.  A *hung*
  worker's lease therefore lapses just like a *dead* worker's.
* **reclaim** — a lapsed lease is a failed attempt
  (:func:`classify_lease`, :func:`classify_expiry`): ``hang`` if the
  budget was spent, ``crash`` otherwise.  The supervisor's
  ``classify_exception`` policy then decides whether a fresh attempt
  (a new ticket) is dispatched or the shard is quarantined.
* **result** — a digest-checked envelope settles its ticket through
  :func:`merge_job_results`.  Rows also land in the content-addressed
  cache under the single-host key, so a campaign SIGKILLed at any
  point, coordinator or workers, resumes to the same bytes.

Stale attempts are harmless by construction: a zombie's late envelope
names a retired ticket and is dropped, and because workers are pure
functions of their payloads, a duplicated computation produces
identical rows anyway.  Topology changes scheduling, never content.

Socket leases live on the coordinator's :func:`time.perf_counter`.
:func:`now_s` is the runtime's one wall-clock read: it stamps worker
events and serves ``repro cache gc --max-age``, never content.  The
determinism lint allowlists exactly that read in this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..canon import stable_digest
from .transport import AttemptOutcome

#: Default lease duration; a dead worker is detected within about one
#: lease of its last heartbeat.
DEFAULT_LEASE_S = 2.0


def now_s() -> float:
    """The runtime's single blessed wall-clock read.

    Worker events carry a wall-clock timestamp, and ``repro cache gc
    --max-age`` compares file ages against it.  Neither reaches shard
    content, and lease deadlines use :func:`time.perf_counter`
    instead.  Confining the read here keeps the determinism lint's
    allowlist to one call in one file.
    """
    return time.time()


# ---------------------------------------------------------------------------
# pure protocol functions (merge and classify contracts in `repro analyze`)
# ---------------------------------------------------------------------------

def job_name(ticket: int, key: str = "") -> str:
    """The job id for dispatch *ticket*: unique per attempt, sorts in
    ticket order."""
    return f"{ticket:08d}-{key[:12] if key else 'nokey'}"


def job_document(ticket: int, worker: str, payload: Dict[str, Any],
                 key: str = "", label: str = "",
                 timeout: Optional[float] = None,
                 lease_s: float = DEFAULT_LEASE_S) -> Dict[str, Any]:
    """One dispatched attempt, as the body of a ``JOB`` frame (pure;
    JSON-able).

    ``digest`` binds the job to its work content — a result envelope
    must echo it, so an envelope can never be credited to a job whose
    payload it did not compute.
    """
    return {
        "job": job_name(ticket, key),
        "ticket": ticket,
        "worker": worker,
        "payload": payload,
        "key": key,
        "label": label,
        "timeout": timeout,
        "lease_s": lease_s,
        "digest": stable_digest({"worker": worker, "payload": payload},
                                length=16),
    }


def classify_expiry(elapsed_s: float,
                    timeout: Optional[float]) -> str:
    """What an expired lease means (pure).

    An attempt that outlived its wall-clock budget before its lease
    lapsed stopped heartbeating *on purpose* — that is a ``hang``;
    anything else went silent early, which is what death (or a network
    partition) looks like — a ``crash``.  Either way the supervisor's
    ``classify_exception`` policy decides retry vs. quarantine.
    """
    return "hang" if timeout is not None \
        and elapsed_s >= float(timeout) else "crash"


def lease_document(job: str, owner: str, claimed_at: float, now: float,
                   term_s: float, renewals: int = 0) -> Dict[str, Any]:
    """A lease: *owner* holds *job* until ``now + term_s`` (pure);
    each renewal is a fresh one with the original *claimed_at*."""
    return {"job": job, "owner": owner, "claimed_at": claimed_at,
            "expires_at": now + term_s, "renewals": renewals}


def classify_lease(job: Dict[str, Any], lease: Dict[str, Any],
                   now: float) -> Optional[AttemptOutcome]:
    """The lease-expiry step (pure).

    None while *lease* is live at *now*; once it lapsed, the
    ``crash``/``hang`` outcome (:func:`classify_expiry`) owed for the
    attempt *job* was dispatched as.  A lease naming no owner is the
    grace window of a claim whose claimant never wrote its lease.
    """
    if float(lease.get("expires_at", 0.0)) > now:
        return None
    owner = str(lease.get("owner") or "")
    elapsed_s = now - float(lease.get("claimed_at", now))
    detail = f"lease expired (owner {owner})" if owner \
        else "claimed but never leased"
    return AttemptOutcome(
        ticket=job["ticket"],
        outcome=classify_expiry(elapsed_s, job.get("timeout")),
        message=f"{detail} after {elapsed_s:.2f}s",
        elapsed_ms=elapsed_s * 1000.0, owner=owner)


def merge_job_results(envelopes: List[Dict[str, Any]],
                      expected: Dict[str, Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
    """The authoritative envelope per outstanding ticket (pure).

    *expected* maps ``str(ticket)`` to the job document it was
    dispatched as.  Envelopes that are malformed, name no outstanding
    ticket, or fail the job/digest echo are dropped — that is what
    makes a reclaimed zombie's late result inert.  If duplicates
    survive (two attempts raced to completion before a reclaim), the
    smallest ``(outcome, owner)`` wins; the choice is deterministic
    and content-neutral because workers are pure functions of the
    payload, so rival ``ok`` envelopes carry identical rows.
    """
    chosen: Dict[int, Dict[str, Any]] = {}
    valid = []
    for envelope in envelopes:
        if not isinstance(envelope, dict):
            continue
        ticket = envelope.get("ticket")
        document = expected.get(str(ticket))
        if document is None:
            continue
        if envelope.get("job") != document.get("job"):
            continue
        if envelope.get("digest") != document.get("digest"):
            continue
        outcome = envelope.get("outcome")
        if outcome not in ("ok", "error"):
            continue
        if outcome == "ok" and not isinstance(envelope.get("rows"), list):
            continue
        valid.append(envelope)
    valid.sort(key=lambda env: (env["ticket"],
                                0 if env["outcome"] == "ok" else 1,
                                str(env.get("owner", ""))))
    for envelope in valid:
        chosen.setdefault(envelope["ticket"], envelope)
    return [chosen[ticket] for ticket in sorted(chosen)]


# ---------------------------------------------------------------------------
# the worker-side lease renewal
# ---------------------------------------------------------------------------

def heartbeat(job: Dict[str, Any], renew: Callable[[int], bool],
              stop: threading.Event) -> None:
    """Call ``renew(n)`` every third of a lease until *stop* is set.

    Two deliberate silences: once the job's wall-clock budget is spent
    the lease is left to lapse, so the coordinator reclaims a *hang*
    exactly as it reclaims a death; and once *renew* returns False (the
    claim was retracted, the connection died) renewing again would only
    fight the reclaim, so the attempt is forfeit.
    """
    lease_s = float(job.get("lease_s") or DEFAULT_LEASE_S)
    interval = max(0.05, lease_s / 3.0)
    timeout = job.get("timeout")
    started = time.perf_counter()
    renewals = 0
    while not stop.wait(interval):
        if timeout is not None \
                and time.perf_counter() - started > float(timeout):
            return
        renewals += 1
        if not renew(renewals):
            return


# ---------------------------------------------------------------------------
# local fleet helpers (`repro run --transport socket` sits on these)
# ---------------------------------------------------------------------------

def spawn_workers(channel: List[str], count: int, prefix: str,
                  cache_dir: Optional[str] = None,
                  cache_enabled: bool = True,
                  events_dir: Optional[str] = None
                  ) -> List["subprocess.Popen"]:
    """Start *count* ``repro worker`` subprocesses, ids ``prefix-N``.

    *channel* is the worker flags naming the coordinator
    (``--connect HOST:PORT ...``).  The children inherit this
    interpreter and get ``src`` on their ``PYTHONPATH``, so the helper
    works from a source checkout exactly like the CI smokes do.
    Callers own the processes and wind them down with the
    coordinator's stop broadcast and :func:`join_workers`.
    """
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    processes = []
    for index in range(count):
        worker_id = f"{prefix}-{index}"
        command = [sys.executable, "-m", "repro", "worker", *channel,
                   "--id", worker_id]
        if not cache_enabled:
            command.append("--no-cache")
        elif cache_dir:
            command.extend(["--cache-dir", cache_dir])
        if events_dir:
            command.extend(["--events",
                            os.path.join(events_dir,
                                         f"{worker_id}.events.jsonl")])
        processes.append(subprocess.Popen(command, env=env))
    return processes


def join_workers(processes: List["subprocess.Popen"],
                 timeout_s: float = 5.0) -> None:
    """Wait for a local fleet to exit; escalate to kill on stragglers
    (a worker wedged inside a hung shard cannot drain politely)."""
    for process in processes:
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            process.kill()
            try:
                process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                pass
