"""The fleet's lease table: job documents, leases, and result checks.

The socket fleet (:mod:`repro.runtime.sock`) spreads a campaign's
shards over ``repro worker`` processes on any number of hosts.  This
module holds the pure rules that decide each attempt's fate.  An
attempt moves through four states:

* **dispatch** — the attempt becomes a :func:`job_document` under a
  fresh ticket.  Its ``digest`` binds it to its work content, and its
  :func:`job_name` is unique per attempt, so no two attempts can be
  confused.
* **lease** — once a worker holds the job, the coordinator keeps one
  :class:`Lease` for it: the carrying connection, the owner, and a
  deadline.  The worker's :func:`heartbeat` thread renews it, and
  stops renewing once the shard's wall-clock budget (the supervisor's
  ``shard_timeout``) is spent.  A *hung* worker's lease therefore
  lapses just like a *dead* worker's.
* **reclaim** — a lapsed lease is a failed attempt
  (:func:`classify_lease`, :func:`classify_expiry`): ``hang`` if the
  budget was spent, ``crash`` otherwise.  The supervisor's
  ``classify_exception`` policy then decides whether a fresh attempt
  (a new ticket) is dispatched or the shard is quarantined.
* **result** — the first envelope that :func:`classify_result` finds
  valid for a leased job settles its ticket and retires the lease.
  Rows also land in the content-addressed cache under the single-host
  key, so a campaign SIGKILLed at any point, coordinator or workers,
  resumes to the same bytes.

Stale attempts are harmless by construction: a zombie's late envelope
names a retired job and is dropped, and because workers are pure
functions of their payloads, a duplicated computation produces
identical rows anyway.  Topology changes scheduling, never content.

Socket leases live on the coordinator's :func:`time.perf_counter`.
:func:`now_s` is the runtime's one wall-clock read: it stamps worker
events and serves ``repro cache gc --max-age``, never content.  The
determinism lint allowlists exactly that read in this file.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

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
# pure protocol functions (classify contracts in `repro analyze`)
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


@dataclass
class Lease:
    """One leased job in the coordinator's table.

    *peer* is the connection carrying the attempt (None while its
    worker is disconnected) and *owner* the worker id it said HELLO
    with.  A renewal moves only *expires_at*, so the age since
    *claimed_at* still tells a hang from a crash.
    """

    job: Dict[str, Any]
    peer: Any
    owner: str
    claimed_at: float
    expires_at: float


def classify_lease(lease: Lease, now: float) -> Optional[AttemptOutcome]:
    """The lease-expiry step (pure).

    None while *lease* is live at *now*; once it lapsed, the
    ``crash``/``hang`` outcome (:func:`classify_expiry`) owed for the
    attempt its job was dispatched as.
    """
    if lease.expires_at > now:
        return None
    elapsed_s = now - lease.claimed_at
    timeout = lease.job.get("timeout")
    outcome = classify_expiry(elapsed_s, timeout)
    message = f"lease expired (owner {lease.owner}) after {elapsed_s:.2f}s"
    if outcome == "hang":
        message = f"exceeded shard timeout ({float(timeout):g}s); {message}"
    return AttemptOutcome(
        ticket=lease.job["ticket"], outcome=outcome, message=message,
        elapsed_ms=elapsed_s * 1000.0, owner=lease.owner)


def classify_result(envelope: Dict[str, Any],
                    job: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why a result envelope cannot settle *job*, or None if it can
    (pure).

    *job* is the document of the leased job the envelope names (None
    when it names none, as a reclaimed zombie's late result does).  The
    envelope must echo the job id, ticket and digest, report ``ok`` or
    ``error``, and carry a row list when ``ok``: an envelope can never
    be credited to a job whose payload it did not compute.
    """
    if job is None:
        return "no leased job"
    if envelope.get("job") != job["job"]:
        return "job id mismatch"
    if envelope.get("ticket") != job["ticket"]:
        return "ticket mismatch"
    if envelope.get("digest") != job["digest"]:
        return "digest mismatch"
    outcome = envelope.get("outcome")
    if outcome not in ("ok", "error"):
        return "bad outcome"
    if outcome == "ok" and not isinstance(envelope.get("rows"), list):
        return "rows are not a list"
    return None


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
