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
  :class:`Lease` for it: the carrying connection, the owner, when it
  was claimed, and a deadline.  The worker's :func:`heartbeat` thread
  renews the deadline for as long as the worker lives.
* **reclaim** — the coordinator alone judges each attempt on its own
  clock (:func:`classify_lease`): ``hang`` once the claim is older
  than the supervisor's ``shard_timeout``, ``crash`` once the lease
  lapsed unrenewed.  The supervisor's ``classify_exception`` policy
  then decides whether a fresh attempt (a new ticket) is dispatched or
  the shard is quarantined.
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
        "lease_s": lease_s,
        "digest": stable_digest({"worker": worker, "payload": payload},
                                length=16),
    }


@dataclass
class Lease:
    """One leased job in the coordinator's table.

    *peer* is the connection carrying the attempt (None while its
    worker is disconnected) and *owner* the worker id it said HELLO
    with.  A renewal moves only *expires_at*: the shard timeout is
    measured from *claimed_at*, however often the worker renews.
    """

    job: Dict[str, Any]
    peer: Any
    owner: str
    claimed_at: float
    expires_at: float


def classify_lease(lease: Lease, now: float,
                   shard_timeout: Optional[float] = None
                   ) -> Optional[AttemptOutcome]:
    """The reclaim step (pure).

    ``hang`` once the claim is *shard_timeout* seconds old at *now*,
    however alive its worker looks; else ``crash`` once the lease
    lapsed unrenewed, which is what death (or a network partition)
    looks like; else None.  Either way the supervisor's
    ``classify_exception`` policy decides retry vs. quarantine.
    """
    elapsed_s = now - lease.claimed_at
    where = f"(owner {lease.owner}) after {elapsed_s:.2f}s"
    if shard_timeout is not None and elapsed_s >= shard_timeout:
        outcome = "hang"
        message = f"exceeded shard timeout ({shard_timeout:g}s) {where}"
    elif lease.expires_at <= now:
        outcome, message = "crash", f"lease expired {where}"
    else:
        return None
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

def heartbeat(job: Dict[str, Any], renew: Callable[[], bool],
              stop: threading.Event) -> None:
    """Call ``renew()`` every third of a lease until *stop* is set.

    The loop judges no budget: a hung shard's worker keeps renewing,
    and the coordinator reclaims the hang at its deadline on its own
    clock.  Once *renew* returns False (the connection died) renewing
    again would only fight the reclaim, so the attempt is forfeit.
    """
    lease_s = float(job.get("lease_s") or DEFAULT_LEASE_S)
    interval = max(0.05, lease_s / 3.0)
    while not stop.wait(interval):
        if not renew():
            return
