"""Filesystem job-queue transport: the supervised runtime, multi-node.

The coordinator (:class:`JobQueueTransport`, driven by
:class:`~repro.runtime.supervisor.SupervisedExecutor`) publishes the
shard plan as claimable job files in a shared queue directory;
independent ``repro worker`` processes (:class:`QueueWorker`) —
potentially on many hosts sharing the queue and artifact-cache
directories — claim jobs, compute them, and publish result envelopes.
Everything is plain files and atomic renames, so the only
infrastructure a fleet needs is a shared filesystem.

Queue directory layout::

    todo/<job>.json      claimable job documents, one per attempt
    claimed/<job>.json   the same document, after a worker won it
    leases/<job>.json    {owner, claimed_at, expires_at}, heartbeat-renewed
    results/<job>.json   result envelopes (rows inline, digest-checked)
    stop                 marker file: workers drain and exit

The protocol, state by state:

* **claim** — a worker atomically renames ``todo/J.json`` to
  ``claimed/J.json``.  :func:`os.replace` admits exactly one winner;
  the loser gets ``FileNotFoundError`` and simply tries the next job,
  which is also the whole work-stealing story: a fast host finishes
  early, polls again, and takes whatever is unleased — no scheduler
  needs to model host speeds.
* **lease** — the winner writes a lease with a deadline and renews it
  from a :func:`heartbeat` thread.  The heartbeat stops renewing once
  the job's wall-clock budget (the supervisor's ``shard_timeout``) is
  exhausted, so a *hung* worker's lease expires just like a *dead*
  worker's does.
* **reclaim** — an expired (or, after a grace window, never-written)
  lease is a failed attempt (:func:`classify_lease`): the coordinator
  retracts the claim, reports ``crash`` or ``hang`` to the supervisor,
  and the supervisor's existing ``classify_exception`` retry/quarantine
  policy decides whether a fresh job (a new ticket) is published or
  the shard is quarantined.
* **result** — rows ride inline in a digest-checked envelope *and*
  land in the content-addressed cache under exactly the same key the
  single-host runtime uses, so a campaign SIGKILLed at any point —
  coordinator or workers — resumes to the same bytes.

Stale attempts are harmless by construction: every dispatch gets a
fresh ticket and job id, a zombie's late envelope matches no
outstanding ticket and is swept, and because workers are pure
functions of their payloads a duplicated computation produces
identical rows anyway.  Topology changes scheduling, never content.

The worker core (:class:`FleetWorker`), lease step, coordinator core
(:class:`FleetCoordinator`) and fleet spawning here serve the socket
fleet (:mod:`repro.runtime.sock`) too.

This module is the runtime's one home for wall-clock reads and
sleeps (`now_s`): leases are real-time contracts between real
processes, unlike everything the shards compute.  The determinism
lint allowlists exactly this file for ``time.time()``/``time.sleep()``
the same way it does the chaos harness's injected faults.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..canon import stable_digest
from .cache import ArtifactCache, write_atomic
from .executor import ShardSpec, execute_job
from .transport import AttemptOutcome, ShardTransport, envelope_outcome

QUEUE_FORMAT = "repro-job"
QUEUE_VERSION = 1

#: Queue-directory substructure.
TODO_DIR = "todo"
CLAIMED_DIR = "claimed"
LEASE_DIR = "leases"
RESULT_DIR = "results"
STOP_MARKER = "stop"

#: Default lease duration; a dead worker is detected within about one
#: lease of its last heartbeat.
DEFAULT_LEASE_S = 2.0
#: Default poll cadence for idle workers and the coordinator.
DEFAULT_POLL_S = 0.05


def now_s() -> float:
    """The runtime's single blessed wall-clock read.

    Leases are deadlines shared between independent processes on a
    real filesystem — unlike shard content, they genuinely live on the
    wall clock.  Confining the read here keeps the determinism lint's
    allowlist to one file.
    """
    return time.time()


# ---------------------------------------------------------------------------
# pure protocol functions (plan + merge contracts in `repro analyze`)
# ---------------------------------------------------------------------------

def job_name(ticket: int, key: str = "") -> str:
    """The job id for dispatch *ticket*: unique per attempt, sorts in
    ticket order so idle workers drain the plan front to back."""
    return f"{ticket:08d}-{key[:12] if key else 'nokey'}"


def job_document(ticket: int, worker: str, payload: Dict[str, Any],
                 key: str = "", label: str = "",
                 timeout: Optional[float] = None,
                 lease_s: float = DEFAULT_LEASE_S) -> Dict[str, Any]:
    """One claimable job file's content (pure; JSON-able).

    ``digest`` binds the job to its work content — a result envelope
    must echo it, so an envelope can never be credited to a job whose
    payload it did not compute.
    """
    return {
        "format": QUEUE_FORMAT,
        "version": QUEUE_VERSION,
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


def queue_shards(specs: List[ShardSpec],
                 timeout: Optional[float] = None,
                 lease_s: float = DEFAULT_LEASE_S,
                 first_ticket: int = 0) -> List[Dict[str, Any]]:
    """The job-queue plan for *specs*: one job document per shard.

    Pure (a ``plan`` contract in ``repro analyze``): the documents
    depend only on the specs and the scheduling parameters, never on
    worker count or topology — which is exactly why cache keys, and
    therefore merged bytes, are identical at any fleet size.
    """
    return [
        job_document(first_ticket + index, spec.worker, spec.payload,
                     spec.key(), spec.label, timeout, lease_s)
        for index, spec in enumerate(specs)
    ]


def classify_expiry(elapsed_s: float,
                    timeout: Optional[float]) -> str:
    """What an expired lease means (pure; shared by every lease-based
    transport — the filesystem queue and the socket coordinator).

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
    """The lease-expiry step (pure; shared by both fleets).

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
# filesystem plumbing
# ---------------------------------------------------------------------------

def _write_atomic(path: str, document: Dict[str, Any]) -> None:
    """Publish *document* at *path*; readers only see whole files."""
    write_atomic(path, json.dumps(document, sort_keys=True))


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """Parse a JSON document, or None if missing/partial/foreign."""
    try:
        with open(path) as stream:
            document = json.load(stream)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class QueuePaths:
    """Path arithmetic for one queue directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.todo = os.path.join(root, TODO_DIR)
        self.claimed = os.path.join(root, CLAIMED_DIR)
        self.leases = os.path.join(root, LEASE_DIR)
        self.results = os.path.join(root, RESULT_DIR)
        self.stop_marker = os.path.join(root, STOP_MARKER)

    def ensure(self) -> None:
        for directory in (self.todo, self.claimed, self.leases,
                          self.results):
            os.makedirs(directory, exist_ok=True)

    def todo_path(self, job: str) -> str:
        return os.path.join(self.todo, f"{job}.json")

    def claimed_path(self, job: str) -> str:
        return os.path.join(self.claimed, f"{job}.json")

    def lease_path(self, job: str) -> str:
        return os.path.join(self.leases, f"{job}.json")

    def result_path(self, job: str) -> str:
        return os.path.join(self.results, f"{job}.json")

    def stop_requested(self) -> bool:
        return os.path.exists(self.stop_marker)


# ---------------------------------------------------------------------------
# the worker loop both fleets share
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


class FleetWorker:
    """What queue and socket workers share: identity, cache, telemetry,
    and the one leased execute step.

    Workers are interchangeable and stateless between jobs: everything
    durable lives in the coordinator and the artifact cache, so any
    number can join or die at any time.  A worker never decides a
    shard's fate — it reports, the coordinator disposes.
    """

    def __init__(self, worker_id: str, cache: Optional[ArtifactCache],
                 events: Optional[Any]) -> None:
        self.worker_id = worker_id
        self.cache = cache
        #: Optional :class:`repro.monitor.events.EventLogWriter`;
        #: receives ``worker`` lifecycle events (telemetry, not content).
        self.events = events

    def _run_job(self, job: Dict[str, Any],
                 renew: Callable[[int], bool]) -> Dict[str, Any]:
        """:func:`~repro.runtime.executor.execute_job` while a
        :func:`heartbeat` thread renews the lease; returns the result
        envelope."""
        label = job.get("label") or job.get("job") or ""
        self._emit("claim", label)
        stop = threading.Event()
        beat = threading.Thread(target=heartbeat, args=(job, renew, stop),
                                daemon=True)
        beat.start()
        try:
            envelope = execute_job(job, self.cache, self.worker_id)
        finally:
            stop.set()
            beat.join(timeout=1.0)
        self._emit("done" if envelope["outcome"] == "ok" else "error",
                   label)
        return envelope

    def _emit(self, state: str, shard: str) -> None:
        if self.events is not None:
            self.events.append("worker", ts=int(now_s()), data={
                "worker": self.worker_id, "state": state, "shard": shard})


# ---------------------------------------------------------------------------
# the worker side (`repro worker`)
# ---------------------------------------------------------------------------

class QueueWorker(FleetWorker):
    """One claim → compute → publish loop over a shared queue."""

    def __init__(self, queue_dir: str, worker_id: str,
                 cache: Optional[ArtifactCache] = None,
                 poll_s: float = DEFAULT_POLL_S,
                 events: Optional[Any] = None) -> None:
        super().__init__(worker_id, cache, events)
        self.paths = QueuePaths(queue_dir)
        self.poll_s = poll_s

    # -- lifecycle ----------------------------------------------------

    def run(self, max_jobs: Optional[int] = None,
            idle_exit_s: Optional[float] = None) -> int:
        """Poll until stopped; returns the number of jobs executed.

        Exits on the queue's ``stop`` marker, after *max_jobs*
        executions, or after *idle_exit_s* seconds without finding
        anything claimable.
        """
        self.paths.ensure()
        done = 0
        idle_since: Optional[float] = None
        while not self.paths.stop_requested():
            if max_jobs is not None and done >= max_jobs:
                break
            job = self.claim_next()
            if job is None:
                now = now_s()
                if idle_exit_s is not None:
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= idle_exit_s:
                        break
                time.sleep(self.poll_s)
                continue
            idle_since = None
            self.execute(job)
            done += 1
        return done

    def claim_next(self) -> Optional[Dict[str, Any]]:
        """Claim the first available job, or None if nothing is there.

        The atomic rename is the whole mutual-exclusion story: exactly
        one claimant's ``os.replace`` succeeds; losers skip to the next
        candidate (work stealing between heterogeneous-speed hosts
        falls out of this loop for free).
        """
        try:
            names = sorted(os.listdir(self.paths.todo))
        except OSError:
            return None
        for name in names:
            if not name.endswith(".json"):
                continue
            job_id = name[:-len(".json")]
            claimed = self.paths.claimed_path(job_id)
            try:
                os.replace(self.paths.todo_path(job_id), claimed)
            except FileNotFoundError:
                continue  # lost the claim race; back off to the next job
            except OSError:
                continue
            job = _read_json(claimed)
            if job is None or job.get("format") != QUEUE_FORMAT:
                _unlink_quiet(claimed)
                continue
            self._write_lease(job, claimed_at=now_s(), renewals=0)
            return job
        return None

    def execute(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run one claimed job and publish its result envelope.

        The heartbeat renews the lease while compute is in flight; the
        envelope is published atomically *before* the claim and lease
        are released, so there is no instant at which the job looks
        both unowned and unfinished.
        """
        claimed_at = now_s()
        envelope = self._run_job(
            job, lambda renewals: self._renew(job, claimed_at, renewals))
        self.paths.ensure()
        _write_atomic(self.paths.result_path(job["job"]), envelope)
        _unlink_quiet(self.paths.claimed_path(job["job"]))
        _unlink_quiet(self.paths.lease_path(job["job"]))
        return envelope

    # -- leases -------------------------------------------------------

    def _write_lease(self, job: Dict[str, Any], claimed_at: float,
                     renewals: int) -> None:
        _write_atomic(self.paths.lease_path(job["job"]), lease_document(
            job["job"], self.worker_id, claimed_at, now_s(),
            float(job.get("lease_s") or DEFAULT_LEASE_S), renewals))

    def _renew(self, job: Dict[str, Any], claimed_at: float,
               renewals: int) -> bool:
        """One heartbeat: rewrite the lease — unless the claim file is
        gone (the coordinator already reclaimed us), when renewing
        would only fight the reclaim."""
        if not os.path.exists(self.paths.claimed_path(job["job"])):
            return False
        self._write_lease(job, claimed_at, renewals)
        return True


# ---------------------------------------------------------------------------
# the coordinator side (a ShardTransport)
# ---------------------------------------------------------------------------

class FleetCoordinator(ShardTransport):
    """What the queue and socket coordinators share; each subclass is
    only its document channel (files, frames).

    The transport itself is the buffer: the supervisor dispatches the
    whole plan and however many workers exist steal from it.  Every
    dispatch is a :func:`job_document` in :attr:`outstanding` until a
    result envelope credits it (:meth:`_credit`) or its lease lapses
    (:meth:`_reclaim_expired`).  *fleet*, when given, starts the worker
    processes the transport owns; it runs on the first dispatch — a
    run served entirely from cache starts no fleet — and ``close()``
    stops and joins them.
    """

    def __init__(self, lease_s: float, shard_timeout: Optional[float],
                 poll_s: float, reclaim_grace_s: Optional[float],
                 fleet: Optional[Callable[..., List["subprocess.Popen"]]]
                 ) -> None:
        self.lease_s = float(lease_s)
        self.shard_timeout = shard_timeout
        self.poll_s = poll_s
        #: How long a fresh claim may go unleased (queue) or
        #: unrenewed (socket) before it counts as dead — covers a
        #: worker killed at the worst possible instant.
        self.reclaim_grace_s = reclaim_grace_s \
            if reclaim_grace_s is not None else max(2.0 * self.lease_s, 1.0)
        #: ticket -> dispatched job document.
        self.outstanding: Dict[int, Dict[str, Any]] = {}
        self._spawn = fleet
        #: The worker processes this transport started.
        self.fleet: List["subprocess.Popen"] = []

    def slots(self) -> int:
        return 1_000_000_000

    def _new_job(self, ticket: int, worker: str, payload: Dict[str, Any],
                 key: str, label: str) -> Dict[str, Any]:
        """Record one dispatch's job document for the channel to send."""
        job = job_document(ticket, worker, payload, key, label,
                           self.shard_timeout, self.lease_s)
        self.outstanding[ticket] = job
        if self._spawn is not None:
            spawn, self._spawn = self._spawn, None
            self.fleet = spawn(self)
        return job

    def _credit(self, envelopes: List[Any]) -> List[AttemptOutcome]:
        """Outcomes for the envelopes that settle outstanding tickets
        (:func:`merge_job_results` decides which do).  Only the tickets
        the envelopes name are looked up: the merge reads no others."""
        expected: Dict[str, Dict[str, Any]] = {}
        for envelope in envelopes:
            ticket = envelope.get("ticket") \
                if isinstance(envelope, dict) else None
            if type(ticket) is int and ticket in self.outstanding:
                expected[str(ticket)] = self.outstanding[ticket]
        outcomes: List[AttemptOutcome] = []
        for envelope in merge_job_results(envelopes, expected):
            job = self.outstanding.pop(envelope["ticket"])
            self._release(job["job"])
            outcomes.append(envelope_outcome(envelope))
        return outcomes

    def _reclaim_expired(self, now: float) -> List[AttemptOutcome]:
        """Expired leases become ``crash``/``hang`` attempt outcomes
        (:func:`classify_lease`); the channel retracts each one."""
        outcomes: List[AttemptOutcome] = []
        for job, lease in self._held(now):
            outcome = classify_lease(job, lease, now)
            if outcome is not None:
                del self.outstanding[job["ticket"]]
                self._retract(job["job"])
                outcomes.append(outcome)
        return outcomes

    # -- the document channel -----------------------------------------

    def _held(self, now: float) -> List[Tuple[Dict[str, Any],
                                              Dict[str, Any]]]:
        """``(job, lease)`` for every outstanding job somebody holds,
        in ticket order."""
        raise NotImplementedError

    def _release(self, job_id: str) -> None:
        """Forget a settled job's claim and lease."""
        raise NotImplementedError

    def _retract(self, job_id: str) -> None:
        """Take a reclaimed job back from its (presumed dead) holder."""
        self._release(job_id)


class JobQueueTransport(FleetCoordinator):
    """The coordinator's view of the queue, as a shard transport.

    One coordinator owns one queue directory: construction resets the
    queue (a fresh coordinator inherits whatever a dead predecessor
    left mid-flight; completed shards come back from the artifact
    cache, so coordinator death costs at most the shards that were in
    flight).  The supervisor keeps all retry/quarantine policy; this
    class only moves attempts and detects their deaths.  An owned
    *fleet* comes from :func:`spawn_local_workers`.
    """

    def __init__(self, queue_dir: str,
                 lease_s: float = DEFAULT_LEASE_S,
                 shard_timeout: Optional[float] = None,
                 poll_s: float = DEFAULT_POLL_S,
                 reclaim_grace_s: Optional[float] = None,
                 fleet: Optional[Callable[..., List["subprocess.Popen"]]]
                 = None) -> None:
        super().__init__(lease_s, shard_timeout, poll_s, reclaim_grace_s,
                         fleet)
        self.paths = QueuePaths(queue_dir)
        #: job id -> when we first saw it claimed-but-unleased.
        self._unleased_since: Dict[str, float] = {}
        self._reset()

    def _reset(self) -> None:
        self.paths.ensure()
        _unlink_quiet(self.paths.stop_marker)
        for directory in (self.paths.todo, self.paths.claimed,
                          self.paths.leases, self.paths.results):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                _unlink_quiet(os.path.join(directory, name))

    # -- interface ----------------------------------------------------

    def dispatch(self, ticket: int, worker: str,
                 payload: Dict[str, Any], key: str = "",
                 label: str = "") -> None:
        job = self._new_job(ticket, worker, payload, key, label)
        self.paths.ensure()
        _write_atomic(self.paths.todo_path(job["job"]), job)

    def poll(self, timeout_s: float) -> List[AttemptOutcome]:
        deadline = time.perf_counter() + timeout_s
        while True:
            outcomes = self._collect_results()
            outcomes.extend(self._reclaim_expired(now_s()))
            remaining = deadline - time.perf_counter()
            if outcomes or remaining <= 0:
                return outcomes
            time.sleep(min(self.poll_s, remaining))

    def close(self) -> None:
        # Only a fleet we started is ours to stop; an external one is
        # stopped by whoever started it (`stop_workers`).
        if self.fleet:
            stop_workers(self.paths.root)
            join_workers(self.fleet)
            self.fleet = []

    # -- the file channel ---------------------------------------------

    def _collect_results(self) -> List[AttemptOutcome]:
        try:
            names = sorted(os.listdir(self.paths.results))
        except OSError:
            return []
        envelopes: List[Dict[str, Any]] = []
        for name in names:
            if not name.endswith(".json"):
                continue
            envelope = _read_json(os.path.join(self.paths.results, name))
            if envelope is not None:
                envelopes.append(envelope)
        outcomes = self._credit(envelopes)
        # Sweep stale envelopes: anything naming a job no longer
        # outstanding is a reclaimed zombie's late echo.
        live = {job["job"] for job in self.outstanding.values()}
        for name in names:
            if not name.endswith(".json"):
                continue
            if name[:-len(".json")] not in live:
                _unlink_quiet(os.path.join(self.paths.results, name))
        return outcomes

    def _release(self, job_id: str) -> None:
        # Retracting the claim file is also what defuses a racing
        # zombie: its heartbeat checks the claim before renewing, so
        # deleting it wins any renewal race within one interval.
        self._unleased_since.pop(job_id, None)
        _unlink_quiet(self.paths.claimed_path(job_id))
        _unlink_quiet(self.paths.lease_path(job_id))

    def _held(self, now: float) -> List[Tuple[Dict[str, Any],
                                              Dict[str, Any]]]:
        held = []
        for _ticket, job in sorted(self.outstanding.items()):
            job_id = job["job"]
            if not os.path.exists(self.paths.claimed_path(job_id)):
                # Still in todo/ (or mid-claim): nothing to time out.
                self._unleased_since.pop(job_id, None)
                continue
            lease = _read_json(self.paths.lease_path(job_id))
            if lease is not None:
                self._unleased_since.pop(job_id, None)
            else:
                # Claimed but never leased (the claimant died between
                # rename and lease write): an ownerless grace lease.
                first = self._unleased_since.setdefault(job_id, now)
                lease = lease_document(job_id, "", first, first,
                                       self.reclaim_grace_s)
            held.append((job, lease))
        return held


# ---------------------------------------------------------------------------
# local fleet helpers (`repro run --transport jobqueue` sits on these)
# ---------------------------------------------------------------------------

def spawn_workers(channel: List[str], count: int, prefix: str,
                  cache_dir: Optional[str] = None,
                  cache_enabled: bool = True,
                  events_dir: Optional[str] = None
                  ) -> List["subprocess.Popen"]:
    """Start *count* ``repro worker`` subprocesses, ids ``prefix-N``.

    *channel* is the worker flags naming the fleet's document channel
    (``--queue-dir DIR ...`` or ``--connect HOST:PORT ...``).  The
    children inherit this interpreter and get ``src`` on their
    ``PYTHONPATH``, so the helper works from a source checkout exactly
    like the CI smokes do.  Callers own the processes and wind them
    down with the channel's stop signal and :func:`join_workers`.
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


def spawn_local_workers(queue_dir: str, count: int,
                        cache_dir: Optional[str] = None,
                        cache_enabled: bool = True,
                        poll_s: float = DEFAULT_POLL_S,
                        events_dir: Optional[str] = None
                        ) -> List["subprocess.Popen"]:
    """Start *count* ``repro worker`` subprocesses against *queue_dir*;
    wind down with :func:`stop_workers` and :func:`join_workers`."""
    return spawn_workers(["--queue-dir", queue_dir, "--poll", str(poll_s)],
                         count, "local", cache_dir=cache_dir,
                         cache_enabled=cache_enabled,
                         events_dir=events_dir)


def stop_workers(queue_dir: str) -> None:
    """Write the ``stop`` marker: workers drain their current job and
    exit their poll loop."""
    paths = QueuePaths(queue_dir)
    os.makedirs(queue_dir, exist_ok=True)
    with open(paths.stop_marker, "w") as stream:
        stream.write("stop\n")


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
