"""Worker transports: how shard attempts reach compute and come back.

:class:`~repro.runtime.supervisor.SupervisedExecutor` owns *policy* —
retry budgets, backoff, quarantine, cache persistence, the manifest —
and delegates *mechanism* to a :class:`ShardTransport`: something that
can take dispatched attempts and eventually report, for each, one
:class:`AttemptOutcome` (``ok`` / ``error`` / ``crash`` / ``hang``).

Three implementations exist, and every one computes a shard through
the same :func:`~repro.runtime.executor.execute_job` step and credits
its result envelope through the same :func:`envelope_outcome`:

* :class:`InProcessTransport` (here) — serial execution in the calling
  process, the default for one worker without a shard timeout;
* :class:`PipePoolTransport` (here) — a per-host pool of worker
  processes talking over pipes, with EOF crash detection, per-shard
  wall-clock timeouts, and lazy worker spawning;
* :class:`~repro.runtime.sock.SocketTransport` — a multi-host fleet
  over framed TCP, with no shared filesystem: ``repro worker
  --connect`` workers dial in, job and envelope documents ride as
  frames, leases are renewed by heartbeat frames, and a hostile wire
  degrades to typed protocol errors, never divergent bytes.

The contract that keeps every topology byte-identical: transports move
*attempts*, never *content*.  A transport may reorder, retry-signal,
or duplicate work, but rows are pure functions of their payloads and
the supervisor reorders results into spec order, so the merged bytes
cannot depend on which transport (or how many machines) carried them.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from .executor import execute_job

#: Outcome tags a transport may report (mirrors ShardAttempt.outcome).
ATTEMPT_OUTCOMES = ("ok", "error", "crash", "hang")


@dataclass(frozen=True)
class AttemptOutcome:
    """What one dispatched attempt came back with.

    ``ticket`` echoes the dispatch ticket, ``outcome`` is one of
    :data:`ATTEMPT_OUTCOMES`; ``rows`` is set for ``ok``, ``type_name``
    / ``message`` for the rest.  ``owner`` names the worker that
    carried the attempt (pool slot or fleet worker id) — provenance
    for the monitor's lifecycle events, never content.
    """

    ticket: int
    outcome: str
    rows: Optional[List[Dict[str, Any]]] = None
    type_name: str = ""
    message: str = ""
    elapsed_ms: float = 0.0
    owner: str = ""


class ShardTransport:
    """The interface a supervised run drives (abstract).

    The supervisor calls :meth:`slots` to learn how many attempts it
    may dispatch right now, :meth:`dispatch` to hand one over,
    :meth:`poll` to collect finished outcomes (blocking at most
    ``timeout_s``), and :meth:`close` exactly once at the end.  A
    dispatched ticket is owed exactly one outcome; hang detection is
    the transport's job (it owns the clocks), retry policy is not.
    """

    def slots(self) -> int:
        """How many more attempts may be dispatched right now."""
        raise NotImplementedError

    def dispatch(self, ticket: int, worker: str,
                 payload: Dict[str, Any], key: str = "",
                 label: str = "") -> None:
        """Hand one attempt to the transport (must not block on work)."""
        raise NotImplementedError

    def poll(self, timeout_s: float) -> List[AttemptOutcome]:
        """Outcomes that completed since the last poll (may be empty)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers/files; outstanding attempts are abandoned."""
        raise NotImplementedError


def envelope_outcome(envelope: Dict[str, Any]) -> AttemptOutcome:
    """The :class:`AttemptOutcome` a result envelope reports — the one
    conversion every transport credits envelopes through."""
    common = dict(ticket=envelope["ticket"],
                  elapsed_ms=float(envelope.get("elapsed_ms", 0.0)),
                  owner=str(envelope.get("owner", "")))
    if envelope["outcome"] == "ok":
        return AttemptOutcome(outcome="ok", rows=envelope["rows"], **common)
    return AttemptOutcome(outcome="error",
                          type_name=str(envelope.get("type", "")),
                          message=str(envelope.get("message", "")),
                          **common)


class InProcessTransport(ShardTransport):
    """Serial execution in the calling process: no fork, no pipes.

    One attempt at a time, run by the :meth:`poll` after its dispatch,
    so results still stream into the cache shard by shard.  Nothing
    here can kill a hung attempt: runs with a shard timeout use the
    pipe pool.
    """

    OWNER = "inproc"

    def __init__(self) -> None:
        self._queued: Deque[Dict[str, Any]] = deque()
        #: Never set: waiting on it is the bounded idle tick of a poll
        #: with nothing queued (a backoff drain), not a spin.
        self._idle = threading.Event()

    def slots(self) -> int:
        return 0 if self._queued else 1

    def dispatch(self, ticket: int, worker: str,
                 payload: Dict[str, Any], key: str = "",
                 label: str = "") -> None:
        self._queued.append({"ticket": ticket, "worker": worker,
                             "payload": payload})

    def poll(self, timeout_s: float) -> List[AttemptOutcome]:
        if not self._queued:
            self._idle.wait(timeout_s)
            return []
        envelope = execute_job(self._queued.popleft(), owner=self.OWNER,
                               isolated=False)
        return [envelope_outcome(envelope)]

    def close(self) -> None:
        self._queued.clear()


def _worker_loop(conn, parent_ends) -> None:
    """Body of one pooled worker process.

    Receives job documents over *conn* and answers each with its
    :func:`~repro.runtime.executor.execute_job` envelope.  Exits on
    the ``None`` sentinel — or on EOF, which is what a dead parent
    looks like, so orphaned workers die instead of spinning.  EOF only
    arrives once no process holds the parent's pipe ends, so the
    copies a fork inherited (*parent_ends*) are closed first.
    """
    for end in parent_ends:
        end.close()
    owner = f"pool:pid{os.getpid()}"
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        conn.send(execute_job(job, owner=owner))


class _Worker:
    """One pooled worker process plus its command pipe."""

    def __init__(self, context, siblings: List["_Worker"]) -> None:
        self.conn, child_conn = multiprocessing.Pipe()
        parent_ends = [self.conn] + [w.conn for w in siblings]
        self.process = context.Process(target=_worker_loop,
                                       args=(child_conn, parent_ends),
                                       daemon=True)
        self.process.start()
        # The parent must not hold the child's pipe end open, or EOF
        # (our crash detector) would never be delivered.
        child_conn.close()
        self.ticket: Optional[int] = None
        self.started = 0.0

    @property
    def owner(self) -> str:
        return f"pool:pid{self.process.pid}"

    def assign(self, ticket: int, worker: str,
               payload: Dict[str, Any]) -> None:
        self.ticket = ticket
        self.started = time.perf_counter()
        self.conn.send({"ticket": ticket, "worker": worker,
                        "payload": payload})

    def shutdown(self) -> None:
        """Best-effort graceful stop, then force-kill."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=1.0)
        self.conn.close()

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=5.0)
        self.conn.close()


class PipePoolTransport(ShardTransport):
    """The per-host pipe pool, factored out of the PR-4 supervisor.

    Workers are spawned lazily up to *workers*, so a 2-shard run under
    an 8-worker budget starts 2 processes, exactly as before.  A
    worker that dies mid-shard (EOF on its pipe) is replaced and the
    attempt reported as ``crash``; one that outlives *shard_timeout*
    is killed, replaced, and reported as ``hang``.
    """

    def __init__(self, workers: int = 1,
                 shard_timeout: Optional[float] = None) -> None:
        self.max_workers = max(1, workers)
        self.shard_timeout = shard_timeout
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:
            self._context = multiprocessing.get_context()
        self._workers: List[_Worker] = []

    # -- interface -----------------------------------------------------

    def slots(self) -> int:
        idle = sum(1 for w in self._workers if w.ticket is None)
        return idle + (self.max_workers - len(self._workers))

    def dispatch(self, ticket: int, worker: str,
                 payload: Dict[str, Any], key: str = "",
                 label: str = "") -> None:
        while True:
            slot = self._idle_worker()
            try:
                slot.assign(ticket, worker, payload)
            except (OSError, ValueError):
                # The idle worker died between shards: replace it and
                # assign again — dispatch must not lose the attempt.
                self._replace(slot)
                continue
            return

    def poll(self, timeout_s: float) -> List[AttemptOutcome]:
        outcomes: List[AttemptOutcome] = []
        busy = [w for w in self._workers if w.ticket is not None]
        # Idle pipes are never readable, so waiting on them when
        # nothing is busy is a bounded idle tick, not a spin.
        conns = [w.conn for w in (busy or self._workers)]
        if not conns:
            return outcomes
        for conn in multiprocessing.connection.wait(conns,
                                                    timeout=timeout_s):
            slot = next(w for w in self._workers if w.conn is conn)
            ticket = slot.ticket
            if ticket is None:
                continue
            owner = slot.owner
            try:
                message = slot.conn.recv()
            except (EOFError, OSError):
                # Worker process died mid-shard: restart it and report
                # the attempt as a crash.
                elapsed = (time.perf_counter() - slot.started) * 1000.0
                exitcode = slot.process.exitcode
                self._replace(slot)
                outcomes.append(AttemptOutcome(
                    ticket=ticket, outcome="crash",
                    message=f"worker exited (code {exitcode})",
                    elapsed_ms=elapsed, owner=owner))
                continue
            slot.ticket = None
            outcomes.append(envelope_outcome(message))
        if self.shard_timeout is not None:
            now = time.perf_counter()
            for slot in list(self._workers):
                ticket = slot.ticket
                if ticket is None or now - slot.started <= self.shard_timeout:
                    continue
                # Hung shard: kill the worker, restart, report.
                elapsed = (now - slot.started) * 1000.0
                owner = slot.owner
                self._replace(slot)
                outcomes.append(AttemptOutcome(
                    ticket=ticket, outcome="hang",
                    message=(f"exceeded shard timeout "
                             f"({self.shard_timeout:g}s)"),
                    elapsed_ms=elapsed, owner=owner))
        return outcomes

    def close(self) -> None:
        for slot in self._workers:
            slot.shutdown()
        self._workers = []

    # -- pool plumbing -------------------------------------------------

    def _idle_worker(self) -> _Worker:
        for slot in self._workers:
            if slot.ticket is None:
                return slot
        slot = _Worker(self._context, self._workers)
        self._workers.append(slot)
        return slot

    def _replace(self, slot: _Worker) -> None:
        slot.kill()
        siblings = [w for w in self._workers if w is not slot]
        self._workers[self._workers.index(slot)] = \
            _Worker(self._context, siblings)


def local_transport(workers: int = 1,
                    shard_timeout: Optional[float] = None
                    ) -> ShardTransport:
    """The single-host transport for a run: in-process for one worker
    without a shard timeout (nothing to fork, nothing to kill), else
    the pipe pool."""
    if workers <= 1 and shard_timeout is None:
        return InProcessTransport()
    return PipePoolTransport(workers, shard_timeout)
