"""Worker transports: how shard attempts reach compute and come back.

:class:`~repro.runtime.supervisor.SupervisedExecutor` owns *policy* —
retry budgets, backoff, quarantine, cache persistence, the manifest —
and delegates *mechanism* to a :class:`ShardTransport`: something that
can take dispatched attempts and eventually report, for each, one
:class:`AttemptOutcome` (``ok`` / ``error`` / ``crash`` / ``hang``).

Two implementations exist, and both compute a shard through the same
:func:`~repro.runtime.executor.execute_job` step and credit its result
envelope through the same :func:`envelope_outcome`:

* :class:`InProcessTransport` (here) — serial execution in the calling
  process, the default for one worker without a shard timeout;
* :class:`~repro.runtime.sock.SocketTransport` — a fleet over framed
  TCP, with no shared filesystem: ``repro worker --connect`` workers
  dial in from any host, or it forks its own over loopback
  (:func:`~repro.runtime.sock.local_transport`).  Job and envelope
  documents ride as frames, leases are renewed by heartbeat frames,
  and a hostile wire degrades to typed protocol errors.

The contract that keeps every topology byte-identical: transports move
*attempts*, never *content*.  A transport may reorder, retry-signal,
or duplicate work, but rows are pure functions of their payloads and
the supervisor reorders results into spec order, so the merged bytes
cannot depend on which transport (or how many machines) carried them.
"""

from __future__ import annotations

import threading
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
    carried the attempt (its fleet worker id) — provenance
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
    """Serial execution in the calling process: no fork, no socket.

    One attempt at a time, run by the :meth:`poll` after its dispatch,
    so results still stream into the cache shard by shard.  Nothing
    here can kill a hung attempt: runs with a shard timeout use a
    forked fleet (:func:`~repro.runtime.sock.local_transport`).
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
