"""Supervised shard execution: the one path every run takes.

:func:`repro.runtime.run_experiment` always runs its shards through
:class:`SupervisedExecutor`, whatever the topology:

* **streaming persistence** — shards are dispatched over a
  :class:`~repro.runtime.transport.ShardTransport` and each result is
  written to the :class:`~repro.runtime.cache.ArtifactCache` the
  moment it arrives, so a run interrupted by anything (SIGKILL
  included) resumes for free from the cache;
* **per-shard wall-clock timeouts** — a shard still running that long
  after its worker took it is reclaimed on the transport's clock (and
  the worker killed, if the transport forked it), and retried;
* **bounded retries with deterministic classification** — a failed
  attempt is classified via :mod:`repro.faults.classify`:
  ``transient`` faults (and worker crashes/hangs) retry with capped
  exponential backoff, ``permanent``/``poison`` faults quarantine
  immediately;
* **worker loss** — a crashed worker is detected (its process exits or
  its lease lapses) and the attempt requeued; the run keeps going;
* **degraded-mode completion** — with ``allow_partial=True`` the run
  finishes with whatever rows survived, and the run record
  (:class:`~repro.runtime.result.RunManifest`, one
  :class:`~repro.runtime.result.ShardState` per shard) holds every
  attempt and quarantine, so partial results always say what they
  lack.  Without it, :class:`ShardQuarantinedError` is raised *after*
  all healthy shards completed and persisted — the next invocation
  recomputes only the quarantined/missing ones.

The split with the transport layer: this class owns **policy** (retry
budgets, backoff, quarantine, cache persistence, the manifest), the
transport owns **mechanism**.  Every transport computes a shard
through the one execute step
(:func:`~repro.runtime.executor.execute_job`) and reports it through
the one envelope conversion
(:func:`~repro.runtime.transport.envelope_outcome`); the socket fleet
adds a heartbeat and a pure lease-expiry step
(:mod:`repro.runtime.dist`).  Without an injected transport each run
gets :func:`~repro.runtime.sock.local_transport`: in-process for one
worker without a shard timeout, otherwise a forked loopback fleet.

Determinism contract: supervision changes scheduling, never content.
Workers stay pure functions of their payloads, results are reordered
back into spec order, and a run that needed three attempts for one
shard — on any transport, at any topology — is byte-identical to an
undisturbed serial run.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..faults.classify import FaultClass, classify_exception
from .cache import ArtifactCache
from .executor import ShardSpec
from .result import RunManifest, ShardAttempt, ShardState
from .sock import local_transport
from .transport import ShardTransport

#: How long one transport poll blocks per supervision tick; bounds
#: hang-detection latency.
_TICK_S = 0.05


class ShardQuarantinedError(RuntimeError):
    """Raised (without ``allow_partial``) when shards were quarantined.

    Every healthy shard has already completed and persisted to the
    cache by the time this raises, so a follow-up invocation only
    recomputes the shards named here.
    """

    def __init__(self, states: List[ShardState]) -> None:
        self.states = states
        details = "; ".join(
            f"{state.label or state.index}: {state.quarantine_reason}"
            for state in states)
        super().__init__(
            f"{len(states)} shard(s) quarantined ({details}); completed "
            f"shards are cached — rerun to recompute only these, or pass "
            f"allow_partial=True for a degraded result")


class _Task:
    """One shard's supervision state inside a single run."""

    __slots__ = ("index", "spec", "key", "attempts", "not_before",
                 "backoff_spent")

    def __init__(self, index: int, spec: ShardSpec, key: str) -> None:
        self.index = index
        self.spec = spec
        self.key = key
        self.attempts: List[ShardAttempt] = []
        #: Earliest wall-clock (perf_counter) instant the next attempt
        #: may start — how backoff is enforced without sleeping.
        self.not_before = 0.0
        #: Total backoff already charged against this shard's
        #: wall-clock budget (the shard-timeout cap).
        self.backoff_spent = 0.0


class SupervisedExecutor:
    """Run shard specs under supervision: stream results into the
    cache, retry transient failures, survive worker loss, quarantine
    the rest."""

    def __init__(self, workers: int = 1,
                 cache: Optional[ArtifactCache] = None,
                 shard_timeout: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 1.0,
                 allow_partial: bool = False,
                 transport: Optional[ShardTransport] = None,
                 lifecycle: Optional[Callable[[str, Dict[str, Any]],
                                              None]] = None) -> None:
        self.workers = max(1, workers)
        self.cache = cache if cache is not None else ArtifactCache(enabled=False)
        self.shard_timeout = shard_timeout
        self.max_retries = max(0, max_retries)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.allow_partial = allow_partial
        #: An injected transport is shared across run_shards() calls
        #: and owned (closed) by its creator; None means a per-call
        #: :func:`~repro.runtime.sock.local_transport`.
        self.transport = transport
        #: Optional telemetry hook: called with (state, info) at every
        #: dispatch/settle.  Observation only — never content.
        self.lifecycle = lifecycle
        #: The run record, accumulated across run_shards() calls: one
        #: ShardState per spec, indexed in global spec order.  The api
        #: layer fills in what it alone knows (experiment id, config
        #: digest, code version).
        self.manifest = RunManifest(workers=self.workers)
        #: Dispatch tickets are unique across the executor's lifetime,
        #: so a late outcome from a superseded attempt can never be
        #: credited to a newer one.
        self._next_ticket = 0

    # -- retry policy --------------------------------------------------

    def _backoff_s(self, attempt: int, spent_s: float = 0.0) -> float:
        """Deterministic capped exponential backoff before retry
        *attempt* (the schedule is a pure function of the attempt
        number; only the wall clock feels it).

        With a shard timeout configured, the delay is additionally
        capped at the remaining shard-timeout budget (*spent_s* is the
        backoff already charged), so a transient-retry loop can never
        outlive the shard deadline it is nominally racing.
        """
        delay = min(self.backoff_cap_s,
                    self.backoff_base_s * (2 ** max(0, attempt - 1)))
        if self.shard_timeout is not None:
            delay = min(delay, max(0.0, self.shard_timeout - spent_s))
        return delay

    def _dispose(self, task: _Task, attempt: ShardAttempt,
                 fault_class: FaultClass) -> Tuple[bool, str]:
        """Decide a failed attempt's fate: ``(retry?, reason)``.

        Transient faults retry while budget remains; crashes and hangs
        are transient-with-suspicion — retried, but quarantined as
        *poison* once the budget runs out, because a shard that keeps
        killing workers endangers the pool.  Permanent/poison faults
        quarantine immediately.
        """
        task.attempts.append(attempt)
        if fault_class is FaultClass.TRANSIENT:
            if len(task.attempts) <= self.max_retries:
                return True, ""
            if attempt.outcome in ("crash", "hang"):
                return False, (f"poison: {attempt.outcome} x"
                               f"{len(task.attempts)} ({attempt.error})")
            return False, (f"transient retries exhausted after "
                           f"{len(task.attempts)} attempts "
                           f"({attempt.error})")
        return False, f"{fault_class.value}: {attempt.error}"

    # -- telemetry -----------------------------------------------------

    def _emit(self, state: str, task: _Task, owner: str = "",
              detail: str = "") -> None:
        if self.lifecycle is None:
            return
        self.lifecycle(state, {
            "shard": task.spec.label or str(task.index),
            "worker": owner,
            "attempt": len(task.attempts),
            "detail": detail,
        })

    # -- the supervision loop ------------------------------------------

    def run_shards(self, specs: List[ShardSpec]
                   ) -> List[List[Dict[str, Any]]]:
        """Execute *specs* (cache-first); returns rows per spec.

        Output order always matches spec order, and every spec appends
        one :class:`ShardState` to :attr:`manifest`, so a runner may
        call this any number of times and the record still covers all
        its work.  Quarantined shards yield empty row lists (and a
        manifest entry saying why); with ``allow_partial=False`` a
        :class:`ShardQuarantinedError` is raised once everything else
        has completed and persisted.
        """
        offset = len(self.manifest.shards)
        outputs: List[Optional[List[Dict[str, Any]]]] = [None] * len(specs)
        states: List[Optional[ShardState]] = [None] * len(specs)

        pending: List[_Task] = []
        for index, spec in enumerate(specs):
            key = spec.key() if self.cache.enabled else ""
            cached = self.cache.load(key) if key else None
            if cached is not None:
                outputs[index] = cached
                states[index] = ShardState(
                    index=offset + index, label=spec.label, key=key,
                    outcome="cached", rows=len(cached))
            else:
                pending.append(_Task(index, spec, key))

        if pending:
            self._supervise(pending, outputs, states, offset)

        self.manifest.shards.extend(
            state for state in states if state is not None)
        quarantined = [state for state in states
                       if state is not None and state.outcome == "quarantined"]
        if quarantined and not self.allow_partial:
            raise ShardQuarantinedError(quarantined)
        return [rows if rows is not None else [] for rows in outputs]

    def _supervise(self, pending: List[_Task],
                   outputs: List[Optional[List[Dict[str, Any]]]],
                   states: List[Optional[ShardState]],
                   offset: int) -> None:
        transport = self.transport
        owns_transport = transport is None
        if transport is None:
            transport = local_transport(self.workers, self.shard_timeout)

        ready: Deque[_Task] = deque(pending)
        #: Tasks sitting out a backoff window, ordered by eligibility.
        waiting: List[_Task] = []
        #: ticket -> task, for every attempt the transport carries.
        inflight: Dict[int, _Task] = {}
        live = len(pending)  # tasks not yet succeeded or quarantined

        def settle_success(task: _Task, rows: List[Dict[str, Any]],
                           elapsed_ms: float, owner: str) -> None:
            task.attempts.append(ShardAttempt(
                attempt=len(task.attempts) + 1, outcome="ok",
                elapsed_ms=elapsed_ms))
            # Persist *now* — this is the crash-tolerance linchpin: an
            # interruption one instant later already finds this shard
            # in the cache.
            if task.key:
                self.cache.store(task.key, task.spec.worker, rows)
            outputs[task.index] = rows
            states[task.index] = ShardState(
                index=offset + task.index, label=task.spec.label,
                key=task.key, outcome="computed", rows=len(rows),
                attempts=task.attempts)
            self._emit("computed", task, owner)

        def settle_failure(task: _Task, outcome: str, type_name: str,
                           message: str, elapsed_ms: float,
                           owner: str) -> None:
            nonlocal live
            if outcome == "error":
                fault_class = classify_exception(type_name)
                error = f"{type_name}: {message}" if message else type_name
            else:  # crash / hang are substrate faults: retry-worthy
                fault_class = FaultClass.TRANSIENT
                error = message
            attempt = ShardAttempt(
                attempt=len(task.attempts) + 1, outcome=outcome,
                fault_class=fault_class.value, error=error,
                elapsed_ms=elapsed_ms)
            retry, reason = self._dispose(task, attempt, fault_class)
            if retry:
                delay = self._backoff_s(len(task.attempts),
                                        task.backoff_spent)
                task.backoff_spent += delay
                task.not_before = time.perf_counter() + delay
                waiting.append(task)
                self._emit("retried", task, owner, detail=error)
            else:
                states[task.index] = ShardState(
                    index=offset + task.index, label=task.spec.label,
                    key=task.key, outcome="quarantined",
                    attempts=task.attempts, quarantine_reason=reason)
                live -= 1
                self._emit("quarantined", task, owner, detail=reason)

        try:
            while live > 0:
                now = time.perf_counter()
                # Backoff windows that have elapsed re-enter the queue.
                still_waiting = [t for t in waiting if t.not_before > now]
                for task in waiting:
                    if task.not_before <= now:
                        ready.append(task)
                waiting[:] = still_waiting

                while ready and transport.slots() > 0:
                    task = ready.popleft()
                    ticket = self._next_ticket
                    self._next_ticket += 1
                    inflight[ticket] = task
                    transport.dispatch(ticket, task.spec.worker,
                                       task.spec.payload, task.key,
                                       task.spec.label)
                    self._emit("dispatched", task)

                if not inflight and not ready and not waiting:
                    break

                # One bounded tick: collect whatever completed.  With
                # nothing in flight this is the backoff-drain idle wait
                # (every transport blocks rather than spins).
                for outcome in transport.poll(_TICK_S):
                    task = inflight.pop(outcome.ticket, None)
                    if task is None:
                        continue  # superseded attempt; content-inert
                    if outcome.outcome == "ok":
                        settle_success(task, outcome.rows or [],
                                       outcome.elapsed_ms, outcome.owner)
                        live -= 1
                    else:
                        settle_failure(task, outcome.outcome,
                                       outcome.type_name, outcome.message,
                                       outcome.elapsed_ms, outcome.owner)
        finally:
            if owns_transport:
                transport.close()

