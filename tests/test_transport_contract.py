"""Transport conformance suite: one contract, three harnesses.

:class:`~repro.runtime.transport.ShardTransport` is the seam that
keeps every topology byte-identical — the supervisor owns policy, the
transport moves attempts.  This suite drives the *same* obligations
through both implementations behind three worker harnesses, each the
way a run uses it: ``pipe`` names the local forked fleet
(:func:`~repro.runtime.sock.local_transport` with a shard timeout, a
socket transport that owns its workers), ``socket`` a TCP coordinator
with in-process workers dialing in, ``inprocess`` serial execution:

* ``slots()`` is positive on a fresh transport;
* every dispatched ticket is owed exactly one outcome, tagged with a
  known outcome kind, with rows on ``ok`` and a type name on
  ``error``;
* with a single worker, outcomes arrive in dispatch order;
* ``poll`` honours its timeout bound even when nothing is running;
* ``close`` is idempotent and safe with attempts outstanding;
* a worker that raises reports ``error`` (never a lost ticket, never
  a transport exception).

A new transport implementation earns its place by passing this file
unmodified — add it to ``TRANSPORTS`` and provide a harness.
"""

from __future__ import annotations

import json
import threading
import time
from typing import List

import pytest

from repro.datasets import CorpusConfig
from repro.runtime import (
    ArtifactCache,
    CorpusRunConfig,
    SocketTransport,
    SocketWorker,
)
from repro.runtime.sharding import corpus_shards
from repro.runtime.sock import local_transport
from repro.runtime.transport import ATTEMPT_OUTCOMES, InProcessTransport

#: 4 shards of 8 corpus records: enough to see ordering, fast to run.
CORPUS_CONFIG = CorpusRunConfig(corpus=CorpusConfig(size=32, seed=13),
                                shards=4)

TRANSPORTS = ("pipe", "socket", "inprocess")


def specs():
    return corpus_shards(CORPUS_CONFIG)


class Harness:
    """One transport plus whatever worker machinery it needs."""

    def __init__(self, kind: str, fleet: int = 1):
        self.kind = kind
        self._threads: List[threading.Thread] = []
        self._workers: List[SocketWorker] = []
        if kind == "pipe":
            self.transport = local_transport(fleet, shard_timeout=60.0)
        elif kind == "socket":
            self.transport = SocketTransport("127.0.0.1", 0,
                                             lease_s=0.5)
            for index in range(fleet):
                worker = SocketWorker(
                    self.transport.host, self.transport.port,
                    f"cw{index}", cache=ArtifactCache(enabled=False),
                    recv_timeout_s=0.05, backoff_base_s=0.01,
                    backoff_cap_s=0.1)
                self._workers.append(worker)
                self._start(worker.run)
        elif kind == "inprocess":
            self.transport = InProcessTransport()
        else:
            raise ValueError(kind)

    def _start(self, target):
        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        self._threads.append(thread)

    def dispatch_spec(self, ticket: int, spec) -> None:
        self.transport.dispatch(ticket, spec.worker, spec.payload,
                                spec.key(), spec.label)

    def run_to_completion(self, items, timeout_s: float = 60.0):
        """Drive dispatch/poll the way the supervisor does: dispatch
        while slots allow, poll for outcomes, until every ticket is
        accounted for.  Returns outcomes in arrival order."""
        pending = list(enumerate(items))
        outcomes = []
        deadline = time.perf_counter() + timeout_s
        while len(outcomes) < len(items):
            assert time.perf_counter() < deadline, \
                f"only {len(outcomes)}/{len(items)} outcomes in time"
            while pending and self.transport.slots() > 0:
                ticket, spec = pending.pop(0)
                self.dispatch_spec(ticket, spec)
            outcomes.extend(self.transport.poll(0.1))
        return outcomes

    def close(self):
        # The socket transport's close broadcasts stop to its workers.
        self.transport.close()
        for thread in self._threads:
            thread.join(timeout=10.0)


@pytest.fixture(params=TRANSPORTS)
def harness(request):
    built = Harness(request.param)
    yield built
    built.close()


class TestTransportContract:
    def test_slots_positive_on_fresh_transport(self, harness):
        assert harness.transport.slots() > 0

    def test_every_ticket_owed_exactly_one_outcome(self, harness):
        items = specs()
        outcomes = harness.run_to_completion(items)
        assert sorted(o.ticket for o in outcomes) == \
            list(range(len(items)))
        for outcome in outcomes:
            assert outcome.outcome in ATTEMPT_OUTCOMES
            assert outcome.outcome == "ok"
            assert isinstance(outcome.rows, list) and outcome.rows
            assert outcome.owner != ""

    def test_single_worker_completes_in_dispatch_order(self, harness):
        outcomes = harness.run_to_completion(specs())
        assert [o.ticket for o in outcomes] == \
            list(range(len(specs())))

    def test_rows_are_topology_independent(self, harness, tmp_path):
        """The heart of the byte-identity contract: rows that come
        back through any transport equal a direct in-process call."""
        from repro.runtime.executor import resolve_worker
        items = specs()[:2]
        outcomes = harness.run_to_completion(items)
        by_ticket = {o.ticket: o for o in outcomes}
        for ticket, spec in enumerate(items):
            direct = resolve_worker(spec.worker)(spec.payload)
            assert json.dumps(by_ticket[ticket].rows, sort_keys=True) \
                == json.dumps(direct, sort_keys=True)

    def test_poll_timeout_is_bounded_when_idle(self, harness):
        started = time.perf_counter()
        assert harness.transport.poll(0.2) == []
        assert time.perf_counter() - started < 2.0

    def test_worker_exception_reports_error_not_loss(self, harness):
        harness.transport.dispatch(
            0, "no.such.module:worker", {"x": 1}, "", "bad")
        deadline = time.perf_counter() + 30.0
        outcomes = []
        while not outcomes:
            assert time.perf_counter() < deadline
            outcomes = harness.transport.poll(0.1)
        outcome, = outcomes
        assert outcome.ticket == 0
        assert outcome.outcome == "error"
        assert outcome.type_name == "ModuleNotFoundError"

    def test_close_is_idempotent(self, harness):
        harness.close()
        harness.transport.close()
        harness.transport.close()
