"""Tests for the filesystem job-queue transport (repro.runtime.dist).

Three layers, in increasing realism:

* the pure protocol functions (plan and merge contracts) — shape,
  determinism, and the envelope-validation rules that make stale
  zombies inert;
* the claim/lease/reclaim state machine driven in-process, with the
  edge cases scripted by hand: two claimants racing one job, a lease
  renewed under a slow compute, a lease abandoned by a dead claimant,
  a hang exhausting its wall-clock budget, a heartbeat discovering it
  was reclaimed, and a coordinator dying mid-campaign;
* end-to-end campaigns over real ``repro worker`` subprocesses — the
  byte-identity acceptance contract: serial == pipe pool == 3-process
  job queue, including runs where chaos SIGKILLs a worker mid-shard
  and where a hung shard's lease expires.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.datasets import CorpusConfig
from repro.runtime import (
    ArtifactCache,
    CorpusRunConfig,
    JobQueueTransport,
    QueueWorker,
    SupervisedExecutor,
    job_document,
    merge_job_results,
    queue_shards,
    run_experiment,
    spawn_local_workers,
    resolve_worker,
    stop_workers,
)
from repro.runtime.chaos import chaos_wrap
from repro.runtime.dist import (
    DEFAULT_LEASE_S,
    QueuePaths,
    _write_atomic,
    classify_lease,
    heartbeat,
    job_name,
    join_workers,
    lease_document,
    now_s,
)
from repro.runtime.sharding import corpus_shards

#: Small but multi-shard: 6 shards of 8 corpus records each.
CORPUS_CONFIG = CorpusRunConfig(corpus=CorpusConfig(size=48, seed=11),
                                shards=6)

#: Fast-turnaround queue tuning for in-process protocol tests.
LEASE_S = 0.25
POLL_S = 0.02


def plain_specs():
    return corpus_shards(CORPUS_CONFIG)


def output_bytes(outputs) -> str:
    return json.dumps(outputs, sort_keys=True)


@pytest.fixture
def baseline():
    return output_bytes([resolve_worker(spec.worker)(spec.payload)
                         for spec in plain_specs()])


def make_transport(tmp_path, **kwargs):
    kwargs.setdefault("lease_s", LEASE_S)
    kwargs.setdefault("poll_s", POLL_S)
    return JobQueueTransport(str(tmp_path / "queue"), **kwargs)


def make_worker(tmp_path, worker_id="w0", **kwargs):
    kwargs.setdefault("poll_s", POLL_S)
    kwargs.setdefault("cache", ArtifactCache(enabled=False))
    return QueueWorker(str(tmp_path / "queue"), worker_id, **kwargs)


def poll_until(transport, want: int, timeout_s: float = 10.0):
    """Poll the transport until *want* outcomes arrive (or fail)."""
    outcomes = []
    deadline = time.perf_counter() + timeout_s
    while len(outcomes) < want:
        assert time.perf_counter() < deadline, \
            f"only {len(outcomes)}/{want} outcomes before timeout"
        outcomes.extend(transport.poll(0.2))
    return outcomes


# ---------------------------------------------------------------------------
# pure protocol functions
# ---------------------------------------------------------------------------

class TestProtocolFunctions:
    def test_job_names_sort_in_ticket_order(self):
        names = [job_name(ticket, "abcdef0123456789") for ticket in
                 (0, 2, 10, 999)]
        assert names == sorted(names)
        assert job_name(3) == "00000003-nokey"

    def test_job_document_is_deterministic(self):
        a = job_document(4, "m:f", {"x": 1}, key="k" * 32, label="s4")
        b = job_document(4, "m:f", {"x": 1}, key="k" * 32, label="s4")
        assert a == b
        assert a["job"] == job_name(4, "k" * 32)
        assert a["digest"] == job_document(9, "m:f", {"x": 1})["digest"]
        assert a["digest"] != job_document(4, "m:f", {"x": 2})["digest"]

    def test_queue_shards_plan_matches_specs(self):
        specs = plain_specs()
        plan = queue_shards(specs, timeout=5.0, first_ticket=10)
        assert [job["ticket"] for job in plan] \
            == list(range(10, 10 + len(specs)))
        for job, spec in zip(plan, specs):
            assert job["worker"] == spec.worker
            assert job["payload"] == spec.payload
            assert job["key"] == spec.key()
            assert job["label"] == spec.label
            assert job["timeout"] == 5.0
            assert job["lease_s"] == DEFAULT_LEASE_S
        assert plan == queue_shards(specs, timeout=5.0, first_ticket=10)

    def test_merge_drops_invalid_envelopes(self):
        document = job_document(7, "m:f", {"x": 1}, key="k" * 32)
        expected = {"7": document}
        good = {"job": document["job"], "ticket": 7,
                "digest": document["digest"], "outcome": "ok",
                "rows": [{"r": 1}], "owner": "w0"}
        stale = dict(good, ticket=6)                      # retired ticket
        wrong_job = dict(good, job="00000099-zzz")        # job echo mismatch
        wrong_digest = dict(good, digest="0" * 16)        # payload mismatch
        no_rows = {k: v for k, v in good.items() if k != "rows"}
        bad_outcome = dict(good, outcome="maybe")
        merged = merge_job_results(
            [stale, wrong_job, wrong_digest, no_rows, bad_outcome,
             "not-a-dict", good], expected)
        assert merged == [good]

    def test_merge_duplicates_resolve_deterministically(self):
        document = job_document(3, "m:f", {"x": 1}, key="k" * 32)
        expected = {"3": document}
        base = {"job": document["job"], "ticket": 3,
                "digest": document["digest"]}
        ok_b = dict(base, outcome="ok", rows=[{"r": 1}], owner="wb")
        ok_a = dict(base, outcome="ok", rows=[{"r": 1}], owner="wa")
        error = dict(base, outcome="error", type="ValueError",
                     message="boom", owner="wc")
        # ok sorts before error; owner breaks the ok-vs-ok tie.
        assert merge_job_results([error, ok_b, ok_a], expected) == [ok_a]
        assert merge_job_results([ok_a, error, ok_b], expected) == [ok_a]


class TestLeaseStep:
    """The pure lease-expiry step both fleets reclaim through."""

    JOB = job_document(3, "m:f", {"x": 1}, timeout=1.0)

    def test_live_lease_owes_nothing(self):
        lease = lease_document("j", "w", 10.0, 10.0, 0.5)
        assert classify_lease(self.JOB, lease, 10.25) is None

    def test_expiry_under_budget_is_a_crash(self):
        lease = lease_document("j", "w", 10.0, 10.0, 0.5)
        outcome = classify_lease(self.JOB, lease, 10.5)
        assert (outcome.ticket, outcome.outcome, outcome.owner) \
            == (3, "crash", "w")
        assert outcome.message == "lease expired (owner w) after 0.50s"
        assert outcome.elapsed_ms == pytest.approx(500.0)

    def test_expiry_at_or_after_budget_is_a_hang(self):
        lease = lease_document("j", "w", 10.0, 10.5, 0.5)
        assert classify_lease(self.JOB, lease, 11.0).outcome == "hang"
        assert classify_lease(self.JOB, lease, 12.0).outcome == "hang"
        unbounded = job_document(3, "m:f", {"x": 1})
        assert classify_lease(unbounded, lease, 12.0).outcome == "crash"

    def test_unleased_claim_holds_an_ownerless_grace_lease(self):
        grace = lease_document("j", "", 10.0, 10.0, 2.0)
        job = job_document(3, "m:f", {"x": 1})
        assert classify_lease(job, grace, 11.9) is None
        outcome = classify_lease(job, grace, 12.0)
        assert (outcome.outcome, outcome.owner) == ("crash", "")
        assert "never leased" in outcome.message

    def test_renewals_extend_the_deadline(self):
        first = lease_document("j", "w", 10.0, 10.0, 0.5)
        renewed = lease_document("j", "w", 10.0, 10.4, 0.5, renewals=1)
        assert classify_lease(self.JOB, first, 10.6) is not None
        assert classify_lease(self.JOB, renewed, 10.6) is None
        assert renewed["claimed_at"] == first["claimed_at"]
        # The claim's age, not the renewal's, decides crash vs hang.
        assert classify_lease(self.JOB, renewed, 10.9).elapsed_ms \
            == pytest.approx(900.0)


# ---------------------------------------------------------------------------
# the claim/lease/reclaim state machine, scripted in-process
# ---------------------------------------------------------------------------

def corpus_job(transport, ticket=0, spec=None):
    spec = spec or plain_specs()[0]
    transport.dispatch(ticket, spec.worker, spec.payload, spec.key(),
                       spec.label)
    return transport.outstanding[ticket]


class TestClaimRace:
    def test_one_claim_one_winner(self, tmp_path):
        transport = make_transport(tmp_path)
        corpus_job(transport)
        winner = make_worker(tmp_path, "winner")
        loser = make_worker(tmp_path, "loser")
        job = winner.claim_next()
        assert job is not None and job["ticket"] == 0
        assert loser.claim_next() is None  # nothing left to steal
        # The claim moved, the lease names the winner.
        paths = transport.paths
        assert not os.path.exists(paths.todo_path(job["job"]))
        assert os.path.exists(paths.claimed_path(job["job"]))
        with open(paths.lease_path(job["job"])) as stream:
            assert json.load(stream)["owner"] == "winner"

    def test_loser_steals_the_next_job(self, tmp_path):
        transport = make_transport(tmp_path)
        specs = plain_specs()
        corpus_job(transport, 0, specs[0])
        corpus_job(transport, 1, specs[1])
        first = make_worker(tmp_path, "first").claim_next()
        second = make_worker(tmp_path, "second").claim_next()
        assert {first["ticket"], second["ticket"]} == {0, 1}

    def test_execute_publishes_and_coordinator_collects(self, tmp_path):
        transport = make_transport(tmp_path)
        corpus_job(transport)
        worker = make_worker(tmp_path)
        assert worker.run(max_jobs=1) == 1
        (outcome,) = poll_until(transport, 1)
        assert outcome.outcome == "ok" and outcome.owner == "w0"
        assert outcome.rows  # real corpus rows rode home inline
        assert transport.outstanding == {}
        # Queue is clean: no claim, no lease, no unswept envelope.
        for directory in (transport.paths.claimed, transport.paths.leases):
            assert os.listdir(directory) == []


class TestLeases:
    def test_renewed_lease_survives_slow_compute(self, tmp_path):
        """Heartbeat renewal racing reclaim: a shard that computes for
        many lease periods is never reclaimed while its worker lives.
        The chaos hang keeps the worker busy 4+ leases, then raises a
        transient error — which must arrive as an ``error`` envelope,
        not a lease-expiry ``crash``."""
        transport = make_transport(tmp_path)  # no shard_timeout
        spec = chaos_wrap(plain_specs()[0], "hang", 1,
                          str(tmp_path / "scratch"), hang_s=4 * LEASE_S)
        corpus_job(transport, 0, spec)
        worker = make_worker(tmp_path)
        thread = threading.Thread(target=worker.run,
                                  kwargs={"max_jobs": 1}, daemon=True)
        thread.start()
        (outcome,) = poll_until(transport, 1)
        thread.join(timeout=5.0)
        assert outcome.outcome == "error"
        assert outcome.type_name == "TransientShardError"

    def test_abandoned_lease_is_reclaimed_as_crash(self, tmp_path):
        """A worker that claims and dies renews nothing; the lease
        expires and the coordinator reports a crash, with the queue
        scrubbed for the retry's fresh job file."""
        transport = make_transport(tmp_path)
        job = corpus_job(transport)
        claimer = make_worker(tmp_path, "doomed")
        assert claimer.claim_next() is not None  # writes the lease, then "dies"
        (outcome,) = poll_until(transport, 1)
        assert outcome.outcome == "crash" and outcome.ticket == 0
        assert outcome.owner == "doomed"
        assert "lease expired" in outcome.message
        assert transport.outstanding == {}
        assert not os.path.exists(transport.paths.claimed_path(job["job"]))
        assert not os.path.exists(transport.paths.lease_path(job["job"]))

    def test_expired_lease_past_budget_is_a_hang(self, tmp_path):
        """A lease that expires *after* the shard's wall-clock budget
        was spent is a hang, not a crash — the attempt consumed its
        timeout, so the supervisor's hang bookkeeping applies."""
        transport = make_transport(tmp_path, shard_timeout=0.5)
        job = corpus_job(transport)
        paths = transport.paths
        os.replace(paths.todo_path(job["job"]), paths.claimed_path(job["job"]))
        _write_atomic(paths.lease_path(job["job"]), {
            "job": job["job"], "owner": "wedged",
            "claimed_at": now_s() - 1.0, "expires_at": now_s() - 0.05,
            "renewals": 3})
        (outcome,) = poll_until(transport, 1)
        assert outcome.outcome == "hang" and outcome.owner == "wedged"

    def test_claimed_but_never_leased_is_reclaimed_after_grace(self, tmp_path):
        """A claimant killed between the rename and its first lease
        write leaves a claim with no lease; after the grace window the
        coordinator treats it as dead."""
        transport = make_transport(tmp_path, reclaim_grace_s=0.3)
        job = corpus_job(transport)
        paths = transport.paths
        os.replace(paths.todo_path(job["job"]), paths.claimed_path(job["job"]))
        (outcome,) = poll_until(transport, 1)
        assert outcome.outcome == "crash"
        assert "never leased" in outcome.message

    def test_heartbeat_stops_after_reclaim(self, tmp_path):
        """The renewal race, from the zombie's side: once the
        coordinator retracts the claim, the heartbeat notices within
        one interval and stops renewing instead of fighting."""
        transport = make_transport(tmp_path)
        worker = make_worker(tmp_path)
        corpus_job(transport)
        job = worker.claim_next()
        stop = threading.Event()
        claimed_at = now_s()
        thread = threading.Thread(
            target=heartbeat,
            args=(job, lambda n: worker._renew(job, claimed_at, n), stop),
            daemon=True)
        thread.start()
        interval = max(0.05, LEASE_S / 3.0)
        time.sleep(2 * interval)  # let at least one renewal land
        transport._release(job["job"])  # the reclaim retracts the claim
        thread.join(timeout=10 * interval)
        assert not thread.is_alive()
        assert not os.path.exists(transport.paths.lease_path(job["job"]))
        stop.set()

    def test_zombie_result_for_retired_ticket_is_swept(self, tmp_path):
        """A reclaimed worker that finishes anyway publishes an
        envelope naming a retired ticket; the coordinator must neither
        credit it nor leave it lying around."""
        transport = make_transport(tmp_path)
        job = corpus_job(transport)
        worker = make_worker(tmp_path)
        claimed = worker.claim_next()
        (reclaimed,) = poll_until(transport, 1)  # lease expires -> crash
        assert reclaimed.outcome == "crash"
        worker.execute(claimed)  # the zombie completes regardless
        result_path = transport.paths.result_path(job["job"])
        assert os.path.exists(result_path)
        assert transport.poll(0.1) == []  # nothing credited...
        assert not os.path.exists(result_path)  # ...and the echo swept


class TestSupervisedJobQueue:
    def run_supervised(self, tmp_path, specs, transport=None, **kwargs):
        transport = transport or make_transport(tmp_path, **kwargs)
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        executor = SupervisedExecutor(cache=cache, transport=transport,
                                      max_retries=2,
                                      shard_timeout=kwargs.get(
                                          "shard_timeout"))
        worker = make_worker(tmp_path, cache=cache)
        thread = threading.Thread(
            target=worker.run, kwargs={"idle_exit_s": 3.0}, daemon=True)
        thread.start()
        try:
            return executor.run(specs), executor
        finally:
            stop_workers(str(tmp_path / "queue"))
            thread.join(timeout=10.0)

    def test_supervisor_over_queue_matches_serial(self, tmp_path, baseline):
        (outputs, _records), executor = self.run_supervised(
            tmp_path, plain_specs())
        assert output_bytes(outputs) == baseline
        assert all(state.outcome == "computed"
                   for state in executor.manifest_shards)

    def test_coordinator_death_mid_campaign_resumes(self, tmp_path,
                                                    baseline):
        """Kill the coordinator after two shards landed; a successor
        on the same queue directory restores those two from the cache
        and completes the campaign to the same bytes."""
        specs = plain_specs()
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        first = make_transport(tmp_path)
        plan = queue_shards(specs[:2], lease_s=LEASE_S)
        for ticket, job in enumerate(plan):
            first.dispatch(ticket, job["worker"], job["payload"],
                           job["key"], job["label"])
        worker = make_worker(tmp_path, cache=cache)
        assert worker.run(max_jobs=2) == 2
        # The coordinator "dies" here: never polls, never closes.  Its
        # queue litter (two result envelopes) is the successor's to
        # reset.
        assert len(os.listdir(first.paths.results)) == 2

        (outputs, _records), executor = self.run_supervised(
            tmp_path, specs, transport=make_transport(tmp_path))
        assert output_bytes(outputs) == baseline
        outcomes = [state.outcome for state in executor.manifest_shards]
        assert outcomes.count("cached") == 2
        assert outcomes.count("computed") == 4


# ---------------------------------------------------------------------------
# end-to-end: real `repro worker` subprocesses
# ---------------------------------------------------------------------------

def result_doc(result):
    return {"rows": result.rows, "summary": result.summary}


class TestEndToEndFleet:
    def test_serial_pipe_jobqueue_byte_identity(self, tmp_path):
        """The acceptance contract: the same experiment through all
        three transports — serial, pipe pool, 3-process job queue —
        merges to identical bytes."""
        serial = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                                cache=False)
        pipe = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                              workers=3,
                              cache_dir=str(tmp_path / "pipe-cache"))
        queue = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                               workers=3, transport="jobqueue",
                               queue_dir=str(tmp_path / "queue"),
                               cache_dir=str(tmp_path / "queue-cache"))
        assert result_doc(serial) == result_doc(pipe) == result_doc(queue)
        assert queue.manifest is not None and queue.manifest.complete
        assert queue.manifest.computed == 6
        assert queue.provenance.workers == 3

    def test_sigkilled_worker_mid_shard_recovers(self, tmp_path, baseline):
        """Chaos crash = os._exit inside a real `repro worker` process:
        the claim dies with it, the lease expires, the coordinator
        requeues, and a surviving worker steals the retry."""
        specs = plain_specs()
        specs[1] = chaos_wrap(specs[1], "crash", 1,
                              str(tmp_path / "scratch"))
        queue_dir = str(tmp_path / "queue")
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        transport = JobQueueTransport(queue_dir, lease_s=LEASE_S,
                                      poll_s=POLL_S)
        workers = spawn_local_workers(queue_dir, 3,
                                      cache_dir=cache.root, poll_s=POLL_S)
        try:
            executor = SupervisedExecutor(cache=cache, transport=transport,
                                          max_retries=2)
            outputs, _records = executor.run(specs)
        finally:
            stop_workers(queue_dir)
            join_workers(workers)
        assert output_bytes(outputs) == baseline
        state = executor.manifest_shards[1]
        assert [a.outcome for a in state.attempts] == ["crash", "ok"]
        assert "lease expired" in state.attempts[0].error

    def test_hung_worker_lease_expires_and_recovers(self, tmp_path,
                                                    baseline):
        """Chaos hang inside a real worker: the heartbeat stops
        renewing once the shard's budget is spent, the lease expires,
        and the reclaim reports a hang; the retry lands elsewhere."""
        specs = plain_specs()
        specs[2] = chaos_wrap(specs[2], "hang", 1,
                              str(tmp_path / "scratch"), hang_s=30.0)
        queue_dir = str(tmp_path / "queue")
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        transport = JobQueueTransport(queue_dir, lease_s=LEASE_S,
                                      shard_timeout=1.0, poll_s=POLL_S)
        workers = spawn_local_workers(queue_dir, 3,
                                      cache_dir=cache.root, poll_s=POLL_S)
        try:
            executor = SupervisedExecutor(cache=cache, transport=transport,
                                          max_retries=2, shard_timeout=1.0)
            outputs, _records = executor.run(specs)
        finally:
            stop_workers(queue_dir)
            join_workers(workers, timeout_s=2.0)  # one is asleep: kill it
        assert output_bytes(outputs) == baseline
        state = executor.manifest_shards[2]
        assert [a.outcome for a in state.attempts] == ["hang", "ok"]

    def test_worker_cli_runs_the_queue(self, tmp_path, capsys):
        """`repro run --transport jobqueue` end to end through main()."""
        from repro.cli import main
        code = main(["run", "sec4-deployment", "--transport", "jobqueue",
                     "--queue-dir", str(tmp_path / "queue"),
                     "--workers", "2", "--lease", "0.5",
                     "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "manifest: 0 cached, 4 computed" in out

    def test_jobqueue_without_queue_dir_is_an_error(self, capsys):
        from repro.cli import main
        assert main(["run", "tbl2", "--transport", "jobqueue"]) == 2
        assert "--queue-dir" in capsys.readouterr().err
