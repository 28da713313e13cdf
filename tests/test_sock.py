"""Tests for the TCP socket shard transport (repro.runtime.sock), the
lease table it runs on (repro.runtime.dist), and its deterministic
network-fault chaos (repro.runtime.netchaos).

Five layers, in increasing realism:

* the pure lease-table functions (merge and classify contracts) —
  shape, determinism, the envelope-validation rules that make stale
  zombies inert, and the reclaim step that tells a crash from a hang;
* the pure frame codec — round trips, byte-at-a-time reassembly, and
  the typed protocol errors (junk, torn, oversized) that make a
  hostile byte stream a *connection* problem, never a campaign
  problem;
* the pure chaos engine — seeded injector decisions and the
  mangle-step state machine, reproducible to the frame;
* the coordinator's protocol state machine driven by hand-crafted
  peer sockets: claims rebinding across reconnects, duplicate results
  merging to one outcome, junk costing exactly one connection, lapsed
  leases reclaimed as crashes and overdue claims as hangs;
* end-to-end campaigns — the acceptance contract: serial == local
  forked fleet == socket, byte-identical, including fleets behind a
  resetting/reordering/truncating chaos proxy, a coordinator that
  dies mid-campaign, SIGKILLed or hung forked workers, and a real
  ``repro worker --connect`` subprocess.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.canon import text_digest
from repro.datasets import CorpusConfig
from repro.runtime import (
    ArtifactCache,
    CorpusRunConfig,
    FrameBuffer,
    SocketTransport,
    SocketWorker,
    SupervisedExecutor,
    connect_backoff,
    job_document,
    parse_address,
    resolve_worker,
    run_experiment,
)
from repro.runtime.chaos import chaos_wrap
from repro.runtime.dist import (
    Lease,
    classify_lease,
    classify_result,
    heartbeat,
    job_name,
)
from repro.runtime.executor import execute_job
from repro.runtime.netchaos import (
    PASS,
    ChaosPlan,
    ChaosProxy,
    FrameDelay,
    FrameDrop,
    FrameDuplicate,
    FrameTruncate,
    Partition,
    flush_held,
    mangle_step,
    mangle_stream,
    netchaos_plan,
    netchaos_plan_names,
)
from repro.runtime.sharding import corpus_shards
from repro.runtime.sock import (
    JunkFrameError,
    OversizedFrameError,
    TruncatedFrameError,
    decode_payload,
    encode_frame,
    fork_worker,
    frame_digest,
    join_workers,
)

#: Small but multi-shard: 6 shards of 8 corpus records each.
CORPUS_CONFIG = CorpusRunConfig(corpus=CorpusConfig(size=48, seed=11),
                                shards=6)

#: Fast-turnaround tuning for in-process protocol tests.
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


def make_transport(**kwargs):
    kwargs.setdefault("lease_s", LEASE_S)
    return SocketTransport("127.0.0.1", 0, **kwargs)


# ---------------------------------------------------------------------------
# pure lease-table functions
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

    def test_classify_result_rejects_invalid_envelopes(self):
        document = job_document(7, "m:f", {"x": 1}, key="k" * 32)
        good = {"job": document["job"], "ticket": 7,
                "digest": document["digest"], "outcome": "ok",
                "rows": [{"r": 1}], "owner": "w0"}
        assert classify_result(good, document) is None
        rejected = {
            "unknown job": (good, None),              # no leased job
            "retired ticket": (dict(good, ticket=6), document),
            "wrong job id": (dict(good, job="00000099-zzz"), document),
            "wrong digest": (dict(good, digest="0" * 16), document),
            "bad outcome": (dict(good, outcome="maybe"), document),
            "missing rows": ({k: v for k, v in good.items()
                              if k != "rows"}, document),
            "non-list rows": (dict(good, rows={"r": 1}), document),
        }
        for case, (envelope, job) in rejected.items():
            assert classify_result(envelope, job), case
        # Only an ``ok`` envelope must carry rows.
        error = {k: v for k, v in good.items() if k != "rows"}
        assert classify_result(dict(error, outcome="error"), document) \
            is None


def lease(job, claimed_at, expires_at, owner="w"):
    return Lease(job=job, peer=None, owner=owner, claimed_at=claimed_at,
                 expires_at=expires_at)


class TestLeaseStep:
    """The pure reclaim step the coordinator judges every claim by."""

    JOB = job_document(3, "m:f", {"x": 1})

    def test_live_lease_owes_nothing(self):
        live = lease(self.JOB, 10.0, 10.5)
        assert classify_lease(live, 10.25) is None
        assert classify_lease(live, 10.25, 1.0) is None

    def test_expiry_under_budget_is_a_crash(self):
        for shard_timeout in (None, 1.0):
            outcome = classify_lease(lease(self.JOB, 10.0, 10.5), 10.5,
                                     shard_timeout)
            assert (outcome.ticket, outcome.outcome, outcome.owner) \
                == (3, "crash", "w")
            assert outcome.message == "lease expired (owner w) after 0.50s"
            assert outcome.elapsed_ms == pytest.approx(500.0)

    def test_expiry_at_or_after_budget_is_a_hang(self):
        """The claim's age decides, whether or not the lease is live."""
        renewing = lease(self.JOB, 10.0, 12.0)
        assert classify_lease(renewing, 10.99, 1.0) is None
        outcome = classify_lease(renewing, 11.0, 1.0)
        assert (outcome.outcome, outcome.owner) == ("hang", "w")
        assert outcome.message == \
            "exceeded shard timeout (1s) (owner w) after 1.00s"
        lapsed = lease(self.JOB, 10.0, 11.0)
        assert classify_lease(lapsed, 12.0, 1.0).outcome == "hang"
        assert classify_lease(lapsed, 12.0).outcome == "crash"

    def test_renewals_extend_the_deadline(self):
        first = lease(self.JOB, 10.0, 10.5)
        renewed = lease(self.JOB, 10.0, 10.9)     # renewed at 10.4
        assert classify_lease(first, 10.6) is not None
        assert classify_lease(renewed, 10.6) is None
        assert classify_lease(renewed, 10.9).elapsed_ms \
            == pytest.approx(900.0)
        # A renewal never moves the shard timeout: it counts from the
        # claim.
        assert classify_lease(renewed, 10.6, 0.5).outcome == "hang"


class TestHeartbeat:
    def test_stops_renewing_once_renew_fails(self):
        """A failed renewal (the connection died, the claim was
        retracted) ends the loop: renewing again would only fight the
        reclaim."""
        calls = []

        def renew():
            calls.append(len(calls) + 1)
            return len(calls) < 2

        job = job_document(0, "m:f", {}, lease_s=0.15)
        heartbeat(job, renew, threading.Event())  # returns on its own
        assert calls == [1, 2]


# ---------------------------------------------------------------------------
# pure frame codec
# ---------------------------------------------------------------------------

class TestFrameCodec:
    def test_round_trip_every_kind(self):
        for kind in ("HELLO", "JOB", "HEARTBEAT", "RESULT", "RETRACT"):
            body = {"kind": kind, "n": 7}
            wire = encode_frame(kind, body)
            assert int.from_bytes(wire[:4], "big") == len(wire) - 4
            assert decode_payload(wire[4:]) == (kind, body)

    def test_encode_rejects_unknown_kind(self):
        with pytest.raises(JunkFrameError):
            encode_frame("GOSSIP", {})

    def test_decode_rejects_junk(self):
        with pytest.raises(JunkFrameError):
            decode_payload(b"\xff\xfenot json")
        with pytest.raises(JunkFrameError):
            decode_payload(b"[1, 2]")
        bad_kind = json.dumps({"frame": "GOSSIP", "v": 1, "body": {},
                               "digest": frame_digest({})})
        with pytest.raises(JunkFrameError):
            decode_payload(bad_kind.encode())
        bad_digest = json.dumps({"frame": "HELLO", "v": 1,
                                 "body": {"worker": "w"},
                                 "digest": "0" * 16})
        with pytest.raises(JunkFrameError):
            decode_payload(bad_digest.encode())
        with pytest.raises(JunkFrameError):
            decode_payload(deep_hello()[4:])

    def test_digest_covers_the_body(self):
        wire = encode_frame("HEARTBEAT", {"worker": "w", "job": "j"})
        # Flip one byte inside the JSON body: the digest check trips.
        torn = bytearray(wire)
        torn[wire.index(b'"j"')] = ord("k")
        with pytest.raises(JunkFrameError):
            decode_payload(bytes(torn[4:]))

    def test_buffer_reassembles_byte_at_a_time(self):
        frames = [("HELLO", {"worker": "w", "claims": []}),
                  ("JOB", {"job": "00000001", "ticket": 1}),
                  ("RETRACT", {"job": "*", "stop": True})]
        wire = b"".join(encode_frame(kind, body)
                        for kind, body in frames)
        buffer = FrameBuffer()
        decoded = []
        for i in range(len(wire)):
            decoded.extend(buffer.feed(wire[i:i + 1]))
        assert decoded == frames
        assert buffer.pending_bytes == 0
        buffer.eof()  # clean end of stream

    def test_torn_stream_is_a_truncated_frame(self):
        wire = encode_frame("RESULT", {"job": "x", "rows": [1, 2, 3]})
        buffer = FrameBuffer()
        assert buffer.feed(wire[:len(wire) // 2]) == []
        assert buffer.pending_bytes > 0
        with pytest.raises(TruncatedFrameError):
            buffer.eof()

    def test_zero_and_oversized_prefixes_are_typed_errors(self):
        with pytest.raises(JunkFrameError):
            FrameBuffer().feed(b"\x00\x00\x00\x00")
        with pytest.raises(OversizedFrameError):
            FrameBuffer(max_frame=64).feed(b"\x00\x00\x01\x00")
        with pytest.raises(OversizedFrameError):
            FrameBuffer().feed(b"\xff\xff\xff\xff")


class TestDialHelpers:
    def test_backoff_schedule_is_capped_binary_exponential(self):
        schedule = [connect_backoff(attempt) for attempt in range(8)]
        assert schedule == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        assert connect_backoff(100) == 2.0

    def test_parse_address(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address("host.example:1") == ("host.example", 1)
        for bad in ("nohost", ":9000", "host:", "host:not-a-port"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ---------------------------------------------------------------------------
# pure chaos engine
# ---------------------------------------------------------------------------

def deep_hello(depth: int = 100_000) -> bytes:
    """A HELLO wire frame, digest and all, whose claims nest *depth*
    arrays: too deep for the JSON parser's stack."""
    text = '{"claims":%s,"worker":"deep"}' % ("[" * depth + "]" * depth)
    payload = ('{"body":%s,"digest":"%s","frame":"HELLO","v":1}' % (
        text, text_digest(text))).encode()
    return len(payload).to_bytes(4, "big") + payload


def heartbeat_frames(count: int):
    return [encode_frame("HEARTBEAT", {"worker": "w", "job": str(i)})
            for i in range(count)]


class TestNetchaosDecisions:
    def test_decisions_are_pure_in_their_coordinates(self):
        plan = netchaos_plan("hostile", seed=7)
        first = [plan.decide("c2s/0", i) for i in range(200)]
        again = [plan.decide("c2s/0", i) for i in range(200)]
        assert first == again
        other_stream = [plan.decide("c2s/1", i) for i in range(200)]
        assert first != other_stream  # reconnects re-roll their fates

    def test_seed_changes_the_fates(self):
        a = [netchaos_plan("drop", seed=1).decide("s", i)
             for i in range(200)]
        b = [netchaos_plan("drop", seed=2).decide("s", i)
             for i in range(200)]
        assert a != b

    def test_plan_digest_is_content_addressed(self):
        assert netchaos_plan("hostile", 7).plan_digest() == \
            netchaos_plan("hostile", 7).plan_digest()
        assert netchaos_plan("hostile", 7).plan_digest() != \
            netchaos_plan("hostile", 8).plan_digest()
        assert netchaos_plan("drop", 7).plan_digest() != \
            netchaos_plan("reset", 7).plan_digest()

    def test_catalogue_names_and_unknown_plan(self):
        for name in netchaos_plan_names():
            assert netchaos_plan(name).name == name
        with pytest.raises(KeyError):
            netchaos_plan("gremlins")

    def test_first_injector_with_an_opinion_wins(self):
        plan = ChaosPlan(name="x", seed=0,
                         injectors=(FrameDrop(rate=1.0),
                                    FrameDuplicate(rate=1.0)))
        assert plan.decide("s", 0).drop is True
        assert plan.decide("s", 0).duplicate is False


class TestMangleEngine:
    def test_passthrough_is_identity(self):
        frames = heartbeat_frames(20)
        actions = mangle_stream(netchaos_plan("passthrough"), "s", frames)
        assert actions == [("send", frame) for frame in frames]

    def test_mangle_stream_is_deterministic(self):
        frames = heartbeat_frames(120)
        plan = netchaos_plan("hostile", seed=11)
        assert mangle_stream(plan, "c2s/0", frames) == \
            mangle_stream(plan, "c2s/0", frames)

    def test_drop_eats_frames_without_resetting(self):
        frames = heartbeat_frames(200)
        actions = mangle_stream(netchaos_plan("drop", seed=3), "s", frames)
        sends = [data for verb, data in actions if verb == "send"]
        assert 0 < len(sends) < len(frames)
        assert all(verb == "send" for verb, _data in actions)
        assert set(sends) <= set(frames)

    def test_partition_window_black_holes_frames(self):
        frames = heartbeat_frames(16)
        plan = ChaosPlan(name="p", seed=0,
                         injectors=(Partition(start=4, length=6),))
        sends = [data for verb, data in
                 mangle_stream(plan, "s", frames) if verb == "send"]
        assert sends == frames[:4] + frames[10:]

    def test_duplicate_delivers_twice_in_place(self):
        frames = heartbeat_frames(3)
        plan = ChaosPlan(name="d", seed=0,
                         injectors=(FrameDuplicate(rate=1.0),))
        actions = mangle_stream(plan, "s", frames)
        assert actions == [("send", frames[0]), ("send", frames[0]),
                           ("send", frames[1]), ("send", frames[1]),
                           ("send", frames[2]), ("send", frames[2])]

    def test_reorder_holds_then_releases_everything(self):
        frames = heartbeat_frames(60)
        plan = netchaos_plan("reorder", seed=5)
        actions = mangle_stream(plan, "s", frames)
        sends = [data for verb, data in actions if verb == "send"]
        assert sorted(sends) == sorted(frames)  # nothing lost
        assert sends != frames                  # something moved

    def test_truncate_sends_a_prefix_then_resets(self):
        frame = heartbeat_frames(1)[0]
        plan = ChaosPlan(name="t", seed=0,
                         injectors=(FrameTruncate(rate=1.0, keep=0.5),))
        actions, held, closed = mangle_step(plan, "s", 0, frame, ())
        assert closed is True and held == ()
        assert actions == [("send", frame[:len(frame) // 2]),
                           ("reset", b"")]

    def test_hold_threads_between_steps(self):
        frames = heartbeat_frames(2)
        plan = ChaosPlan(name="h", seed=0,
                         injectors=(FrameDelay(rate=1.0, depth=1),))
        actions0, held, closed = mangle_step(plan, "s", 0, frames[0], ())
        assert actions0 == [] and not closed and len(held) == 1
        actions1, held, _closed = mangle_step(plan, "s", 1, frames[1],
                                              held)
        # Frame 1 is itself held; frame 0 comes due at index 1.
        assert actions1 == [("send", frames[0])]
        assert flush_held(held) == [("send", frames[1])]

    def test_pass_fate_is_the_shared_default(self):
        assert netchaos_plan("passthrough").decide("s", 0) is PASS


class TestChaosProxy:
    def test_stop_resets_clients_and_refuses_new_ones(self):
        """A stopped proxy holds no client, not even one accepted while
        its upstream dial still retries against a dead coordinator."""
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        upstream_port = dead.getsockname()[1]
        dead.close()                 # nothing listens: dials are refused
        proxy = ChaosProxy("127.0.0.1", upstream_port,
                           netchaos_plan("passthrough")).start()
        client = socket.create_connection((proxy.host, proxy.port),
                                          timeout=5.0)
        try:
            time.sleep(0.2)          # accepted; the upstream dial retries
            proxy.stop()
            try:
                assert client.recv(1) == b""
            except ConnectionResetError:
                pass
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((proxy.host, proxy.port),
                                         timeout=5.0)
        finally:
            client.close()


# ---------------------------------------------------------------------------
# the coordinator's protocol state machine (hand-crafted peers)
# ---------------------------------------------------------------------------

class FakePeer:
    """A hand-driven worker connection for protocol tests."""

    def __init__(self, transport: SocketTransport):
        self.transport = transport
        self.sock = socket.create_connection(
            (transport.host, transport.port), timeout=5.0)
        self.sock.settimeout(0.05)
        self.buffer = FrameBuffer()

    def send(self, kind, body):
        self.sock.sendall(encode_frame(kind, body))

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def hello(self, worker="fake", claims=()):
        self.send("HELLO", {"worker": worker, "claims": list(claims)})

    def recv_frames(self, want=1, timeout_s=5.0):
        """Pump the coordinator until *want* frames arrive here."""
        frames = []
        deadline = time.perf_counter() + timeout_s
        while len(frames) < want and time.perf_counter() < deadline:
            self.transport.poll(POLL_S)
            try:
                data = self.sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            if not data:
                break
            frames.extend(self.buffer.feed(data))
        return frames

    def result_for(self, job, owner="fake", rows=None, **extra):
        envelope = {"job": job["job"], "ticket": job["ticket"],
                    "digest": job["digest"], "owner": owner,
                    "outcome": "ok",
                    "rows": rows if rows is not None else [{"r": 1}],
                    "elapsed_ms": 1.0}
        envelope.update(extra)
        return envelope

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def poll_until(transport, want: int, timeout_s: float = 10.0):
    outcomes = []
    deadline = time.perf_counter() + timeout_s
    while len(outcomes) < want:
        assert time.perf_counter() < deadline, \
            f"only {len(outcomes)}/{want} outcomes before timeout"
        outcomes.extend(transport.poll(0.1))
    return outcomes


class TestCoordinatorProtocol:
    def test_hello_job_result_round_trip(self):
        transport = make_transport()
        try:
            transport.dispatch(0, "m:f", {"x": 1}, key="", label="s0")
            peer = FakePeer(transport)
            peer.hello()
            (kind, job), = peer.recv_frames(1)
            assert kind == "JOB"
            assert job["ticket"] == 0 and job["worker"] == "m:f"
            peer.send("RESULT", peer.result_for(job))
            outcome, = poll_until(transport, 1)
            assert outcome.ticket == 0 and outcome.outcome == "ok"
            assert outcome.rows == [{"r": 1}]
            assert outcome.owner == "fake"
            peer.close()
        finally:
            transport.close()

    def test_junk_costs_the_connection_not_the_campaign(self):
        transport = make_transport()
        try:
            transport.dispatch(0, "m:f", {"x": 1})
            vandal = FakePeer(transport)
            vandal.send_raw(b"\x00\x00\x00\x05hello")
            assert vandal.recv_frames(1, timeout_s=1.0) == []  # dropped
            assert transport.stats()["protocol_errors"] == 1
            honest = FakePeer(transport)
            honest.hello(worker="honest")
            (kind, job), = honest.recv_frames(1)
            assert kind == "JOB"
            honest.send("RESULT", honest.result_for(job, owner="honest"))
            outcome, = poll_until(transport, 1)
            assert outcome.outcome == "ok" and outcome.owner == "honest"
            vandal.close()
            honest.close()
        finally:
            transport.close()

    def test_deeply_nested_frame_costs_only_its_connection(
            self, baseline):
        """A frame nested past the parser's stack is junk like any
        other: its sender loses its connection, and a well-behaved
        worker still completes the campaign."""
        transport = make_transport()
        vandal = FakePeer(transport)
        worker = SocketWorker(transport.host, transport.port, "honest",
                              cache=ArtifactCache(enabled=False),
                              recv_timeout_s=0.05)
        thread = threading.Thread(target=worker.run, daemon=True)
        try:
            vandal.send_raw(deep_hello())
            assert vandal.recv_frames(1, timeout_s=2.0) == []  # dropped
            assert transport.stats()["protocol_errors"] == 1
            thread.start()
            outputs = SupervisedExecutor(
                transport=transport).run_shards(plain_specs())
        finally:
            transport.close()
            vandal.close()
            thread.join(timeout=10.0)
        assert output_bytes(outputs) == baseline
        assert transport.stats()["protocol_errors"] == 1

    def test_frame_before_hello_is_junk(self):
        transport = make_transport()
        try:
            peer = FakePeer(transport)
            peer.send("HEARTBEAT", {"worker": "w", "job": "j"})
            assert peer.recv_frames(1, timeout_s=1.0) == []
            assert transport.stats()["protocol_errors"] == 1
            peer.close()
        finally:
            transport.close()

    def test_duplicate_result_merges_to_one_outcome(self):
        transport = make_transport()
        try:
            transport.dispatch(0, "m:f", {"x": 1})
            peer = FakePeer(transport)
            peer.hello()
            (_kind, job), = peer.recv_frames(1)
            peer.send("RESULT", peer.result_for(job))
            peer.send("RESULT", peer.result_for(job))
            outcomes = poll_until(transport, 1)
            time.sleep(0.1)
            outcomes.extend(transport.poll(0.2))
            assert len(outcomes) == 1
            assert transport.stats()["stale_results"] == 1
            peer.close()
        finally:
            transport.close()

    def test_unknown_claim_is_retracted(self):
        transport = make_transport()
        try:
            peer = FakePeer(transport)
            peer.hello(claims=["00000009-deadbeef"])
            (kind, body), = peer.recv_frames(1)
            assert kind == "RETRACT"
            assert body["job"] == "00000009-deadbeef"
            peer.close()
        finally:
            transport.close()

    def test_abandoned_lease_is_reclaimed_as_crash(self):
        transport = make_transport(lease_s=0.2)
        try:
            transport.dispatch(0, "m:f", {"x": 1})
            peer = FakePeer(transport)
            peer.hello(worker="doomed")
            (kind, _job), = peer.recv_frames(1)
            assert kind == "JOB"
            # Never heartbeat: the lease expires and the attempt comes
            # back as a crash naming the silent owner.
            outcome, = poll_until(transport, 1)
            assert outcome.outcome == "crash"
            assert "lease expired" in outcome.message
            assert outcome.owner == "doomed"
            assert transport.stats()["jobs_reclaimed"] == 1
            # The still-connected holder was told.
            frames = peer.recv_frames(1)
            assert frames and frames[0][0] == "RETRACT"
            peer.close()
        finally:
            transport.close()

    def test_expiry_past_budget_is_a_hang(self):
        # The timeout must outlast recv_frames, which drops outcomes.
        transport = make_transport(lease_s=0.2, shard_timeout=0.3)
        try:
            transport.dispatch(0, "m:f", {"x": 1})
            peer = FakePeer(transport)
            peer.hello()
            peer.recv_frames(1)
            outcome, = poll_until(transport, 1)
            assert outcome.outcome == "hang"
            peer.close()
        finally:
            transport.close()

    def test_renewing_peer_is_reclaimed_at_the_deadline(self):
        """The coordinator alone judges a shard's budget: a claim whose
        worker keeps renewing is reclaimed as ``hang`` at the shard
        timeout, long before its 5 s lease could lapse."""
        transport = make_transport(lease_s=5.0, shard_timeout=0.3)
        try:
            transport.dispatch(0, "m:f", {"x": 1})
            peer = FakePeer(transport)
            peer.hello(worker="busy")
            (kind, job), = peer.recv_frames(1)
            assert kind == "JOB"
            # recv_frames drops outcomes, so the reclaim must land here.
            outcomes = []
            deadline = time.perf_counter() + 3.0
            while not outcomes and time.perf_counter() < deadline:
                peer.send("HEARTBEAT", {"worker": "busy",
                                        "job": job["job"]})
                outcomes = transport.poll(POLL_S)
            outcome, = outcomes
            assert (outcome.outcome, outcome.owner) == ("hang", "busy")
            assert outcome.message.startswith(
                "exceeded shard timeout (0.3s) (owner busy) after ")
            # One poll tick of lateness, with slack for a loaded host.
            assert 300.0 <= outcome.elapsed_ms < 300.0 + 150.0
            frames = peer.recv_frames(1)
            assert frames and frames[0][0] == "RETRACT"
            stats = transport.stats()
            assert stats["jobs_reclaimed"] == 1
            assert stats["protocol_errors"] == 0
            peer.close()
        finally:
            transport.close()

    def test_reconnect_rebinds_the_claim(self):
        transport = make_transport(lease_s=5.0)
        try:
            transport.dispatch(0, "m:f", {"x": 1})
            first = FakePeer(transport)
            first.hello(worker="mobile")
            (_kind, job), = first.recv_frames(1)
            first.close()            # the wire dies; the claim lives
            transport.poll(0.1)      # notice the disconnect
            second = FakePeer(transport)
            second.hello(worker="mobile", claims=[job["job"]])
            second.send("RESULT", second.result_for(job, owner="mobile"))
            outcome, = poll_until(transport, 1)
            assert outcome.outcome == "ok" and outcome.owner == "mobile"
            stats = transport.stats()
            assert stats["reconnects"] == 1
            assert stats["jobs_reclaimed"] == 0
            second.close()
        finally:
            transport.close()

    def test_stale_result_for_reclaimed_job_is_dropped(self):
        transport = make_transport(lease_s=0.2)
        try:
            transport.dispatch(0, "m:f", {"x": 1})
            peer = FakePeer(transport)
            peer.hello()
            (_kind, job), = peer.recv_frames(1)
            outcome, = poll_until(transport, 1)   # reclaimed
            assert outcome.outcome == "crash"
            peer.send("RESULT", peer.result_for(job))  # zombie delivery
            assert transport.poll(0.3) == []
            assert transport.stats()["stale_results"] == 1
            peer.close()
        finally:
            transport.close()

    def test_renewed_lease_survives_slow_compute(self, tmp_path):
        """Heartbeat renewal racing reclaim: a shard that computes for
        many lease periods is never reclaimed while its worker lives.
        The chaos hang keeps the worker busy 4+ leases, then raises a
        transient error — which must arrive as an ``error`` envelope,
        not a lease-expiry ``crash``."""
        transport = make_transport()  # no shard_timeout
        spec = chaos_wrap(plain_specs()[0], "hang", 1,
                          str(tmp_path / "scratch"), hang_s=4 * LEASE_S)
        transport.dispatch(0, spec.worker, spec.payload, spec.key(),
                           spec.label)
        worker = SocketWorker(transport.host, transport.port, "w0",
                              cache=ArtifactCache(enabled=False),
                              recv_timeout_s=0.05)
        thread = threading.Thread(target=worker.run,
                                  kwargs={"max_jobs": 1}, daemon=True)
        thread.start()
        try:
            outcome, = poll_until(transport, 1)
        finally:
            transport.close()
            thread.join(timeout=5.0)
        assert outcome.outcome == "error"
        assert outcome.type_name == "TransientShardError"
        assert transport.stats()["jobs_reclaimed"] == 0

    def test_close_is_idempotent_and_broadcasts_stop(self):
        transport = make_transport()
        peer = FakePeer(transport)
        peer.hello()
        transport.poll(0.1)
        transport.close()
        transport.close()
        deadline = time.perf_counter() + 5.0
        stop = None
        while stop is None and time.perf_counter() < deadline:
            try:
                data = peer.sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            if not data:
                break
            for kind, body in peer.buffer.feed(data):
                if kind == "RETRACT" and body.get("stop"):
                    stop = body
        assert stop == {"job": "*", "stop": True}
        peer.close()

    def test_closed_transport_fails_fast(self, tmp_path):
        """A closed transport refuses work: a supervisor handed one
        raises at once instead of spinning on a dead selector."""
        transport = make_transport()
        transport.close()
        executor = SupervisedExecutor(
            cache=ArtifactCache(root=str(tmp_path / "cache")),
            transport=transport)
        raised = []

        def run():
            try:
                executor.run_shards(plain_specs())
            except RuntimeError as exc:
                raised.append(str(exc))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=3.0)
        assert not thread.is_alive()
        assert raised == ["transport closed"]
        for call in (lambda: transport.poll(0.2),
                     lambda: transport.dispatch(0, "m:f", {"x": 1})):
            with pytest.raises(RuntimeError, match="transport closed"):
                call()


# ---------------------------------------------------------------------------
# supervised campaigns, in-process (optionally through a chaos proxy)
# ---------------------------------------------------------------------------

class TestSupervisedSocket:
    def run_supervised(self, tmp_path, specs, plan=None, fleet=2,
                       lease_s=0.4, max_retries=6, shard_timeout=None):
        transport = SocketTransport("127.0.0.1", 0, lease_s=lease_s,
                                    shard_timeout=shard_timeout)
        proxy = None
        host, port = transport.host, transport.port
        if plan is not None:
            proxy = ChaosProxy(transport.host, transport.port,
                               plan).start()
            host, port = proxy.host, proxy.port
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        workers = [SocketWorker(host, port, f"w{i}", cache=cache,
                                recv_timeout_s=0.05,
                                backoff_base_s=0.01, backoff_cap_s=0.1)
                   for i in range(fleet)]
        threads = [threading.Thread(target=worker.run, daemon=True)
                   for worker in workers]
        for thread in threads:
            thread.start()
        try:
            executor = SupervisedExecutor(
                cache=cache, transport=transport,
                max_retries=max_retries, shard_timeout=shard_timeout)
            return executor.run_shards(specs), executor, transport
        finally:
            transport.close()        # stop broadcast first
            if proxy is not None:
                proxy.stop()
            for thread in threads:
                thread.join(timeout=10.0)

    def test_supervisor_over_socket_matches_serial(self, tmp_path,
                                                   baseline):
        outputs, executor, _t = self.run_supervised(
            tmp_path, plain_specs())
        assert output_bytes(outputs) == baseline
        assert all(state.outcome == "computed"
                   for state in executor.manifest.shards)

    @pytest.mark.parametrize("plan_name", ["drop", "reorder",
                                           "truncate", "reset"])
    def test_campaign_through_hostile_wire_matches_serial(
            self, tmp_path, baseline, plan_name):
        """The tentpole acceptance: merged bytes are invariant under
        seeded frame drops, reorders, mid-frame truncations, and
        connection resets on every stream."""
        plan = netchaos_plan(plan_name, seed=23)
        outputs, _executor, transport = self.run_supervised(
            tmp_path, plain_specs(), plan=plan, fleet=3,
            shard_timeout=60.0)
        assert output_bytes(outputs) == baseline
        stats = transport.stats()
        assert stats["protocol_errors"] == 0 or plan_name == "truncate"

    def test_worker_emits_connection_lifecycle_events(self):
        """Socket workers feed the monitor's ``worker`` event kind:
        connect/disconnect land in the log (with an empty shard label)
        and the worker-lifecycle reducer censuses them without
        counting a phantom shard."""
        import io

        from repro.monitor import (EventLogWriter, default_reducers,
                                   read_events)
        transport = make_transport()
        stream = io.StringIO()
        worker = SocketWorker(transport.host, transport.port, "ev0",
                              events=EventLogWriter(stream),
                              recv_timeout_s=0.05)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            deadline = time.perf_counter() + 10.0
            while transport.stats()["connects"] < 1:
                assert time.perf_counter() < deadline
                transport.poll(0.05)
        finally:
            transport.close()
            thread.join(timeout=10.0)
        events = read_events(io.StringIO(stream.getvalue()))
        assert [e.data["state"] for e in events] == \
            ["connect", "disconnect"]
        assert all(e.data["shard"] == "" for e in events)
        reducer = default_reducers()["worker-lifecycle"]
        final = reducer.finalize(reducer.reduce(events))
        assert final["workers"]["ev0"] == {
            "states": {"connect": 1, "disconnect": 1}, "shards": 0}
        assert final["reconnects"] == 0

    def test_coordinator_death_mid_campaign_resumes(self, tmp_path,
                                                    baseline):
        """A coordinator dies after two shards landed; a successor on a
        fresh port restores those two from the cache and completes the
        campaign to the same bytes."""
        specs = plain_specs()
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        first = make_transport()
        for ticket, spec in enumerate(specs[:2]):
            first.dispatch(ticket, spec.worker, spec.payload, spec.key(),
                           spec.label)
        worker = SocketWorker(first.host, first.port, "w0", cache=cache,
                              recv_timeout_s=0.05)
        thread = threading.Thread(target=worker.run,
                                  kwargs={"max_jobs": 2}, daemon=True)
        thread.start()
        try:
            assert [o.outcome for o in poll_until(first, 2)] == \
                ["ok", "ok"]
            thread.join(timeout=10.0)
            # The coordinator "dies" here: it never polls again, and
            # its successor inherits nothing but the artifact cache.
            outputs, executor, _t = self.run_supervised(
                tmp_path, specs)
        finally:
            first.close()
        assert output_bytes(outputs) == baseline
        outcomes = [state.outcome for state in executor.manifest.shards]
        assert outcomes.count("cached") == 2
        assert outcomes.count("computed") == 4

    def test_mid_compute_disconnect_resumes_with_the_result(
            self, tmp_path, baseline):
        """A reset-heavy wire forces reconnect-and-resume: results
        computed while disconnected are re-HELLOed and credited (or
        dropped as stale duplicates), never lost and never doubled."""
        plan = ChaosPlan(name="reset-heavy", seed=3,
                         injectors=(FrameTruncate(rate=0.02, keep=0.5),
                                    FrameDrop(rate=0.05)))
        outputs, executor, _t = self.run_supervised(
            tmp_path, plain_specs(), plan=plan, fleet=3,
            shard_timeout=60.0)
        assert output_bytes(outputs) == baseline
        assert len(executor.manifest.shards) == len(plain_specs())


# ---------------------------------------------------------------------------
# the worker's execute step and the owned fleet's lifecycle
# ---------------------------------------------------------------------------

class TestSharedFleetMachinery:
    @pytest.mark.parametrize("worker", ["good", "no.such.module:worker"])
    def test_worker_sends_the_execute_job_envelope(self, worker):
        """One execute step: the RESULT frame a socket worker sends is
        the envelope :func:`execute_job` returns for the same job."""
        spec = plain_specs()[0]
        ref = spec.worker if worker == "good" else worker
        job = job_document(0, ref, spec.payload, spec.key(), spec.label)
        direct = execute_job(job, ArtifactCache(enabled=False), "same")
        coordinator_end, worker_end = socket.socketpair()
        try:
            sock_worker = SocketWorker("127.0.0.1", 0, "same",
                                       cache=ArtifactCache(enabled=False))
            assert sock_worker._execute(worker_end, threading.Lock(), job)
            coordinator_end.settimeout(5.0)
            buffer, frames = FrameBuffer(), []
            while not frames:
                frames = buffer.feed(coordinator_end.recv(65536))
        finally:
            coordinator_end.close()
            worker_end.close()
        (kind, sent), = frames
        assert kind == "RESULT"
        for envelope in (direct, sent):
            assert envelope.pop("elapsed_ms") >= 0.0
        assert sent == direct
        assert sent["outcome"] == ("ok" if worker == "good" else "error")

    def test_all_cached_fleet_run_starts_no_workers(self, tmp_path,
                                                    monkeypatch):
        """The owned fleet starts on the first dispatch, so a run served
        entirely from cache never forks (or waits on) a worker."""
        from repro.runtime import sock
        cache_dir = str(tmp_path / "cache")
        cold = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                              cache_dir=cache_dir)
        started = []
        real_fork = sock.fork_worker

        def counting_fork(*args, **kwargs):
            started.append(args)
            return real_fork(*args, **kwargs)

        monkeypatch.setattr(sock, "fork_worker", counting_fork)
        warm = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                              workers=2, transport="socket",
                              cache_dir=cache_dir)
        assert started == []
        assert warm.cache_status == "hit"
        assert warm.manifest.cached == len(warm.manifest.shards) == 6
        assert result_doc(warm) == result_doc(cold)


# ---------------------------------------------------------------------------
# end-to-end: forked fleets and a real `repro worker --connect` process
# ---------------------------------------------------------------------------

def result_doc(result):
    return {"rows": result.rows, "summary": result.summary}


def unowned_workers(transport, cache, count=3):
    """Fork *count* workers the coordinator does not own: it neither
    reaps nor kills them, so only their leases tell it their fate."""
    return [fork_worker(transport.host, transport.port, f"sock-{index}",
                        cache.root) for index in range(count)]


class TestEndToEndSocketFleet:
    def test_serial_local_socket_byte_identity(self, tmp_path):
        """The acceptance contract: the same experiment through
        serial, the local forked fleet, and a 3-process TCP socket
        fleet merges to identical bytes."""
        serial = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                                cache=False)
        local = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                               workers=3,
                               cache_dir=str(tmp_path / "local-cache"))
        sock = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                              workers=3, transport="socket",
                              listen="127.0.0.1:0",
                              cache_dir=str(tmp_path / "sock-cache"))
        assert result_doc(serial) == result_doc(local) == result_doc(sock)
        assert sock.manifest is not None and sock.manifest.complete
        assert sock.manifest.computed == 6
        assert sock.manifest.workers == 3

    def test_cli_worker_subprocess_serves_a_campaign(self, tmp_path,
                                                     baseline):
        """The external-fleet entry: a fresh ``python -m repro worker
        --connect`` interpreter dials in, computes every shard, and
        exits on the stop broadcast."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        transport = make_transport(lease_s=2.0)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect",
             f"{transport.host}:{transport.port}", "--id", "cli-0",
             "--no-cache"],
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            executor = SupervisedExecutor(transport=transport)
            outputs = executor.run_shards(plain_specs())
        finally:
            transport.close()
            _out, err = worker.communicate(timeout=30.0)
        assert output_bytes(outputs) == baseline
        assert worker.returncode == 0
        assert "worker cli-0: executed 6 shard(s)" in err

    def test_sigkilled_worker_mid_shard_recovers(self, tmp_path,
                                                 baseline):
        """Chaos crash = os._exit inside a real `repro worker
        --connect` process: the connection dies with it, the lease
        expires on the coordinator's clock, and a surviving worker
        steals the retry."""
        specs = plain_specs()
        specs[1] = chaos_wrap(specs[1], "crash", 1,
                              str(tmp_path / "scratch"))
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        transport = SocketTransport("127.0.0.1", 0, lease_s=LEASE_S)
        workers = unowned_workers(transport, cache)
        try:
            executor = SupervisedExecutor(cache=cache,
                                          transport=transport,
                                          max_retries=2)
            outputs = executor.run_shards(specs)
        finally:
            transport.close()
            join_workers(workers)
        assert output_bytes(outputs) == baseline
        state = executor.manifest.shards[1]
        assert [a.outcome for a in state.attempts] == ["crash", "ok"]
        assert "lease expired" in state.attempts[0].error

    def test_hung_worker_lease_expires_and_recovers(self, tmp_path,
                                                    baseline):
        """Chaos hang inside a forked worker the coordinator does not
        own: the worker keeps renewing, the coordinator reclaims the
        claim at the shard timeout and reports a hang; the retry lands
        on another worker."""
        specs = plain_specs()
        specs[2] = chaos_wrap(specs[2], "hang", 1,
                              str(tmp_path / "scratch"), hang_s=30.0)
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        transport = SocketTransport("127.0.0.1", 0, lease_s=0.5,
                                    shard_timeout=1.0)
        workers = unowned_workers(transport, cache)
        try:
            executor = SupervisedExecutor(cache=cache,
                                          transport=transport,
                                          max_retries=2, shard_timeout=1.0)
            outputs = executor.run_shards(specs)
        finally:
            transport.close()
            join_workers(workers, timeout_s=2.0)  # one is asleep: kill it
        assert output_bytes(outputs) == baseline
        state = executor.manifest.shards[2]
        assert [a.outcome for a in state.attempts] == ["hang", "ok"]

    def test_run_cli_socket_end_to_end(self, tmp_path, capsys):
        """`repro run --transport socket` end to end through main()."""
        from repro.cli import main
        code = main(["run", "sec4-deployment", "--transport", "socket",
                     "--listen", "127.0.0.1:0", "--workers", "2",
                     "--lease", "0.5",
                     "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "manifest: 0 cached, 4 computed" in out

    def test_retired_transport_name_is_rejected(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exited:
            main(["run", "tbl2", "--transport", "pipe"])
        assert exited.value.code == 2
        assert "invalid choice: 'pipe'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="unknown transport"):
            run_experiment("tbl2", transport="pipe")

    def test_bad_listen_address_is_an_error(self, capsys):
        from repro.cli import main
        assert main(["run", "tbl2", "--transport", "socket",
                     "--listen", "nocolon"]) == 2
        assert "--listen" in capsys.readouterr().err

    def test_worker_cli_requires_connect(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exited:
            main(["worker"])
        assert exited.value.code == 2
        assert "--connect" in capsys.readouterr().err
        assert main(["worker", "--connect", "nocolon"]) == 2
        assert "not host:port" in capsys.readouterr().err
