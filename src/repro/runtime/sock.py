"""Socket shard transport: the supervised runtime over plain TCP.

The coordinator (:class:`SocketTransport`) listens on a TCP port,
``repro worker --connect host:port`` workers (:class:`SocketWorker`)
dial in, and a length-prefixed framed protocol carries the fleet's
lease-table documents (:mod:`repro.runtime.dist`):
:func:`~repro.runtime.dist.job_document` out, result envelopes back,
each checked by :func:`~repro.runtime.dist.classify_result`.  No
shared filesystem is needed.  Supervisor policy (retries, backoff,
quarantine, manifests, cache-first planning) lives in the supervisor;
this module only moves attempts.

Frame grammar (DESIGN.md §9.1)::

    frame   := length payload
    length  := 4-byte big-endian byte count of payload
    payload := JSON {"frame": KIND, "v": 1, "body": {...},
                     "digest": stable_digest(body)}
    KIND    := HELLO | JOB | HEARTBEAT | RESULT | RETRACT

Every frame carries its body's digest, so a flipped or truncated
payload is detected at the frame layer — a torn stream degrades to a
*typed* protocol error (:class:`OversizedFrameError`,
:class:`TruncatedFrameError`, :class:`JunkFrameError`) that drops the
connection, never the campaign.

The protocol, state by state:

* **connect** — a worker dials in (with capped deterministic backoff
  while the coordinator is still booting) and sends ``HELLO`` naming
  itself and any claim it still holds from a previous connection.
* **assign** — the coordinator sends ``JOB`` (a verbatim
  ``job_document``) to an idle worker and starts a
  :class:`~repro.runtime.dist.Lease` on its own clock; the worker's
  heartbeat thread renews it with ``HEARTBEAT`` frames while the
  worker lives.
* **reclaim** — the coordinator alone judges the clock, through the
  pure reclaim step (:func:`~repro.runtime.dist.classify_lease`): a
  claim older than the shard timeout is a ``hang`` (an owned worker is
  killed at that moment), a lease that lapsed unrenewed a ``crash``.
  The worker gets ``RETRACT``, and the supervisor's existing
  ``classify_exception`` policy decides retry vs. quarantine.
* **resume** — a worker that lost its connection mid-compute finishes
  the shard, redials, re-``HELLO``\\ s with the claim, and resends the
  result.  If the lease survived, the attempt is credited; if the job
  was already reclaimed, the late envelope names no leased job and is
  dropped as stale — and because workers are pure functions of their
  payloads, rival results carried identical rows anyway.  Rows also
  land in the content-addressed artifact cache under the single-host
  keys, so a dead coordinator's successor resumes from cache.

Leases here live on :func:`time.perf_counter`: deadlines are never
compared across machines — the coordinator stamps them when frames
*arrive* — so no wall clock is needed.  The worker-side dial/backoff
sleeps are this module's one determinism-lint allowance: operational
pacing that never reaches content.
"""

from __future__ import annotations

import json
import multiprocessing
import selectors
import socket
import threading
import time
import weakref
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..canon import canonical_json, stable_digest, text_digest
from .cache import ArtifactCache
from .dist import (
    DEFAULT_LEASE_S,
    Lease,
    classify_lease,
    classify_result,
    heartbeat,
    job_document,
    now_s,
)
from .executor import execute_job
from .transport import (
    AttemptOutcome,
    InProcessTransport,
    ShardTransport,
    envelope_outcome,
)

#: Frame kinds, in protocol order.
FRAME_KINDS = ("HELLO", "JOB", "HEARTBEAT", "RESULT", "RETRACT")
FRAME_VERSION = 1
#: Length-prefix size: 4-byte big-endian payload byte count.
LENGTH_BYTES = 4
#: Hard payload cap — far above any real shard result, low enough that
#: a corrupted length prefix cannot make the coordinator buffer junk.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Reconnect backoff bounds (worker dial loop and smoke-tool dials).
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
#: Dial attempts before a worker gives the fleet up for dead.
DEFAULT_RECONNECT_LIMIT = 8
#: Connect and send timeout of every dial.
DIAL_TIMEOUT_S = 10.0


class ProtocolError(Exception):
    """A peer violated the frame protocol: the connection is dropped,
    the campaign continues."""


class OversizedFrameError(ProtocolError):
    """A length prefix promised more than :data:`MAX_FRAME_BYTES`."""


class TruncatedFrameError(ProtocolError):
    """The stream ended inside a frame (a torn write or a mid-frame
    connection cut)."""


class JunkFrameError(ProtocolError):
    """A complete frame that is not protocol: bad JSON, a digest
    mismatch, an unknown kind, or a kind illegal in this direction."""


# ---------------------------------------------------------------------------
# frame codec (pure)
# ---------------------------------------------------------------------------

def frame_digest(body: Dict[str, Any]) -> str:
    """The integrity digest a frame must carry for *body*."""
    return stable_digest(body, length=16)


def encode_frame(kind: str, body: Dict[str, Any]) -> bytes:
    """One wire frame: length prefix + digest-stamped JSON payload."""
    if kind not in FRAME_KINDS:
        raise JunkFrameError(f"unknown frame kind {kind!r}")
    # Hash and send one serialization of the body: its canonical JSON.
    text = canonical_json(body)
    payload = ('{"body":%s,"digest":"%s","frame":"%s","v":%d}' % (
        text, text_digest(text), kind, FRAME_VERSION)).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise OversizedFrameError(
            f"{kind} payload is {len(payload)} bytes "
            f"(cap {MAX_FRAME_BYTES})")
    return len(payload).to_bytes(LENGTH_BYTES, "big") + payload


def decode_payload(payload: bytes) -> Tuple[str, Dict[str, Any]]:
    """Parse one frame payload into ``(kind, body)``.

    Anything that is not a digest-correct protocol frame raises
    :class:`JunkFrameError` — corruption and malice are handled by the
    same door, nesting too deep for the parser's stack included.
    """
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        raise JunkFrameError("payload is not JSON")
    if not isinstance(document, dict):
        raise JunkFrameError("payload is not an object")
    kind = document.get("frame")
    body = document.get("body")
    if kind not in FRAME_KINDS:
        raise JunkFrameError(f"unknown frame kind {kind!r}")
    if not isinstance(body, dict):
        raise JunkFrameError(f"{kind} body is not an object")
    # Decoded JSON needs no canonicalizing walk: its sorted dump is it.
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    if document.get("digest") != text_digest(text):
        raise JunkFrameError(f"{kind} digest mismatch")
    return kind, body


class FrameBuffer:
    """Incremental frame decoder over an arbitrary byte stream.

    Feed whatever ``recv`` returned — half a frame, three frames and a
    prefix, one byte — and get back every *complete* frame.  The
    buffer raises the typed protocol errors; the caller's only duty is
    to drop the connection when it does.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[str, Dict[str, Any]]]:
        """Absorb *data*; return the frames it completed."""
        self._buffer.extend(data)
        frames: List[Tuple[str, Dict[str, Any]]] = []
        while len(self._buffer) >= LENGTH_BYTES:
            length = int.from_bytes(self._buffer[:LENGTH_BYTES], "big")
            if length == 0:
                raise JunkFrameError("zero-length frame")
            if length > self.max_frame:
                raise OversizedFrameError(
                    f"length prefix promises {length} bytes "
                    f"(cap {self.max_frame})")
            if len(self._buffer) < LENGTH_BYTES + length:
                break
            payload = bytes(self._buffer[LENGTH_BYTES:
                                         LENGTH_BYTES + length])
            del self._buffer[:LENGTH_BYTES + length]
            frames.append(decode_payload(payload))
        return frames

    def eof(self) -> None:
        """The stream ended: a non-empty remainder is a torn frame."""
        if self._buffer:
            raise TruncatedFrameError(
                f"stream ended {len(self._buffer)} byte(s) into a frame")

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# ---------------------------------------------------------------------------
# dialing (shared by workers, the loadgen, and the smoke tools)
# ---------------------------------------------------------------------------

def connect_backoff(attempt: int, base_s: float = BACKOFF_BASE_S,
                    cap_s: float = BACKOFF_CAP_S) -> float:
    """Seconds to wait before dial *attempt* (0-based): capped binary
    exponential, a pure function of the attempt number so every retry
    schedule is reproducible."""
    return min(float(cap_s), float(base_s) * (2.0 ** max(0, attempt)))


def parse_address(text: str) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)`` (pure; raises ValueError)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {text!r} is not host:port")
    return host, int(port)


def dial(host: str, port: int, attempts: int = 40,
         timeout_s: float = DIAL_TIMEOUT_S) -> socket.socket:
    """Connect to ``(host, port)``, retrying refusals with
    :func:`connect_backoff`.

    This is the startup-flake fix in one place: a dial that races a
    daemon or coordinator still binding its port gets
    ``ConnectionRefusedError`` on the first try and nothing on the
    second — failing a campaign (or a CI smoke) on that race is a
    flake, not a finding.
    """
    last: Optional[OSError] = None
    for attempt in range(max(1, attempts)):
        try:
            return socket.create_connection((host, port),
                                            timeout=timeout_s)
        except (ConnectionRefusedError, ConnectionAbortedError,
                ConnectionResetError) as exc:
            last = exc
            time.sleep(connect_backoff(attempt))
    raise last if last is not None else ConnectionRefusedError(
        f"could not reach {host}:{port}")


# ---------------------------------------------------------------------------
# the coordinator side (a ShardTransport)
# ---------------------------------------------------------------------------

class _Peer:
    """One accepted worker connection and its frame buffer."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = FrameBuffer()
        self.worker_id = ""          # set by HELLO
        self.job_id: Optional[str] = None  # job this peer is computing

    @property
    def idle(self) -> bool:
        return bool(self.worker_id) and self.job_id is None


class SocketTransport(ShardTransport):
    """The coordinator's listening end, as a shard transport.

    Construction binds (``port=0`` picks an ephemeral port; read
    :attr:`port` before spawning the fleet).  The transport itself is
    the buffer: the supervisor dispatches the whole plan, and dispatched
    jobs wait in a pending deque that however many workers dial in
    steal from — work stealing is the assignment loop.  Every dispatch
    is a :func:`~repro.runtime.dist.job_document` in that deque until a
    worker takes it; from then on it has one
    :class:`~repro.runtime.dist.Lease` in the lease table until a
    result envelope settles it (:meth:`_handle_result`) or it is
    reclaimed (:meth:`_reclaim_expired`).  All deadlines live on the
    coordinator's own monotonic clock, stamped when frames arrive, so
    nothing is ever compared across machines.

    *workers* is the size of the local fleet the transport forks, owns,
    and joins on ``close()``: each dispatch forks one more until there
    are *workers*, so a run served from cache forks none.  An owned
    worker's exit settles its leases as ``crash`` at once (its process
    sentinel sits in the selector), a ``hang`` reclaim kills it at the
    shard timeout, and a dead one is replaced while work is waiting.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_s: float = DEFAULT_LEASE_S,
                 shard_timeout: Optional[float] = None,
                 workers: int = 0) -> None:
        self.lease_s = float(lease_s)
        self.shard_timeout = shard_timeout
        self.workers = max(0, workers)
        #: worker id -> process handle of each live owned worker.
        self.fleet: Dict[str, Any] = {}
        self._forks = 0
        #: Dispatched job documents no worker has taken yet.
        self._pending: Deque[Dict[str, Any]] = deque()
        #: job id -> the lease of every job a worker has taken.
        self._leases: Dict[str, Lease] = {}
        self._peers: List[_Peer] = []
        self._completed: List[AttemptOutcome] = []
        self._seen_workers: set = set()
        self._stats: Dict[str, int] = {
            "frames_sent": 0, "frames_received": 0, "connects": 0,
            "reconnects": 0, "disconnects": 0, "protocol_errors": 0,
            "jobs_reclaimed": 0, "stale_results": 0}
        self._closed = False
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                None)
        _COORDINATORS.add(self)

    # -- interface ----------------------------------------------------

    def slots(self) -> int:
        return 1_000_000_000

    def dispatch(self, ticket: int, worker: str,
                 payload: Dict[str, Any], key: str = "",
                 label: str = "") -> None:
        self._check_open()
        self._pending.append(job_document(ticket, worker, payload, key,
                                          label, self.lease_s))
        if len(self.fleet) < self.workers:
            self._fork()

    def poll(self, timeout_s: float) -> List[AttemptOutcome]:
        self._check_open()
        deadline = time.perf_counter() + timeout_s
        while True:
            remaining = deadline - time.perf_counter()
            self._pump(max(0.0, remaining))
            self._assign_pending()
            outcomes, self._completed = self._completed, []
            outcomes.extend(self._reclaim_expired(time.perf_counter()))
            if outcomes or deadline - time.perf_counter() <= 0:
                return outcomes

    def close(self) -> None:
        """Broadcast stop to the dialed-in fleet and release the port,
        then join the fleet this transport owns, if any.

        Idempotent: a supervisor ``finally`` and an outer CLI cleanup
        may both call it.  The stop ``RETRACT`` is what keeps workers
        from burning their reconnect budget against a dead port.
        """
        if self._closed:
            return
        self._closed = True
        for peer in list(self._peers):
            try:
                self._send(peer, "RETRACT", {"job": "*", "stop": True})
            except OSError:
                pass
            self._drop_peer(peer)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()
        # An owned worker still computing now works for nobody.
        join_workers(list(self.fleet.values()), timeout_s=1.0)
        self.fleet = {}

    def stats(self) -> Dict[str, int]:
        """Wire counters (telemetry, never content): frames each way,
        connects/reconnects/disconnects, protocol errors, reclaims."""
        return dict(self._stats)

    # -- socket pump --------------------------------------------------

    def _check_open(self) -> None:
        """A closed transport has no listener, selector or fleet."""
        if self._closed:
            raise RuntimeError("transport closed")

    def _pump(self, wait_s: float) -> None:
        for key, _mask in self._selector.select(wait_s):
            if key.data is None:
                self._accept()
            elif isinstance(key.data, _Peer):
                self._service(key.data)
            else:
                self._reap(key.data)

    def _accept(self) -> None:
        while True:
            try:
                conn, _address = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            conn.setblocking(False)
            peer = _Peer(conn)
            self._peers.append(peer)
            self._selector.register(conn, selectors.EVENT_READ, peer)

    def _service(self, peer: _Peer) -> None:
        try:
            data = peer.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_peer(peer)
            return
        if not data:
            try:
                peer.buffer.eof()
            except TruncatedFrameError:
                self._stats["protocol_errors"] += 1
            self._drop_peer(peer)
            return
        try:
            frames = peer.buffer.feed(data)
            for kind, body in frames:
                self._stats["frames_received"] += 1
                self._handle(peer, kind, body)
        except ProtocolError:
            # A typed wire violation costs the sender its connection,
            # nothing else: leases keep ticking, the plan stays owed.
            self._stats["protocol_errors"] += 1
            self._drop_peer(peer)

    def _drop_peer(self, peer: _Peer) -> None:
        if peer not in self._peers:
            return
        self._peers.remove(peer)
        if peer.worker_id:
            self._stats["disconnects"] += 1
        try:
            self._selector.unregister(peer.sock)
        except (KeyError, ValueError):
            pass
        try:
            peer.sock.close()
        except OSError:
            pass
        lease = self._leases.get(peer.job_id)
        if lease is not None and lease.peer is peer:
            # The lease keeps running: a quick reconnect resumes the
            # claim; no reconnect lets the lease expire into reclaim.
            lease.peer = None

    def _send(self, peer: _Peer, kind: str, body: Dict[str, Any]) -> None:
        data = encode_frame(kind, body)
        peer.sock.settimeout(5.0)
        try:
            peer.sock.sendall(data)
        finally:
            peer.sock.setblocking(False)
        self._stats["frames_sent"] += 1

    # -- frame handlers -----------------------------------------------

    def _handle(self, peer: _Peer, kind: str,
                body: Dict[str, Any]) -> None:
        if not peer.worker_id and kind != "HELLO":
            raise JunkFrameError(f"{kind} before HELLO")
        if kind == "HELLO":
            self._handle_hello(peer, body)
        elif kind == "HEARTBEAT":
            self._handle_heartbeat(peer, body)
        elif kind == "RESULT":
            self._handle_result(peer, body)
        else:
            raise JunkFrameError(f"unexpected {kind} from a worker")

    def _handle_hello(self, peer: _Peer, body: Dict[str, Any]) -> None:
        worker = str(body.get("worker") or "")
        if not worker:
            raise JunkFrameError("HELLO names no worker")
        peer.worker_id = worker
        if worker in self._seen_workers:
            self._stats["reconnects"] += 1
        else:
            self._seen_workers.add(worker)
            self._stats["connects"] += 1
        claims = body.get("claims") or []
        if not isinstance(claims, list):
            raise JunkFrameError("HELLO claims is not a list")
        for job_id in claims:
            job_id = str(job_id)
            lease = self._leases.get(job_id)
            if lease is not None:
                # Reconnect-and-resume: rebind the claim and renew the
                # lease; the RESULT is expected on this connection.
                if lease.peer is not None and lease.peer is not peer:
                    lease.peer.job_id = None
                lease.peer = peer
                peer.job_id = job_id
                self._renew(lease, worker)
            else:
                # Already reclaimed (or never ours): tell the worker
                # so it can discard the zombie attempt.
                self._send(peer, "RETRACT", {"job": job_id})

    def _handle_heartbeat(self, peer: _Peer,
                          body: Dict[str, Any]) -> None:
        lease = self._leases.get(str(body.get("job") or ""))
        if lease is not None and lease.peer is peer:
            self._renew(lease, peer.worker_id)
        # Anything else is a zombie's heartbeat: ignored, not an error
        # — the worker may not have processed its RETRACT yet.

    def _handle_result(self, peer: _Peer,
                       envelope: Dict[str, Any]) -> None:
        """The first valid envelope for a leased job settles its
        ticket; anything else (a reclaimed zombie's result, a
        duplicate, a malformed echo) only counts as stale."""
        job_id = str(envelope.get("job"))
        if peer.job_id == job_id:
            peer.job_id = None       # the peer is idle either way
        lease = self._leases.get(job_id)
        if classify_result(envelope,
                           lease.job if lease is not None else None):
            self._stats["stale_results"] += 1
            return
        del self._leases[job_id]
        self._completed.append(envelope_outcome(envelope))

    # -- leases -------------------------------------------------------

    def _renew(self, lease: Lease, owner: str) -> None:
        lease.owner = owner
        lease.expires_at = time.perf_counter() + self.lease_s

    def _assign_pending(self) -> None:
        if not self._pending:
            return
        for peer in list(self._peers):
            if not self._pending:
                return
            if not peer.idle:
                continue
            job = self._pending.popleft()
            try:
                self._send(peer, "JOB", job)
            except OSError:
                self._pending.appendleft(job)
                self._drop_peer(peer)
                continue
            now = time.perf_counter()
            peer.job_id = job["job"]
            # A fresh claim's first deadline is longer than a lease:
            # its worker must receive and decode the JOB frame and
            # start its heartbeat before the first renewal.
            self._leases[job["job"]] = Lease(
                job, peer, peer.worker_id, now,
                now + max(2.0 * self.lease_s, 1.0))

    def _reclaim_expired(self, now: float) -> List[AttemptOutcome]:
        """Hung claims and lapsed leases become ``hang``/``crash``
        attempt outcomes (:func:`~repro.runtime.dist.classify_lease`),
        in job order; a ``hang`` kills its owner if it is ours.

        A still-connected carrier gets ``RETRACT`` and keeps its busy
        mark — it is wedged inside (or still grinding on) the
        retracted attempt, and handing it new work would queue frames
        behind a possibly-hung compute.  It becomes assignable again
        when its late RESULT arrives (and is dropped as stale) or when
        it disconnects.
        """
        outcomes: List[AttemptOutcome] = []
        for job_id, lease in sorted(self._leases.items()):
            outcome = classify_lease(lease, now, self.shard_timeout)
            if outcome is None:
                continue
            del self._leases[job_id]
            peer = lease.peer
            if peer is not None and peer in self._peers:
                try:
                    self._send(peer, "RETRACT", {"job": job_id})
                except OSError:
                    self._drop_peer(peer)
            if outcome.outcome == "hang" and lease.owner in self.fleet:
                self.fleet[lease.owner].kill()     # reaped like a crash
            self._stats["jobs_reclaimed"] += 1
            outcomes.append(outcome)
        return outcomes

    # -- the owned fleet ----------------------------------------------

    def _fork(self) -> None:
        worker_id = f"local-{self._forks}"
        self._forks += 1
        process = fork_worker(self.host, self.port, worker_id)
        self.fleet[worker_id] = process
        self._selector.register(process.sentinel, selectors.EVENT_READ,
                                process)

    def _reap(self, process: Any) -> None:
        """An owned worker exited: drop its connection, settle its
        leases as ``crash`` now, and fork a replacement if work waits."""
        self._selector.unregister(process.sentinel)
        process.join()
        worker_id = process.name
        del self.fleet[worker_id]
        for peer in [p for p in self._peers if p.worker_id == worker_id]:
            self._drop_peer(peer)
        now = time.perf_counter()
        for job_id, lease in sorted(self._leases.items()):
            if lease.owner != worker_id:
                continue
            del self._leases[job_id]
            self._completed.append(AttemptOutcome(
                ticket=lease.job["ticket"], outcome="crash",
                message=f"worker exited (code {process.exitcode})",
                elapsed_ms=(now - lease.claimed_at) * 1000.0,
                owner=worker_id))
        if self._pending:
            self._fork()

    def _abandon(self) -> None:
        """Silently close this process's copies of the coordinator's
        sockets: while a forked worker holds one, a sibling reads no EOF
        when the coordinator dies and can still dial its port."""
        for peer in self._peers:
            peer.sock.close()
        self._listener.close()
        self._selector.close()


# ---------------------------------------------------------------------------
# the worker side (`repro worker --connect`)
# ---------------------------------------------------------------------------

class SocketWorker:
    """One dial → HELLO → compute → RESULT loop against a coordinator.

    Workers are interchangeable and stateless between jobs: everything
    durable lives in the coordinator and the artifact cache, so any
    number can join or die at any time.  A worker never decides a
    shard's fate — it reports, the coordinator disposes.  The compute
    step is :func:`~repro.runtime.executor.execute_job` (cache-first
    by shard key, a broad-except firewall whose exception *name* the
    coordinator classifies) under a
    :func:`~repro.runtime.dist.heartbeat` that renews the lease until
    the shard finishes; the coordinator alone judges a hang.

    The worker survives the wire (with ``connect``/``disconnect``/
    ``reconnect`` worker events): a connection lost mid-compute does
    not lose the attempt — the worker finishes, redials with capped
    deterministic backoff, re-``HELLO``\\ s with its claim, and resends
    the result (a duplicate is dropped coordinator-side as stale).
    """

    def __init__(self, host: str, port: int, worker_id: str,
                 cache: Optional[ArtifactCache] = None,
                 events: Optional[Any] = None,
                 reconnect_limit: int = DEFAULT_RECONNECT_LIMIT,
                 backoff_base_s: float = BACKOFF_BASE_S,
                 backoff_cap_s: float = BACKOFF_CAP_S,
                 recv_timeout_s: float = 0.5) -> None:
        self.worker_id = worker_id
        self.cache = cache
        #: Optional :class:`repro.monitor.events.EventLogWriter`;
        #: receives ``worker`` lifecycle events (telemetry, not content).
        self.events = events
        self.host = host
        self.port = port
        self.reconnect_limit = max(0, reconnect_limit)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.recv_timeout_s = recv_timeout_s
        self._stop = False
        self._pending_result: Optional[Dict[str, Any]] = None

    # -- lifecycle ----------------------------------------------------

    def run(self, max_jobs: Optional[int] = None,
            idle_exit_s: Optional[float] = None) -> int:
        """Dial, serve, redial; returns the number of jobs executed.

        Exits on the coordinator's stop broadcast, after *max_jobs*
        executions, after *idle_exit_s* idle seconds, or once
        ``reconnect_limit`` consecutive dials fail.
        """
        done = 0
        failures = 0
        connected_before = False
        while not self._stop:
            if max_jobs is not None and done >= max_jobs:
                break
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=DIAL_TIMEOUT_S)
            except OSError:
                failures += 1
                if failures > self.reconnect_limit:
                    break
                time.sleep(connect_backoff(
                    failures - 1, self.backoff_base_s,
                    self.backoff_cap_s))
                continue
            failures = 0
            self._emit("reconnect" if connected_before else "connect",
                       "")
            connected_before = True
            try:
                budget = None if max_jobs is None else max_jobs - done
                done += self._session(sock, budget, idle_exit_s)
            except ProtocolError:
                pass                  # drop the connection, redial
            finally:
                self._emit("disconnect", "")
                try:
                    sock.close()
                except OSError:
                    pass
        return done

    def _session(self, sock: socket.socket, budget: Optional[int],
                 idle_exit_s: Optional[float]) -> int:
        sock.settimeout(self.recv_timeout_s)
        lock = threading.Lock()
        buffer = FrameBuffer()
        claims = [self._pending_result["job"]] \
            if self._pending_result else []
        try:
            self._send(sock, lock, "HELLO",
                       {"worker": self.worker_id, "claims": claims})
            if self._pending_result is not None:
                # The result computed while disconnected: deliver it
                # first.  A racing reclaim makes it stale, not wrong.
                self._send(sock, lock, "RESULT", self._pending_result)
                self._pending_result = None
        except OSError:
            return 0
        done = 0
        idle_since: Optional[float] = None
        while True:
            if budget is not None and done >= budget:
                return done
            try:
                data = sock.recv(65536)
            except socket.timeout:
                if idle_exit_s is not None:
                    now = time.perf_counter()
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= idle_exit_s:
                        self._stop = True
                        return done
                continue
            except OSError:
                return done          # connection lost; run() redials
            if not data:
                buffer.eof()         # raises on a torn frame
                return done
            for kind, body in buffer.feed(data):
                if kind == "JOB":
                    idle_since = None
                    delivered = self._execute(sock, lock, body)
                    done += 1
                    if not delivered:
                        return done  # result stashed; redial to send
                elif kind == "RETRACT":
                    if body.get("stop"):
                        self._stop = True
                        return done
                    # A claim we re-HELLOed was already reclaimed and
                    # retired; nothing to discard — results for it
                    # are dropped coordinator-side.
                else:
                    raise JunkFrameError(
                        f"unexpected {kind} from the coordinator")

    # -- compute ------------------------------------------------------

    def _execute(self, sock: socket.socket, lock: threading.Lock,
                 job: Dict[str, Any]) -> bool:
        """Run one job while a heartbeat thread renews its lease;
        returns False when the RESULT could not be sent (it is stashed
        for delivery after the next HELLO)."""
        label = job.get("label") or job.get("job") or ""
        self._emit("claim", label)
        stop = threading.Event()
        beat = threading.Thread(
            target=heartbeat,
            args=(job, lambda: self._renew(sock, lock, job), stop),
            daemon=True)
        beat.start()
        try:
            envelope = execute_job(job, self.cache, self.worker_id)
        finally:
            stop.set()
            beat.join(timeout=1.0)
        self._emit("done" if envelope["outcome"] == "ok" else "error",
                   label)
        try:
            self._send(sock, lock, "RESULT", envelope)
        except OSError:
            self._pending_result = envelope
            return False
        return True

    def _renew(self, sock: socket.socket, lock: threading.Lock,
               job: Dict[str, Any]) -> bool:
        """One HEARTBEAT frame; False once the connection is dead (the
        session loop notices on its own)."""
        try:
            self._send(sock, lock, "HEARTBEAT",
                       {"worker": self.worker_id, "job": job.get("job")})
        except OSError:
            return False
        return True

    # -- plumbing -----------------------------------------------------

    def _send(self, sock: socket.socket, lock: threading.Lock,
              kind: str, body: Dict[str, Any]) -> None:
        data = encode_frame(kind, body)
        with lock:
            sock.settimeout(DIAL_TIMEOUT_S)
            try:
                sock.sendall(data)
            finally:
                sock.settimeout(self.recv_timeout_s)

    def _emit(self, state: str, shard: str) -> None:
        if self.events is not None:
            self.events.append("worker", ts=int(now_s()), data={
                "worker": self.worker_id, "state": state, "shard": shard})


# ---------------------------------------------------------------------------
# local fleets: forked workers over loopback
# ---------------------------------------------------------------------------

#: Every coordinator alive in this process; a forked worker abandons
#: them all (:meth:`SocketTransport._abandon`) before it dials.
_COORDINATORS: "weakref.WeakSet[SocketTransport]" = weakref.WeakSet()


def _worker_main(host: str, port: int, worker_id: str,
                 cache_dir: Optional[str]) -> None:
    for coordinator in list(_COORDINATORS):
        coordinator._abandon()
    cache = ArtifactCache(root=cache_dir) if cache_dir else None
    # On loopback a refused dial means the coordinator is dead: exit.
    SocketWorker(host, port, worker_id, cache=cache,
                 reconnect_limit=0).run()


def fork_worker(host: str, port: int, worker_id: str,
                cache_dir: Optional[str] = None) -> Any:
    """Fork one :class:`SocketWorker` that dials ``host:port`` as
    *worker_id*; returns its :mod:`multiprocessing` process handle.  It
    reuses the parent's imports, ends through ``os._exit`` (inherited
    buffered streams are not flushed twice), and has no cache unless
    *cache_dir* names one: the supervisor persists each settled shard."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:          # no fork on this platform
        context = multiprocessing.get_context()
    process = context.Process(target=_worker_main, name=worker_id,
                              args=(host, port, worker_id, cache_dir),
                              daemon=True)
    process.start()
    return process


def join_workers(processes: List[Any], timeout_s: float = 5.0) -> None:
    """Give forked workers *timeout_s* in all to exit, then kill the
    stragglers: a worker wedged inside a hung shard cannot drain
    politely."""
    deadline = time.perf_counter() + timeout_s
    for process in processes:
        process.join(max(0.0, deadline - time.perf_counter()))
    for process in processes:
        if process.is_alive():
            process.kill()
            process.join(timeout_s)


def local_transport(workers: int = 1,
                    shard_timeout: Optional[float] = None
                    ) -> ShardTransport:
    """The single-host transport for a run: in-process for one worker
    without a shard timeout (nothing to fork, nothing to kill), else a
    :class:`SocketTransport` on loopback owning *workers* forked ones."""
    if workers <= 1 and shard_timeout is None:
        return InProcessTransport()
    return SocketTransport(shard_timeout=shard_timeout,
                           workers=max(1, workers))
