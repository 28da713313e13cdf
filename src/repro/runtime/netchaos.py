"""Deterministic network-fault chaos for the socket transport.

The :mod:`repro.faults` idiom — injectors as declarative dataclasses
whose every decision is a pure function of a seed and explicit
coordinates — applied to our own wire protocol.  A
:class:`ChaosPlan` decides the fate of frame *i* of stream *s* from
``unit_draw(seed, kind, s, i)`` alone: no RNG state, no clock, so two
runs (or a test and its failure reproduction) mangle identically.

Fault families, mirroring what the paper's measurement campaigns met
on the real network: seeded frame **drop**, **delay-reorder** (a
frame held past its successors), **duplication**, **truncation
mid-frame** followed by a reset (the torn write), abrupt **connection
reset**, and a **black-hole partition** window (frames silently
eaten, the connection held open — the failure mode that makes
lease-based reclaim earn its keep).

The pure core is the decision/mangle layer (:func:`mangle_step` /
:func:`mangle_stream`) — certified effect-free by ``repro analyze``'s
``netchaos`` contract group.  :class:`ChaosProxy` is the deliberately
impure shell: a real TCP proxy that splits the byte stream into wire
frames and applies the plan between a coordinator and its workers, so
``tests/test_sock.py`` and the ``fleet-smoke`` CI job can prove merged
bytes are invariant under wire hostility.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..canon import stable_digest
from ..faults.injectors import unit_draw
from .sock import LENGTH_BYTES, MAX_FRAME_BYTES, dial

#: One mangle action: ``("send", data)`` forwards bytes downstream,
#: ``("reset", b"")`` aborts the connection (RST, not FIN).
Action = Tuple[str, bytes]


@dataclass(frozen=True)
class FrameFate:
    """What happens to one wire frame (a pure decision record).

    ``hold`` delays delivery until that many later frames have passed
    (the reorder primitive); ``truncate_keep`` forwards only that
    fraction of the frame's bytes and implies a reset — a frame cut
    mid-write is unrecoverable for the stream, exactly like a real
    torn connection.
    """

    drop: bool = False
    duplicate: bool = False
    hold: int = 0
    truncate_keep: Optional[float] = None
    reset: bool = False


#: The do-nothing fate (shared; FrameFate is frozen).
PASS = FrameFate()


@dataclass(frozen=True)
class FrameDrop:
    """Silently eat a seeded fraction of frames."""

    kind = "drop"
    rate: float = 0.0

    def decide(self, seed: int, stream: str,
               index: int) -> Optional[FrameFate]:
        if unit_draw(seed, self.kind, stream, index) < self.rate:
            return FrameFate(drop=True)
        return None


@dataclass(frozen=True)
class FrameDelay:
    """Hold a seeded fraction of frames past 1..depth successors."""

    kind = "delay"
    rate: float = 0.0
    depth: int = 2

    def decide(self, seed: int, stream: str,
               index: int) -> Optional[FrameFate]:
        if unit_draw(seed, self.kind, stream, index) < self.rate:
            hold = 1 + int(unit_draw(seed, self.kind, "depth", stream,
                                     index) * max(1, self.depth))
            return FrameFate(hold=hold)
        return None


@dataclass(frozen=True)
class FrameDuplicate:
    """Deliver a seeded fraction of frames twice."""

    kind = "duplicate"
    rate: float = 0.0

    def decide(self, seed: int, stream: str,
               index: int) -> Optional[FrameFate]:
        if unit_draw(seed, self.kind, stream, index) < self.rate:
            return FrameFate(duplicate=True)
        return None


@dataclass(frozen=True)
class FrameTruncate:
    """Cut a seeded fraction of frames mid-write, then reset."""

    kind = "truncate"
    rate: float = 0.0
    keep: float = 0.5

    def decide(self, seed: int, stream: str,
               index: int) -> Optional[FrameFate]:
        if unit_draw(seed, self.kind, stream, index) < self.rate:
            return FrameFate(truncate_keep=self.keep, reset=True)
        return None


@dataclass(frozen=True)
class ConnectionReset:
    """Forward a seeded fraction of frames whole, then reset."""

    kind = "reset"
    rate: float = 0.0

    def decide(self, seed: int, stream: str,
               index: int) -> Optional[FrameFate]:
        if unit_draw(seed, self.kind, stream, index) < self.rate:
            return FrameFate(reset=True)
        return None


@dataclass(frozen=True)
class Partition:
    """Black-hole window: frames ``start <= i < start+length`` vanish
    while the connection stays open — the silent partition that only
    heartbeat-timed leases can detect."""

    kind = "partition"
    start: int = 0
    length: int = 0

    def decide(self, seed: int, stream: str,
               index: int) -> Optional[FrameFate]:
        if self.start <= index < self.start + self.length:
            return FrameFate(drop=True)
        return None


@dataclass(frozen=True)
class ChaosPlan:
    """A named, seeded composition of wire-fault injectors.

    First injector with an opinion wins — composition by priority,
    like a fault plan's scenario list.  ``decide`` is a pure function
    of ``(seed, stream, frame_index)``; *stream* is any stable label
    the harness chooses (direction plus connection ordinal in the
    proxy), so independent streams draw independently while staying
    reproducible.
    """

    name: str = "passthrough"
    seed: int = 0
    injectors: Tuple[Any, ...] = ()

    def decide(self, stream: str, index: int) -> FrameFate:
        for injector in self.injectors:
            fate = injector.decide(self.seed, stream, index)
            if fate is not None:
                return fate
        return PASS

    def plan_digest(self) -> str:
        """Content address of the plan (test/provenance labeling)."""
        return stable_digest(
            {"name": self.name, "seed": self.seed,
             "injectors": [dict(asdict(injector),
                                kind=injector.kind)
                           for injector in self.injectors]},
            length=12)


def netchaos_plan(name: str, seed: int = 0) -> ChaosPlan:
    """The named wire-fault catalogue (pure).

    ``passthrough`` is the control; ``hostile`` composes every family
    at once — the plan the fleet-smoke CI job runs under.
    """
    catalogue: Dict[str, Tuple[Any, ...]] = {
        "passthrough": (),
        "drop": (FrameDrop(rate=0.08),),
        "reorder": (FrameDelay(rate=0.15, depth=3),),
        "duplicate": (FrameDuplicate(rate=0.12),),
        "truncate": (FrameTruncate(rate=0.04, keep=0.5),),
        "reset": (ConnectionReset(rate=0.04),),
        "partition": (Partition(start=4, length=6),),
        "hostile": (FrameTruncate(rate=0.01, keep=0.6),
                    ConnectionReset(rate=0.02),
                    FrameDrop(rate=0.04),
                    FrameDelay(rate=0.08, depth=2),
                    FrameDuplicate(rate=0.05)),
    }
    if name not in catalogue:
        known = ", ".join(sorted(catalogue))
        raise KeyError(f"unknown netchaos plan {name!r} (known: {known})")
    return ChaosPlan(name=name, seed=seed, injectors=catalogue[name])


def netchaos_plan_names() -> List[str]:
    """Every named plan, sorted (pure)."""
    return ["drop", "duplicate", "hostile", "partition", "passthrough",
            "reorder", "reset", "truncate"]


# ---------------------------------------------------------------------------
# the pure mangle engine
# ---------------------------------------------------------------------------

Held = Tuple[Tuple[int, bytes], ...]


def mangle_step(plan: ChaosPlan, stream: str, index: int, frame: bytes,
                held: Held) -> Tuple[List[Action], Held, bool]:
    """One frame through *plan*: ``(actions, held', closed)``.

    *held* threads the delayed-frame buffer between calls (entries are
    ``(due_index, data)``).  A pure state-transition function — the
    proxy below and :func:`mangle_stream` are both thin drivers over
    it, so unit tests certify exactly what the wire applies.
    """
    fate = plan.decide(stream, index)
    actions: List[Action] = []
    pending: List[Tuple[int, bytes]] = list(held)
    if fate.drop:
        pass
    elif fate.truncate_keep is not None:
        keep = int(len(frame) * fate.truncate_keep)
        if keep > 0:
            actions.append(("send", frame[:keep]))
    elif fate.hold > 0:
        pending.append((index + fate.hold, frame))
    else:
        actions.append(("send", frame))
        if fate.duplicate:
            actions.append(("send", frame))
    ready = [entry for entry in pending if entry[0] <= index]
    pending = [entry for entry in pending if entry[0] > index]
    for _due, data in ready:
        actions.append(("send", data))
    if fate.reset:
        actions.append(("reset", b""))
        return actions, (), True
    return actions, tuple(pending), False


def flush_held(held: Held) -> List[Action]:
    """End-of-stream: deliver whatever is still delayed, in order."""
    return [("send", data) for _due, data in sorted(held)]


def mangle_stream(plan: ChaosPlan, stream: str,
                  frames: List[bytes]) -> List[Action]:
    """A whole frame sequence through *plan* (pure; test harness).

    The reference semantics for what :class:`ChaosProxy` does to a
    live connection — byte-for-byte, since both drive
    :func:`mangle_step`.
    """
    actions: List[Action] = []
    held: Held = ()
    for index, frame in enumerate(frames):
        step_actions, held, closed = mangle_step(plan, stream, index,
                                                 frame, held)
        actions.extend(step_actions)
        if closed:
            return actions
    actions.extend(flush_held(held))
    return actions


# ---------------------------------------------------------------------------
# the impure shell: a real TCP proxy applying the plan
# ---------------------------------------------------------------------------

def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes, or None on EOF/error."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_wire_frame(sock: socket.socket) -> Optional[bytes]:
    """One raw frame (prefix included) off *sock*, or None."""
    prefix = _recv_exact(sock, LENGTH_BYTES)
    if prefix is None:
        return None
    length = int.from_bytes(prefix, "big")
    if length == 0 or length > MAX_FRAME_BYTES:
        return None                  # not our protocol: drop the pump
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return prefix + payload


def _abort(sock: socket.socket) -> None:
    """Close with RST (SO_LINGER 0), the abrupt way.  ``SHUT_RD`` first
    wakes a thread blocked in ``recv`` or ``accept`` on *sock*, which
    ``close`` alone does not: until it wakes, nothing is reset."""
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class ChaosProxy:
    """A frame-aware TCP proxy between workers and a coordinator.

    Workers dial the proxy; each accepted connection gets its own
    upstream dial and two pump threads (``c2s`` and ``s2c``), each
    keyed as ``{direction}/{connection_ordinal}`` so the plan's pure
    decisions stay reproducible per stream.  The proxy never invents
    bytes: every byte it forwards came off one side's wire, in frame
    units, mangled only as :func:`mangle_step` directs.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 plan: ChaosPlan, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {
            "connections": 0, "frames": 0, "sends": 0, "resets": 0}
        self._closed = False
        self._clients: List[socket.socket] = []
        self._threads: List[threading.Thread] = []
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()[:2]

    def start(self) -> "ChaosProxy":
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Stop accepting and reset every client, one whose upstream
        dial is still retrying included."""
        with self._lock:
            self._closed = True
        for sock in [self._listener] + self._clients:
            _abort(sock)

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _address = self._listener.accept()
            except OSError:
                return
            with self._lock:
                if self._closed:
                    _abort(client)
                    return
                self._clients.append(client)
                ordinal = self.counts["connections"]
                self.counts["connections"] += 1
            try:
                upstream = dial(*self.upstream, attempts=20)
            except OSError:
                _abort(client)
                continue
            for direction, src, dst in (("c2s", client, upstream),
                                        ("s2c", upstream, client)):
                thread = threading.Thread(
                    target=self._pump,
                    args=(f"{direction}/{ordinal}", src, dst),
                    daemon=True)
                thread.start()
                self._threads.append(thread)

    def _pump(self, stream: str, src: socket.socket,
              dst: socket.socket) -> None:
        held: Held = ()
        index = 0
        while not self._closed:
            frame = _read_wire_frame(src)
            if frame is None:
                break
            self._count("frames")
            actions, held, closed = mangle_step(self.plan, stream,
                                                index, frame, held)
            index += 1
            if not self._apply(actions, src, dst):
                return
            if closed:
                return
        # Clean EOF (or junk): flush delays, half-close downstream so
        # the endpoint sees the same end the source produced.
        self._apply(flush_held(held), src, dst)
        try:
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _apply(self, actions: List[Action], src: socket.socket,
               dst: socket.socket) -> bool:
        for op, data in actions:
            if op == "send":
                try:
                    dst.sendall(data)
                except OSError:
                    return False
                self._count("sends")
            else:
                self._count("resets")
                _abort(dst)
                _abort(src)
                return False
        return True
