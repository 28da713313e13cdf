"""Deterministic load generator for the OCSP serving stack.

Traffic synthesis is a pure function of ``(world, seed)``: requests
are drawn from the world's scan targets with a seeded RNG, choosing
GET or POST per RFC 6960 appendix A.1 through the same
:func:`repro.simnet.ocsp_request` chooser real clients use.  The same
seed therefore replays the identical byte stream against the
in-process :class:`~repro.serve.app.ServeApp` and against a live
daemon over TCP — and because the report folds every response body
into one running digest, "the daemon answers byte-identically to the
in-process responder" is a single string comparison.

Replay measures wall-clock latency (that is the *point* — the serving
stack is the system under test), which is why the replay functions
carry ``allow-effect[WALL_CLOCK]`` pragmas: timing columns are
measurements, not deterministic content.  Everything else in the
report (status counts, body digest, hit counts) is deterministic.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..simnet.http import HTTPRequest, ocsp_request


def synthesize_traffic(world, count: int, seed: int = 0,
                       get_fraction: float = 0.25,
                       nonce_fraction: float = 0.0) -> List[HTTPRequest]:
    """*count* requests drawn from the world's scan targets, seeded.

    ``get_fraction`` of requests prefer the GET transport (falling
    back to POST when the encoded request exceeds the 255-byte URL
    limit, exactly as clients do); ``nonce_fraction`` get a fresh
    random-but-seeded nonce, so its first answer is always signed; the
    fraction controls the miss rate of a load test's first replay.
    """
    from ..ocsp import OCSPRequest
    targets = world.scan_targets()
    if not targets:
        raise ValueError("world has no scan targets")
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        target = targets[rng.randrange(len(targets))]
        if nonce_fraction and rng.random() < nonce_fraction:
            der = OCSPRequest.for_single(
                target.cert_id, nonce=rng.getrandbits(64).to_bytes(8, "big")
            ).encode()
        else:
            der = target.request_der
        prefer_get = rng.random() < get_fraction
        requests.append(ocsp_request(target.site.url, der,
                                     prefer_get=prefer_get))
    return requests


@dataclass
class LoadReport:
    """What one replay saw: throughput, tail latency, and identity."""

    requests: int = 0
    duration_s: float = 0.0
    status_counts: Dict[int, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    #: SHA-256 over every response body, in request order — equal
    #: digests mean byte-identical response streams.
    body_digest: str = ""
    #: Requests that never got a complete response (dropped
    #: connections mid-replay); their bodies digest as empty, so any
    #: incomplete replay also breaks the identity digest — but this
    #: counter names the cause instead of leaving a bare mismatch.
    incomplete: int = 0

    @property
    def req_per_s(self) -> float:
        return self.requests / self.duration_s if self.duration_s else 0.0

    def percentile_ms(self, q: float) -> float:
        """Latency percentile (0 <= q <= 100), nearest-rank."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[rank]

    def summary(self) -> Dict[str, object]:
        """JSON-ready condensation (drops the raw latency list)."""
        return {
            "requests": self.requests,
            "duration_s": round(self.duration_s, 6),
            "req_per_s": round(self.req_per_s, 1),
            "p50_ms": round(self.percentile_ms(50), 4),
            "p99_ms": round(self.percentile_ms(99), 4),
            "status_counts": {str(code): count for code, count
                              in sorted(self.status_counts.items())},
            "body_digest": self.body_digest,
            "incomplete": self.incomplete,
        }


def expected_digest(responses: Sequence[bytes]) -> str:
    """The body digest a replay of these responses should report."""
    digest = hashlib.sha256()
    for body in responses:
        digest.update(len(body).to_bytes(8, "big"))
        digest.update(body)
    return digest.hexdigest()


def replay_inprocess(app, requests: Sequence[HTTPRequest],  # repro: allow-effect[WALL_CLOCK] -- load replay measures serving latency; timing columns are measurements, not deterministic content
                     record_latency: bool = True) -> LoadReport:
    """Replay through :meth:`ServeApp.exchange`, timing each request."""
    report = LoadReport(requests=len(requests))
    digest = hashlib.sha256()
    started = time.perf_counter()
    for request in requests:
        t0 = time.perf_counter()
        response = app.exchange(request)
        if record_latency:
            report.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        report.status_counts[response.status_code] = \
            report.status_counts.get(response.status_code, 0) + 1
        digest.update(len(response.body).to_bytes(8, "big"))
        digest.update(response.body)
    report.duration_s = time.perf_counter() - started
    report.body_digest = digest.hexdigest()
    return report


def direct_responses(world, requests: Sequence[HTTPRequest],
                     now: int) -> List[bytes]:
    """Ground truth: each request answered by the in-process core.

    Each responder answers from a response cache of its own
    (:meth:`~repro.ca.OCSPResponder.without_cache`), so nothing a
    server over the same world stored can reach the answers.
    """
    from ..simnet.http import ocsp_http_exchange
    by_host = {site.hostname: site.responder.without_cache()
               for site in world.sites}
    bodies = []
    for request in requests:
        bodies.append(ocsp_http_exchange(
            by_host[request.host], request, now).body)
    return bodies


# -- TCP replay ---------------------------------------------------------------

def render_request(request: HTTPRequest) -> bytes:
    """Serialize one HTTP/1.1 request for the wire (keep-alive)."""
    head = (f"{request.method} {request.path or '/'} HTTP/1.1\r\n"
            f"Host: {request.host}\r\n"
            f"Content-Length: {len(request.body)}\r\n")
    for name, value in request.headers.items():
        head += f"{name}: {value}\r\n"
    return head.encode("latin-1") + b"\r\n" + request.body


async def _read_response(reader: asyncio.StreamReader):
    header_block = await reader.readuntil(b"\r\n\r\n")
    lines = header_block[:-4].decode("latin-1").split("\r\n")
    status_code = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status_code, body


async def _dial(host: str, port: int, attempts: int = 40):
    """Open a connection, retrying refusals with deterministic backoff.

    A daemon that was *just* spawned may not be listening yet; racing
    its bind with a bare ``open_connection`` makes every load replay a
    coin flip.  The backoff schedule is the socket transport's
    (:func:`repro.runtime.sock.connect_backoff`) — pure in the attempt
    ordinal, so retry pacing never adds nondeterminism.
    """
    from ..runtime.sock import connect_backoff

    for attempt in range(attempts):
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionRefusedError, ConnectionAbortedError,
                ConnectionResetError):
            if attempt == attempts - 1:
                raise
            await asyncio.sleep(connect_backoff(attempt))
    raise ConnectionRefusedError(f"{host}:{port} never accepted")


async def _worker(host: str, port: int, requests: Sequence[HTTPRequest],  # repro: allow-effect[WALL_CLOCK] -- load replay measures serving latency over TCP
                  statuses: List[int], bodies: List[Optional[bytes]],
                  latencies: List[float], indices: Sequence[int]) -> None:
    reader, writer = await _dial(host, port)
    try:
        for index in indices:
            t0 = time.perf_counter()
            writer.write(render_request(requests[index]))
            await writer.drain()
            status_code, body = await _read_response(reader)
            latencies.append((time.perf_counter() - t0) * 1e3)
            statuses[index] = status_code
            bodies[index] = body
    finally:
        writer.close()


def replay_tcp(host: str, port: int, requests: Sequence[HTTPRequest],
               concurrency: int = 8) -> LoadReport:
    """Replay against a live daemon over *concurrency* keep-alive
    connections; bodies are digested in request order so the report is
    comparable with an in-process replay of the same traffic."""

    async def main() -> float:  # repro: allow-effect[WALL_CLOCK] -- load replay measures serving latency over TCP
        statuses[:] = [0] * len(requests)
        bodies[:] = [None] * len(requests)
        lanes = [list(range(lane, len(requests), concurrency))
                 for lane in range(concurrency)]
        started = time.perf_counter()
        await asyncio.gather(*(
            _worker(host, port, requests, statuses, bodies,
                    latencies, lane)
            for lane in lanes if lane))
        return time.perf_counter() - started

    statuses: List[int] = []
    bodies: List[Optional[bytes]] = []
    latencies: List[float] = []
    duration = asyncio.run(main())
    report = LoadReport(requests=len(requests), duration_s=duration,
                        latencies_ms=latencies,
                        incomplete=sum(1 for body in bodies
                                       if body is None))
    for status_code in statuses:
        report.status_counts[status_code] = \
            report.status_counts.get(status_code, 0) + 1
    report.body_digest = expected_digest(
        [body if body is not None else b"" for body in bodies])
    return report


def loadgen_gate(report: LoadReport,
                 expected: Optional[str] = None) -> List[str]:
    """The hard CI gate: every reason this replay is not trustworthy.

    Empty list = clean replay.  Checks are structural (every request
    answered, every status 200) plus — when *expected* is given — the
    stream-digest identity against the in-process ground truth.  The
    CLI turns a non-empty list into a non-zero exit, so CI can rely on
    ``repro loadgen`` as a byte-identity check, not just a report.
    """
    problems = []
    if report.incomplete:
        problems.append(
            f"{report.incomplete} request(s) never got a complete "
            f"response (dropped connections)")
    bad_statuses = {code: count for code, count
                    in sorted(report.status_counts.items())
                    if code != 200}
    if bad_statuses:
        problems.append(
            "non-200 responses: " + ", ".join(
                f"{count}x {code}" for code, count in bad_statuses.items()))
    if expected is not None and report.body_digest != expected:
        problems.append(
            f"response stream digest mismatch: got "
            f"{report.body_digest}, expected {expected}")
    return problems
