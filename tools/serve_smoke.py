#!/usr/bin/env python3
"""Serve smoke test: boot the daemon, burst corpus traffic at it over
real TCP, require byte-identity with the in-process responder core,
poke it with malformed HTTP, and shut it down cleanly.

This is the transport-neutrality contract of ``repro.serve`` exercised
the way CI can trust: a *separate process* runs ``python -m repro
serve`` (so the daemon sees real sockets, real framing, real
concurrency), while ``python -m repro loadgen`` replays a seeded
corpus against it and independently recomputes every expected answer
through :func:`repro.serve.loadgen.direct_responses` — the loadgen
exits non-zero on its own if a single response byte differs.

Steps:

1. bind port 0 to find a free port, then start
   ``repro serve --port P`` with pinned --seed/--responders/--certs;
2. poll ``GET /-/healthz`` until the daemon answers (world
   construction signs certificates, so readiness takes a moment);
3. run a ~2 s ``repro loadgen`` burst — its exit code IS the
   byte-identity verdict;
4. throw malformed HTTP at the same port (garbage request line,
   oversized body, a connection dropped mid-request) and require the
   daemon to answer with the right status codes and stay up;
5. send one ``Connection: close`` request without half-closing and
   require the daemon to answer and close within 5 s (RFC 9112 §9.6);
6. read ``/-/stats`` (must parse as JSON, show the burst, and show
   the responder core's cache answering repeats: ``cache.hits > 0``
   and fewer ``signed`` than ``requests``), then SIGINT the daemon
   and require exit code 0.

Usage: ``python tools/serve_smoke.py [requests]`` (default 2000).
Exit 0 on success.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
SEED = 6960
RESPONDERS = 16
CERTS = 2
READY_WAIT_S = 120.0
SHUTDOWN_WAIT_S = 15.0
CLOSE_WAIT_S = 5.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _raw_exchange(port: int, payload: bytes, recv: bool = True) -> bytes:
    """One TCP round trip of raw bytes (empty reply when recv=False).

    Dials via :func:`repro.runtime.sock.dial` so a probe racing the
    daemon's bind retries with bounded backoff instead of flaking.
    """
    from repro.runtime.sock import dial

    with dial("127.0.0.1", port, timeout_s=10.0) as conn:
        conn.sendall(payload)
        if not recv:
            return b""  # abrupt close: the mid-request drop probe
        conn.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _closes_after_reply(port: int) -> bool:
    """Whether a ``Connection: close`` request is answered and then the
    connection closed by the daemon within :data:`CLOSE_WAIT_S`."""
    from repro.runtime.sock import dial

    deadline = time.monotonic() + CLOSE_WAIT_S
    with dial("127.0.0.1", port, timeout_s=10.0) as conn:
        conn.sendall(b"GET /-/healthz HTTP/1.1\r\nHost: control\r\n"
                     b"Connection: close\r\n\r\n")
        reply = b""
        while True:
            conn.settimeout(max(0.01, deadline - time.monotonic()))
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                return False
            if not chunk:
                return reply.endswith(b"ok")
            reply += chunk


def _status_line(reply: bytes) -> str:
    return reply.split(b"\r\n", 1)[0].decode("ascii", "replace")


def _healthz(port: int) -> bool:
    try:
        reply = _raw_exchange(
            port, b"GET /-/healthz HTTP/1.1\r\nHost: control\r\n\r\n")
    except OSError:
        return False
    return b" 200 " in reply.split(b"\r\n", 1)[0] and reply.endswith(b"ok")


def main() -> int:
    requests = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    port = _free_port()
    common = ["--seed", str(SEED), "--responders", str(RESPONDERS),
              "--certs", str(CERTS)]

    # 1-2. Boot the daemon; wait for /-/healthz.
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port)]
        + common,
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.time() + READY_WAIT_S
        while time.time() < deadline and daemon.poll() is None:
            if _healthz(port):
                break
            time.sleep(0.2)
        else:
            stderr = daemon.stderr.read() if daemon.poll() is not None else ""
            print(f"daemon never became healthy on port {port}\n{stderr}")
            return 1
        print(f"daemon healthy on port {port}")

        # 3. The corpus burst.  loadgen recomputes every expected
        # response via the in-process core and exits 1 on MISMATCH,
        # so its exit code is the byte-identity assertion.
        burst = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen", "--port", str(port),
             "--requests", str(requests)] + common,
            env=_env(), capture_output=True, text=True)
        sys.stdout.write(burst.stdout)
        if burst.returncode != 0:
            print(f"loadgen burst failed (exit {burst.returncode}):\n"
                  f"{burst.stderr}")
            return 1

        # 4. Malformed HTTP: typed rejections, and the daemon survives.
        probes = [
            (b"not even http\r\n\r\n", "400"),
            (b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 100000"
             b"\r\n\r\n", "413"),
            (b"GET /%%%not-base64 HTTP/1.1\r\nHost: nowhere.invalid"
             b"\r\n\r\n", "404"),
        ]
        for payload, expected in probes:
            status = _status_line(_raw_exchange(port, payload))
            if f" {expected} " not in status + " ":
                print(f"probe {payload[:30]!r}: expected {expected}, "
                      f"got {status!r}")
                return 1
        # A client vanishing mid-request must not take the daemon down.
        _raw_exchange(port, b"POST / HTTP/1.1\r\nHost: x\r\nConte",
                      recv=False)
        if not _healthz(port):
            print("daemon unhealthy after malformed probes")
            return 1
        print(f"{len(probes)} malformed probes + 1 dropped connection "
              f"survived")

        # 5. Connection: close is honoured without the client's EOF.
        if not _closes_after_reply(port):
            print(f"daemon did not close a 'Connection: close' "
                  f"connection within {CLOSE_WAIT_S:.0f} s")
            return 1
        print("Connection: close answered and closed")

        # 6. Stats must parse and reflect the burst.
        reply = _raw_exchange(
            port, b"GET /-/stats HTTP/1.1\r\nHost: control\r\n\r\n")
        stats = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        if stats["requests"] < requests:
            print(f"stats recorded {stats['requests']} requests, "
                  f"expected >= {requests}")
            return 1
        if stats["cache"]["hits"] <= 0 \
                or stats["signed"] >= stats["requests"]:
            print(f"the response cache carried no repeats: "
                  f"{stats['cache']['hits']} hits, {stats['signed']} "
                  f"signed of {stats['requests']} requests")
            return 1
        print(f"stats: {stats['requests']} requests, "
              f"cache hits {stats['cache']['hits']}, "
              f"signed {stats['signed']}, "
              f"dropped connections "
              f"{stats['daemon']['dropped_connections']}")
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGINT)
        try:
            daemon.wait(timeout=SHUTDOWN_WAIT_S)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
            print("daemon did not exit on SIGINT")
            return 1

    if daemon.returncode != 0:
        print(f"daemon exited {daemon.returncode} on SIGINT\n"
              f"{daemon.stderr.read()}")
        return 1
    print("daemon exited cleanly on SIGINT")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
