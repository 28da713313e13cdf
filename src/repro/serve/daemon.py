"""The asyncio OCSP-over-HTTP daemon (stdlib only).

A thin HTTP/1.1 transport over :class:`~repro.serve.app.ServeApp`:
per-connection read loops parse requests (POST bodies and RFC 6960
appendix A.1 GET paths, keep-alive, pipelined clients), route on the
``Host`` header, and answer each OCSP request with one synchronous
:meth:`ServeApp.exchange` (a cache miss is signed inline).  The
daemon serves a **fixed simulated clock** — it is the measured thing,
not a measurement, so it never reads wall time; byte-identity with the
in-process responder holds because both see the same ``now``.

Connections persist per RFC 9112 §9.3: an HTTP/1.1 request keeps the
connection open unless it says ``Connection: close``; an HTTP/1.0
request closes it unless it says ``Connection: keep-alive``.  The
answer to a closing request carries ``Connection: close``.

Robustness contract (exercised by the hostile-client tests): malformed
request lines, oversized headers or bodies, undecodable OCSP payloads,
and connections dropped mid-request must never take the daemon down —
each either gets a 4xx/OCSP-error answer or closes that connection
only.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from ..simnet.http import HTTPRequest, HTTPResponse
from .app import ServeApp

#: Hard caps: one request's header block and body.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 64 * 1024

#: Reserved control-path prefix ("-" is not in the base64 alphabet, so
#: this can never collide with an OCSP GET path).
CONTROL_PREFIX = "/-/"


class ProtocolError(Exception):
    """A malformed HTTP request; carries the status to answer with."""

    def __init__(self, status_code: int, reason: bytes) -> None:
        super().__init__(reason.decode("ascii", "replace"))
        self.status_code = status_code
        self.reason = reason


def render_response(response: HTTPResponse, keep_alive: bool) -> bytes:
    """Serialize one HTTP/1.1 response."""
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              405: "Method Not Allowed", 413: "Payload Too Large",
              431: "Request Header Fields Too Large"}.get(
                  response.status_code, "Error")
    lines = [f"HTTP/1.1 {response.status_code} {reason}".encode("ascii")]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}".encode("latin-1"))
    lines.append(b"Content-Length: %d" % len(response.body))
    lines.append(b"Connection: " +
                 (b"keep-alive" if keep_alive else b"close"))
    return b"\r\n".join(lines) + b"\r\n\r\n" + response.body


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[Tuple[str, str, str, bytes, str, str]]:
    """Read one request; None on clean EOF.

    Returns (method, path, host, body, version, connection), where
    *connection* is the ``Connection`` header ("" when absent).

    Raises :class:`ProtocolError` for anything malformed and lets
    connection-level exceptions (EOF mid-request, resets) propagate to
    the per-connection handler.
    """
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise
    except asyncio.LimitOverrunError:
        raise ProtocolError(431, b"header block too large") from None
    if len(header_block) > MAX_HEADER_BYTES:
        raise ProtocolError(431, b"header block too large")
    try:
        text = header_block[:-4].decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        method, path, version = request_line.split(" ", 2)
    except ValueError:
        raise ProtocolError(400, b"bad request line") from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, b"unsupported protocol version")
    headers = {}
    for line in header_lines:
        name, separator, value = line.partition(":")
        if not separator:
            raise ProtocolError(400, b"bad header line")
        headers[name.strip().lower()] = value.strip()
    host = headers.get("host", "").partition(":")[0].lower()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(400, b"bad content-length") from None
    if length < 0:
        raise ProtocolError(400, b"bad content-length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(413, b"request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, host, body, version, headers.get("connection", "")


class ServeDaemon:
    """asyncio transport around a :class:`ServeApp`."""

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 8688) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.connections = 0
        self.protocol_errors = 0
        self.dropped_connections = 0
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=MAX_HEADER_BYTES + MAX_BODY_BYTES)
        bound = self._server.sockets[0].getsockname()
        self.port = bound[1]
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling ----------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        keep_alive = True
        try:
            while keep_alive:
                try:
                    parsed = await read_request(reader)
                except ProtocolError as exc:
                    self.protocol_errors += 1
                    writer.write(render_response(
                        HTTPResponse(exc.status_code, exc.reason), False))
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, host, body, version, connection = parsed
                tokens = {token.strip().lower()
                          for token in connection.split(",")}
                keep_alive = "close" not in tokens and (
                    version != "HTTP/1.0" or "keep-alive" in tokens)
                response = self._respond(method, path, host, body)
                writer.write(render_response(response, keep_alive))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # Client went away mid-request — drop this connection only.
            self.dropped_connections += 1
        except asyncio.CancelledError:
            # Daemon shutting down with this connection idle/in-flight.
            pass
        finally:
            writer.close()

    def _respond(self, method: str, path: str, host: str,
                 body: bytes) -> HTTPResponse:
        host = host or "unknown.invalid"
        if path.startswith(CONTROL_PREFIX):
            response = self._control(method, path)
            self.app.log_access(host, method, response.status_code,
                                len(response.body), "control")
            return response
        return self.app.exchange(HTTPRequest(
            method=method, url=f"http://{host}{path}", body=body))

    def _control(self, method: str, path: str) -> HTTPResponse:
        """The daemon's own endpoints: /-/healthz and /-/stats."""
        if method != "GET":
            return HTTPResponse(405, b"method not allowed")
        if path == "/-/healthz":
            return HTTPResponse(200, b"ok",
                                {"Content-Type": "text/plain"})
        if path == "/-/stats":
            stats = dict(self.app.stats())
            stats["daemon"] = {
                "connections": self.connections,
                "protocol_errors": self.protocol_errors,
                "dropped_connections": self.dropped_connections,
            }
            return HTTPResponse(
                200, json.dumps(stats, sort_keys=True).encode("ascii"),
                {"Content-Type": "application/json"})
        return HTTPResponse(404, b"unknown control path")
