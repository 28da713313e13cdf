"""The serving application: Host routing and the pre-signed cache.

:class:`ServeApp` is everything the daemon does *except* sockets, so
the in-process load generator, the experiment shards, and the asyncio
transport all exercise the same code.  One request flows::

    HTTPRequest --exchange--> cache hit -> HTTPResponse       (warm path)
                          --> miss      -> responder core -> HTTPResponse

The warm path is two dict lookups; a miss is signed inline by the same
transport-neutral :meth:`~repro.ca.responder.OCSPResponder.handle`
core that answers in-process simnet traffic — which is why a daemon
response is byte-identical to the simulated responder's answer for the
same (request bytes, simulated clock).  A repeat of a miss is a cache
hit, so the same request bytes are signed once per epoch.

Cache correctness mirrors the core's own keying exactly: an entry is
only served while the responder's *generation epoch key* — its
``generation_time(now)`` plus the registry's visible-revocation count
— matches the one it was signed under, and while ``now`` is strictly
before the artifact's nextUpdate (the expired-at-the-boundary
fencepost).  Responders whose bodies vary with time outside that key
(``malformed_windows``) are never cached.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..asn1.errors import ASN1Error
from ..ca.responder import OCSPResponder
from ..monitor.events import MonitorEvent
from ..ocsp import OCSPRequest, ResponseArtifact
from ..simnet.http import HTTPRequest, HTTPResponse, decode_ocsp_get_path
from .cache import PresignedCache


class ResponderRuntime:
    """One responder's serving state: the core plus its pre-signed cache."""

    def __init__(self, responder: OCSPResponder,
                 cache_capacity: int = 65536) -> None:
        self.responder = responder
        self.cache = PresignedCache(capacity=cache_capacity)
        # Bodies that vary with simulated time outside the epoch key
        # cannot be pre-signed safely.
        self.cacheable = not responder.profile.malformed_windows
        self._epoch_now: Optional[int] = None
        self._epoch: Tuple[int, int] = (0, 0)

    def epoch_key(self, now: int) -> Tuple[int, int]:
        """The signing-epoch identity at *now* (memoized per instant).

        Matches the axes of the core's own response cache that are not
        already in the request bytes: the generation time and the
        visible-revocation count.  A pre-signed entry is only valid
        while this tuple equals the one it was signed under.
        """
        if now != self._epoch_now:
            registry = self.responder.authority.registry
            self._epoch = (self.responder.generation_time(now),
                           registry.visible_ocsp_count(now))
            self._epoch_now = now
        return self._epoch

    def lookup(self, request_der: bytes, now: int) -> Optional[ResponseArtifact]:
        """The pre-signed answer for these request bytes, if servable."""
        if not self.cacheable:
            return None
        return self.cache.get(request_der, now, epoch=self.epoch_key(now))

    def sign(self, request_der: Optional[bytes], now: int) -> ResponseArtifact:
        """Miss path: drive the core, then pre-sign the cache entry."""
        artifact = self.responder.handle(request_der, now)
        if self.cacheable and request_der is not None:
            self.cache.put(request_der, self._entry_key(request_der),
                           artifact, artifact.next_update,
                           epoch=self.epoch_key(now))
        return artifact

    def _entry_key(self, request_der: bytes) -> bytes:
        """What the request asks: the CertID-hash digest."""
        try:
            return OCSPRequest.from_der(request_der).cache_key()
        except (ASN1Error, ValueError):
            # Undecodable requests get a static error envelope; key by
            # the raw bytes so repeats still hit.
            return b"raw:" + request_der[:64]


class ServeApp:
    """Host-routed OCSP serving over any transport."""

    def __init__(self, now: int, cache_capacity: int = 65536) -> None:
        self.now = now
        self.runtimes: Dict[str, ResponderRuntime] = {}
        self.requests = 0
        #: Misses the responder core answered.
        self.signed = 0
        self.cache_capacity = cache_capacity
        #: When set, every served request emits one ``access``
        #: :class:`~repro.monitor.events.MonitorEvent` here (the
        #: daemon's ``--access-log`` plugs a JSONL writer in; tests
        #: plug lists in).  ``None`` keeps serving zero-overhead.
        self.access_sink: Optional[Callable[[MonitorEvent], None]] = None
        self.access_events = 0

    @classmethod
    def for_world(cls, world, now: Optional[int] = None,
                  cache_capacity: int = 65536) -> "ServeApp":
        """Serve every responder of a measurement world, Host-routed."""
        from ..simnet.clock import HOUR
        if now is None:
            now = world.config.start + HOUR
        app = cls(now=now, cache_capacity=cache_capacity)
        for site in world.sites:
            app.add_responder(site.hostname, site.responder)
        return app

    def add_responder(self, host: str, responder: OCSPResponder) -> None:
        self.runtimes[host] = ResponderRuntime(
            responder, cache_capacity=self.cache_capacity)

    def exchange(self, request: HTTPRequest,
                 now: Optional[int] = None) -> HTTPResponse:
        """Answer one request and log its access event.

        The one entry point of every transport: the in-process replay
        and the daemon call it for each OCSP request.
        """
        response, source = self.dispatch(request, now)
        self.log_access(request.host, request.method,
                        response.status_code, len(response.body), source)
        return response

    def dispatch(self, request: HTTPRequest, now: Optional[int] = None
                 ) -> Tuple[HTTPResponse, str]:
        """Route one request: its response and serving-path ``source``.

        Mirrors :func:`repro.simnet.ocsp_http_exchange` exactly: POST
        bodies and GET base64 paths carry the DER; an undecodable GET
        path flows to the core as ``request_der=None``; other methods
        are 405.  The only addition is the pre-signed fast path; a
        miss is signed inline.  perfbench's tracer wraps this method
        by name as its ``serve.app.dispatch`` layer.
        """
        if now is None:
            now = self.now
        self.requests += 1
        runtime = self.runtimes.get(request.host)
        if runtime is None:
            return HTTPResponse(404, b"unknown responder host"), "error"
        if request.method == "POST":
            request_der: Optional[bytes] = request.body
        elif request.method == "GET":
            try:
                request_der = decode_ocsp_get_path(request.path)
            except ValueError:
                request_der = None
        else:
            return HTTPResponse(405, b"method not allowed"), "error"
        if request_der is not None:
            artifact = runtime.lookup(request_der, now)
            if artifact is not None:
                response = artifact.to_http()
                return response, ("cache" if response.status_code == 200
                                  else "error")
        self.signed += 1
        return runtime.sign(request_der, now).to_http(), "signed"

    def log_access(self, host: str, method: str, status: int,
                   size: int, source: str) -> None:
        """Emit one ``access`` event to the sink, if one is attached.

        ``source`` tags the serving path — ``cache`` (pre-signed fast
        path), ``signed`` (a miss the responder core answered), ``error``
        (404/405 before any responder), ``control`` (the daemon's
        ``/-/`` endpoints) — not OCSP semantics: a signed OCSP error
        envelope is still ``signed``.  ``ts`` is the app's simulated
        clock, so an access log replays deterministically.
        """
        if self.access_sink is None:
            return
        event = MonitorEvent(kind="access", ts=self.now,
                             seq=(self.access_events,),
                             data={"host": host, "method": method,
                                   "status": status, "size": size,
                                   "source": source})
        self.access_events += 1
        self.access_sink(event)

    def stats(self) -> Dict[str, object]:
        """JSON-ready aggregate counters across every runtime."""
        cache_totals = {"entries": 0, "hits": 0, "misses": 0,
                        "expirations": 0, "evictions": 0}
        cache_by_host = {}
        for host, runtime in sorted(self.runtimes.items()):
            host_stats = runtime.cache.stats()
            cache_by_host[host] = host_stats
            for field_name, value in host_stats.items():
                cache_totals[field_name] += value
        return {
            "now": self.now,
            "hosts": len(self.runtimes),
            "requests": self.requests,
            "cache": cache_totals,
            "cache_by_host": cache_by_host,
            "signed": self.signed,
            "access": {"events": self.access_events,
                       "enabled": self.access_sink is not None},
        }
