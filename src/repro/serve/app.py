"""The serving application: Host routing over the responder core.

:class:`ServeApp` is everything the daemon does *except* sockets, so
the in-process load generator, the experiment shards, and the asyncio
transport all exercise the same code.  One request flows::

    HTTPRequest --exchange--> Host routing --> ocsp_http_exchange
                          --> responder core (cache hit, or sign) -> HTTPResponse

Routing is the only thing the app adds: HTTP framing is
:func:`repro.simnet.ocsp_http_exchange` and caching is the core's own
response cache (:meth:`~repro.ca.responder.OCSPResponder.handle`), so
a daemon response is byte-identical to the simulated responder's
answer for the same (request bytes, simulated clock) by construction.
A repeat of the same request bytes in the same signing epoch is a
cache hit, so each request is signed once per epoch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..ca.responder import OCSPResponder
from ..simnet.http import HTTPRequest, HTTPResponse, ocsp_http_exchange


class ServeApp:
    """Host-routed OCSP serving over any transport."""

    def __init__(self, now: int) -> None:
        self.now = now
        self.responders: Dict[str, OCSPResponder] = {}
        self.requests = 0
        #: Requests the responder core answered without a cache hit.
        self.signed = 0
        #: When set, every served request emits one ``access``
        #: :class:`~repro.monitor.events.MonitorEvent` here (the
        #: daemon's ``--access-log`` plugs a JSONL writer in; tests
        #: plug lists in).  ``None`` keeps serving zero-overhead.
        self.access_sink: Optional[Callable[["MonitorEvent"], None]] = None
        self.access_events = 0

    @classmethod
    def for_world(cls, world, now: Optional[int] = None) -> "ServeApp":
        """Serve every responder of a measurement world, Host-routed."""
        from ..simnet.clock import HOUR
        if now is None:
            now = world.config.start + HOUR
        app = cls(now=now)
        for site in world.sites:
            app.add_responder(site.hostname, site.responder)
        return app

    def add_responder(self, host: str, responder: OCSPResponder) -> None:
        self.responders[host] = responder

    def exchange(self, request: HTTPRequest,
                 now: Optional[int] = None) -> HTTPResponse:
        """Answer one request and log its access event.

        The one entry point of every transport: the in-process replay
        and the daemon call it for each OCSP request.
        """
        response, source = self.dispatch(request, now)
        if self.access_sink is not None:
            self.log_access(request.host, request.method,
                            response.status_code, len(response.body),
                            source)
        return response

    def dispatch(self, request: HTTPRequest, now: Optional[int] = None
                 ) -> Tuple[HTTPResponse, str]:
        """Route one request: its response and serving-path ``source``.

        An unknown Host is 404; everything else is
        :func:`repro.simnet.ocsp_http_exchange` against the routed
        responder.  perfbench's tracer wraps this method by name as its
        ``serve.app.dispatch`` layer.
        """
        if now is None:
            now = self.now
        self.requests += 1
        responder = self.responders.get(request.host)
        if responder is None:
            return HTTPResponse(404, b"unknown responder host"), "error"
        hits = responder.cache_hits
        response = ocsp_http_exchange(responder, request, now)
        if responder.cache_hits != hits:
            return response, "cache"
        if response.status_code == 405:
            return response, "error"
        self.signed += 1
        return response, "signed"

    def log_access(self, host: str, method: str, status: int,
                   size: int, source: str) -> None:
        """Emit one ``access`` event to the sink, if one is attached.

        ``source`` tags the serving path — ``cache`` (the core answered
        from its response cache), ``signed`` (the core answered without
        a hit), ``error`` (404/405 before any responder), ``control``
        (the daemon's ``/-/`` endpoints) — not OCSP semantics: a signed
        OCSP error envelope is still ``signed``.  ``ts`` is the app's
        simulated clock, so an access log replays deterministically.
        """
        if self.access_sink is None:
            return
        # Imported here: the monitor package costs every daemon that
        # keeps no access log its import time and memory.
        from ..monitor.events import MonitorEvent
        event = MonitorEvent(kind="access", ts=self.now,
                             seq=(self.access_events,),
                             data={"host": host, "method": method,
                                   "status": status, "size": size,
                                   "source": source})
        self.access_events += 1
        self.access_sink(event)

    def stats(self) -> Dict[str, object]:
        """JSON-ready aggregate counters; cache totals count each
        distinct responder once, however many hosts route to it."""
        cache_totals = {"entries": 0, "hits": 0, "misses": 0}
        cache_by_host = {}
        counted: List[OCSPResponder] = []
        for host, responder in sorted(self.responders.items()):
            host_stats = responder.cache_stats()
            cache_by_host[host] = host_stats
            if any(responder is seen for seen in counted):
                continue
            counted.append(responder)
            for field_name, value in host_stats.items():
                cache_totals[field_name] += value
        return {
            "now": self.now,
            "hosts": len(self.responders),
            "requests": self.requests,
            "cache": cache_totals,
            "cache_by_host": cache_by_host,
            "signed": self.signed,
            "access": {"events": self.access_events,
                       "enabled": self.access_sink is not None},
        }
