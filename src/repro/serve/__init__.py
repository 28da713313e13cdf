"""repro.serve — the OCSP responder daemon and its serving stack.

The transport-neutral responder core
(:meth:`repro.ca.responder.OCSPResponder.handle`) answers every
transport the repo has: the simulated network
(:func:`repro.simnet.ocsp_service`), this package's asyncio daemon,
and the in-process load generator.  :class:`ServeApp` adds what a real
responder deployment adds — Host routing and a pre-signed response
cache with nextUpdate-aware refresh, signing each miss inline — without
touching response bytes, so a daemon answer is byte-identical to the
simulated responder's answer for the same (request, clock).
"""

from .app import ResponderRuntime, ServeApp
from .cache import CacheEntry, PresignedCache
from .daemon import MAX_BODY_BYTES, MAX_HEADER_BYTES, ServeDaemon
from .loadgen import (
    LoadReport,
    direct_responses,
    expected_digest,
    loadgen_gate,
    replay_inprocess,
    replay_tcp,
    synthesize_traffic,
)

__all__ = [
    "CacheEntry",
    "LoadReport",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "PresignedCache",
    "ResponderRuntime",
    "ServeApp",
    "ServeDaemon",
    "direct_responses",
    "expected_digest",
    "loadgen_gate",
    "replay_inprocess",
    "replay_tcp",
    "synthesize_traffic",
]
