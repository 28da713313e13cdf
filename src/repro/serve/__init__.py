"""repro.serve — the OCSP responder daemon and its serving stack.

The transport-neutral responder core
(:meth:`repro.ca.responder.OCSPResponder.handle`) answers every
transport the repo has: the simulated network
(:func:`repro.simnet.ocsp_service`), this package's asyncio daemon,
and the in-process load generator.  :class:`ServeApp` adds only Host
routing: framing and the response cache are the core's, so a daemon
answer is byte-identical to the simulated responder's answer for the
same (request, clock), and a repeat of the same request bytes in one
signing epoch is answered from the core's cache.
"""

from .app import ServeApp
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
    "LoadReport",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "ServeApp",
    "ServeDaemon",
    "direct_responses",
    "expected_digest",
    "loadgen_gate",
    "replay_inprocess",
    "replay_tcp",
    "synthesize_traffic",
]
