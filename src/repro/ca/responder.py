"""The simulated OCSP responder core (RFC 6960), transport-neutral.

One :class:`OCSPResponder` serves one responder URL for one CA, with
its behaviour fully described by a
:class:`~repro.ca.profiles.ResponderProfile`.  Responses are generated
deterministically from the simulated time, so two requests in the
same update epoch see byte-identical responses, exactly like a caching
responder.  Each responder keeps one response cache keyed by the
request DER: a repeat of the same bytes within the same signing epoch
(generation time plus visible-revocation count) is answered with the
stored artifact, anything else is signed afresh.  The cache is what
the ``repro.serve`` daemon's warm path and four months of replayed
scans both hit.

The core speaks DER, not HTTP: :meth:`OCSPResponder.handle` takes the
raw request bytes plus the simulated clock and returns a
:class:`~repro.ocsp.ResponseArtifact`.  HTTP framing (POST bodies, GET
base64 paths, method policing) lives in one shared adapter —
:func:`repro.simnet.ocsp_http_exchange` — so the in-process simnet
services and the ``repro.serve`` daemon drive the identical
signing/caching path and answer byte-identically for the same
(request, clock).
"""

from __future__ import annotations

import copy
import hashlib
from typing import Dict, List, Optional, Tuple

from ..asn1.errors import ASN1Error
from ..canon import stable_seed
from ..crypto import RSAPrivateKey, generate_keypair
from ..memo import BoundedMemo
from ..ocsp import (
    CertID,
    CertStatus,
    OCSPRequest,
    ResponseArtifact,
    ResponseStatus,
    RevokedInfo,
    SingleResponse,
    encode_error_response,
    encode_response,
)
from ..simnet.http import HTTPRequest, HTTPResponse
from ..x509 import Certificate
from .authority import CertificateAuthority
from .profiles import ResponderProfile

_JAVASCRIPT_BODY = (
    b"<html><head><script>window.location='https://example.test/';"
    b"</script></head><body>Please enable JavaScript.</body></html>"
)

#: RFC 8954: a request nonce is 1 to 32 octets; any other length is a
#: malformed request, so no requester puts large chosen bytes under
#: the CA's signature.
MAX_NONCE_OCTETS = 32
#: CertIDs one request may name.  Each becomes a SingleResponse the
#: responder signs, so the cap bounds one request's signing work.
MAX_CERT_IDS = 16


def _cache_entry(request_der: bytes) -> list:
    """``[parsed request, epoch, artifact]``; raises for undecodable DER
    and for a request outside the nonce and CertID caps."""
    request = OCSPRequest.from_der(request_der)
    nonce = request.nonce
    if len(request.cert_ids) > MAX_CERT_IDS or \
            (nonce is not None and not 1 <= len(nonce) <= MAX_NONCE_OCTETS):
        raise ValueError("request outside the nonce or CertID caps")
    return [request, None, None]


class OCSPResponder:
    """Serves OCSP responses for a CA according to a behaviour profile."""

    def __init__(self, authority: CertificateAuthority, url: str,
                 profile: Optional[ResponderProfile] = None,
                 epoch_start: int = 0,
                 chain_to_root: Optional[List[Certificate]] = None) -> None:
        self.authority = authority
        self.url = url
        self.profile = profile or ResponderProfile()
        self.epoch_start = epoch_start
        self._chain_to_root = list(chain_to_root or [])
        # Request DER -> [parsed OCSPRequest, epoch, ResponseArtifact]:
        # a pre-generating responder *serves the same bytes* all epoch,
        # and scanners re-send identical request bytes every probe, so
        # each distinct request parses once and signs once per epoch.
        self._responses: BoundedMemo[bytes, list] = BoundedMemo(256)
        self.cache_hits = 0
        self.cache_misses = 0
        # (now, registry revision, epoch) of the last epoch computed.
        self._epoch_memo: Tuple[int, int, Tuple[int, int]] = (-1, -1, (0, 0))

        self._signer_key: RSAPrivateKey = authority.key
        self._signer_cert: Optional[Certificate] = None
        if self.profile.delegated_signing:
            seed = stable_seed(authority.name, url)
            self._signer_key = generate_keypair(512, rng=seed)
            self._signer_cert = authority.issue_ocsp_signer(
                self._signer_key,
                not_before=authority.certificate.validity.not_before,
            )
        if self.profile.wrong_key:
            seed = stable_seed("wrong", authority.name, url)
            self._signer_key = generate_keypair(512, rng=seed)

    # -- the transport-neutral core --------------------------------------------

    def handle(self, request_der: Optional[bytes], now: int) -> ResponseArtifact:
        """Answer one OCSP request given as DER bytes at simulated *now*.

        ``request_der=None`` is the transport's signal that it received
        an OCSP exchange but could not extract request bytes (e.g. a
        GET path whose base64 does not decode) — answered with a
        malformed-request error envelope, exactly like undecodable DER.
        Misbehaving profiles (``malformed_mode`` / windows) win over
        everything, matching real broken responders that emit the same
        junk regardless of input.  A repeat of the same request bytes
        in the same :meth:`signing_epoch` returns the stored artifact
        (counted in ``cache_hits``); malformed DER is never stored.
        A request with a nonce outside 1..:data:`MAX_NONCE_OCTETS`
        octets or more than :data:`MAX_CERT_IDS` CertIDs is answered
        ``malformedRequest`` and never stored either.
        """
        malformed = self._malformed_body(now)
        if malformed is not None:
            return ResponseArtifact(body=malformed, source="malformed")

        if request_der is None:
            return self._error_artifact(ResponseStatus.MALFORMED_REQUEST)
        if not isinstance(request_der, (bytes, bytearray, memoryview)):
            raise TypeError(
                "OCSPResponder.handle(request_der, now) takes DER request "
                "bytes; wrap HTTP traffic with "
                "repro.simnet.ocsp_service(responder)")
        try:
            entry = self._responses.lookup(bytes(request_der), _cache_entry)
        except (ASN1Error, ValueError):
            return self._error_artifact(ResponseStatus.MALFORMED_REQUEST)

        if self.profile.always_try_later:
            return self._error_artifact(ResponseStatus.TRY_LATER)

        epoch = self.signing_epoch(now)
        if entry[1] == epoch:
            self.cache_hits += 1
            return entry[2]
        self.cache_misses += 1
        entry[1] = epoch
        entry[2] = self._build_response(entry[0], now, epoch[0])
        return entry[2]

    def signing_epoch(self, now: int) -> Tuple[int, int]:
        """What a response signed at *now* depends on beyond its
        request: ``(generation_time(now), visible revocation count)``.

        Memoized per (now, registry revision), so a revocation recorded
        at the same simulated instant still moves the epoch.
        """
        registry = self.authority.registry
        memo_now, memo_revision, epoch = self._epoch_memo
        if memo_now != now or memo_revision != registry.revision:
            epoch = (self.generation_time(now),
                     registry.visible_ocsp_count(now))
            # visible_ocsp_count settles due deliveries, which bumps
            # the revision: memoize the one it left behind.
            self._epoch_memo = (now, registry.revision, epoch)
        return epoch

    def without_cache(self) -> "OCSPResponder":
        """This responder with a response cache of its own, empty.

        It signs with the same key, profile and authority, so it answers
        every request with the bytes this one would sign; nothing a
        server over this responder stored can reach its answers.
        """
        twin = copy.copy(self)
        twin._responses = BoundedMemo(self._responses.cap)
        twin.cache_hits = twin.cache_misses = 0
        return twin

    def cache_stats(self) -> Dict[str, int]:
        """JSON-ready counters of the response cache."""
        return {"entries": len(self._responses), "hits": self.cache_hits,
                "misses": self.cache_misses}

    @staticmethod
    def _error_artifact(status: ResponseStatus) -> ResponseArtifact:
        return ResponseArtifact(
            body=encode_error_response(status),
            source=f"error:{status.name.lower()}",
        )

    # -- generation --------------------------------------------------------------

    def generation_time(self, now: int) -> int:
        """When the response served at *now* was (notionally) generated.

        On-demand responders generate at *now*; pre-generating
        responders generate at epoch boundaries.  With multiple stale
        backends, successive requests rotate across backends whose
        generations lag each other, making producedAt regress between
        consecutive polls (paper footnote 17).
        """
        if self.profile.on_demand:
            return now
        interval = self.profile.update_interval
        start = self.epoch_start
        if self.profile.stale_backends > 1:
            # Each backend regenerates on its own grid, shifted by the
            # skew: responses stay within one interval of age (so never
            # self-expired) while producedAt regresses between
            # consecutive requests that land on different backends.
            # Which backend answers is a pure function of (url, now) —
            # the load balancer is unpredictable to the client, but the
            # probe stays order-independent, which lets shards replay
            # any slice of a scan and still see the serial bytes.
            digest = hashlib.blake2b(f"{self.url}|{now}".encode(),
                                     digest_size=4).digest()
            backend = int.from_bytes(digest, "big") % self.profile.stale_backends
            start = start - backend * self.profile.backend_skew
        elapsed = max(0, now - start)
        return start + (elapsed // interval) * interval

    def _build_response(self, ocsp_request: OCSPRequest, now: int,
                        generated_at: int) -> ResponseArtifact:
        this_update = generated_at - self.profile.this_update_margin
        next_update = None
        if not self.profile.blank_next_update:
            next_update = this_update + self.profile.validity_period

        singles: List[SingleResponse] = []
        for cert_id in ocsp_request.cert_ids:
            singles.append(self._single_for(cert_id, this_update, next_update, now))
            # Unsolicited serial stuffing (Figure 7).
            for offset in range(1, self.profile.serials_per_response):
                stuffed = CertID(
                    hash_name=cert_id.hash_name,
                    issuer_name_hash=cert_id.issuer_name_hash,
                    issuer_key_hash=cert_id.issuer_key_hash,
                    serial_number=cert_id.serial_number + offset,
                )
                singles.append(self._single_for(stuffed, this_update, next_update, now))

        certificates: List[Certificate] = []
        if self._signer_cert is not None:
            certificates.append(self._signer_cert)
        if self.profile.extra_certs > 0 or self.profile.include_root_chain:
            chain = [self.authority.certificate, *self._chain_to_root]
            limit = len(chain) if self.profile.include_root_chain else self.profile.extra_certs
            certificates.extend(chain[:limit])

        if self._signer_cert is not None:
            responder_key_hash = self._signer_cert.key_hash_sha1()
        else:
            responder_key_hash = self.authority.certificate.key_hash_sha1()

        body = encode_response(
            single_responses=singles,
            produced_at=generated_at,
            signer_key=self._signer_key,
            responder_key_hash=responder_key_hash,
            certificates=certificates,
            nonce=ocsp_request.nonce,
        )
        return ResponseArtifact(
            body=body,
            produced_at=generated_at,
            next_update=next_update,
            source="signed",
        )

    def _single_for(self, cert_id: CertID, this_update: int,
                    next_update: Optional[int], now: int) -> SingleResponse:
        answered_id = cert_id
        if self.profile.serial_mismatch:
            answered_id = CertID(
                hash_name=cert_id.hash_name,
                issuer_name_hash=cert_id.issuer_name_hash,
                issuer_key_hash=cert_id.issuer_key_hash,
                serial_number=cert_id.serial_number + 1,
            )

        if self.profile.unknown_for_all:
            return SingleResponse(answered_id, CertStatus.UNKNOWN, this_update, next_update)
        if not cert_id.matches_issuer(self.authority.certificate):
            # "the certificate is not served by this responder"
            return SingleResponse(answered_id, CertStatus.UNKNOWN, this_update, next_update)

        record = self.authority.registry.ocsp_lookup(cert_id.serial_number, now)
        if record is not None and not self.profile.good_for_revoked:
            return SingleResponse(
                answered_id,
                CertStatus.REVOKED,
                this_update,
                next_update,
                revoked_info=RevokedInfo(record.revoked_at, record.reason),
            )
        return SingleResponse(answered_id, CertStatus.GOOD, this_update, next_update)

    def _malformed_body(self, now: int) -> Optional[bytes]:
        mode = self.profile.malformed_mode
        if mode is None:
            for window in self.profile.malformed_windows:
                if window.active(now):
                    mode = window.mode
                    break
        if mode is None:
            return None
        if mode == "empty":
            return b""
        if mode == "zero":
            return b"0"
        if mode == "javascript":
            return _JAVASCRIPT_BODY
        if mode == "truncated":
            # A structurally broken prefix of a plausible response.
            return bytes.fromhex("30820120" + "0a0100" + "a082")
        raise AssertionError(f"unhandled malformed mode {mode!r}")


class CRLService:
    """Serves the CA's current CRL over HTTP GET.

    The CRL is republished every *publication_interval* seconds with a
    *validity*-long window, regenerated deterministically per epoch.
    """

    def __init__(self, authority: CertificateAuthority, url: str,
                 publication_interval: int = 24 * 3600,
                 validity: int = 7 * 24 * 3600, epoch_start: int = 0) -> None:
        self.authority = authority
        self.url = url
        self.publication_interval = publication_interval
        self.validity = validity
        self.epoch_start = epoch_start

    def handle(self, request: HTTPRequest, now: int) -> HTTPResponse:
        """Return the current CRL DER."""
        if request.method != "GET":
            return HTTPResponse(405, b"method not allowed")
        elapsed = max(0, now - self.epoch_start)
        epoch = self.epoch_start + (elapsed // self.publication_interval) * self.publication_interval
        crl = self.authority.build_crl(epoch, validity=self.validity)
        return HTTPResponse(200, crl.der, {"Content-Type": "application/pkix-crl"})
