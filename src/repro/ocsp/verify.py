"""Client-side OCSP response verification.

Implements the checks the paper's measurement client performs (Section
5.3), producing exactly its error taxonomy:

* **malformed** — the bytes do not parse as a DER OCSPResponse
  ("Malformed structure ... does not follow the ASN.1 specification"),
* **serial mismatch** — "the serial number of the certificate in the
  OCSP response does not match the serial number that our client
  requested",
* **incorrect signature** — "the signature in the OCSP response is
  unable to be verified using (1) certificates in the OCSP response or
  (2) the issuer's certificate",

plus the time-validity outcomes of Section 5.4 (premature thisUpdate,
expired nextUpdate) and the delegated-signer path (OCSP Signature
Authority Delegation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from ..asn1.errors import ASN1Error
from ..memo import BoundedMemo
from ..x509 import Certificate
from ..asn1 import oid as _oid
from .certid import CertID
from .response import (
    BasicOCSPResponse,
    CertStatus,
    OCSPResponse,
    ResponseStatus,
    SingleResponse,
)


class OCSPError(Enum):
    """Why an OCSP response was unusable (paper Figure 5 + Section 5.4)."""

    MALFORMED = "ASN.1 structure error"
    ERROR_STATUS = "responder returned an error status"
    SERIAL_MISMATCH = "serial number does not match request"
    BAD_SIGNATURE = "signature validation failed"
    NOT_YET_VALID = "thisUpdate is in the future"
    EXPIRED = "nextUpdate has passed"
    NONCE_MISMATCH = "nonce does not match request"


@dataclass
class OCSPCheckResult:
    """The outcome of verifying one OCSP response for one certificate.

    For MALFORMED outcomes the ``error_class`` / ``error_detail`` /
    ``error_offset`` fields attribute the failure: the exception class
    name, its message, and (when the decoder knew it) the absolute byte
    offset where parsing failed — the same provenance style
    ``repro.lint`` uses.
    """

    ok: bool
    error: Optional[OCSPError] = None
    cert_status: Optional[CertStatus] = None
    response: Optional[OCSPResponse] = None
    single: Optional[SingleResponse] = None
    response_status: Optional[ResponseStatus] = None
    delegated: bool = False
    error_class: Optional[str] = None
    error_detail: Optional[str] = None
    error_offset: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def revoked(self) -> bool:
        """True when the verified status is REVOKED."""
        return self.cert_status is CertStatus.REVOKED

    @property
    def good(self) -> bool:
        """True when the verified status is GOOD."""
        return self.cert_status is CertStatus.GOOD


#: Structural verdicts of recently verified responses, keyed by
#: ``(response bytes, lenient, cert_id, issuer DER)``.  A responder
#: serves the same pre-signed bytes to every vantage point for a whole
#: update epoch, so a scan re-verifies identical inputs many times.
#: 64 keeps a cold Figure 3 campaign within one parse of its distinct
#: responses.
_VERDICTS: BoundedMemo[tuple, OCSPCheckResult] = BoundedMemo(64)


def verify_response(response_der: bytes, cert_id: CertID, issuer: Certificate,
                    now: int, max_clock_skew: int = 0,
                    lenient: bool = False,
                    expected_nonce: Optional[bytes] = None) -> OCSPCheckResult:
    """Fully verify raw OCSP response bytes against the request context.

    *max_clock_skew* models how tolerant the client's clock comparison
    is; the paper notes responders "whose 'close' validity time may
    cause clients with slightly slow clocks to consider the response
    invalid", which a skew of 0 makes observable.

    *expected_nonce* enables RFC 6960 4.4.1 replay protection: when
    set, the (signed) nonce echoed in the response must match, which
    defeats the staple-replay attack analysed in
    :mod:`repro.core.attacks` — note that *stapled* responses cannot
    use nonces, which is exactly why their validity period bounds the
    replay window.

    The structural verdict (parse, status, CertID match, signature) is
    a pure function of the bytes, *lenient*, *cert_id* and the issuer,
    so it is computed once per distinct input (see :data:`_VERDICTS`);
    the nonce and time checks run on every call, and every call gets
    its own result object.  Results for the same input share the
    parsed ``response`` and ``single``, which callers must not mutate.
    """
    data = bytes(response_der)
    verdict = _VERDICTS.lookup(
        (data, lenient, cert_id, issuer.der),
        lambda _: _structural_verdict(data, cert_id, issuer, lenient))
    if not verdict.ok:
        return replace(verdict)

    single = verdict.single
    if expected_nonce is not None and \
            verdict.response.basic.nonce != expected_nonce:
        error = OCSPError.NONCE_MISMATCH
    elif single.this_update > now + max_clock_skew:
        error = OCSPError.NOT_YET_VALID
    elif single.next_update is not None and \
            single.next_update < now - max_clock_skew:
        error = OCSPError.EXPIRED
    else:
        return replace(verdict)
    return OCSPCheckResult(
        ok=False,
        error=error,
        response=verdict.response,
        single=single,
        response_status=verdict.response_status,
        delegated=verdict.delegated,
    )


def _structural_verdict(data: bytes, cert_id: CertID, issuer: Certificate,
                        lenient: bool) -> OCSPCheckResult:
    """Everything in verification that does not depend on the clock or
    the nonce: a failed result, or ``ok`` with the matched single
    response and its status."""
    try:
        response = OCSPResponse.from_der(data, lenient=lenient)
    except (ASN1Error, ValueError) as exc:
        return OCSPCheckResult(
            ok=False,
            error=OCSPError.MALFORMED,
            error_class=type(exc).__name__,
            error_detail=str(exc),
            error_offset=getattr(exc, "offset", None),
        )

    if not response.is_successful or response.basic is None:
        return OCSPCheckResult(
            ok=False,
            error=OCSPError.ERROR_STATUS,
            response=response,
            response_status=response.response_status,
        )

    basic = response.basic
    single = basic.find_single(cert_id.serial_number)
    if single is None or not _certid_matches(single.cert_id, cert_id):
        return OCSPCheckResult(
            ok=False,
            error=OCSPError.SERIAL_MISMATCH,
            response=response,
            response_status=response.response_status,
        )

    delegated = False
    if not basic.verify_signature(issuer.public_key):
        delegate = _find_delegate(basic, issuer)
        if delegate is not None and basic.verify_signature(delegate.public_key):
            delegated = True
        else:
            return OCSPCheckResult(
                ok=False,
                error=OCSPError.BAD_SIGNATURE,
                response=response,
                single=single,
                response_status=response.response_status,
            )

    return OCSPCheckResult(
        ok=True,
        cert_status=single.cert_status,
        response=response,
        single=single,
        response_status=response.response_status,
        delegated=delegated,
    )


def _certid_matches(answered: CertID, requested: CertID) -> bool:
    """Serial must match; hashes must match when the algorithms agree."""
    if answered.serial_number != requested.serial_number:
        return False
    if answered.hash_name == requested.hash_name:
        return (
            answered.issuer_name_hash == requested.issuer_name_hash
            and answered.issuer_key_hash == requested.issuer_key_hash
        )
    return True


def _find_delegate(basic: BasicOCSPResponse, issuer: Certificate) -> Optional[Certificate]:
    """Find a valid delegated OCSP signing certificate in the response.

    The delegate must be signed by the same issuer as the certificate in
    question and carry the OCSPSigning EKU (RFC 6960 section 4.2.2.2).
    """
    for candidate in basic.certificates:
        if candidate.issuer != issuer.subject:
            continue
        if _oid.EKU_OCSP_SIGNING not in candidate.extensions.extended_key_usages:
            continue
        if not candidate.verify_signature(issuer.public_key):
            continue
        if basic.responder_key_hash is not None and \
                candidate.key_hash_sha1() != basic.responder_key_hash:
            continue
        return candidate
    return None
