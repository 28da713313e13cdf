"""OCSP responses (RFC 6960 section 4.2): model, encode, parse.

The response model captures everything the paper measures about
response *quality*:

* ``thisUpdate`` / ``nextUpdate`` per SingleResponse — validity period
  analysis (Figures 8 and 9); ``nextUpdate`` may be None ("blank"),
  which 9.1% of responders in the paper always do,
* ``producedAt`` — on-demand vs pre-generated detection (Section 5.4),
* multiple SingleResponses — unsolicited serial stuffing (Figure 7),
* embedded certificates — superfluous-certificate analysis (Figure 6),
* delegated signing — OCSP Signature Authority Delegation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import List, Optional, Sequence

from ..asn1 import ObjectIdentifier, Reader, encoder, oid, tags
from ..asn1.errors import DecodeError
from ..crypto import RSAPrivateKey, RSAPublicKey, is_valid, sign
from ..x509 import Certificate, parse_certificate
from .certid import CertID

_HASH_TO_ALGORITHM = {
    "sha256": oid.SHA256_WITH_RSA,
    "sha1": oid.SHA1_WITH_RSA,
}
_ALGORITHM_TO_HASH = {v: k for k, v in _HASH_TO_ALGORITHM.items()}


class ResponseStatus(IntEnum):
    """OCSPResponseStatus (RFC 6960 section 4.2.1)."""

    SUCCESSFUL = 0
    MALFORMED_REQUEST = 1
    INTERNAL_ERROR = 2
    TRY_LATER = 3
    SIG_REQUIRED = 5
    UNAUTHORIZED = 6


class CertStatus(Enum):
    """Per-certificate status inside a SingleResponse."""

    GOOD = "good"
    REVOKED = "revoked"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RevokedInfo:
    """Revocation time and optional reason carried with a REVOKED status."""

    revocation_time: int
    reason: Optional[int] = None


@dataclass
class SingleResponse:
    """One (CertID, status, validity window) element."""

    cert_id: CertID
    cert_status: CertStatus
    this_update: int
    next_update: Optional[int] = None
    revoked_info: Optional[RevokedInfo] = None

    def encode(self) -> bytes:
        if self.cert_status is CertStatus.GOOD:
            status = encoder.encode_implicit(0, b"")
        elif self.cert_status is CertStatus.REVOKED:
            info = self.revoked_info or RevokedInfo(self.this_update)
            parts = [encoder.encode_ocsp_time(info.revocation_time)]
            if info.reason is not None:
                parts.append(encoder.encode_explicit(0, encoder.encode_enumerated(info.reason)))
            status = encoder.encode_implicit(1, b"".join(parts), constructed=True)
        else:
            status = encoder.encode_implicit(2, b"")
        parts = [self.cert_id.encode(), status, encoder.encode_ocsp_time(self.this_update)]
        if self.next_update is not None:
            parts.append(encoder.encode_explicit(0, encoder.encode_ocsp_time(self.next_update)))
        return encoder.encode_sequence(*parts)

    @classmethod
    def decode(cls, reader: Reader) -> "SingleResponse":
        sequence = reader.read_sequence()
        cert_id = CertID.decode(sequence)
        status_tag = sequence.peek_tag()
        revoked_info = None
        if status_tag == tags.context(0, constructed=False):
            sequence.read_tlv()
            cert_status = CertStatus.GOOD
        elif status_tag == tags.context(1, constructed=True):
            info = sequence.read_context(1)
            revocation_tag, revocation_content = info.read_tlv()
            if revocation_tag != tags.GENERALIZED_TIME:
                raise DecodeError("revocationTime must be GeneralizedTime")
            from ..asn1.timecodec import decode_generalized_time
            revocation_time = decode_generalized_time(revocation_content)
            reason = None
            reason_field = info.maybe_context(0)
            if reason_field is not None:
                reason = reason_field.read_enumerated()
            revoked_info = RevokedInfo(revocation_time, reason)
            cert_status = CertStatus.REVOKED
        elif status_tag == tags.context(2, constructed=False):
            sequence.read_tlv()
            cert_status = CertStatus.UNKNOWN
        else:
            raise DecodeError(f"unknown CertStatus tag 0x{status_tag:02x}")
        this_update = sequence.read_time()
        next_update = None
        next_update_field = sequence.maybe_context(0)
        if next_update_field is not None:
            next_update = next_update_field.read_time()
        sequence.maybe_context(1)  # singleExtensions, ignored
        return cls(cert_id, cert_status, this_update, next_update, revoked_info)

    @property
    def validity_period(self) -> Optional[int]:
        """nextUpdate - thisUpdate in seconds, or None for blank nextUpdate."""
        if self.next_update is None:
            return None
        return self.next_update - self.this_update


@dataclass
class BasicOCSPResponse:
    """The parsed BasicOCSPResponse with its raw signed bytes."""

    tbs_der: bytes
    responder_key_hash: Optional[bytes]
    responder_name_der: Optional[bytes]
    produced_at: int
    single_responses: List[SingleResponse]
    signature_algorithm: ObjectIdentifier
    signature: bytes
    certificates: List[Certificate] = field(default_factory=list)
    #: The echoed nonce extension, when present (RFC 6960 4.4.1).
    nonce: Optional[bytes] = None

    def verify_signature(self, key: RSAPublicKey) -> bool:
        """Verify over the original tbsResponseData bytes."""
        hash_name = _ALGORITHM_TO_HASH.get(self.signature_algorithm)
        if hash_name is None:
            return False
        return is_valid(key, self.tbs_der, self.signature, hash_name)

    @property
    def serial_numbers(self) -> List[int]:
        """Serials covered by this response (Figure 7 counts these)."""
        return [single.cert_id.serial_number for single in self.single_responses]

    def find_single(self, serial_number: int) -> Optional[SingleResponse]:
        """The SingleResponse for *serial_number*, or None."""
        for single in self.single_responses:
            if single.cert_id.serial_number == serial_number:
                return single
        return None


@dataclass
class OCSPResponse:
    """The outer OCSPResponse: status plus optional BasicOCSPResponse."""

    response_status: ResponseStatus
    basic: Optional[BasicOCSPResponse] = None
    der: bytes = b""

    @property
    def is_successful(self) -> bool:
        """True for responseStatus == successful."""
        return self.response_status is ResponseStatus.SUCCESSFUL

    @classmethod
    def from_der(cls, der: bytes, lenient: bool = False) -> "OCSPResponse":
        """Parse an OCSPResponse from DER bytes.

        Raises :class:`repro.asn1.ASN1Error` subtypes on malformed
        input — the scanner maps those to the "malformed" class of
        Figure 5.
        """
        reader = Reader(der, lenient=lenient)
        outer = reader.read_sequence()
        status_value = outer.read_enumerated()
        try:
            response_status = ResponseStatus(status_value)
        except ValueError as exc:
            raise DecodeError(f"unknown responseStatus {status_value}") from exc
        basic = None
        response_bytes_field = outer.maybe_context(0)
        if response_bytes_field is not None:
            response_bytes = response_bytes_field.read_sequence()
            response_type = response_bytes.read_oid()
            if response_type != oid.OCSP_BASIC:
                raise DecodeError(f"unsupported responseType: {response_type}")
            basic_der = response_bytes.read_octet_string()
            basic = _decode_basic(basic_der, lenient=lenient)
        outer.expect_end()
        return cls(response_status=response_status, basic=basic, der=der)


def _decode_basic(der: bytes, lenient: bool = False) -> BasicOCSPResponse:
    reader = Reader(der, lenient=lenient)
    outer = reader.read_sequence()
    tbs_der = outer.read_raw_element()
    algorithm_seq = outer.read_sequence()
    signature_algorithm = algorithm_seq.read_oid()
    if not algorithm_seq.at_end():
        algorithm_seq.read_tlv()
    signature = outer.read_bit_string()
    certificates: List[Certificate] = []
    certs_field = outer.maybe_context(0)
    if certs_field is not None:
        certs_seq = certs_field.read_sequence()
        while not certs_seq.at_end():
            certificates.append(parse_certificate(certs_seq.read_raw_element()))

    tbs = Reader(tbs_der, lenient=lenient).read_sequence()
    version_field = tbs.maybe_context(0)
    if version_field is not None:
        version_field.read_integer()
    responder_name_der = None
    responder_key_hash = None
    by_name = tbs.maybe_context(1)
    if by_name is not None:
        responder_name_der = by_name.read_raw_element()
    else:
        by_key = tbs.maybe_context(2)
        if by_key is None:
            raise DecodeError("missing ResponderID")
        responder_key_hash = by_key.read_octet_string()
    produced_at = tbs.read_time()
    responses_seq = tbs.read_sequence()
    single_responses = []
    while not responses_seq.at_end():
        single_responses.append(SingleResponse.decode(responses_seq))
    nonce = None
    extensions_field = tbs.maybe_context(1)
    if extensions_field is not None:
        from ..x509.extensions import Extensions
        extensions = Extensions.decode(extensions_field)
        nonce_extension = extensions.get(oid.OCSP_NONCE)
        if nonce_extension is not None:
            nonce_reader = Reader(nonce_extension.value)
            if not nonce_reader.at_end() and nonce_reader.peek_tag() == tags.OCTET_STRING:
                nonce = nonce_reader.read_octet_string()
            else:
                nonce = nonce_extension.value

    return BasicOCSPResponse(
        tbs_der=tbs_der,
        responder_key_hash=responder_key_hash,
        responder_name_der=responder_name_der,
        produced_at=produced_at,
        single_responses=single_responses,
        signature_algorithm=signature_algorithm,
        signature=signature,
        certificates=certificates,
        nonce=nonce,
    )


def encode_error_response(status: ResponseStatus) -> bytes:
    """Encode an error OCSPResponse (tryLater, unauthorized, ...)."""
    if status is ResponseStatus.SUCCESSFUL:
        raise ValueError("successful responses need response bytes")
    return encoder.encode_sequence(encoder.encode_enumerated(int(status)))


def encode_response(single_responses: Sequence[SingleResponse], produced_at: int,
                    signer_key: RSAPrivateKey, responder_key_hash: bytes,
                    certificates: Sequence[Certificate] = (),
                    hash_name: str = "sha256",
                    nonce: Optional[bytes] = None) -> bytes:
    """Encode a successful OCSPResponse signed by *signer_key*.

    ResponderID is always byKey (the common modern form).  Certificates
    for Signature Authority Delegation — or the superfluous chains some
    responders send — go in *certificates*.
    """
    if not single_responses:
        raise ValueError("a successful response needs at least one SingleResponse")
    responder_id = encoder.encode_explicit(
        2, encoder.encode_octet_string(responder_key_hash)
    )
    tbs_parts = [
        responder_id,
        encoder.encode_ocsp_time(produced_at),
        encoder.encode_sequence(*(single.encode() for single in single_responses)),
    ]
    if nonce is not None:
        from ..x509.extensions import Extension
        nonce_extension = Extension(
            oid.OCSP_NONCE, critical=False,
            value=encoder.encode_octet_string(nonce),
        )
        tbs_parts.append(encoder.encode_explicit(
            1, encoder.encode_sequence(nonce_extension.encode())
        ))
    tbs = encoder.encode_sequence(*tbs_parts)
    signature = sign(signer_key, tbs, hash_name)
    basic_parts = [
        tbs,
        encoder.encode_sequence(
            encoder.encode_oid(_HASH_TO_ALGORITHM[hash_name]),
            encoder.encode_null(),
        ),
        encoder.encode_bit_string(signature),
    ]
    if certificates:
        certs_der = encoder.encode_sequence(*(cert.der for cert in certificates))
        basic_parts.append(encoder.encode_explicit(0, certs_der))
    basic = encoder.encode_sequence(*basic_parts)
    response_bytes = encoder.encode_sequence(
        encoder.encode_oid(oid.OCSP_BASIC),
        encoder.encode_octet_string(basic),
    )
    return encoder.encode_sequence(
        encoder.encode_enumerated(int(ResponseStatus.SUCCESSFUL)),
        encoder.encode_explicit(0, response_bytes),
    )
