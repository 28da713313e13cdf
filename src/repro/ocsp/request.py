"""OCSP requests (RFC 6960 section 4.1).

Requests are unsigned (the common case; the optionalSignature field is
not produced and is rejected on parse if present).  The nonce extension
is supported because responder freshness testing uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..asn1 import Reader, encoder, oid, tags
from ..asn1.errors import DecodeError
from ..x509.extensions import Extension, Extensions
from .certid import CertID


@dataclass
class OCSPRequest:
    """An OCSP request for one or more CertIDs, with an optional nonce."""

    cert_ids: List[CertID]
    nonce: Optional[bytes] = None

    def __post_init__(self) -> None:
        if not self.cert_ids:
            raise ValueError("an OCSP request needs at least one CertID")

    @classmethod
    def for_single(cls, cert_id: CertID, nonce: Optional[bytes] = None) -> "OCSPRequest":
        """The typical single-certificate request."""
        return cls(cert_ids=[cert_id], nonce=nonce)

    def encode(self) -> bytes:
        """Encode the OCSPRequest DER (as sent in an HTTP POST body)."""
        request_list = encoder.encode_sequence(
            *(encoder.encode_sequence(cert_id.encode()) for cert_id in self.cert_ids)
        )
        tbs_parts = [request_list]
        if self.nonce is not None:
            nonce_extension = Extension(
                oid.OCSP_NONCE,
                critical=False,
                value=encoder.encode_octet_string(self.nonce),
            )
            extensions = encoder.encode_sequence(nonce_extension.encode())
            tbs_parts.append(encoder.encode_explicit(2, extensions))
        tbs_request = encoder.encode_sequence(*tbs_parts)
        return encoder.encode_sequence(tbs_request)

    @classmethod
    def from_der(cls, der: bytes) -> "OCSPRequest":
        """Parse an OCSPRequest."""
        reader = Reader(der)
        outer = reader.read_sequence()
        tbs = outer.read_sequence()
        if not outer.at_end():
            raise DecodeError("signed OCSP requests are not supported")
        version_field = tbs.maybe_context(0)
        if version_field is not None:
            version = version_field.read_integer()
            if version != 0:
                raise DecodeError(f"unsupported OCSP request version: {version}")
        requestor = tbs.maybe_context(1)
        if requestor is not None:
            pass  # requestorName carried but unused
        request_list = tbs.read_sequence()
        cert_ids = []
        while not request_list.at_end():
            request = request_list.read_sequence()
            cert_ids.append(CertID.decode(request))
            request.maybe_context(0)  # singleRequestExtensions, ignored
        nonce = None
        extension_wrapper = tbs.maybe_context(2)
        if extension_wrapper is not None:
            extensions = Extensions.decode(extension_wrapper)
            nonce_extension = extensions.get(oid.OCSP_NONCE)
            if nonce_extension is not None:
                nonce_reader = Reader(nonce_extension.value)
                if nonce_reader.peek_tag() == tags.OCTET_STRING:
                    nonce = nonce_reader.read_octet_string()
                else:  # some implementations put raw bytes here
                    nonce = nonce_extension.value
        return cls(cert_ids=cert_ids, nonce=nonce)

    @property
    def serial_numbers(self) -> List[int]:
        """The serial numbers being queried."""
        return [cert_id.serial_number for cert_id in self.cert_ids]
