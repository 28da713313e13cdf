"""Object identifier type and the OID registry used across the library.

An :class:`ObjectIdentifier` is an immutable, hashable dotted-integer
value with DER content-octet encoding/decoding.  The registry at the
bottom collects every OID the X.509/OCSP stack needs, including the
star of the paper: ``TLS_FEATURE`` (1.3.6.1.5.5.7.1.24), the OCSP
Must-Staple extension.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .errors import DecodeError, EncodeError


class ObjectIdentifier:
    """An ASN.1 OBJECT IDENTIFIER value.

    Instances are immutable and usable as dict keys.  Construct from a
    dotted string or an iterable of arcs::

        >>> ObjectIdentifier("1.3.6.1.5.5.7.1.24").arcs
        (1, 3, 6, 1, 5, 5, 7, 1, 24)

    Each instance caches its DER content octets on first use; that is
    exact because the arcs never change.
    """

    __slots__ = ("_arcs", "_content")

    def __init__(self, value: "str | Iterable[int] | ObjectIdentifier") -> None:
        if isinstance(value, ObjectIdentifier):
            arcs: Tuple[int, ...] = value._arcs
        elif isinstance(value, str):
            try:
                arcs = tuple(int(part) for part in value.split("."))
            except ValueError as exc:
                raise EncodeError(f"invalid OID string {value!r}") from exc
        else:
            arcs = tuple(int(part) for part in value)
        if len(arcs) < 2:
            raise EncodeError(f"OID needs at least two arcs, got {arcs!r}")
        if arcs[0] not in (0, 1, 2):
            raise EncodeError(f"first OID arc must be 0, 1, or 2, got {arcs[0]}")
        if arcs[0] < 2 and arcs[1] >= 40:
            raise EncodeError(f"second OID arc must be < 40 when first is {arcs[0]}")
        if any(arc < 0 for arc in arcs):
            raise EncodeError(f"OID arcs must be non-negative: {arcs!r}")
        object.__setattr__(self, "_arcs", arcs)
        object.__setattr__(self, "_content", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ObjectIdentifier is immutable")

    @property
    def arcs(self) -> Tuple[int, ...]:
        """The tuple of integer arcs."""
        return self._arcs

    @property
    def dotted(self) -> str:
        """Dotted-decimal string form (``"1.3.6.1.5.5.7.1.24"``)."""
        return ".".join(str(arc) for arc in self._arcs)

    def encode_content(self) -> bytes:
        """Return the DER content octets (no tag/length)."""
        content = self._content
        if content is None:
            first = self._arcs[0] * 40 + self._arcs[1]
            out = bytearray(_encode_base128(first))
            for arc in self._arcs[2:]:
                out.extend(_encode_base128(arc))
            content = bytes(out)
            object.__setattr__(self, "_content", content)
        return content

    @classmethod
    def decode_content(cls, content: bytes) -> "ObjectIdentifier":
        """Parse DER content octets into an ObjectIdentifier."""
        if not content:
            raise DecodeError("empty OID content")
        arcs = []
        value = 0
        started = False
        for index, octet in enumerate(content):
            if not started and octet == 0x80:
                raise DecodeError("OID sub-identifier has redundant leading 0x80")
            started = True
            value = (value << 7) | (octet & 0x7F)
            if not octet & 0x80:
                arcs.append(value)
                value = 0
                started = False
            elif index == len(content) - 1:
                raise DecodeError("OID content ends mid sub-identifier")
        first = arcs[0]
        if first < 40:
            head = (0, first)
        elif first < 80:
            head = (1, first - 40)
        else:
            head = (2, first - 80)
        decoded = cls(head + tuple(arcs[1:]))
        # Padded sub-identifiers are rejected above, so accepted content
        # is the canonical encoding of its arcs.
        object.__setattr__(decoded, "_content", bytes(content))
        return decoded

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectIdentifier):
            return self._arcs == other._arcs
        if isinstance(other, str):
            return self.dotted == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._arcs)

    def __repr__(self) -> str:
        name = OID_NAMES.get(self)
        if name:
            return f"ObjectIdentifier({self.dotted}, {name})"
        return f"ObjectIdentifier({self.dotted})"

    def __str__(self) -> str:
        return self.dotted


def _encode_base128(value: int) -> bytes:
    """Encode a non-negative integer in base-128 with continuation bits."""
    if value < 0x80:
        return bytes([value])
    chunks = []
    while value:
        chunks.append(value & 0x7F)
        value >>= 7
    chunks.reverse()
    return bytes([chunk | 0x80 for chunk in chunks[:-1]] + [chunks[-1]])


# --- Registry -------------------------------------------------------------

# Signature / digest algorithms.
SHA256_WITH_RSA = ObjectIdentifier("1.2.840.113549.1.1.11")
SHA1_WITH_RSA = ObjectIdentifier("1.2.840.113549.1.1.5")
RSA_ENCRYPTION = ObjectIdentifier("1.2.840.113549.1.1.1")
SHA1 = ObjectIdentifier("1.3.14.3.2.26")
SHA256 = ObjectIdentifier("2.16.840.1.101.3.4.2.1")

# X.509 name attribute types.
COMMON_NAME = ObjectIdentifier("2.5.4.3")
COUNTRY_NAME = ObjectIdentifier("2.5.4.6")
ORGANIZATION_NAME = ObjectIdentifier("2.5.4.10")
ORGANIZATIONAL_UNIT = ObjectIdentifier("2.5.4.11")

# X.509 certificate extensions.
SUBJECT_KEY_IDENTIFIER = ObjectIdentifier("2.5.29.14")
KEY_USAGE = ObjectIdentifier("2.5.29.15")
SUBJECT_ALT_NAME = ObjectIdentifier("2.5.29.17")
BASIC_CONSTRAINTS = ObjectIdentifier("2.5.29.19")
CRL_NUMBER = ObjectIdentifier("2.5.29.20")
CRL_REASON = ObjectIdentifier("2.5.29.21")
CRL_DISTRIBUTION_POINTS = ObjectIdentifier("2.5.29.31")
AUTHORITY_KEY_IDENTIFIER = ObjectIdentifier("2.5.29.35")
EXTENDED_KEY_USAGE = ObjectIdentifier("2.5.29.37")
AUTHORITY_INFORMATION_ACCESS = ObjectIdentifier("1.3.6.1.5.5.7.1.1")

# The paper's protagonist: RFC 7633 TLS Feature, a.k.a. OCSP Must-Staple.
TLS_FEATURE = ObjectIdentifier("1.3.6.1.5.5.7.1.24")

# Access method OIDs inside AIA.
AD_OCSP = ObjectIdentifier("1.3.6.1.5.5.7.48.1")
AD_CA_ISSUERS = ObjectIdentifier("1.3.6.1.5.5.7.48.2")

# Extended key usage purposes.
EKU_SERVER_AUTH = ObjectIdentifier("1.3.6.1.5.5.7.3.1")
EKU_CLIENT_AUTH = ObjectIdentifier("1.3.6.1.5.5.7.3.2")
EKU_OCSP_SIGNING = ObjectIdentifier("1.3.6.1.5.5.7.3.9")

# OCSP protocol OIDs (RFC 6960).
OCSP_BASIC = ObjectIdentifier("1.3.6.1.5.5.7.48.1.1")
OCSP_NONCE = ObjectIdentifier("1.3.6.1.5.5.7.48.1.2")
OCSP_NOCHECK = ObjectIdentifier("1.3.6.1.5.5.7.48.1.5")

OID_NAMES = {
    SHA256_WITH_RSA: "sha256WithRSAEncryption",
    SHA1_WITH_RSA: "sha1WithRSAEncryption",
    RSA_ENCRYPTION: "rsaEncryption",
    SHA1: "sha1",
    SHA256: "sha256",
    COMMON_NAME: "commonName",
    COUNTRY_NAME: "countryName",
    ORGANIZATION_NAME: "organizationName",
    ORGANIZATIONAL_UNIT: "organizationalUnitName",
    SUBJECT_KEY_IDENTIFIER: "subjectKeyIdentifier",
    KEY_USAGE: "keyUsage",
    SUBJECT_ALT_NAME: "subjectAltName",
    BASIC_CONSTRAINTS: "basicConstraints",
    CRL_NUMBER: "cRLNumber",
    CRL_REASON: "cRLReason",
    CRL_DISTRIBUTION_POINTS: "cRLDistributionPoints",
    AUTHORITY_KEY_IDENTIFIER: "authorityKeyIdentifier",
    EXTENDED_KEY_USAGE: "extendedKeyUsage",
    AUTHORITY_INFORMATION_ACCESS: "authorityInformationAccess",
    TLS_FEATURE: "tlsFeature (OCSP Must-Staple)",
    AD_OCSP: "id-ad-ocsp",
    AD_CA_ISSUERS: "id-ad-caIssuers",
    EKU_SERVER_AUTH: "serverAuth",
    EKU_CLIENT_AUTH: "clientAuth",
    EKU_OCSP_SIGNING: "OCSPSigning",
    OCSP_BASIC: "id-pkix-ocsp-basic",
    OCSP_NONCE: "id-pkix-ocsp-nonce",
    OCSP_NOCHECK: "id-pkix-ocsp-nocheck",
}
