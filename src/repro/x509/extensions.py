"""X.509 v3 extensions: typed models plus DER encode/decode.

The set implemented is exactly what the paper's measurements rely on:

* ``AuthorityInformationAccess`` — where the OCSP responder URL lives
  (the paper extracts this from every Censys certificate),
* ``CRLDistributionPoints`` — where the CRL lives,
* ``TLSFeature`` — the OCSP Must-Staple extension itself (status_request
  feature number 5, RFC 7633),
* ``BasicConstraints`` / ``KeyUsage`` / ``ExtendedKeyUsage`` — chain
  validation and delegated OCSP-signer checks,
* ``SubjectAltName`` — domain matching in the TLS layer,
* ``OCSPNoCheck`` — marker on delegated responder certificates,
* ``CRLReason`` — per-entry revocation reason codes (Table 1 / Fig 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..asn1 import ObjectIdentifier, Reader, encoder, oid, tags
from ..asn1.errors import DecodeError

#: RFC 7633 TLS feature number for status_request (the Must-Staple signal).
TLS_FEATURE_STATUS_REQUEST = 5

#: RFC 5280 CRLReason codes.
REASON_UNSPECIFIED = 0
REASON_KEY_COMPROMISE = 1
REASON_CA_COMPROMISE = 2
REASON_AFFILIATION_CHANGED = 3
REASON_SUPERSEDED = 4
REASON_CESSATION_OF_OPERATION = 5
REASON_CERTIFICATE_HOLD = 6
REASON_REMOVE_FROM_CRL = 8
REASON_PRIVILEGE_WITHDRAWN = 9
REASON_AA_COMPROMISE = 10

REASON_NAMES: Dict[int, str] = {
    REASON_UNSPECIFIED: "unspecified",
    REASON_KEY_COMPROMISE: "keyCompromise",
    REASON_CA_COMPROMISE: "cACompromise",
    REASON_AFFILIATION_CHANGED: "affiliationChanged",
    REASON_SUPERSEDED: "superseded",
    REASON_CESSATION_OF_OPERATION: "cessationOfOperation",
    REASON_CERTIFICATE_HOLD: "certificateHold",
    REASON_REMOVE_FROM_CRL: "removeFromCRL",
    REASON_PRIVILEGE_WITHDRAWN: "privilegeWithdrawn",
    REASON_AA_COMPROMISE: "aACompromise",
}

_GENERAL_NAME_URI = 6  # [6] IA5String uniformResourceIdentifier
_GENERAL_NAME_DNS = 2  # [2] IA5String dNSName


@dataclass(frozen=True)
class Extension:
    """A raw extension: OID, criticality, and DER extnValue content."""

    extn_id: ObjectIdentifier
    critical: bool
    value: bytes

    def encode(self) -> bytes:
        """Encode as the Extension SEQUENCE."""
        parts = [encoder.encode_oid(self.extn_id)]
        if self.critical:
            parts.append(encoder.encode_boolean(True))
        parts.append(encoder.encode_octet_string(self.value))
        return encoder.encode_sequence(*parts)

    @classmethod
    def decode(cls, reader: Reader) -> "Extension":
        """Parse one Extension SEQUENCE from *reader*."""
        sequence = reader.read_sequence()
        extn_id = sequence.read_oid()
        critical = False
        if not sequence.at_end() and sequence.peek_tag() == tags.BOOLEAN:
            critical = sequence.read_boolean()
        value = sequence.read_octet_string()
        sequence.expect_end()
        return cls(extn_id=extn_id, critical=critical, value=value)


class Extensions:
    """An immutable, ordered extension collection with typed accessors."""

    __slots__ = ("_extensions",)

    def __init__(self, extensions: Sequence[Extension] = ()) -> None:
        object.__setattr__(self, "_extensions", tuple(extensions))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Extensions is immutable")

    def get(self, extn_id: ObjectIdentifier) -> Optional[Extension]:
        """Return the first extension with *extn_id*, or None."""
        for extension in self._extensions:
            if extension.extn_id == extn_id:
                return extension
        return None

    def __iter__(self):
        return iter(self._extensions)

    def __len__(self) -> int:
        return len(self._extensions)

    def encode(self) -> bytes:
        """Encode the Extensions SEQUENCE."""
        return encoder.encode_sequence(*(ext.encode() for ext in self._extensions))

    @classmethod
    def decode(cls, reader: Reader) -> "Extensions":
        """Parse an Extensions SEQUENCE from *reader*."""
        sequence = reader.read_sequence()
        extensions = []
        while not sequence.at_end():
            extensions.append(Extension.decode(sequence))
        return cls(extensions)

    # -- typed accessors -----------------------------------------------------

    @property
    def ocsp_urls(self) -> List[str]:
        """OCSP responder URLs from the AIA extension (possibly empty)."""
        extension = self.get(oid.AUTHORITY_INFORMATION_ACCESS)
        if extension is None:
            return []
        return decode_aia(extension.value).get(oid.AD_OCSP, [])

    @property
    def ca_issuer_urls(self) -> List[str]:
        """caIssuers URLs from the AIA extension (possibly empty)."""
        extension = self.get(oid.AUTHORITY_INFORMATION_ACCESS)
        if extension is None:
            return []
        return decode_aia(extension.value).get(oid.AD_CA_ISSUERS, [])

    @property
    def crl_urls(self) -> List[str]:
        """CRL URLs from the CRLDistributionPoints extension."""
        extension = self.get(oid.CRL_DISTRIBUTION_POINTS)
        if extension is None:
            return []
        return decode_crl_distribution_points(extension.value)

    @property
    def must_staple(self) -> bool:
        """True when the TLSFeature extension requests status_request."""
        extension = self.get(oid.TLS_FEATURE)
        if extension is None:
            return False
        return TLS_FEATURE_STATUS_REQUEST in decode_tls_feature(extension.value)

    @property
    def basic_constraints(self) -> Optional["BasicConstraints"]:
        """The decoded BasicConstraints, if present."""
        extension = self.get(oid.BASIC_CONSTRAINTS)
        if extension is None:
            return None
        return BasicConstraints.from_der(extension.value)

    @property
    def is_ca(self) -> bool:
        """True when BasicConstraints marks this certificate as a CA."""
        constraints = self.basic_constraints
        return constraints is not None and constraints.ca

    @property
    def subject_alt_names(self) -> List[str]:
        """dNSName entries of SubjectAltName."""
        extension = self.get(oid.SUBJECT_ALT_NAME)
        if extension is None:
            return []
        return decode_subject_alt_name(extension.value)

    @property
    def extended_key_usages(self) -> List[ObjectIdentifier]:
        """EKU purpose OIDs (empty when absent)."""
        extension = self.get(oid.EXTENDED_KEY_USAGE)
        if extension is None:
            return []
        return decode_extended_key_usage(extension.value)

    @property
    def has_ocsp_nocheck(self) -> bool:
        """True when the id-pkix-ocsp-nocheck marker is present."""
        return self.get(oid.OCSP_NOCHECK) is not None


@dataclass(frozen=True)
class BasicConstraints:
    """The BasicConstraints payload."""

    ca: bool
    path_length: Optional[int] = None

    def to_der(self) -> bytes:
        parts = []
        if self.ca:
            parts.append(encoder.encode_boolean(True))
            if self.path_length is not None:
                parts.append(encoder.encode_integer(self.path_length))
        return encoder.encode_sequence(*parts)

    @classmethod
    def from_der(cls, der: bytes) -> "BasicConstraints":
        sequence = Reader(der).read_sequence()
        ca = False
        path_length = None
        if not sequence.at_end() and sequence.peek_tag() == tags.BOOLEAN:
            ca = sequence.read_boolean()
        if not sequence.at_end():
            path_length = sequence.read_integer()
        sequence.expect_end()
        return cls(ca=ca, path_length=path_length)


# -- payload encoders --------------------------------------------------------

def encode_tls_feature(features: Sequence[int] = (TLS_FEATURE_STATUS_REQUEST,)) -> bytes:
    """Encode the TLSFeature payload — SEQUENCE OF INTEGER (RFC 7633)."""
    return encoder.encode_sequence(
        *(encoder.encode_integer(feature) for feature in features)
    )


def decode_tls_feature(der: bytes) -> List[int]:
    """Decode the TLSFeature payload to feature numbers."""
    sequence = Reader(der).read_sequence()
    features = []
    while not sequence.at_end():
        features.append(sequence.read_integer())
    return features


def encode_aia(ocsp_urls: Sequence[str] = (), ca_issuer_urls: Sequence[str] = ()) -> bytes:
    """Encode AuthorityInformationAccess with OCSP and caIssuers entries."""
    descriptions = []
    for url in ocsp_urls:
        descriptions.append(encoder.encode_sequence(
            encoder.encode_oid(oid.AD_OCSP),
            encoder.encode_implicit(_GENERAL_NAME_URI, url.encode("ascii")),
        ))
    for url in ca_issuer_urls:
        descriptions.append(encoder.encode_sequence(
            encoder.encode_oid(oid.AD_CA_ISSUERS),
            encoder.encode_implicit(_GENERAL_NAME_URI, url.encode("ascii")),
        ))
    return encoder.encode_sequence(*descriptions)


def decode_aia(der: bytes) -> Dict[ObjectIdentifier, List[str]]:
    """Decode AuthorityInformationAccess into {accessMethod: [urls]}."""
    sequence = Reader(der).read_sequence()
    result: Dict[ObjectIdentifier, List[str]] = {}
    while not sequence.at_end():
        description = sequence.read_sequence()
        method = description.read_oid()
        tag, content = description.read_tlv()
        description.expect_end()
        if tag == tags.context(_GENERAL_NAME_URI, constructed=False):
            result.setdefault(method, []).append(content.decode("ascii", "replace"))
    return result


def encode_crl_distribution_points(urls: Sequence[str]) -> bytes:
    """Encode CRLDistributionPoints with fullName URI entries."""
    points = []
    for url in urls:
        general_name = encoder.encode_implicit(_GENERAL_NAME_URI, url.encode("ascii"))
        full_name = encoder.encode_implicit(0, general_name, constructed=True)
        distribution_point_name = encoder.encode_implicit(0, full_name, constructed=True)
        points.append(encoder.encode_sequence(distribution_point_name))
    return encoder.encode_sequence(*points)


def decode_crl_distribution_points(der: bytes) -> List[str]:
    """Decode CRLDistributionPoints, returning URI fullNames."""
    sequence = Reader(der).read_sequence()
    urls = []
    while not sequence.at_end():
        point = sequence.read_sequence()
        dp_name = point.maybe_context(0)
        if dp_name is None:
            continue
        full_name = dp_name.maybe_context(0)
        if full_name is None:
            continue
        while not full_name.at_end():
            tag, content = full_name.read_tlv()
            if tag == tags.context(_GENERAL_NAME_URI, constructed=False):
                urls.append(content.decode("ascii", "replace"))
    return urls


def encode_subject_alt_name(dns_names: Sequence[str]) -> bytes:
    """Encode SubjectAltName with dNSName entries."""
    return encoder.encode_sequence(
        *(encoder.encode_implicit(_GENERAL_NAME_DNS, name.encode("ascii"))
          for name in dns_names)
    )


def decode_subject_alt_name(der: bytes) -> List[str]:
    """Decode SubjectAltName dNSName entries."""
    sequence = Reader(der).read_sequence()
    names = []
    while not sequence.at_end():
        tag, content = sequence.read_tlv()
        if tag == tags.context(_GENERAL_NAME_DNS, constructed=False):
            names.append(content.decode("ascii", "replace"))
    return names


def encode_extended_key_usage(purposes: Sequence[ObjectIdentifier]) -> bytes:
    """Encode ExtendedKeyUsage."""
    return encoder.encode_sequence(
        *(encoder.encode_oid(purpose) for purpose in purposes)
    )


def decode_extended_key_usage(der: bytes) -> List[ObjectIdentifier]:
    """Decode ExtendedKeyUsage purpose OIDs."""
    sequence = Reader(der).read_sequence()
    purposes = []
    while not sequence.at_end():
        purposes.append(sequence.read_oid())
    return purposes


def encode_key_usage(bits: Sequence[int]) -> bytes:
    """Encode KeyUsage from named-bit positions (0=digitalSignature ...)."""
    return encoder.encode_named_bits(list(bits))


def decode_key_usage(der: bytes) -> List[int]:
    """Decode KeyUsage named bits."""
    return Reader(der).read_named_bits()


def encode_crl_reason(reason: int) -> bytes:
    """Encode a CRLReason ENUMERATED payload."""
    if reason not in REASON_NAMES:
        raise DecodeError(f"unknown CRL reason code: {reason}")
    return encoder.encode_enumerated(reason)


def decode_crl_reason(der: bytes) -> int:
    """Decode a CRLReason ENUMERATED payload."""
    reader = Reader(der)
    reason = reader.read_enumerated()
    reader.expect_end()
    return reason


# -- convenience constructors ------------------------------------------------

def make_tls_feature_extension() -> Extension:
    """Build the OCSP Must-Staple extension (non-critical, like Let's Encrypt)."""
    return Extension(oid.TLS_FEATURE, critical=False, value=encode_tls_feature())


def make_aia_extension(ocsp_urls: Sequence[str],
                       ca_issuer_urls: Sequence[str] = ()) -> Extension:
    """Build an AuthorityInformationAccess extension."""
    return Extension(
        oid.AUTHORITY_INFORMATION_ACCESS,
        critical=False,
        value=encode_aia(ocsp_urls, ca_issuer_urls),
    )


def make_crl_dp_extension(urls: Sequence[str]) -> Extension:
    """Build a CRLDistributionPoints extension."""
    return Extension(
        oid.CRL_DISTRIBUTION_POINTS,
        critical=False,
        value=encode_crl_distribution_points(urls),
    )


def make_basic_constraints_extension(ca: bool, path_length: Optional[int] = None) -> Extension:
    """Build a (critical) BasicConstraints extension."""
    return Extension(
        oid.BASIC_CONSTRAINTS,
        critical=True,
        value=BasicConstraints(ca=ca, path_length=path_length).to_der(),
    )


def make_san_extension(dns_names: Sequence[str]) -> Extension:
    """Build a SubjectAltName extension."""
    return Extension(
        oid.SUBJECT_ALT_NAME, critical=False, value=encode_subject_alt_name(dns_names)
    )


def make_eku_extension(purposes: Sequence[ObjectIdentifier]) -> Extension:
    """Build an ExtendedKeyUsage extension."""
    return Extension(
        oid.EXTENDED_KEY_USAGE, critical=False, value=encode_extended_key_usage(purposes)
    )


def make_ocsp_nocheck_extension() -> Extension:
    """Build the id-pkix-ocsp-nocheck marker for delegated OCSP signers."""
    return Extension(oid.OCSP_NOCHECK, critical=False, value=encoder.encode_null())
