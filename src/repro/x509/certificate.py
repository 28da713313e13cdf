"""X.509 certificates: the parsed model and DER parsing.

A :class:`Certificate` wraps the original DER bytes plus a parsed view.
Signature verification always runs over the *original* TBS bytes, never
a re-encoding — exactly how a real validator must behave (and how the
paper's measurement clients validated responses).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

from ..asn1 import ObjectIdentifier, Reader, oid
from ..asn1.errors import DecodeError
from ..crypto import RSAPublicKey, decode_spki, is_valid
from ..memo import BoundedMemo
from .extensions import Extensions
from .name import Name

_SUPPORTED_SIGNATURE_ALGORITHMS = {
    oid.SHA256_WITH_RSA: "sha256",
    oid.SHA1_WITH_RSA: "sha1",
}


@dataclass(frozen=True)
class Validity:
    """A notBefore/notAfter window in POSIX seconds."""

    not_before: int
    not_after: int

    def contains(self, timestamp: int) -> bool:
        """True when *timestamp* lies in the window (inclusive)."""
        return self.not_before <= timestamp <= self.not_after

    @property
    def lifetime(self) -> int:
        """Window length in seconds."""
        return self.not_after - self.not_before


class Certificate:
    """A parsed X.509 v3 certificate bound to its DER encoding.

    Instances are immutable, so one parse can be shared by every
    caller that sees the same DER (see :func:`parse_certificate`).
    """

    _FIELDS = ("der", "tbs_der", "version", "serial_number",
               "signature_algorithm", "issuer", "validity", "subject",
               "public_key", "spki_der", "extensions", "signature")
    __slots__ = _FIELDS

    def __init__(self, der: bytes, tbs_der: bytes, version: int, serial_number: int,
                 signature_algorithm: ObjectIdentifier, issuer: Name,
                 validity: Validity, subject: Name, public_key: RSAPublicKey,
                 spki_der: bytes, extensions: Extensions, signature: bytes) -> None:
        fields = (der, tbs_der, version, serial_number, signature_algorithm,
                  issuer, validity, subject, public_key, spki_der,
                  extensions, signature)
        for name, value in zip(self._FIELDS, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Certificate is immutable")

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_der(cls, der: bytes, lenient: bool = False) -> "Certificate":
        """Parse a DER Certificate."""
        reader = Reader(der, lenient=lenient)
        certificate = reader.read_sequence()
        tbs_der = certificate.read_raw_element()
        signature_algorithm = _read_algorithm_identifier(certificate.read_sequence())
        signature = certificate.read_bit_string()
        certificate.expect_end()

        tbs = Reader(tbs_der, lenient=lenient).read_sequence()
        version = 1
        version_field = tbs.maybe_context(0)
        if version_field is not None:
            version = version_field.read_integer() + 1
            version_field.expect_end()
        serial_number = tbs.read_integer()
        tbs_signature_algorithm = _read_algorithm_identifier(tbs.read_sequence())
        if tbs_signature_algorithm != signature_algorithm:
            raise DecodeError("TBS and outer signature algorithms differ")
        issuer = Name.decode(tbs)
        validity_seq = tbs.read_sequence()
        validity = Validity(validity_seq.read_time(), validity_seq.read_time())
        validity_seq.expect_end()
        subject = Name.decode(tbs)
        spki_der = tbs.read_raw_element()
        public_key = decode_spki(spki_der)
        extensions = Extensions()
        extension_wrapper = tbs.maybe_context(3)
        if extension_wrapper is not None:
            extensions = Extensions.decode(extension_wrapper)
            extension_wrapper.expect_end()
        tbs.expect_end()

        return cls(
            der=der,
            tbs_der=tbs_der,
            version=version,
            serial_number=serial_number,
            signature_algorithm=signature_algorithm,
            issuer=issuer,
            validity=validity,
            subject=subject,
            public_key=public_key,
            spki_der=spki_der,
            extensions=extensions,
            signature=signature,
        )

    # -- convenience ---------------------------------------------------------

    @property
    def ocsp_urls(self) -> List[str]:
        """OCSP responder URLs (AIA)."""
        return self.extensions.ocsp_urls

    @property
    def crl_urls(self) -> List[str]:
        """CRL distribution point URLs."""
        return self.extensions.crl_urls

    @property
    def must_staple(self) -> bool:
        """True when this certificate carries the OCSP Must-Staple extension."""
        return self.extensions.must_staple

    @property
    def is_ca(self) -> bool:
        """True when BasicConstraints marks a CA certificate."""
        return self.extensions.is_ca

    @property
    def is_self_signed(self) -> bool:
        """True when issuer == subject (the root heuristic)."""
        return self.issuer == self.subject

    @property
    def dns_names(self) -> List[str]:
        """All names the certificate is valid for (SAN, falling back to CN)."""
        names = self.extensions.subject_alt_names
        if names:
            return names
        common_name = self.subject.common_name
        return [common_name] if common_name else []

    def matches_hostname(self, hostname: str) -> bool:
        """RFC 6125-style match, supporting single-label wildcards."""
        hostname = hostname.lower().rstrip(".")
        for pattern in self.dns_names:
            pattern = pattern.lower().rstrip(".")
            if pattern == hostname:
                return True
            if pattern.startswith("*."):
                suffix = pattern[1:]  # ".example.com"
                if hostname.endswith(suffix) and "." not in hostname[: -len(suffix)]:
                    return True
        return False

    def fingerprint(self) -> bytes:
        """SHA-256 of the DER certificate."""
        return hashlib.sha256(self.der).digest()

    @property
    def public_key_bits(self) -> bytes:
        """The subjectPublicKey BIT STRING content, which CertID key
        hashes cover."""
        spki = Reader(self.spki_der).read_sequence()
        spki.read_sequence()  # algorithm
        return spki.read_bit_string()

    def key_hash_sha1(self) -> bytes:
        """SHA-1 of the subject public key BIT STRING content (CertID issuerKeyHash)."""
        return hashlib.sha1(self.public_key_bits).digest()

    def signature_hash_name(self) -> str:
        """The hashlib name of the signature digest ("sha256"/"sha1")."""
        name = _SUPPORTED_SIGNATURE_ALGORITHMS.get(self.signature_algorithm)
        if name is None:
            raise DecodeError(
                f"unsupported signature algorithm: {self.signature_algorithm}"
            )
        return name

    def verify_signature(self, issuer_key: RSAPublicKey) -> bool:
        """Check the certificate signature against *issuer_key*."""
        return is_valid(
            issuer_key, self.tbs_der, self.signature, self.signature_hash_name()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return self.der == other.der

    def __hash__(self) -> int:
        return hash(self.der)

    def __repr__(self) -> str:
        subject = self.subject.common_name or self.subject.rfc4514()
        flags = []
        if self.is_ca:
            flags.append("CA")
        if self.must_staple:
            flags.append("must-staple")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"Certificate(serial={self.serial_number:#x}, subject={subject!r}{suffix})"


def _read_algorithm_identifier(sequence: Reader) -> ObjectIdentifier:
    """Read an AlgorithmIdentifier, tolerating absent or NULL parameters."""
    algorithm = sequence.read_oid()
    if not sequence.at_end():
        sequence.read_tlv()  # parameters (NULL for RSA)
    sequence.expect_end()
    return algorithm


#: Parsed certificates keyed by their DER.  The same few responder and
#: CA certificates come back embedded in thousands of OCSP responses,
#: so :func:`parse_certificate` parses each distinct DER once.  1,024 is
#: twice the largest reuse distance a paper-scale Figure 3 campaign
#: shows (491 distinct insertions between a certificate's build and its
#: last embedding; DESIGN.md section 5.1).
_CERTIFICATES: BoundedMemo[bytes, Certificate] = BoundedMemo(1024)


def parse_certificate(der: bytes) -> Certificate:
    """Strict :meth:`Certificate.from_der`, once per distinct DER.

    A hit returns the earlier parse, which is immutable and equal field
    by field to a fresh one.  Malformed input raises on every call and
    is never stored.  Lenient callers use ``Certificate.from_der``.
    """
    return _CERTIFICATES.lookup(bytes(der), Certificate.from_der)


def parse_certificate_chain(der_blobs: List[bytes]) -> List[Certificate]:
    """Parse a list of DER blobs into certificates, preserving order."""
    return [parse_certificate(blob) for blob in der_blobs]
