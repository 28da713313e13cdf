"""Certificate construction and signing.

:class:`CertificateBuilder` assembles a TBSCertificate, signs it with
the issuer's key, and returns a parsed :class:`Certificate`.  CAs in
:mod:`repro.ca` drive this; the fault-injecting responders never need a
broken builder because corruption happens at the byte level downstream.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..asn1 import ObjectIdentifier, encoder, oid
from ..crypto import RSAPrivateKey, RSAPublicKey, encode_spki, sign
from .certificate import Certificate, parse_certificate
from .extensions import (
    Extension,
    make_aia_extension,
    make_basic_constraints_extension,
    make_crl_dp_extension,
    make_eku_extension,
    make_ocsp_nocheck_extension,
    make_san_extension,
    make_tls_feature_extension,
)
from .name import Name

_HASH_TO_ALGORITHM = {
    "sha256": oid.SHA256_WITH_RSA,
    "sha1": oid.SHA1_WITH_RSA,
}


class CertificateBuilder:
    """A fluent builder for X.509 v3 certificates."""

    def __init__(self) -> None:
        self._serial_number: Optional[int] = None
        self._issuer: Optional[Name] = None
        self._subject: Optional[Name] = None
        self._public_key: Optional[RSAPublicKey] = None
        self._not_before: Optional[int] = None
        self._not_after: Optional[int] = None
        self._extensions: List[Extension] = []
        self._hash_name = "sha256"

    def serial_number(self, serial: int) -> "CertificateBuilder":
        """Set the serial number (must be positive per RFC 5280)."""
        if serial <= 0:
            raise ValueError("serial numbers must be positive")
        self._serial_number = serial
        return self

    def issuer(self, name: Name) -> "CertificateBuilder":
        """Set the issuer name."""
        self._issuer = name
        return self

    def subject(self, name: Name) -> "CertificateBuilder":
        """Set the subject name."""
        self._subject = name
        return self

    def public_key(self, key: RSAPublicKey) -> "CertificateBuilder":
        """Set the subject public key."""
        self._public_key = key
        return self

    def validity(self, not_before: int, not_after: int) -> "CertificateBuilder":
        """Set the validity window (POSIX seconds)."""
        if not_after < not_before:
            raise ValueError("notAfter precedes notBefore")
        self._not_before = not_before
        self._not_after = not_after
        return self

    def hash_algorithm(self, hash_name: str) -> "CertificateBuilder":
        """Choose the signature digest ("sha256" default, "sha1" legacy)."""
        if hash_name not in _HASH_TO_ALGORITHM:
            raise ValueError(f"unsupported hash: {hash_name}")
        self._hash_name = hash_name
        return self

    def add_extension(self, extension: Extension) -> "CertificateBuilder":
        """Append an arbitrary pre-built extension."""
        self._extensions.append(extension)
        return self

    # -- high-level extension helpers ----------------------------------------

    def ca(self, path_length: Optional[int] = None) -> "CertificateBuilder":
        """Mark as a CA certificate via BasicConstraints."""
        return self.add_extension(make_basic_constraints_extension(True, path_length))

    def leaf(self) -> "CertificateBuilder":
        """Mark as an end-entity certificate via BasicConstraints."""
        return self.add_extension(make_basic_constraints_extension(False))

    def dns_names(self, names: Sequence[str]) -> "CertificateBuilder":
        """Add a SubjectAltName with dNSName entries."""
        return self.add_extension(make_san_extension(names))

    def ocsp_url(self, *urls: str) -> "CertificateBuilder":
        """Add an AIA extension pointing at OCSP responder URLs."""
        return self.add_extension(make_aia_extension(list(urls)))

    def aia(self, ocsp_urls: Sequence[str],
            ca_issuer_urls: Sequence[str] = ()) -> "CertificateBuilder":
        """Add a full AIA extension."""
        return self.add_extension(make_aia_extension(ocsp_urls, ca_issuer_urls))

    def crl_url(self, *urls: str) -> "CertificateBuilder":
        """Add a CRLDistributionPoints extension."""
        return self.add_extension(make_crl_dp_extension(list(urls)))

    def must_staple(self) -> "CertificateBuilder":
        """Add the OCSP Must-Staple (TLSFeature) extension."""
        return self.add_extension(make_tls_feature_extension())

    def server_auth(self) -> "CertificateBuilder":
        """Add an EKU for TLS server authentication."""
        return self.add_extension(make_eku_extension([oid.EKU_SERVER_AUTH]))

    def ocsp_signing(self) -> "CertificateBuilder":
        """Add EKU OCSPSigning + ocsp-nocheck for delegated responders."""
        self.add_extension(make_eku_extension([oid.EKU_OCSP_SIGNING]))
        return self.add_extension(make_ocsp_nocheck_extension())

    # -- signing -------------------------------------------------------------

    def sign(self, issuer_key: RSAPrivateKey) -> Certificate:
        """Assemble, sign, and return the parsed certificate.

        The parse goes through :func:`parse_certificate`, so responses
        that later embed this certificate reuse it.
        """
        missing = [
            field for field, value in (
                ("serial_number", self._serial_number),
                ("issuer", self._issuer),
                ("subject", self._subject),
                ("public_key", self._public_key),
                ("not_before", self._not_before),
                ("not_after", self._not_after),
            ) if value is None
        ]
        if missing:
            raise ValueError(f"builder incomplete, missing: {', '.join(missing)}")

        algorithm = encoder.encode_sequence(
            encoder.encode_oid(_HASH_TO_ALGORITHM[self._hash_name]),
            encoder.encode_null(),
        )
        tbs_parts = [
            encoder.encode_explicit(0, encoder.encode_integer(2)),  # v3
            encoder.encode_integer(self._serial_number),
            algorithm,
            self._issuer.encode(),
            encoder.encode_sequence(
                encoder.encode_x509_time(self._not_before),
                encoder.encode_x509_time(self._not_after),
            ),
            self._subject.encode(),
            encode_spki(self._public_key),
        ]
        if self._extensions:
            extensions_der = encoder.encode_sequence(
                *(extension.encode() for extension in self._extensions)
            )
            tbs_parts.append(encoder.encode_explicit(3, extensions_der))
        tbs = encoder.encode_sequence(*tbs_parts)
        signature = sign(issuer_key, tbs, self._hash_name)
        certificate_der = encoder.encode_sequence(
            tbs, algorithm, encoder.encode_bit_string(signature)
        )
        return parse_certificate(certificate_der)


def self_signed(subject: Name, key: RSAPrivateKey, serial: int,
                not_before: int, not_after: int) -> Certificate:
    """Build a self-signed CA root certificate."""
    return (
        CertificateBuilder()
        .serial_number(serial)
        .issuer(subject)
        .subject(subject)
        .public_key(key.public_key)
        .validity(not_before, not_after)
        .ca()
        .sign(key)
    )
