"""The OCSP CertID structure (RFC 6960 section 4.1.1).

A CertID identifies the certificate being asked about: a hash of the
issuer's name, a hash of the issuer's public key, and the serial
number — "Each OCSP request must contain a given certificate's serial
number along with a hash of the issuer's name and public key" (paper
Section 2.2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..asn1 import (
    ObjectIdentifier, Reader, UnsupportedAlgorithmError, encoder, oid,
)
from ..x509 import Certificate

_HASH_OIDS = {
    "sha1": oid.SHA1,
    "sha256": oid.SHA256,
}
_OID_TO_HASH = {v: k for k, v in _HASH_OIDS.items()}


@dataclass(frozen=True)
class CertID:
    """The (hash algorithm, issuerNameHash, issuerKeyHash, serial) tuple."""

    hash_name: str
    issuer_name_hash: bytes
    issuer_key_hash: bytes
    serial_number: int

    @classmethod
    def for_certificate(cls, certificate: Certificate, issuer: Certificate,
                        hash_name: str = "sha1") -> "CertID":
        """Build the CertID a client would compute for *certificate*."""
        if hash_name not in _HASH_OIDS:
            raise ValueError(f"unsupported CertID hash: {hash_name}")
        name_hash = hashlib.new(hash_name, issuer.subject.encode()).digest()
        key_hash = _key_hash(issuer, hash_name)
        return cls(
            hash_name=hash_name,
            issuer_name_hash=name_hash,
            issuer_key_hash=key_hash,
            serial_number=certificate.serial_number,
        )

    def encode(self) -> bytes:
        """Encode the CertID SEQUENCE."""
        algorithm = encoder.encode_sequence(
            encoder.encode_oid(_HASH_OIDS[self.hash_name]),
            encoder.encode_null(),
        )
        return encoder.encode_sequence(
            algorithm,
            encoder.encode_octet_string(self.issuer_name_hash),
            encoder.encode_octet_string(self.issuer_key_hash),
            encoder.encode_integer(self.serial_number),
        )

    @classmethod
    def decode(cls, reader: Reader) -> "CertID":
        """Parse a CertID SEQUENCE from *reader*."""
        sequence = reader.read_sequence()
        algorithm = sequence.read_sequence()
        hash_oid = algorithm.read_oid()
        if not algorithm.at_end():
            algorithm.read_tlv()
        hash_name = _OID_TO_HASH.get(hash_oid)
        if hash_name is None:
            raise UnsupportedAlgorithmError(
                f"unsupported CertID hash algorithm: {hash_oid}")
        issuer_name_hash = sequence.read_octet_string()
        issuer_key_hash = sequence.read_octet_string()
        serial_number = sequence.read_integer()
        sequence.expect_end()
        return cls(hash_name, issuer_name_hash, issuer_key_hash, serial_number)

    def matches_issuer(self, issuer: Certificate) -> bool:
        """True when the hashes match *issuer* (responder-side lookup)."""
        name_hash = hashlib.new(self.hash_name, issuer.subject.encode()).digest()
        if name_hash != self.issuer_name_hash:
            return False
        return _key_hash(issuer, self.hash_name) == self.issuer_key_hash


def _key_hash(issuer: Certificate, hash_name: str) -> bytes:
    """Hash of the issuer's public key BIT STRING content."""
    return hashlib.new(hash_name, issuer.public_key_bits).digest()
