"""X.501 distinguished names (the RDNSequence used by X.509 and OCSP).

Only single-valued RDNs are produced (the overwhelmingly common form);
the parser accepts arbitrary AttributeTypeAndValue sets.  Names hash
and compare by their DER encoding, which is how issuer matching works
throughout the PKI code.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

from ..asn1 import ObjectIdentifier, Reader, encoder, oid

_PRINTABLE_TYPES = {oid.COUNTRY_NAME}


class Name:
    """A distinguished name: an ordered sequence of (type, value) pairs."""

    __slots__ = ("_attributes", "_der")

    def __init__(self, attributes: Sequence[Tuple[ObjectIdentifier, str]]) -> None:
        self._attributes: Tuple[Tuple[ObjectIdentifier, str], ...] = tuple(
            (attr_type if isinstance(attr_type, ObjectIdentifier)
             else ObjectIdentifier(attr_type), str(value))
            for attr_type, value in attributes
        )
        self._der: Optional[bytes] = None

    @classmethod
    def build(cls, common_name: str, organization: Optional[str] = None,
              country: Optional[str] = None) -> "Name":
        """Convenience constructor for the common CN/O/C shape."""
        attributes: List[Tuple[ObjectIdentifier, str]] = []
        if country:
            attributes.append((oid.COUNTRY_NAME, country))
        if organization:
            attributes.append((oid.ORGANIZATION_NAME, organization))
        attributes.append((oid.COMMON_NAME, common_name))
        return cls(attributes)

    @property
    def attributes(self) -> Tuple[Tuple[ObjectIdentifier, str], ...]:
        """The (type, value) pairs in order."""
        return self._attributes

    @property
    def common_name(self) -> Optional[str]:
        """The first commonName value, if present."""
        for attr_type, value in self._attributes:
            if attr_type == oid.COMMON_NAME:
                return value
        return None

    def encode(self) -> bytes:
        """Return the DER RDNSequence encoding (cached)."""
        if self._der is None:
            rdns = []
            for attr_type, value in self._attributes:
                if attr_type in _PRINTABLE_TYPES:
                    encoded_value = encoder.encode_printable_string(value)
                else:
                    encoded_value = encoder.encode_utf8_string(value)
                atv = encoder.encode_sequence(
                    encoder.encode_oid(attr_type), encoded_value
                )
                rdns.append(encoder.encode_set([atv]))
            self._der = encoder.encode_sequence(*rdns)
        return self._der

    @classmethod
    def decode(cls, reader: Reader) -> "Name":
        """Parse an RDNSequence from *reader*."""
        sequence = reader.read_sequence()
        attributes: List[Tuple[ObjectIdentifier, str]] = []
        while not sequence.at_end():
            rdn = sequence.read_set()
            while not rdn.at_end():
                atv = rdn.read_sequence()
                attr_type = atv.read_oid()
                value = atv.read_string()
                atv.expect_end()
                attributes.append((attr_type, value))
        return cls(attributes)

    @classmethod
    def from_der(cls, der: bytes) -> "Name":
        """Parse a complete DER Name."""
        reader = Reader(der)
        name = cls.decode(reader)
        reader.expect_end()
        return name

    def hash_sha1(self) -> bytes:
        """SHA-1 of the DER name — used by the OCSP CertID issuerNameHash."""
        return hashlib.sha1(self.encode()).digest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{oid.OID_NAMES.get(t, t.dotted)}={v}" for t, v in self._attributes
        )
        return f"Name({parts})"

    def rfc4514(self) -> str:
        """A human-readable one-line form (CN=..., O=..., C=...)."""
        shorthand = {
            oid.COMMON_NAME: "CN",
            oid.ORGANIZATION_NAME: "O",
            oid.COUNTRY_NAME: "C",
            oid.ORGANIZATIONAL_UNIT: "OU",
        }
        return ",".join(
            f"{shorthand.get(t, t.dotted)}={v}" for t, v in reversed(self._attributes)
        )
