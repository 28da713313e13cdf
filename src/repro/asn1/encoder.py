"""DER encoding primitives.

Every function returns complete TLV byte strings.  The encoder always
produces canonical DER (minimal lengths, minimal integers, definite
lengths), which the strict decoder in :mod:`repro.asn1.decoder` will
round-trip.  Fault-injecting responders in :mod:`repro.ca` deliberately
corrupt these bytes *after* encoding, so the encoder itself never needs
a "produce broken output" mode.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import tags
from .errors import EncodeError
from .oid import ObjectIdentifier
from .timecodec import choose_time_encoding, encode_generalized_time


def encode_length(length: int) -> bytes:
    """Encode a definite length in the minimal DER form."""
    if length < 0:
        raise EncodeError(f"negative length: {length}")
    if length < 0x80:
        return bytes([length])
    octets = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(octets)]) + octets


def encode_tlv(tag: int, content: bytes) -> bytes:
    """Wrap *content* in a tag and DER length."""
    if not 0 <= tag <= 0xFF:
        raise EncodeError(f"tag must be a single octet, got {tag}")
    return bytes([tag]) + encode_length(len(content)) + content


def encode_boolean(value: bool) -> bytes:
    """Encode BOOLEAN; DER mandates 0xFF for TRUE."""
    return encode_tlv(tags.BOOLEAN, b"\xff" if value else b"\x00")


def encode_integer(value: int, tag: int = tags.INTEGER) -> bytes:
    """Encode a (possibly negative) integer in minimal two's complement."""
    if value == 0:
        return encode_tlv(tag, b"\x00")
    length = (value.bit_length() + 8) // 8  # + sign bit headroom
    content = value.to_bytes(length, "big", signed=True)
    # Strip redundant sign-extension octets while staying minimal.
    while (
        len(content) > 1
        and (
            (content[0] == 0x00 and content[1] < 0x80)
            or (content[0] == 0xFF and content[1] >= 0x80)
        )
    ):
        content = content[1:]
    return encode_tlv(tag, content)


def encode_enumerated(value: int) -> bytes:
    """Encode ENUMERATED (same content rules as INTEGER)."""
    return encode_integer(value, tag=tags.ENUMERATED)


def encode_octet_string(value: bytes, tag: int = tags.OCTET_STRING) -> bytes:
    """Encode an OCTET STRING (or any raw-content type via *tag*)."""
    return encode_tlv(tag, bytes(value))


def encode_bit_string(value: bytes, unused_bits: int = 0) -> bytes:
    """Encode a BIT STRING; *unused_bits* counts padding bits in the last octet."""
    if not 0 <= unused_bits <= 7:
        raise EncodeError(f"unused_bits out of range: {unused_bits}")
    if unused_bits and not value:
        raise EncodeError("unused_bits set on empty bit string")
    return encode_tlv(tags.BIT_STRING, bytes([unused_bits]) + bytes(value))


def encode_named_bits(bits: Sequence[int]) -> bytes:
    """Encode a NamedBitList BIT STRING from set bit positions.

    DER requires trailing zero bits to be trimmed; KeyUsage is encoded
    this way.
    """
    if not bits:
        return encode_bit_string(b"", 0)
    highest = max(bits)
    if min(bits) < 0:
        raise EncodeError("bit positions must be non-negative")
    n_octets = highest // 8 + 1
    content = bytearray(n_octets)
    for bit in bits:
        content[bit // 8] |= 0x80 >> (bit % 8)
    unused = 7 - (highest % 8)
    return encode_bit_string(bytes(content), unused)


def encode_null() -> bytes:
    """Encode NULL."""
    return encode_tlv(tags.NULL, b"")


def encode_oid(oid: "ObjectIdentifier | str") -> bytes:
    """Encode an OBJECT IDENTIFIER (reusing an instance's cached content)."""
    if not isinstance(oid, ObjectIdentifier):
        oid = ObjectIdentifier(oid)
    return encode_tlv(tags.OBJECT_IDENTIFIER, oid.encode_content())


def encode_sequence(*elements: bytes) -> bytes:
    """Encode a SEQUENCE from already-encoded element TLVs."""
    return encode_tlv(tags.SEQUENCE, b"".join(elements))


def encode_set(elements: Iterable[bytes]) -> bytes:
    """Encode a SET OF; DER requires elements sorted by encoding."""
    return encode_tlv(tags.SET, b"".join(sorted(elements)))


def encode_utf8_string(value: str) -> bytes:
    """Encode a UTF8String."""
    return encode_tlv(tags.UTF8_STRING, value.encode("utf-8"))


def encode_printable_string(value: str) -> bytes:
    """Encode a PrintableString, rejecting characters outside its alphabet."""
    allowed = set(
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 '()+,-./:=?"
    )
    if not set(value) <= allowed:
        raise EncodeError(f"not printable-string safe: {value!r}")
    return encode_tlv(tags.PRINTABLE_STRING, value.encode("ascii"))


def encode_ia5_string(value: str) -> bytes:
    """Encode an IA5String (ASCII); URLs in AIA/CRLDP use this."""
    try:
        content = value.encode("ascii")
    except UnicodeEncodeError as exc:
        raise EncodeError(f"not IA5-safe: {value!r}") from exc
    return encode_tlv(tags.IA5_STRING, content)


def encode_x509_time(timestamp: int) -> bytes:
    """Encode a time with the RFC 5280 UTCTime/GeneralizedTime choice."""
    tag, content = choose_time_encoding(timestamp)
    return encode_tlv(tag, content)


def encode_ocsp_time(timestamp: int) -> bytes:
    """Encode a time as GeneralizedTime, as OCSP always does."""
    return encode_tlv(tags.GENERALIZED_TIME, encode_generalized_time(timestamp))


def encode_explicit(number: int, inner: bytes) -> bytes:
    """Wrap already-encoded TLV bytes in an EXPLICIT [number] tag."""
    return encode_tlv(tags.context(number, constructed=True), inner)


def encode_implicit(number: int, content: bytes, constructed: bool = False) -> bytes:
    """Encode content octets under an IMPLICIT [number] tag."""
    return encode_tlv(tags.context(number, constructed=constructed), content)
