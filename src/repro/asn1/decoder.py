"""Strict DER decoder.

The central type is :class:`Reader`, a cursor over a byte string with
typed ``read_*`` methods.  Constructed types hand back a sub-``Reader``
limited to their content, so parsers compose naturally::

    reader = Reader(der_bytes)
    seq = reader.read_sequence()
    serial = seq.read_integer()
    ...

Strictness matters for the reproduction: the paper's Figure 5 counts
responses whose "malformed OCSP structure (ASN.1 structure error)"
makes them unusable, and our scanner produces that classification by
feeding real responder output through this decoder.  A ``lenient=True``
mode exists solely for the parser ablation benchmark.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import tags
from .errors import (
    DecodeError,
    LimitExceededError,
    StrictDERError,
    TagMismatchError,
    TruncatedError,
)
from ..memo import BoundedMemo
from .oid import ObjectIdentifier
from .timecodec import decode_time

#: Maximum nesting depth of constructed elements.  Real X.509/OCSP/CRL
#: structures stay below ~10 levels; hostile inputs nest thousands deep
#: to exhaust the Python stack, so the cap converts a RecursionError
#: into a typed DecodeError.
MAX_DEPTH = 64

#: Maximum number of length octets in a long-form length.  Eight octets
#: already announce lengths up to 2**64-1 — far beyond any buffer —
#: so longer encodings are only ever seen in hostile input.
MAX_LENGTH_OCTETS = 8

#: Maximum number of TLV headers decoded from one buffer (shared across
#: all sub-readers of a document).  Bounds total work and allocation to
#: a fixed multiple of the input size.
MAX_ELEMENTS = 100_000

#: Decoded OBJECT IDENTIFIERs keyed by their content octets.  A scan
#: decodes the same dozen algorithm, name-attribute and extension OIDs
#: in every certificate and response, so :meth:`Reader.read_oid` hands
#: back one shared (immutable) instance per content.  A Figure 3
#: campaign at any scale reuses 13 contents, so 256 leaves room for
#: CRL, lint and extension OIDs.
_OIDS: BoundedMemo[bytes, ObjectIdentifier] = BoundedMemo(256)


class Reader:
    """A strict DER cursor over immutable bytes.

    The cursor is *bounded*: nesting depth, length-octet count, and the
    total number of decoded elements are all capped (see
    :data:`MAX_DEPTH`, :data:`MAX_LENGTH_OCTETS`, :data:`MAX_ELEMENTS`),
    so pathological inputs raise :class:`LimitExceededError` — a
    :class:`DecodeError` — instead of ``RecursionError``/``MemoryError``.
    """

    __slots__ = ("_data", "_pos", "_end", "lenient", "_depth", "_elements")

    def __init__(self, data: bytes, start: int = 0, end: Optional[int] = None,
                 lenient: bool = False, _depth: int = 0,
                 _elements: Optional[List[int]] = None) -> None:
        self._data = bytes(data)
        self._pos = start
        self._end = len(self._data) if end is None else end
        self.lenient = lenient
        self._depth = _depth
        # Element budget, shared by reference across every sub-reader of
        # the same document so the cap applies to the buffer as a whole.
        self._elements = [0] if _elements is None else _elements

    # -- low level ---------------------------------------------------------

    @property
    def position(self) -> int:
        """Absolute byte offset of the cursor in the underlying buffer.

        Sub-readers share the parent's buffer, so positions are always
        offsets into the *original* DER blob — which is what makes
        byte-offset provenance (``repro.lint``) possible.
        """
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of unread bytes in this reader's window."""
        return self._end - self._pos

    def at_end(self) -> bool:
        """True when the window is exhausted."""
        return self._pos >= self._end

    def peek_tag(self) -> int:
        """Return the next identifier octet without consuming it."""
        if self.at_end():
            raise TruncatedError("no bytes left to peek a tag")
        return self._data[self._pos]

    def read_tlv(self) -> Tuple[int, bytes]:
        """Consume one TLV and return ``(tag, content)``."""
        tag, start, length = self._read_header()
        return tag, self._data[start:start + length]

    def peek_span(self) -> Tuple[int, int]:
        """Return ``(offset, total_length)`` of the next TLV without consuming.

        The offset is absolute in the underlying buffer (see
        :attr:`position`); the length covers tag + length octets +
        content, i.e. the element's complete encoding.
        """
        mark = self._pos
        budget = self._elements[0]
        try:
            self._read_header()
            return mark, self._pos - mark
        finally:
            self._pos = mark
            self._elements[0] = budget

    def read_raw_element(self) -> bytes:
        """Consume one TLV and return its *complete* encoding (tag+len+content).

        Used to capture the exact signed bytes of ``tbsCertificate`` /
        ``tbsResponseData`` so signatures verify over the original
        encoding, never a re-encoding.
        """
        start = self._pos
        self._read_header()
        return self._data[start:self._pos]

    def _read_header(self) -> Tuple[int, int, int]:
        """Consume one TLV, returning ``(tag, content_start, length)``.

        Only the identifier and length octets are decoded; the content
        is never copied, so callers that only need its bounds (every
        constructed element) pay nothing for its size.
        """
        data = self._data
        mark = self._pos
        end = self._end
        if mark >= end:
            raise TruncatedError("no bytes left to read a tag", offset=mark)
        elements = self._elements
        elements[0] += 1
        if elements[0] > MAX_ELEMENTS:
            raise LimitExceededError(
                f"more than {MAX_ELEMENTS} elements in one document",
                offset=mark)
        tag = data[mark]
        pos = mark + 1
        if tag & tags.TAG_NUMBER_MASK == 0x1F:
            raise DecodeError("multi-octet tag numbers are not supported",
                              offset=mark)
        if pos >= end:
            raise TruncatedError("input ends after tag octet", offset=pos)
        length = data[pos]
        pos += 1
        if length >= 0x80:
            if length == 0x80:
                raise StrictDERError("indefinite length is forbidden in DER")
            n_octets = length & 0x7F
            if n_octets > MAX_LENGTH_OCTETS:
                raise LimitExceededError(
                    f"length uses {n_octets} octets "
                    f"(cap {MAX_LENGTH_OCTETS})", offset=pos - 1)
            if pos + n_octets > end:
                raise TruncatedError("input ends inside length octets",
                                     offset=pos - 1)
            raw = data[pos:pos + n_octets]
            pos += n_octets
            length = int.from_bytes(raw, "big")
            if not self.lenient:
                if raw[0] == 0x00:
                    raise StrictDERError("length has leading zero octet")
                if length < 0x80:
                    raise StrictDERError("long-form length used for short value")
        if pos + length > end:
            raise TruncatedError(
                f"content length {length} exceeds remaining {end - pos} bytes",
                offset=mark,
            )
        self._pos = pos + length
        return tag, pos, length

    def expect_end(self) -> None:
        """Raise unless the window was fully consumed (DER forbids slack)."""
        if not self.at_end():
            raise DecodeError(f"{self.remaining} trailing bytes after structure",
                              offset=self._pos)

    # -- typed readers -------------------------------------------------------

    def _read_expected(self, expected_tag: int) -> bytes:
        mark = self._pos
        tag, start, length = self._read_header()
        if tag != expected_tag:
            raise TagMismatchError(expected_tag, tag, offset=mark)
        return self._data[start:start + length]

    def read_boolean(self) -> bool:
        """Read a BOOLEAN, enforcing DER's 0x00/0xFF rule."""
        content = self._read_expected(tags.BOOLEAN)
        if len(content) != 1:
            raise DecodeError(f"BOOLEAN content must be 1 octet, got {len(content)}")
        if content[0] == 0x00:
            return False
        if content[0] == 0xFF or self.lenient:
            return True
        raise StrictDERError(f"BOOLEAN TRUE must be 0xFF in DER, got 0x{content[0]:02x}")

    def read_integer(self, tag: int = tags.INTEGER) -> int:
        """Read an INTEGER (or ENUMERATED via *tag*), minimal-form checked."""
        content = self._read_expected(tag)
        return decode_integer_content(content, lenient=self.lenient)

    def read_enumerated(self) -> int:
        """Read an ENUMERATED value."""
        return self.read_integer(tag=tags.ENUMERATED)

    def read_octet_string(self, tag: int = tags.OCTET_STRING) -> bytes:
        """Read an OCTET STRING's content."""
        return self._read_expected(tag)

    def read_bit_string(self) -> bytes:
        """Read a BIT STRING, returning the bit bytes (unused bits must be 0 here).

        All BIT STRINGs in this library (signatures, public keys) are
        octet-aligned, so a nonzero unused-bit count is rejected.
        """
        content = self._read_expected(tags.BIT_STRING)
        if not content:
            raise DecodeError("BIT STRING missing unused-bits octet")
        if content[0] != 0 and not self.lenient:
            raise DecodeError(f"unexpected unused bits in BIT STRING: {content[0]}")
        return content[1:]

    def read_named_bits(self) -> List[int]:
        """Read a NamedBitList BIT STRING into a list of set bit positions."""
        content = self._read_expected(tags.BIT_STRING)
        if not content:
            raise DecodeError("BIT STRING missing unused-bits octet")
        unused = content[0]
        if unused > 7:
            raise DecodeError(f"unused-bits octet out of range: {unused}")
        bits = []
        body = content[1:]
        total_bits = len(body) * 8 - unused
        for position in range(total_bits):
            if body[position // 8] & (0x80 >> (position % 8)):
                bits.append(position)
        return bits

    def read_null(self) -> None:
        """Read a NULL."""
        content = self._read_expected(tags.NULL)
        if content:
            raise DecodeError("NULL with nonempty content")

    def read_oid(self) -> ObjectIdentifier:
        """Read an OBJECT IDENTIFIER (interned by content, see :data:`_OIDS`)."""
        return _OIDS.lookup(self._read_expected(tags.OBJECT_IDENTIFIER),
                            ObjectIdentifier.decode_content)

    def read_string(self) -> str:
        """Read any of the supported character string types."""
        tag, content = self.read_tlv()
        if tag == tags.UTF8_STRING:
            try:
                return content.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DecodeError("invalid UTF-8 in UTF8String") from exc
        if tag in (tags.PRINTABLE_STRING, tags.IA5_STRING):
            try:
                return content.decode("ascii")
            except UnicodeDecodeError as exc:
                raise DecodeError("non-ASCII byte in ASCII string type") from exc
        raise DecodeError(f"tag 0x{tag:02x} is not a supported string type")

    def read_time(self) -> int:
        """Read UTCTime or GeneralizedTime as a POSIX timestamp."""
        tag, content = self.read_tlv()
        return decode_time(tag, content)

    def read_sequence(self) -> "Reader":
        """Read a SEQUENCE and return a sub-reader over its content."""
        return self._sub_reader(tags.SEQUENCE)

    def read_set(self) -> "Reader":
        """Read a SET and return a sub-reader over its content."""
        return self._sub_reader(tags.SET)

    def _sub_reader(self, expected_tag: int) -> "Reader":
        if self._depth + 1 > MAX_DEPTH:
            raise LimitExceededError(
                f"nesting deeper than {MAX_DEPTH} levels", offset=self._pos)
        mark = self._pos
        tag, start, length = self._read_header()
        if tag != expected_tag:
            self._pos = mark
            raise TagMismatchError(expected_tag, tag, offset=mark)
        return Reader(self._data, start, start + length,
                      lenient=self.lenient, _depth=self._depth + 1,
                      _elements=self._elements)

    def read_context(self, number: int, constructed: bool = True) -> "Reader":
        """Read a context-specific [number] element, returning a content reader."""
        return self._sub_reader(tags.context(number, constructed))

    def read_implicit_content(self, number: int, constructed: bool = False) -> bytes:
        """Read an IMPLICIT [number] element's raw content octets."""
        return self._read_expected(tags.context(number, constructed))

    def maybe_context(self, number: int, constructed: bool = True) -> Optional["Reader"]:
        """Return a content reader if the next element is [number], else None."""
        tag = tags.context(number, constructed)
        if self._pos >= self._end or self._data[self._pos] != tag:
            return None
        return self._sub_reader(tag)


def decode_integer_content(content: bytes, lenient: bool = False) -> int:
    """Decode INTEGER content octets with DER minimality checks."""
    if not content:
        raise DecodeError("INTEGER with empty content")
    if len(content) > 1 and not lenient:
        if content[0] == 0x00 and content[1] < 0x80:
            raise StrictDERError("INTEGER has redundant leading 0x00")
        if content[0] == 0xFF and content[1] >= 0x80:
            raise StrictDERError("INTEGER has redundant leading 0xFF")
    return int.from_bytes(content, "big", signed=True)
