"""Seeded, structure-aware DER mutation families.

Every mutant is a pure function of ``(document, mutation_id, seed)``
(plus the fixed donor set for splicing): the family is selected by
``mutation_id`` round-robin and all randomness comes from
``derived_rng(seed, "hostile", mutation_id)``, so any shard of any run
regenerates byte-identical mutants — the property the hostile-corpus
experiment's cache keys and cross-worker merges rest on.

The families mirror how real-web DER goes wrong (and how Frankencert-
style adversarial testing damages it on purpose): truncation at element
boundaries, length octets that lie in either direction, identifier-
octet flips, subtrees transplanted between document types, corrupted
OIDs/times/signatures, BER indefinite lengths, and the two classic
resource attacks — nesting bombs and announced-length bombs.

The element-level families work from an index of the document, built
once per distinct document (:class:`_ElementIndex`): its canonical
bytes and one :func:`~repro.hostile.tlv.element_spans` record per
element.  Each changes one element, so a mutant is that element's new
bytes spliced into the canonical bytes with each ancestor re-headered
for its new length (:func:`_replace`) — the bytes that parsing the
document into a :class:`~repro.hostile.tlv.TLVNode` tree, changing one
node and re-encoding the tree would give, from the same rng draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..asn1 import encoder, tags
from ..canon import derived_rng
from ..memo import BoundedMemo
from .tlv import element_spans, encode_forest, parse_forest

#: Mutation family names, in round-robin order.  Appending here is
#: cheap; reordering or removing entries changes every mutant stream.
FAMILIES: Tuple[str, ...] = (
    "truncate",
    "length-inflate",
    "length-deflate",
    "tag-flip",
    "splice",
    "oid-corrupt",
    "time-corrupt",
    "sig-corrupt",
    "bitflip",
    "ber-indefinite",
    "depth-bomb",
    "length-bomb",
)


@dataclass(frozen=True)
class Mutant:
    """One labelled hostile document."""

    family: str
    mutation_id: int
    der: bytes


def mutate(document: bytes, mutation_id: int, seed: int,
           donors: Sequence[bytes] = ()) -> Mutant:
    """Produce the ``mutation_id``-th mutant of *document* under *seed*.

    *donors* supplies foreign documents for the splice family (falling
    back to self-splicing when empty).
    """
    document = bytes(document)
    family = FAMILIES[mutation_id % len(FAMILIES)]
    rng = derived_rng(seed, "hostile", mutation_id)
    der = _MUTATORS[family](document, rng, tuple(donors) or (document,))
    return Mutant(family=family, mutation_id=mutation_id, der=der)


# ---------------------------------------------------------------------------
# the element index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ElementIndex:
    """What the element-level families need of one document.

    Parsing the document into a :class:`~repro.hostile.tlv.TLVNode`
    tree, changing one node and re-encoding the tree yields the
    canonical bytes (minimal lengths) with that element's bytes changed
    and each of its ancestors re-headered: :func:`_replace` writes
    exactly that.  Elements are numbered in ``flatten`` pre-order, so
    ``rng.choice`` over element numbers draws the element it would
    draw over the tree's nodes.
    """

    #: ``encode_forest(parse_forest(document))``; the document itself
    #: when its lengths are already minimal.
    der: bytes
    #: :func:`~repro.hostile.tlv.element_spans` of :attr:`der`.
    spans: Tuple[Tuple[int, int, int, int, int], ...]
    #: The truncation points of the document as given (not of
    #: :attr:`der`): element boundaries other than its two ends, sorted.
    boundaries: Tuple[int, ...]
    #: Element numbers per corruption target, in pre-order.
    oids: Tuple[int, ...]
    times: Tuple[int, ...]
    bit_strings: Tuple[int, ...]
    constructed: Tuple[int, ...]

    def content(self, number: int) -> bytes:
        offset, header_len, content_len, _, _ = self.spans[number]
        start = offset + header_len
        return self.der[start:start + content_len]

    def element(self, number: int) -> bytes:
        offset, header_len, content_len, _, _ = self.spans[number]
        return self.der[offset:offset + header_len + content_len]


def _build_index(document: bytes) -> _ElementIndex:
    boundaries = set()
    for offset, header_len, content_len, _, _ in element_spans(document):
        boundaries.update((offset, offset + header_len,
                           offset + header_len + content_len))
    boundaries -= {0, len(document)}
    der = encode_forest(parse_forest(document))
    spans = tuple(element_spans(der))
    oids, times, bit_strings, constructed = [], [], [], []
    for number, (_, _, size, tag, _) in enumerate(spans):
        if tag == tags.OBJECT_IDENTIFIER and size:
            oids.append(number)
        elif tag in (tags.UTC_TIME, tags.GENERALIZED_TIME) and size:
            times.append(number)
        elif tag == tags.BIT_STRING and size > 1:
            bit_strings.append(number)
        elif tags.is_constructed(tag):
            constructed.append(number)
    return _ElementIndex(
        der=der, spans=spans, boundaries=tuple(sorted(boundaries)),
        oids=tuple(oids), times=tuple(times),
        bit_strings=tuple(bit_strings), constructed=tuple(constructed))


#: Document bytes -> its :class:`_ElementIndex`.  A corpus mutates
#: three seed documents, which are also the splice donors, so each is
#: indexed once per process.  An index holds only bytes and tuples.
_INDEXES: BoundedMemo[bytes, _ElementIndex] = BoundedMemo(16)


def _index(document: bytes) -> _ElementIndex:
    return _INDEXES.lookup(document, _build_index)


def _replace(index: _ElementIndex, number: int, element: bytes) -> bytes:
    """The canonical bytes with element *number* replaced by *element*
    and each ancestor re-headered for its new content length,
    innermost first."""
    der, spans = index.der, index.spans
    offset, header_len, content_len, _, parent = spans[number]
    grow = len(element) - header_len - content_len
    pieces = [der[offset + header_len + content_len:], element]
    while parent >= 0:
        outer, outer_header, outer_content, tag, grandparent = spans[parent]
        pieces.append(der[outer + outer_header:offset])
        header = bytes([tag]) + encoder.encode_length(outer_content + grow)
        pieces.append(header)
        grow += len(header) - outer_header
        offset, parent = outer, grandparent
    pieces.append(der[:offset])
    return b"".join(reversed(pieces))


def _with_content(index: _ElementIndex, number: int, content: bytes) -> bytes:
    """The canonical bytes with element *number*'s content replaced."""
    tag = index.spans[number][3]
    return _replace(index, number, encoder.encode_tlv(tag, content))


# ---------------------------------------------------------------------------
# family implementations — each (document, rng, donors) -> bytes
# ---------------------------------------------------------------------------

def _bitflip(document: bytes, rng: random.Random,
             donors: Sequence[bytes]) -> bytes:
    """Flip one random bit anywhere in the document."""
    data = bytearray(document)
    position = rng.randrange(len(data))
    data[position] ^= 1 << rng.randrange(8)
    return bytes(data)


def _truncate(document: bytes, rng: random.Random,
              donors: Sequence[bytes]) -> bytes:
    """Cut the document at a random element boundary."""
    boundaries = _index(document).boundaries
    if not boundaries:
        return document[:1]
    return document[:rng.choice(boundaries)]


def _length_inflate(document: bytes, rng: random.Random,
                    donors: Sequence[bytes]) -> bytes:
    """Announce more content than one element actually carries."""
    index = _index(document)
    number = rng.choice(range(len(index.spans)))
    return _announce(index, number, index.spans[number][2]
                     + rng.randint(1, 255))


def _length_deflate(document: bytes, rng: random.Random,
                    donors: Sequence[bytes]) -> bytes:
    """Announce less content than one element actually carries."""
    index = _index(document)
    number = rng.choice(range(len(index.spans)))
    natural = index.spans[number][2]
    return _announce(index, number, (natural - rng.randint(1, natural))
                     if natural else 1)


def _announce(index: _ElementIndex, number: int, length: int) -> bytes:
    """Element *number* with its full content under a lying length."""
    tag = index.spans[number][3]
    return _replace(index, number, bytes([tag]) + encoder.encode_length(length)
                    + index.content(number))


def _tag_flip(document: bytes, rng: random.Random,
              donors: Sequence[bytes]) -> bytes:
    """Flip the class bits or the constructed bit of one element."""
    index = _index(document)
    number = rng.choice(range(len(index.spans)))
    mask = rng.choice((tags.CONSTRUCTED, tags.CLASS_APPLICATION,
                       tags.CLASS_CONTEXT, tags.CLASS_PRIVATE, 0x01))
    offset, _, _, tag, _ = index.spans[number]
    tag ^= mask
    if tag & tags.TAG_NUMBER_MASK == 0x1F:
        tag ^= 0x01  # keep the tag single-octet parseable
    # The lengths stay, so no ancestor header changes.
    return index.der[:offset] + bytes([tag]) + index.der[offset + 1:]


def _splice(document: bytes, rng: random.Random,
            donors: Sequence[bytes]) -> bytes:
    """Replace a random subtree with one from a donor document."""
    index = _index(document)
    donor = _index(rng.choice(donors))
    graft = donor.element(rng.choice(range(len(donor.spans))))
    return _replace(index, rng.choice(range(len(index.spans))), graft)


def _oid_corrupt(document: bytes, rng: random.Random,
                 donors: Sequence[bytes]) -> bytes:
    """Damage one OBJECT IDENTIFIER's content octets."""
    index = _index(document)
    if not index.oids:
        return _bitflip(document, rng, donors)
    number = rng.choice(index.oids)
    content = index.content(number)
    mode = rng.randrange(3)
    if mode == 0:  # scramble one arc byte
        data = bytearray(content)
        data[rng.randrange(len(data))] = rng.randrange(256)
        content = bytes(data)
    elif mode == 1:  # dangling continuation bit — arc never terminates
        content += b"\x80"
    else:  # drop the final arc byte
        content = content[:-1]
    return _with_content(index, number, content)


def _time_corrupt(document: bytes, rng: random.Random,
                  donors: Sequence[bytes]) -> bytes:
    """Damage one UTCTime/GeneralizedTime string."""
    index = _index(document)
    if not index.times:
        return _bitflip(document, rng, donors)
    number = rng.choice(index.times)
    data = bytearray(index.content(number))
    data[rng.randrange(len(data))] = rng.choice(b"0123456789Zz+. ")
    return _with_content(index, number, bytes(data))


def _sig_corrupt(document: bytes, rng: random.Random,
                 donors: Sequence[bytes]) -> bytes:
    """Flip one bit inside the last BIT STRING (the signatureValue)."""
    index = _index(document)
    if not index.bit_strings:
        return _bitflip(document, rng, donors)
    number = index.bit_strings[-1]
    data = bytearray(index.content(number))
    position = 1 + rng.randrange(len(data) - 1)  # keep the unused-bits octet
    data[position] ^= 1 << rng.randrange(8)
    return _with_content(index, number, bytes(data))


def _ber_indefinite(document: bytes, rng: random.Random,
                    donors: Sequence[bytes]) -> bytes:
    """Re-encode one constructed element with BER indefinite length."""
    index = _index(document)
    if not index.constructed:
        return _bitflip(document, rng, donors)
    number = rng.choice(index.constructed)
    tag = index.spans[number][3]
    return _replace(index, number, bytes([tag, 0x80])
                    + index.content(number) + b"\x00\x00")


#: The deepest nest :func:`_depth_bomb` draws.
_BOMB_DEPTH_MAX = 1999

#: Body length -> :func:`_build_nest` of it.  The SEQUENCE headers of
#: a depth bomb depend only on the length of what they wrap, so each
#: seed document's nest is built once and every depth is a slice of
#: it.  A corpus has three seeds.
_NESTS: BoundedMemo[int, Tuple[bytes, Tuple[int, ...]]] = BoundedMemo(16)


def _depth_bomb(document: bytes, rng: random.Random,
                donors: Sequence[bytes]) -> bytes:
    """Bury the document under hundreds of nested SEQUENCEs."""
    depth = rng.randrange(200, _BOMB_DEPTH_MAX + 1)
    blob, starts = _NESTS.lookup(len(document), _build_nest)
    return blob[starts[depth]:] + document


def _build_nest(body_len: int) -> Tuple[bytes, Tuple[int, ...]]:
    """The SEQUENCE headers that wrap a *body_len*-byte body
    :data:`_BOMB_DEPTH_MAX` times, outermost first, and for each depth
    *k* the offset where the *k* innermost headers begin: the depth-*k*
    bomb of a body is ``blob[starts[k]:] + body``."""
    headers: List[bytes] = []
    length = body_len
    for _ in range(_BOMB_DEPTH_MAX):
        header = bytes([tags.SEQUENCE]) + encoder.encode_length(length)
        headers.append(header)
        length += len(header)
    blob = b"".join(reversed(headers))
    starts = [len(blob)]
    for header in headers:
        starts.append(starts[-1] - len(header))
    return blob, tuple(starts)


def _length_bomb(document: bytes, rng: random.Random,
                 donors: Sequence[bytes]) -> bytes:
    """Announce an absurd length over a small buffer."""
    if rng.randrange(2):
        # 8 length octets announcing up to 2**63 bytes of content.
        announced = (1 << 62) + rng.randrange(1 << 32)
        header = bytes([tags.SEQUENCE, 0x88]) + announced.to_bytes(8, "big")
    else:
        # 127 length octets — over any sane decoder's cap.
        header = bytes([tags.SEQUENCE, 0xFF]) + bytes(127)
    return header + document


_MUTATORS: Dict[str, Callable[[bytes, random.Random, Sequence[bytes]], bytes]] = {
    "truncate": _truncate,
    "length-inflate": _length_inflate,
    "length-deflate": _length_deflate,
    "tag-flip": _tag_flip,
    "splice": _splice,
    "oid-corrupt": _oid_corrupt,
    "time-corrupt": _time_corrupt,
    "sig-corrupt": _sig_corrupt,
    "bitflip": _bitflip,
    "ber-indefinite": _ber_indefinite,
    "depth-bomb": _depth_bomb,
    "length-bomb": _length_bomb,
}

