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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..asn1 import encoder, tags
from ..canon import derived_rng
from .tlv import (
    TLVNode,
    element_spans,
    encode_forest,
    flatten,
    flatten_slots,
    parse_forest,
)

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
    boundaries = set()
    for offset, header_len, content_len in element_spans(document):
        boundaries.add(offset)
        boundaries.add(offset + header_len)
        boundaries.add(offset + header_len + content_len)
    boundaries -= {0, len(document)}
    if not boundaries:
        return document[:1]
    return document[:rng.choice(sorted(boundaries))]


def _length_inflate(document: bytes, rng: random.Random,
                    donors: Sequence[bytes]) -> bytes:
    """Announce more content than one element actually carries."""
    tree = parse_forest(document)
    node = rng.choice(flatten(tree))
    node.length_override = _natural_length(node) + rng.randint(1, 255)
    return encode_forest(tree)


def _length_deflate(document: bytes, rng: random.Random,
                    donors: Sequence[bytes]) -> bytes:
    """Announce less content than one element actually carries."""
    tree = parse_forest(document)
    node = rng.choice(flatten(tree))
    natural = _natural_length(node)
    node.length_override = (natural - rng.randint(1, natural)) if natural else 1
    return encode_forest(tree)


def _tag_flip(document: bytes, rng: random.Random,
              donors: Sequence[bytes]) -> bytes:
    """Flip the class bits or the constructed bit of one element."""
    tree = parse_forest(document)
    node = rng.choice(flatten(tree))
    mask = rng.choice((tags.CONSTRUCTED, tags.CLASS_APPLICATION,
                       tags.CLASS_CONTEXT, tags.CLASS_PRIVATE, 0x01))
    node.tag ^= mask
    if node.tag & tags.TAG_NUMBER_MASK == 0x1F:
        node.tag ^= 0x01  # keep the tag single-octet parseable
    return encode_forest(tree)


def _splice(document: bytes, rng: random.Random,
            donors: Sequence[bytes]) -> bytes:
    """Replace a random subtree with one from a donor document."""
    tree = parse_forest(document)
    donor_tree = parse_forest(rng.choice(list(donors)))
    graft = rng.choice(flatten(donor_tree))
    container, index = rng.choice(flatten_slots(tree))
    container[index] = graft
    return encode_forest(tree)


def _oid_corrupt(document: bytes, rng: random.Random,
                 donors: Sequence[bytes]) -> bytes:
    """Damage one OBJECT IDENTIFIER's content octets."""
    tree = parse_forest(document)
    oids = [node for node in flatten(tree)
            if node.tag == tags.OBJECT_IDENTIFIER and node.content]
    if not oids:
        return _bitflip(document, rng, donors)
    node = rng.choice(oids)
    mode = rng.randrange(3)
    if mode == 0:  # scramble one arc byte
        data = bytearray(node.content)
        data[rng.randrange(len(data))] = rng.randrange(256)
        node.content = bytes(data)
    elif mode == 1:  # dangling continuation bit — arc never terminates
        node.content += b"\x80"
    else:  # drop the final arc byte
        node.content = node.content[:-1]
    return encode_forest(tree)


def _time_corrupt(document: bytes, rng: random.Random,
                  donors: Sequence[bytes]) -> bytes:
    """Damage one UTCTime/GeneralizedTime string."""
    tree = parse_forest(document)
    times = [node for node in flatten(tree)
             if node.tag in (tags.UTC_TIME, tags.GENERALIZED_TIME)
             and node.content]
    if not times:
        return _bitflip(document, rng, donors)
    node = rng.choice(times)
    data = bytearray(node.content)
    data[rng.randrange(len(data))] = rng.choice(b"0123456789Zz+. ")
    node.content = bytes(data)
    return encode_forest(tree)


def _sig_corrupt(document: bytes, rng: random.Random,
                 donors: Sequence[bytes]) -> bytes:
    """Flip one bit inside the last BIT STRING (the signatureValue)."""
    tree = parse_forest(document)
    bit_strings = [node for node in flatten(tree)
                   if node.tag == tags.BIT_STRING and len(node.content) > 1]
    if not bit_strings:
        return _bitflip(document, rng, donors)
    node = bit_strings[-1]
    data = bytearray(node.content)
    position = 1 + rng.randrange(len(data) - 1)  # keep the unused-bits octet
    data[position] ^= 1 << rng.randrange(8)
    node.content = bytes(data)
    return encode_forest(tree)


def _ber_indefinite(document: bytes, rng: random.Random,
                    donors: Sequence[bytes]) -> bytes:
    """Re-encode one constructed element with BER indefinite length."""
    tree = parse_forest(document)
    constructed = [node for node in flatten(tree) if node.constructed]
    if not constructed:
        return _bitflip(document, rng, donors)
    rng.choice(constructed).indefinite = True
    return encode_forest(tree)


#: The deepest nest :func:`_depth_bomb` draws.
_BOMB_DEPTH_MAX = 1999

#: Body length -> :func:`_build_nest` of it.  The SEQUENCE headers of
#: a depth bomb depend only on the length of what they wrap, so each
#: seed document's nest is built once and every depth is a slice of
#: it.  Entries are evicted oldest first; a corpus has three seeds.
_NESTS: Dict[int, Tuple[bytes, Tuple[int, ...]]] = {}
_NEST_CAP = 16


def _depth_bomb(document: bytes, rng: random.Random,
                donors: Sequence[bytes]) -> bytes:
    """Bury the document under hundreds of nested SEQUENCEs."""
    depth = rng.randrange(200, _BOMB_DEPTH_MAX + 1)
    blob, starts = _nest(len(document))
    return blob[starts[depth]:] + document


def _nest(body_len: int) -> Tuple[bytes, Tuple[int, ...]]:
    nest = _NESTS.get(body_len)
    if nest is None:
        nest = _build_nest(body_len)
        _remember_nest(body_len, nest)
    return nest


def _remember_nest(body_len: int, nest: Tuple[bytes, Tuple[int, ...]]) -> None:  # repro: allow-effect[GLOBAL_MUTATION] -- bounded memo of a pure function of its key; a hit returns the bytes a rebuild would give
    if len(_NESTS) >= _NEST_CAP:
        _NESTS.pop(next(iter(_NESTS)))
    _NESTS[body_len] = nest


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


def _natural_length(node: TLVNode) -> int:
    """The true encoded size of a node's content."""
    if node.children is not None:
        return len(encode_forest(node.children))
    return len(node.content)
