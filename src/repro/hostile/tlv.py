"""A lenient TLV model of DER, built for mutation.

The strict :class:`repro.asn1.Reader` refuses anything non-canonical,
which is the right behaviour for a verifier but useless for a mutation
engine that must *round-trip* documents it is about to damage.  This
module reads DER two ways under one set of header rules
(:func:`_read_header`) and one set of caps:

* :func:`element_spans` — one header walk that lists every element's
  offset, header and content lengths, tag and parent, and builds no
  nodes.  :mod:`repro.hostile.mutate` indexes each seed document with
  it, and :func:`tlv_fixed_point` is that walk succeeding;
* :func:`parse_forest` / :func:`encode_forest` — a mutable tree of
  :class:`TLVNode` and its serializer, with two deliberate lies
  available per node: ``length_override`` (announce a length other
  than the content's true size) and ``indefinite`` (emit the BER
  indefinite-length form, ``0x80`` … ``0x00 0x00``, which DER
  forbids).  The tree is the reference the walk is tested against.

Both are bounded exactly like the hardened Reader: nesting depth and
element counts are capped, so the fixed-point harness can be pointed at
arbitrary mutants (including depth bombs) and still fail with a typed
:class:`~repro.asn1.errors.ASN1Error`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..asn1 import encoder, tags
from ..asn1.errors import (
    ASN1Error,
    DecodeError,
    LimitExceededError,
    TruncatedError,
)

#: Same rationale as :data:`repro.asn1.decoder.MAX_DEPTH`.
MAX_TREE_DEPTH = 64

#: Same rationale as :data:`repro.asn1.decoder.MAX_ELEMENTS`.
MAX_TREE_ELEMENTS = 100_000


@dataclass
class TLVNode:
    """One TLV element; constructed nodes carry children, not content."""

    tag: int
    content: bytes = b""
    children: Optional[List["TLVNode"]] = None
    #: When set, the serializer announces this length instead of the
    #: content's true size (the content bytes are emitted in full).
    length_override: Optional[int] = None
    #: When True, the serializer emits BER indefinite-length form.
    indefinite: bool = False

    @property
    def constructed(self) -> bool:
        """True when this node was parsed as a constructed element."""
        return self.children is not None


def _read_header(data: bytes, offset: int, end: int) -> Tuple[int, int, int]:
    """Return ``(tag, header_len, content_len)`` for the TLV at *offset*."""
    if offset + 2 > end:
        raise TruncatedError("input ends inside TLV header", offset=offset)
    tag = data[offset]
    if tag & tags.TAG_NUMBER_MASK == 0x1F:
        raise DecodeError("multi-octet tag numbers are not supported",
                          offset=offset)
    first_len = data[offset + 1]
    if first_len < 0x80:
        return tag, 2, first_len
    if first_len == 0x80:
        raise DecodeError("indefinite length is not parseable as DER",
                          offset=offset + 1)
    n_octets = first_len & 0x7F
    if n_octets > 8:
        raise LimitExceededError(
            f"length uses {n_octets} octets (cap 8)", offset=offset + 1)
    if offset + 2 + n_octets > end:
        raise TruncatedError("input ends inside length octets",
                             offset=offset + 1)
    length = int.from_bytes(data[offset + 2:offset + 2 + n_octets], "big")
    return tag, 2 + n_octets, length


def parse_forest(data: bytes, start: int = 0, end: Optional[int] = None,
                 _depth: int = 0, _budget: Optional[List[int]] = None,
                 ) -> List[TLVNode]:
    """Parse a run of sibling TLVs into a list of nodes.

    Length octets need not be minimal (the tree is for mutation, not
    verification), but structural soundness is enforced: every
    announced length must fit its window, and the depth/element caps
    apply.
    """
    data = bytes(data)
    if end is None:
        end = len(data)
    if _depth > MAX_TREE_DEPTH:
        raise LimitExceededError(
            f"TLV tree deeper than {MAX_TREE_DEPTH} levels", offset=start)
    budget = [0] if _budget is None else _budget
    nodes: List[TLVNode] = []
    offset = start
    while offset < end:
        budget[0] += 1
        if budget[0] > MAX_TREE_ELEMENTS:
            raise LimitExceededError(
                f"more than {MAX_TREE_ELEMENTS} elements in one document",
                offset=offset)
        tag, header_len, content_len = _read_header(data, offset, end)
        content_start = offset + header_len
        content_end = content_start + content_len
        if content_end > end:
            raise TruncatedError(
                f"content length {content_len} exceeds remaining "
                f"{end - content_start} bytes", offset=offset)
        if tags.is_constructed(tag):
            children = parse_forest(data, content_start, content_end,
                                    _depth=_depth + 1, _budget=budget)
            nodes.append(TLVNode(tag=tag, children=children))
        else:
            nodes.append(TLVNode(tag=tag,
                                 content=data[content_start:content_end]))
        offset = content_end
    return nodes


def encode_node(node: TLVNode) -> bytes:
    """Serialize one node, honouring its override/indefinite lies."""
    if node.children is not None:
        content = encode_forest(node.children)
    else:
        content = node.content
    if node.indefinite:
        return bytes([node.tag]) + b"\x80" + content + b"\x00\x00"
    length = (len(content) if node.length_override is None
              else node.length_override)
    return bytes([node.tag]) + encoder.encode_length(length) + content


def encode_forest(nodes: List[TLVNode]) -> bytes:
    """Serialize a sibling run back to bytes."""
    return b"".join(encode_node(node) for node in nodes)


def flatten(nodes: List[TLVNode]) -> List[TLVNode]:
    """Every node of the forest, pre-order (an explicit-stack walk)."""
    out: List[TLVNode] = []
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        out.append(node)
        if node.children is not None:
            stack.extend(reversed(node.children))
    return out


def element_spans(data: bytes) -> List[Tuple[int, int, int, int, int]]:
    """``(offset, header_len, content_len, tag, parent)`` per element.

    One header walk with an explicit stack that builds no nodes.  It
    follows :func:`parse_forest`'s rules, caps and visiting order, so
    elements come in :func:`flatten` pre-order (which is offset order),
    and it raises the typed error :func:`parse_forest` raises, at the
    same element: it succeeds exactly when :func:`parse_forest` does.
    *parent* is the list index of the enclosing element (-1 at top
    level).
    """
    data = bytes(data)
    spans: List[Tuple[int, int, int, int, int]] = []
    end = len(data)
    offset = depth = 0
    parent = -1
    stack: List[Tuple[int, int, int]] = []
    while True:
        while offset == end and stack:
            end, depth, parent = stack.pop()
        if offset == end:
            return spans
        if len(spans) >= MAX_TREE_ELEMENTS:
            raise LimitExceededError(
                f"more than {MAX_TREE_ELEMENTS} elements in one document",
                offset=offset)
        tag, header_len, content_len = _read_header(data, offset, end)
        content_start = offset + header_len
        content_end = content_start + content_len
        if content_end > end:
            raise TruncatedError(
                f"content length {content_len} exceeds remaining "
                f"{end - content_start} bytes", offset=offset)
        spans.append((offset, header_len, content_len, tag, parent))
        if tag & tags.CONSTRUCTED:
            if depth >= MAX_TREE_DEPTH:
                raise LimitExceededError(
                    f"TLV tree deeper than {MAX_TREE_DEPTH} levels",
                    offset=content_start)
            stack.append((end, depth, parent))
            end, depth, parent = content_end, depth + 1, len(spans) - 1
            offset = content_start
        else:
            offset = content_end


def tlv_fixed_point(der: bytes) -> bool:
    """True when decode→re-encode→decode is a fixed point for *der*.

    The differential invariant for survivors: a document our parsers
    accept must round-trip through the TLV layer to stable bytes.  That
    holds exactly when :func:`parse_forest` accepts *der*, so this is
    one :func:`element_spans` walk.  :func:`encode_forest` copies every
    tag and every primitive content and writes minimal lengths, which
    are no longer than the ones parsed; so the first re-encoding
    parses, under the same caps, into the same tree, and the second
    re-encoding equals the first.
    """
    try:
        element_spans(der)
    except ASN1Error:
        return False
    return True
