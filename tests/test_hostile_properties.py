"""Property tests: the hostile corpus against every parse entrypoint.

Satellite of the repro.hostile PR: 1k seeded mutants per document
kind, pushed through every strict parser plus the TLV walker — each
must either succeed or raise a typed
:class:`~repro.asn1.errors.ASN1Error`; anything else
(``RecursionError``, ``MemoryError``, ``IndexError``, ...) is a
hardening regression.  A second property bounds allocation: parsing a
length bomb must not allocate anywhere near the announced size.
"""

from __future__ import annotations

import importlib
import random
import tracemalloc
from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1 import ASN1Error, encoder, tags
from repro.asn1.errors import LimitExceededError, TruncatedError
from repro.hostile import FAMILIES, KINDS, mutate, seed_world, tlv_fixed_point
from repro.hostile.corpus import _LINT_KIND, _parse
from repro.hostile.mutate import (
    _INDEXES,
    _MUTATORS,
    _NESTS,
    _depth_bomb,
    _index,
)
from repro.hostile.tlv import (
    MAX_TREE_DEPTH,
    MAX_TREE_ELEMENTS,
    TLVNode,
    _read_header,
    encode_forest,
    flatten,
    parse_forest,
)
from repro.hostile.tlv import element_spans as tlv_element_spans
from repro.lint import LintContext, LintEngine
from repro.memo import BoundedMemo
from repro.ocsp import OCSPResponse
from repro.runtime import HostileCorpusConfig
from repro.x509 import Certificate, CertificateList

MUTANTS_PER_KIND = 1000
SEED = 2018

ENTRYPOINTS = (
    ("Certificate.from_der", Certificate.from_der),
    ("OCSPResponse.from_der", OCSPResponse.from_der),
    ("CertificateList.from_der", CertificateList.from_der),
    ("tlv.parse_forest", parse_forest),
)


@pytest.fixture(scope="module")
def world():
    return seed_world()


@pytest.mark.parametrize("kind", KINDS)
def test_mutants_raise_only_asn1_errors(world, kind):
    """Every entrypoint, every mutant: success or ASN1Error, nothing else."""
    document = world.documents[kind]
    donors = world.donors
    for mutation_id in range(MUTANTS_PER_KIND):
        mutant = mutate(document, mutation_id, SEED, donors=donors)
        for name, parse in ENTRYPOINTS:
            try:
                parse(mutant.der)
            except ASN1Error:
                pass
            except Exception as exc:  # pragma: no cover - the regression
                pytest.fail(f"{name} raised {type(exc).__name__} on "
                            f"{kind}/{mutation_id} ({mutant.family}): {exc}")


@pytest.mark.parametrize("kind", KINDS)
def test_lint_engine_never_raises_on_mutants(world, kind):
    """The lint layer classifies every mutant instead of crashing."""
    document = world.documents[kind]
    engine = LintEngine(LintContext(reference_time=world.reference_time,
                                    issuer=world.issuer,
                                    cert_id=world.cert_id))
    for mutation_id in range(0, MUTANTS_PER_KIND, 4):
        mutant = mutate(document, mutation_id, SEED, donors=world.donors)
        findings = engine.lint_der(mutant.der, kind, f"prop/{mutation_id}")
        assert isinstance(findings, list)


def test_surviving_mutants_reach_tlv_fixed_point(world):
    """decode -> re-encode -> decode is a fixed point for survivors."""
    from repro.hostile import classify_mutant
    for kind in KINDS:
        document = world.documents[kind]
        for mutation_id in range(0, MUTANTS_PER_KIND, 2):
            mutant = mutate(document, mutation_id, SEED, donors=world.donors)
            row = classify_mutant(kind, mutant.der, world)
            if row["outcome"] == "survived":
                assert row["fixed_point"] is True, (kind, mutation_id)


def test_length_bomb_allocation_is_bounded():
    """A 2^60-byte announced length must not drive allocation."""
    huge = (1 << 60) + 7
    bomb = bytes([tags.SEQUENCE, 0x88]) + huge.to_bytes(8, "big") + b"\x05\x00"
    tracemalloc.start()
    try:
        for _, parse in ENTRYPOINTS:
            with pytest.raises(ASN1Error):
                parse(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Generous constant bound: parsing state only, nothing proportional
    # to the announced content length.
    assert peak < 1_000_000, peak


def test_depth_bomb_allocation_and_recursion_bounded():
    """Deep nesting hits the depth cap, not the interpreter limit."""
    body = encoder.encode_null()
    for _ in range(5000):
        body = encoder.encode_tlv(tags.SEQUENCE, body)
    tracemalloc.start()
    try:
        for _, parse in ENTRYPOINTS:
            with pytest.raises(ASN1Error):
                parse(body)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(body) + 1_000_000, peak


def test_mutation_is_reproducible_across_calls(world):
    """Same (document, mutation_id, seed) -> same bytes, any order."""
    document = world.documents["ocsp"]
    first = [mutate(document, mid, SEED, donors=world.donors).der
             for mid in range(100)]
    second = [mutate(document, mid, SEED, donors=world.donors).der
              for mid in reversed(range(100))]
    assert first == list(reversed(second))


def test_fixed_point_of_originals(world):
    for kind in KINDS:
        assert tlv_fixed_point(world.documents[kind])


# ---------------------------------------------------------------------------
# the fast paths give the bytes the straightforward code gave
# ---------------------------------------------------------------------------

def looped_depth_bomb(document, rng):
    """The depth bomb as one ``encode_tlv`` per level (reference)."""
    depth = rng.randrange(200, 2000)
    body = document
    for _ in range(depth):
        body = encoder.encode_tlv(tags.SEQUENCE, body)
    return body


def two_round_fixed_point(der):
    """decode -> re-encode -> decode -> re-encode, always both rounds
    (reference)."""
    try:
        first = encode_forest(parse_forest(der))
        second = encode_forest(parse_forest(first))
    except ASN1Error:
        return False
    return first == second


class _FixedDepth:
    """An rng stand-in whose one draw is a chosen depth."""

    def __init__(self, depth):
        self.depth = depth

    def randrange(self, start, stop):
        assert (start, stop) == (200, 2000)
        return self.depth


BOMB_BODY_LENGTHS = [0, 1, 127, 128, 255, 256, 65535, 65536] + \
    random.Random(5).sample(range(70_000), 12)


@pytest.mark.parametrize("length", BOMB_BODY_LENGTHS)
def test_depth_bomb_matches_the_level_loop_at_every_depth(length):
    """Every depth of every body length: the sliced nest equals the
    level-by-level encoding (lengths straddle each DER length form)."""
    document = bytes(random.Random(length).getrandbits(8)
                     for _ in range(min(length, 64))) * (length // 64 + 1)
    document = document[:length]
    body = document
    for depth in range(1, 2000):
        body = encoder.encode_tlv(tags.SEQUENCE, body)
        if depth >= 200:
            assert _depth_bomb(document, _FixedDepth(depth), ()) == body, \
                (length, depth)
    assert len(_NESTS) <= _NESTS.cap


@pytest.mark.parametrize("length", BOMB_BODY_LENGTHS)
def test_depth_bomb_draws_exactly_what_the_loop_drew(length):
    document = bytes(length)
    for seed in range(8):
        ours, reference = random.Random(seed), random.Random(seed)
        assert _depth_bomb(document, ours, ()) == \
            looped_depth_bomb(document, reference)
        assert ours.getstate() == reference.getstate()


MUTATE_MODULE = importlib.import_module("repro.hostile.mutate")


def test_nest_memo_stays_under_its_cap(monkeypatch):
    memo = BoundedMemo(_NESTS.cap)
    monkeypatch.setattr(MUTATE_MODULE, "_NESTS", memo)
    for length in range(3 * memo.cap):
        _depth_bomb(bytes(length), random.Random(length), ())
        assert len(memo) <= memo.cap
    assert (len(memo), memo.misses, memo.evictions) == \
        (memo.cap, 3 * memo.cap, 2 * memo.cap)


def _element(tag, content, long_form):
    """One TLV; *long_form* spends two length octets where DER wants
    the minimal form, which the TLV parser accepts and re-encodes
    minimally."""
    if long_form and len(content) < 0x10000:
        return bytes([tag, 0x82]) + len(content).to_bytes(2, "big") + content
    return encoder.encode_tlv(tag, content)


#: Loosely DER-shaped byte strings: nested SEQUENCEs of OCTET STRINGs,
#: some with non-minimal lengths, optionally followed by junk.
TLV_TREES = st.recursive(
    st.builds(_element, st.just(tags.OCTET_STRING),
              st.binary(max_size=8), st.booleans()),
    lambda children: st.builds(
        lambda kids, long_form: _element(tags.SEQUENCE, b"".join(kids),
                                         long_form),
        st.lists(children, max_size=3), st.booleans()),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=256),
                 st.builds(lambda tree, tail: tree + tail,
                           TLV_TREES, st.binary(max_size=3))))
def test_fixed_point_equals_the_two_round_check_on_any_bytes(data):
    assert tlv_fixed_point(data) == two_round_fixed_point(data)


def test_fixed_point_equals_the_two_round_check_on_every_mutant(world):
    config = HostileCorpusConfig()
    for kind in KINDS:
        document = world.documents[kind]
        for mutation_id in range(config.mutants_per_kind):
            der = mutate(document, mutation_id, config.seed,
                         donors=world.donors).der
            assert tlv_fixed_point(der) == two_round_fixed_point(der), \
                (kind, mutation_id)


def test_lint_with_the_parsed_document_matches_a_fresh_parse(world):
    """Every survivor of one corpus chunk: handing ``lint_der`` the
    document ``classify_mutant`` already parsed changes no finding."""
    config = HostileCorpusConfig()
    chunk = config.mutants_per_kind // config.chunks
    context = LintContext(reference_time=world.reference_time,
                          issuer=world.issuer, cert_id=world.cert_id)
    survivors = 0
    for kind in KINDS:
        document = world.documents[kind]
        for mutation_id in range(chunk):
            der = mutate(document, mutation_id, config.seed,
                         donors=world.donors).der
            try:
                parsed = _parse(kind, der)
            except ASN1Error:
                continue
            survivors += 1
            source = f"hostile/{kind}"
            fresh = LintEngine().lint_der(der, _LINT_KIND[kind], source,
                                          context)
            handed = LintEngine().lint_der(der, _LINT_KIND[kind], source,
                                           context, parsed=parsed)
            assert handed == fresh, (kind, mutation_id)
    assert survivors > 0


# ---------------------------------------------------------------------------
# the element index gives the bytes and draws the tree mutators gave
# ---------------------------------------------------------------------------
#
# The reference: verbatim copies of the tree-based mutators that
# ``repro.hostile.mutate`` used before it indexed each document, with
# the tree helpers only they used.  This ``element_spans`` is the old
# span walker (3-tuples), not ``repro.hostile.tlv.element_spans``.

def flatten_slots(nodes: List[TLVNode]) -> List[Tuple[List[TLVNode], int]]:
    """Every node as a ``(container_list, index)`` slot, pre-order.

    Slots let a mutator *replace* a node in place (subtree splicing)
    without threading parent pointers through the tree.
    """
    out: List[Tuple[List[TLVNode], int]] = []
    stack: List[Tuple[List[TLVNode], int]] = [
        (nodes, i) for i in reversed(range(len(nodes)))]
    while stack:
        container, index = stack.pop()
        out.append((container, index))
        node = container[index]
        if node.children is not None:
            stack.extend((node.children, i)
                         for i in reversed(range(len(node.children))))
    return out


def element_spans(data: bytes) -> List[Tuple[int, int, int]]:
    """``(offset, header_len, content_len)`` for every element, by offset.

    Walks the raw bytes with an explicit stack (no recursion), raising
    the usual typed errors on malformed input — callers feed it valid
    documents (truncation points) or crashers under a try/except.
    """
    data = bytes(data)
    spans: List[Tuple[int, int, int]] = []
    stack: List[Tuple[int, int, int]] = [(0, len(data), 0)]
    while stack:
        start, end, depth = stack.pop()
        offset = start
        while offset < end:
            if len(spans) > MAX_TREE_ELEMENTS:
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
            spans.append((offset, header_len, content_len))
            if tags.is_constructed(tag) and depth < MAX_TREE_DEPTH:
                stack.append((content_start, content_end, depth + 1))
            offset = content_end
    spans.sort()
    return spans


def _natural_length(node: TLVNode) -> int:
    """The true encoded size of a node's content."""
    if node.children is not None:
        return len(encode_forest(node.children))
    return len(node.content)


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


def _reference_depth_bomb(document, rng, donors):
    return looped_depth_bomb(document, rng)


REFERENCE_MUTATORS = {
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
    "depth-bomb": _reference_depth_bomb,
    "length-bomb": _length_bomb,
}


def _long_form(der):
    """*der* with every length in four octets: non-minimal, which the
    lenient parse accepts and the tree re-encodes minimally."""
    def encode(nodes):
        out = b""
        for node in nodes:
            content = (encode(node.children) if node.children is not None
                       else node.content)
            out += bytes([node.tag, 0x84]) + len(content).to_bytes(4, "big")
            out += content
        return out
    return encode(parse_forest(der))


#: No OBJECT IDENTIFIER, time, long-enough BIT STRING or constructed
#: element: every targeted family falls back to a bit flip.
PRIMITIVES_ONLY = b"\x02\x01\x05\x04\x03abc\x03\x01\x00\x05\x00"


@pytest.fixture(scope="module")
def index_documents(world):
    documents = dict(world.documents)
    documents["certificate, long-form lengths"] = _long_form(
        world.documents["certificate"])
    documents["primitives only"] = PRIMITIVES_ONLY
    return documents


def test_the_extra_documents_take_the_paths_they_are_for(index_documents):
    long_form = index_documents["certificate, long-form lengths"]
    assert encode_forest(parse_forest(long_form)) != long_form
    index = _index(long_form)
    assert index.der == index_documents["certificate"]
    assert index.boundaries != _index(index.der).boundaries
    bare = _index(PRIMITIVES_ONLY)
    assert not (bare.oids or bare.times or bare.bit_strings
                or bare.constructed)


@pytest.mark.parametrize("family", FAMILIES)
def test_index_mutators_match_the_tree_mutators(world, index_documents,
                                                family):
    """Same bytes and same rng state after the call, for every family,
    every seed document, a non-canonical one and one with no target
    element, with the seed documents and then the long-form one as
    splice donors."""
    assert set(REFERENCE_MUTATORS) == set(FAMILIES) == set(_MUTATORS)
    donor_sets = (world.donors,
                  world.donors + (index_documents[
                      "certificate, long-form lengths"],))
    for name, document in sorted(index_documents.items()):
        for donors in donor_sets:
            for seed in range(40):
                ours, reference = random.Random(seed), random.Random(seed)
                assert _MUTATORS[family](document, ours, donors) == \
                    REFERENCE_MUTATORS[family](document, reference, donors), \
                    (family, name, seed)
                assert ours.getstate() == reference.getstate(), \
                    (family, name, seed)


def test_index_memo_stays_under_its_cap(monkeypatch):
    memo = BoundedMemo(_INDEXES.cap)
    monkeypatch.setattr(MUTATE_MODULE, "_INDEXES", memo)
    for length in range(3 * memo.cap):
        _MUTATORS["truncate"](b"\x04" + bytes([length]) + bytes(length),
                              random.Random(length), ())
        assert len(memo) <= memo.cap
    assert (len(memo), memo.misses, memo.evictions) == \
        (memo.cap, 3 * memo.cap, 2 * memo.cap)


def _nest(depth, innermost=encoder.encode_null()):
    body = innermost
    for _ in range(depth):
        body = encoder.encode_tlv(tags.SEQUENCE, body)
    return body


@pytest.mark.parametrize("depth", [63, 64, 65, 66])
def test_fixed_point_at_the_depth_cap(depth):
    """64 nested constructed elements parse; a 65th does not, even
    empty."""
    for der in (_nest(depth), _nest(depth - 1, encoder.encode_tlv(
            tags.SEQUENCE, b""))):
        assert tlv_fixed_point(der) == two_round_fixed_point(der) == \
            (depth <= 64), depth


@pytest.mark.parametrize("count", [99_999, 100_000, 100_001])
def test_fixed_point_at_the_element_cap(count):
    """100,000 elements parse, the 100,001st does not: top level and
    under one SEQUENCE."""
    flat = b"\x05\x00" * count
    wrapped = encoder.encode_tlv(tags.SEQUENCE, b"\x05\x00" * (count - 1))
    for der in (flat, wrapped):
        assert tlv_fixed_point(der) == two_round_fixed_point(der) == \
            (count <= 100_000), count


def _outcome(read, data):
    try:
        return "ok", read(data)
    except ASN1Error as exc:
        return type(exc).__name__, str(exc), exc.offset


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=256),
                 st.builds(lambda tree, tail: tree + tail,
                           TLV_TREES, st.binary(max_size=3))))
def test_element_spans_walk_what_parse_forest_parses(data):
    """Tags in the same order, or the same error at the same offset."""
    spans = _outcome(tlv_element_spans, data)
    tree = _outcome(parse_forest, data)
    if tree[0] == "ok":
        assert spans[0] == "ok"
        assert [span[3] for span in spans[1]] == \
            [node.tag for node in flatten(tree[1])]
    else:
        assert spans == tree
