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

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1 import ASN1Error, encoder, tags
from repro.hostile import KINDS, mutate, seed_world, tlv_fixed_point
from repro.hostile.corpus import _LINT_KIND, _parse
from repro.hostile.mutate import _NEST_CAP, _NESTS, _depth_bomb
from repro.hostile.tlv import encode_forest, parse_forest
from repro.lint import LintContext, LintEngine
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
    assert len(_NESTS) <= _NEST_CAP


@pytest.mark.parametrize("length", BOMB_BODY_LENGTHS)
def test_depth_bomb_draws_exactly_what_the_loop_drew(length):
    document = bytes(length)
    for seed in range(8):
        ours, reference = random.Random(seed), random.Random(seed)
        assert _depth_bomb(document, ours, ()) == \
            looped_depth_bomb(document, reference)
        assert ours.getstate() == reference.getstate()


def test_nest_memo_stays_under_its_cap():
    for length in range(3 * _NEST_CAP):
        _depth_bomb(bytes(length), random.Random(length), ())
        assert len(_NESTS) <= _NEST_CAP


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
