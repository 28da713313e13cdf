"""The parse-once layers: the certificate memo, the OID intern table,
the header-only span decoder, and the immutability they rely on.

Each memo must be invisible: a hit is the very object an earlier parse
returned and equals a fresh parse field by field; malformed input is
never stored and raises the same typed error every time; the tables
stay at their caps under a stream of distinct hostile inputs.
"""

from __future__ import annotations

import pytest

from repro.asn1 import ObjectIdentifier, Reader, encoder, tags
from repro.asn1 import decoder as decoder_module
from repro.asn1.errors import ASN1Error, DecodeError, StrictDERError
from repro.crypto import generate_keypair
from repro.lint.provenance import certificate_spans
from repro.memo import BoundedMemo
from repro.simnet import DAY
from repro.x509 import (
    Certificate,
    CertificateBuilder,
    Extensions,
    Name,
    parse_certificate,
    self_signed,
)
from repro.x509 import certificate as certificate_module

NOW = 1_525_132_800


@pytest.fixture(scope="module")
def leaf():
    root_key = generate_keypair(512, rng=70)
    leaf_key = generate_keypair(512, rng=71)
    root = self_signed(Name.build("Memo Root", "T"), root_key, 1,
                       NOW - 365 * DAY, NOW + 3650 * DAY)
    return (
        CertificateBuilder().serial_number(7).issuer(root.subject)
        .subject(Name.build("memo.example"))
        .public_key(leaf_key.public_key)
        .validity(NOW - DAY, NOW + 90 * DAY)
        .leaf().dns_names(["memo.example"]).ocsp_url("http://ocsp.memo.test")
        .must_staple().server_auth()
        .sign(root_key)
    )


@pytest.fixture
def certificates(monkeypatch):
    """An empty certificate memo, at the module's cap, for one test
    (restored afterwards)."""
    memo = BoundedMemo(certificate_module._CERTIFICATES.cap)
    monkeypatch.setattr(certificate_module, "_CERTIFICATES", memo)
    return memo


@pytest.fixture
def oids(monkeypatch):
    """An empty OID intern table, at the module's cap, for one test
    (restored afterwards)."""
    memo = BoundedMemo(decoder_module._OIDS.cap)
    monkeypatch.setattr(decoder_module, "_OIDS", memo)
    return memo


def _fields(certificate):
    values = {name: getattr(certificate, name)
              for name in Certificate._FIELDS}
    values["extensions"] = list(certificate.extensions)
    values["public_key"] = (certificate.public_key.n, certificate.public_key.e)
    return values


def _with_signature_tail(der: bytes, value: int) -> bytes:
    """A structurally valid certificate differing only in its last two
    signature octets (parsing never checks the signature)."""
    return der[:-2] + value.to_bytes(2, "big")


def _non_minimal_outer_length(der: bytes) -> bytes:
    """*der* with its outer length re-encoded with a leading zero octet:
    lenient parsing accepts it, strict DER rejects it."""
    assert der[1] == 0x82
    return der[:1] + b"\x83\x00" + der[2:]


def _error(call):
    with pytest.raises(ASN1Error) as info:
        call()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "offset", None)


# ---------------------------------------------------------------------------
# immutability
# ---------------------------------------------------------------------------

class TestImmutability:
    @pytest.mark.parametrize("name", Certificate._FIELDS + ("not_a_field",))
    def test_certificate_attributes_cannot_be_assigned(self, leaf, name):
        with pytest.raises(AttributeError):
            setattr(leaf, name, None)

    def test_extensions_cannot_be_assigned_or_extended(self, leaf):
        extensions = leaf.extensions
        with pytest.raises(AttributeError):
            extensions._extensions = ()
        assert not hasattr(Extensions, "add")
        assert isinstance(extensions._extensions, tuple)

    def test_object_identifier_content_cache_is_exact(self):
        fresh = ObjectIdentifier("1.3.6.1.5.5.7.1.24")
        first = fresh.encode_content()
        assert fresh.encode_content() is first
        assert ObjectIdentifier.decode_content(first) == fresh
        with pytest.raises(AttributeError):
            fresh._content = b""


# ---------------------------------------------------------------------------
# the certificate memo
# ---------------------------------------------------------------------------

class TestCertificateMemo:
    def test_hit_is_the_earlier_parse(self, leaf, certificates):
        first = parse_certificate(leaf.der)
        assert parse_certificate(leaf.der) is first
        assert len(certificates) == 1

    def test_hit_equals_a_fresh_parse_field_by_field(self, leaf, certificates):
        parse_certificate(leaf.der)
        hit = parse_certificate(leaf.der)
        fresh = Certificate.from_der(leaf.der)
        assert hit is not fresh
        assert _fields(hit) == _fields(fresh)
        assert hit.key_hash_sha1() == fresh.key_hash_sha1()
        assert hit.must_staple and hit.ocsp_urls == ["http://ocsp.memo.test"]

    def test_builder_primes_the_memo(self, certificates):
        key = generate_keypair(512, rng=72)
        built = self_signed(Name.build("Primed", "T"), key, 3,
                            NOW - DAY, NOW + DAY)
        assert parse_certificate(built.der) is built

    def test_lenient_only_der_raises_and_is_not_stored(self, leaf,
                                                       certificates):
        sloppy = _non_minimal_outer_length(leaf.der)
        # Only a lenient parse accepts it, and that stays outside the memo.
        assert Certificate.from_der(sloppy, lenient=True).serial_number == 7
        first = _error(lambda: parse_certificate(sloppy))
        assert first[0] is StrictDERError
        assert _error(lambda: parse_certificate(sloppy)) == first
        assert len(certificates) == 0

    def test_buffer_types_share_one_entry(self, leaf, certificates):
        first = parse_certificate(leaf.der)
        assert parse_certificate(bytearray(leaf.der)) is first
        assert parse_certificate(memoryview(leaf.der)) is first
        assert len(certificates) == 1
        assert type(first.der) is bytes

    @pytest.mark.parametrize("cut", (1, 2, 40, 300))
    def test_malformed_raises_identically_and_is_not_stored(
            self, leaf, certificates, cut):
        broken = leaf.der[:-cut]
        first = _error(lambda: parse_certificate(broken))
        assert _error(lambda: parse_certificate(broken)) == first
        assert first == _error(lambda: Certificate.from_der(broken))
        assert len(certificates) == 0

    def test_cap_holds_under_distinct_hostile_stream(self, leaf, certificates):
        cap = certificates.cap
        for value in range(cap + 64):
            parse_certificate(_with_signature_tail(leaf.der, value))
            with pytest.raises(ASN1Error):
                parse_certificate(leaf.der[:-(value % 50 + 1)])
            assert len(certificates) <= cap
        assert len(certificates) == cap and certificates.evictions == 64
        # Oldest first: the first 64 were evicted, the newest kept.
        assert _with_signature_tail(leaf.der, 0) not in certificates
        assert _with_signature_tail(leaf.der, cap + 63) in certificates

    def test_response_decodes_share_embedded_certificates(self, certificates):
        from repro.ocsp import OCSPResponse
        from repro.ocsp.response import (CertStatus, SingleResponse,
                                         encode_response)
        from repro.ocsp.certid import CertID

        key = generate_keypair(512, rng=73)
        ca = self_signed(Name.build("Embedding CA", "T"), key, 5,
                         NOW - DAY, NOW + DAY)
        cert_id = CertID.for_certificate(ca, ca)
        ders = [encode_response(
            [SingleResponse(cert_id, CertStatus.GOOD, NOW + day)],
            NOW + day, key, ca.key_hash_sha1(), certificates=[ca])
            for day in range(3)]
        embedded = [OCSPResponse.from_der(der).basic.certificates[0]
                    for der in ders]
        assert all(certificate is ca for certificate in embedded)


# ---------------------------------------------------------------------------
# the OID intern table
# ---------------------------------------------------------------------------

def _oid_der(arcs) -> bytes:
    return encoder.encode_oid(ObjectIdentifier(arcs))


class TestOidInterning:
    def test_same_content_same_instance(self, oids):
        der = _oid_der((1, 3, 6, 1, 5, 5, 7, 1, 24))
        first = Reader(der).read_oid()
        assert Reader(der).read_oid() is first
        assert first == ObjectIdentifier.decode_content(der[2:])
        assert first.encode_content() == der[2:]

    @pytest.mark.parametrize("content,message", (
        (b"\x80\x01", "redundant leading 0x80"),
        (b"\x2b\x80\x01", "redundant leading 0x80"),
        (b"\x2b\x86", "ends mid sub-identifier"),
        (b"", "empty OID content"),
    ))
    def test_malformed_content_rejected_and_not_stored(
            self, oids, content, message):
        with pytest.raises(DecodeError, match=message):
            ObjectIdentifier.decode_content(content)
        der = encoder.encode_tlv(tags.OBJECT_IDENTIFIER, content)
        first = _error(lambda: Reader(der).read_oid())
        assert _error(lambda: Reader(der).read_oid()) == first
        assert message in first[1]
        assert len(oids) == 0

    def test_accepted_content_is_canonical(self):
        # decode_content seeds the instance's encode cache with the input,
        # which is exact only because every accepted content re-encodes
        # to itself.
        for arcs in ((0, 0), (1, 39), (2, 48), (2, 999, 3),
                     (1, 2, 840, 113549, 1, 1, 11), (1, 3, 2 ** 70)):
            content = ObjectIdentifier(arcs).encode_content()
            decoded = ObjectIdentifier.decode_content(content)
            assert ObjectIdentifier(decoded.arcs).encode_content() == content

    def test_cap_holds_under_distinct_hostile_stream(self, oids):
        cap = oids.cap
        for value in range(cap + 100):
            Reader(_oid_der((1, 3, 6, 1, 4, 1, value))).read_oid()
            with pytest.raises(DecodeError):
                Reader(encoder.encode_tlv(
                    tags.OBJECT_IDENTIFIER,
                    bytes([0x2b, 0x80, value % 0x80]))).read_oid()
            assert len(oids) <= cap
        assert len(oids) == cap and oids.evictions == 100


# ---------------------------------------------------------------------------
# the header-only span decoder
# ---------------------------------------------------------------------------

def _reference_tlv(der: bytes, offset: int):
    """(tag, content offset, content length) by an independent walk."""
    tag, first = der[offset], der[offset + 1]
    if first < 0x80:
        return tag, offset + 2, first
    count = first & 0x7F
    length = int.from_bytes(der[offset + 2:offset + 2 + count], "big")
    return tag, offset + 2 + count, length


class TestSpanDecoder:
    def test_sub_reader_positions_are_absolute(self):
        der = encoder.encode_sequence(
            encoder.encode_sequence(encoder.encode_integer(5)),
            encoder.encode_octet_string(b"\x01" * 200),
            encoder.encode_explicit(0, encoder.encode_null()),
        )
        reader = Reader(der)
        outer = reader.read_sequence()
        _, content, length = _reference_tlv(der, 0)
        assert (outer.position, outer.remaining) == (content, length)
        inner = outer.read_sequence()
        assert inner.position == content + 2
        assert inner.read_integer() == 5 and inner.at_end()
        octets_at = outer.position
        assert outer.peek_span() == (octets_at, 1 + 2 + 200)
        assert len(outer.read_octet_string()) == 200
        explicit = outer.read_context(0)
        assert explicit.position == len(der) - 2
        explicit.read_null()
        assert outer.at_end() and reader.at_end()
        assert reader.position == len(der)

    def test_raw_element_and_peek_span_agree(self, leaf):
        reader = Reader(leaf.der).read_sequence()
        offset, total = reader.peek_span()
        assert reader.position == offset
        assert reader.read_raw_element() == leaf.der[offset:offset + total]
        assert leaf.der[offset:offset + total] == leaf.tbs_der

    def test_lint_spans_are_complete_tlvs(self, leaf):
        spans = certificate_spans(leaf.der)
        _, tbs_offset, _ = _reference_tlv(leaf.der, 0)
        assert spans["tbsCertificate"].offset == tbs_offset
        for name, span in spans.items():
            if name == "artifact":
                continue
            _, content, length = _reference_tlv(leaf.der, span.offset)
            assert span.end == content + length, name

    def test_tag_mismatch_leaves_cursor(self):
        der = encoder.encode_integer(3)
        reader = Reader(der)
        with pytest.raises(ASN1Error) as info:
            reader.read_sequence()
        assert info.value.offset == 0
        assert reader.position == 0
        assert reader.read_integer() == 3
