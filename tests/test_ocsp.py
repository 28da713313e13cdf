"""Unit tests for OCSP requests, responses, and client verification."""

import dataclasses

import pytest

from repro.crypto import generate_keypair
from repro.memo import BoundedMemo
from repro.ocsp import (
    CertID,
    CertStatus,
    OCSPCheckResult,
    OCSPError,
    OCSPRequest,
    OCSPResponse,
    ResponseStatus,
    RevokedInfo,
    SingleResponse,
    encode_error_response,
    encode_response,
    verify_response,
)
from repro.ocsp import verify as verify_module
from repro.simnet import DAY, HOUR, WEEK
from repro.x509 import CertificateBuilder, Name, self_signed

NOW = 1_525_132_800


@pytest.fixture(scope="module")
def setup():
    ca_key = generate_keypair(512, rng=80)
    leaf_key = generate_keypair(512, rng=81)
    ca = self_signed(Name.build("OCSP CA", "T"), ca_key, 1,
                     NOW - 365 * DAY, NOW + 3650 * DAY)
    leaf = (
        CertificateBuilder().serial_number(4242).issuer(ca.subject)
        .subject(Name.build("site.test")).public_key(leaf_key.public_key)
        .validity(NOW - DAY, NOW + 90 * DAY).leaf().sign(ca_key)
    )
    cert_id = CertID.for_certificate(leaf, ca)
    return ca_key, ca, leaf, cert_id


def good_response(setup, this_update=NOW - HOUR, next_update=NOW + WEEK,
                  produced_at=None, **kwargs):
    ca_key, ca, leaf, cert_id = setup
    single = SingleResponse(cert_id, CertStatus.GOOD, this_update, next_update)
    return encode_response([single], produced_at or this_update, ca_key,
                           ca.key_hash_sha1(), **kwargs)


class TestCertID:
    def test_for_certificate_fields(self, setup):
        _, ca, leaf, cert_id = setup
        assert cert_id.serial_number == 4242
        assert len(cert_id.issuer_name_hash) == 20
        assert len(cert_id.issuer_key_hash) == 20

    def test_round_trip(self, setup):
        from repro.asn1 import Reader
        *_, cert_id = setup
        assert CertID.decode(Reader(cert_id.encode())) == cert_id

    def test_matches_issuer(self, setup):
        _, ca, leaf, cert_id = setup
        assert cert_id.matches_issuer(ca)

    def test_does_not_match_other_issuer(self, setup):
        *_, cert_id = setup
        other_key = generate_keypair(512, rng=82)
        other = self_signed(Name.build("Other CA"), other_key, 1, NOW, NOW + DAY)
        assert not cert_id.matches_issuer(other)

    def test_sha256_variant(self, setup):
        _, ca, leaf, _ = setup
        cid = CertID.for_certificate(leaf, ca, hash_name="sha256")
        assert len(cid.issuer_name_hash) == 32
        from repro.asn1 import Reader
        assert CertID.decode(Reader(cid.encode())) == cid

    def test_unsupported_hash(self, setup):
        _, ca, leaf, _ = setup
        with pytest.raises(ValueError):
            CertID.for_certificate(leaf, ca, hash_name="md5")


class TestRequest:
    def test_single_round_trip(self, setup):
        *_, cert_id = setup
        request = OCSPRequest.for_single(cert_id)
        parsed = OCSPRequest.from_der(request.encode())
        assert parsed.cert_ids == [cert_id]
        assert parsed.nonce is None

    def test_nonce_round_trip(self, setup):
        *_, cert_id = setup
        request = OCSPRequest.for_single(cert_id, nonce=b"\xaa\xbb")
        assert OCSPRequest.from_der(request.encode()).nonce == b"\xaa\xbb"

    def test_multi_certid(self, setup):
        *_, cert_id = setup
        other = CertID(cert_id.hash_name, cert_id.issuer_name_hash,
                       cert_id.issuer_key_hash, 999)
        request = OCSPRequest(cert_ids=[cert_id, other])
        assert OCSPRequest.from_der(request.encode()).serial_numbers == [4242, 999]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OCSPRequest(cert_ids=[])


class TestResponseParsing:
    def test_successful_round_trip(self, setup):
        der = good_response(setup)
        response = OCSPResponse.from_der(der)
        assert response.is_successful
        assert response.basic.serial_numbers == [4242]
        single = response.basic.single_responses[0]
        assert single.cert_status is CertStatus.GOOD
        assert single.validity_period == WEEK + HOUR

    def test_error_statuses(self):
        for status in (ResponseStatus.TRY_LATER, ResponseStatus.UNAUTHORIZED,
                       ResponseStatus.MALFORMED_REQUEST, ResponseStatus.INTERNAL_ERROR):
            der = encode_error_response(status)
            response = OCSPResponse.from_der(der)
            assert response.response_status is status
            assert response.basic is None

    def test_error_response_rejects_successful(self):
        with pytest.raises(ValueError):
            encode_error_response(ResponseStatus.SUCCESSFUL)

    def test_empty_singles_rejected(self, setup):
        ca_key, ca, *_ = setup
        with pytest.raises(ValueError):
            encode_response([], NOW, ca_key, ca.key_hash_sha1())

    def test_blank_next_update(self, setup):
        der = good_response(setup, next_update=None)
        single = OCSPResponse.from_der(der).basic.single_responses[0]
        assert single.next_update is None
        assert single.validity_period is None

    def test_revoked_with_reason(self, setup):
        ca_key, ca, leaf, cert_id = setup
        single = SingleResponse(cert_id, CertStatus.REVOKED, NOW - HOUR, NOW + DAY,
                                revoked_info=RevokedInfo(NOW - 5 * DAY, 1))
        der = encode_response([single], NOW - HOUR, ca_key, ca.key_hash_sha1())
        parsed = OCSPResponse.from_der(der).basic.single_responses[0]
        assert parsed.cert_status is CertStatus.REVOKED
        assert parsed.revoked_info.revocation_time == NOW - 5 * DAY
        assert parsed.revoked_info.reason == 1

    def test_unknown_status(self, setup):
        ca_key, ca, leaf, cert_id = setup
        single = SingleResponse(cert_id, CertStatus.UNKNOWN, NOW - HOUR, NOW + DAY)
        der = encode_response([single], NOW - HOUR, ca_key, ca.key_hash_sha1())
        parsed = OCSPResponse.from_der(der).basic.single_responses[0]
        assert parsed.cert_status is CertStatus.UNKNOWN

    def test_produced_at_carried(self, setup):
        der = good_response(setup, produced_at=NOW - 42)
        assert OCSPResponse.from_der(der).basic.produced_at == NOW - 42

    def test_garbage_rejected(self):
        from repro.asn1.errors import ASN1Error
        for garbage in (b"", b"0", b"<html></html>", b"\x30\x02\x0a"):
            with pytest.raises((ASN1Error, ValueError)):
                OCSPResponse.from_der(garbage)

    def test_nonce_echoed(self, setup):
        der = good_response(setup, nonce=b"\x01\x02\x03")
        # parse succeeds with responseExtensions present
        assert OCSPResponse.from_der(der).is_successful


class TestVerification:
    def test_good_accepted(self, setup):
        _, ca, _, cert_id = setup
        result = verify_response(good_response(setup), cert_id, ca, NOW)
        assert result.ok and result.good and not result.revoked

    def test_malformed(self, setup):
        _, ca, _, cert_id = setup
        assert verify_response(b"0", cert_id, ca, NOW).error is OCSPError.MALFORMED

    def test_error_status(self, setup):
        _, ca, _, cert_id = setup
        result = verify_response(encode_error_response(ResponseStatus.TRY_LATER),
                                 cert_id, ca, NOW)
        assert result.error is OCSPError.ERROR_STATUS
        assert result.response_status is ResponseStatus.TRY_LATER

    def test_serial_mismatch(self, setup):
        _, ca, _, cert_id = setup
        wrong = CertID(cert_id.hash_name, cert_id.issuer_name_hash,
                       cert_id.issuer_key_hash, 1)
        assert verify_response(good_response(setup), wrong, ca, NOW).error is \
            OCSPError.SERIAL_MISMATCH

    def test_bad_signature(self, setup):
        ca_key, ca, leaf, cert_id = setup
        wrong_key = generate_keypair(512, rng=83)
        single = SingleResponse(cert_id, CertStatus.GOOD, NOW - HOUR, NOW + WEEK)
        der = encode_response([single], NOW, wrong_key, ca.key_hash_sha1())
        assert verify_response(der, cert_id, ca, NOW).error is OCSPError.BAD_SIGNATURE

    def test_not_yet_valid(self, setup):
        _, ca, _, cert_id = setup
        der = good_response(setup, this_update=NOW + 300, next_update=NOW + WEEK)
        assert verify_response(der, cert_id, ca, NOW).error is OCSPError.NOT_YET_VALID

    def test_clock_skew_tolerance(self, setup):
        _, ca, _, cert_id = setup
        der = good_response(setup, this_update=NOW + 300, next_update=NOW + WEEK)
        assert verify_response(der, cert_id, ca, NOW, max_clock_skew=600).ok

    def test_expired(self, setup):
        _, ca, _, cert_id = setup
        der = good_response(setup, this_update=NOW - WEEK, next_update=NOW - DAY,
                            produced_at=NOW - WEEK)
        assert verify_response(der, cert_id, ca, NOW).error is OCSPError.EXPIRED

    def test_blank_next_update_never_expires(self, setup):
        _, ca, _, cert_id = setup
        der = good_response(setup, this_update=NOW - 400 * DAY, next_update=None)
        assert verify_response(der, cert_id, ca, NOW).ok

    def test_delegated_signer_accepted(self, setup):
        ca_key, ca, leaf, cert_id = setup
        signer_key = generate_keypair(512, rng=84)
        delegate = (
            CertificateBuilder().serial_number(9).issuer(ca.subject)
            .subject(Name.build("Delegate")).public_key(signer_key.public_key)
            .validity(NOW - DAY, NOW + DAY).leaf().ocsp_signing().sign(ca_key)
        )
        single = SingleResponse(cert_id, CertStatus.GOOD, NOW - HOUR, NOW + WEEK)
        der = encode_response([single], NOW, signer_key, delegate.key_hash_sha1(),
                              certificates=[delegate])
        result = verify_response(der, cert_id, ca, NOW)
        assert result.ok and result.delegated

    def test_delegate_without_eku_rejected(self, setup):
        ca_key, ca, leaf, cert_id = setup
        signer_key = generate_keypair(512, rng=85)
        impostor = (
            CertificateBuilder().serial_number(10).issuer(ca.subject)
            .subject(Name.build("NoEKU")).public_key(signer_key.public_key)
            .validity(NOW - DAY, NOW + DAY).leaf().sign(ca_key)  # no OCSPSigning
        )
        single = SingleResponse(cert_id, CertStatus.GOOD, NOW - HOUR, NOW + WEEK)
        der = encode_response([single], NOW, signer_key, impostor.key_hash_sha1(),
                              certificates=[impostor])
        assert verify_response(der, cert_id, ca, NOW).error is OCSPError.BAD_SIGNATURE

    def test_delegate_from_other_ca_rejected(self, setup):
        ca_key, ca, leaf, cert_id = setup
        rogue_ca_key = generate_keypair(512, rng=86)
        rogue_ca = self_signed(Name.build("Rogue CA"), rogue_ca_key, 1,
                               NOW - DAY, NOW + 3650 * DAY)
        signer_key = generate_keypair(512, rng=87)
        rogue_delegate = (
            CertificateBuilder().serial_number(11).issuer(rogue_ca.subject)
            .subject(Name.build("Rogue Delegate")).public_key(signer_key.public_key)
            .validity(NOW - DAY, NOW + DAY).leaf().ocsp_signing().sign(rogue_ca_key)
        )
        single = SingleResponse(cert_id, CertStatus.GOOD, NOW - HOUR, NOW + WEEK)
        der = encode_response([single], NOW, signer_key,
                              rogue_delegate.key_hash_sha1(),
                              certificates=[rogue_delegate])
        assert verify_response(der, cert_id, ca, NOW).error is OCSPError.BAD_SIGNATURE

    def test_multi_serial_response_finds_requested(self, setup):
        ca_key, ca, leaf, cert_id = setup
        others = [
            SingleResponse(
                CertID(cert_id.hash_name, cert_id.issuer_name_hash,
                       cert_id.issuer_key_hash, 5000 + i),
                CertStatus.GOOD, NOW - HOUR, NOW + WEEK)
            for i in range(5)
        ]
        mine = SingleResponse(cert_id, CertStatus.REVOKED, NOW - HOUR, NOW + WEEK,
                              revoked_info=RevokedInfo(NOW - DAY))
        der = encode_response([*others, mine], NOW, ca_key, ca.key_hash_sha1())
        result = verify_response(der, cert_id, ca, NOW)
        assert result.ok and result.revoked

    def test_revoked_result_flags(self, setup):
        ca_key, ca, leaf, cert_id = setup
        single = SingleResponse(cert_id, CertStatus.REVOKED, NOW - HOUR, NOW + WEEK,
                                revoked_info=RevokedInfo(NOW - DAY))
        der = encode_response([single], NOW, ca_key, ca.key_hash_sha1())
        result = verify_response(der, cert_id, ca, NOW)
        assert result.revoked and not result.good and bool(result)


class TestVerifyMemo:
    """``verify_response`` computes the structural verdict once per
    distinct (bytes, lenient, CertID, issuer); the nonce and time
    checks still run on every call, and every call gets its own
    result object."""

    @pytest.fixture(autouse=True)
    def memo(self, monkeypatch):
        memo = BoundedMemo(verify_module._VERDICTS.cap)
        monkeypatch.setattr(verify_module, "_VERDICTS", memo)
        return memo

    def test_time_checks_run_on_every_hit(self, setup, memo):
        _, ca, _, cert_id = setup
        der = good_response(setup)  # valid NOW - HOUR .. NOW + WEEK
        assert verify_response(der, cert_id, ca, NOW).ok
        assert verify_response(der, cert_id, ca, NOW + 2 * WEEK).error is \
            OCSPError.EXPIRED
        assert verify_response(der, cert_id, ca, NOW - DAY).error is \
            OCSPError.NOT_YET_VALID
        assert len(memo) == 1

    def test_nonce_check_runs_on_every_hit(self, setup, memo):
        _, ca, _, cert_id = setup
        der = good_response(setup, nonce=b"\x01" * 8)
        assert verify_response(der, cert_id, ca, NOW).ok
        assert verify_response(der, cert_id, ca, NOW,
                               expected_nonce=b"\x02" * 8).error is \
            OCSPError.NONCE_MISMATCH
        assert verify_response(der, cert_id, ca, NOW,
                               expected_nonce=b"\x01" * 8).ok
        assert len(memo) == 1

    def test_lenient_is_part_of_the_key(self, setup, memo):
        _, ca, _, cert_id = setup
        der = good_response(setup)
        strict = verify_response(der, cert_id, ca, NOW)
        lenient = verify_response(der, cert_id, ca, NOW, lenient=True)
        assert strict == lenient and len(memo) == 2

    def test_cert_id_and_issuer_are_part_of_the_key(self, setup, memo):
        ca_key, ca, _, cert_id = setup
        der = good_response(setup)
        other_ca = self_signed(Name.build("Other CA", "T"),
                               generate_keypair(512, rng=88), 1,
                               NOW - DAY, NOW + 3650 * DAY)
        wrong_id = CertID(cert_id.hash_name, cert_id.issuer_name_hash,
                          cert_id.issuer_key_hash, 1)
        assert verify_response(der, cert_id, ca, NOW).ok
        assert verify_response(der, wrong_id, ca, NOW).error is \
            OCSPError.SERIAL_MISMATCH
        assert verify_response(der, cert_id, other_ca, NOW).error is \
            OCSPError.BAD_SIGNATURE
        assert len(memo) == 3

    def test_buffer_types_share_one_entry(self, setup, memo):
        _, ca, _, cert_id = setup
        der = good_response(setup)
        results = [verify_response(view, cert_id, ca, NOW)
                   for view in (der, bytearray(der), memoryview(der))]
        assert all(result.ok for result in results)
        assert results[0] == results[1] == results[2]
        assert len(memo) == 1

    def test_bounded(self, setup, memo):
        _, ca, _, cert_id = setup
        for index in range(memo.cap + 6):
            assert verify_response(b"0" + bytes([index]), cert_id, ca,
                                   NOW).error is OCSPError.MALFORMED
        assert len(memo) == memo.cap and memo.evictions == 6

    @pytest.mark.parametrize("case, expected", [
        ("malformed", OCSPError.MALFORMED),
        ("error_status", OCSPError.ERROR_STATUS),
        ("serial_mismatch", OCSPError.SERIAL_MISMATCH),
        ("bad_signature", OCSPError.BAD_SIGNATURE),
        ("delegated_ok", None),
    ])
    def test_hit_equals_cold_call(self, setup, memo, monkeypatch, case,
                                  expected):
        ca_key, ca, _, cert_id = setup
        if case == "malformed":
            der = good_response(setup)[:-7]
        elif case == "error_status":
            der = encode_error_response(ResponseStatus.TRY_LATER)
        elif case == "serial_mismatch":
            der = good_response(setup)
            cert_id = CertID(cert_id.hash_name, cert_id.issuer_name_hash,
                             cert_id.issuer_key_hash, 1)
        elif case == "bad_signature":
            single = SingleResponse(cert_id, CertStatus.GOOD, NOW - HOUR,
                                    NOW + WEEK)
            der = encode_response([single], NOW, generate_keypair(512, rng=83),
                                  ca.key_hash_sha1())
        else:
            signer_key = generate_keypair(512, rng=84)
            delegate = (
                CertificateBuilder().serial_number(9).issuer(ca.subject)
                .subject(Name.build("Delegate"))
                .public_key(signer_key.public_key)
                .validity(NOW - DAY, NOW + DAY).leaf().ocsp_signing()
                .sign(ca_key)
            )
            single = SingleResponse(cert_id, CertStatus.GOOD, NOW - HOUR,
                                    NOW + WEEK)
            der = encode_response([single], NOW, signer_key,
                                  delegate.key_hash_sha1(),
                                  certificates=[delegate])

        cold = verify_response(der, cert_id, ca, NOW)
        hit = verify_response(der, cert_id, ca, NOW)
        assert (len(memo), memo.misses, memo.hits) == (1, 1, 1)
        monkeypatch.setattr(verify_module, "_VERDICTS",
                            BoundedMemo(memo.cap))
        recomputed = verify_response(der, cert_id, ca, NOW)
        assert hit is not cold
        for field in dataclasses.fields(OCSPCheckResult):
            assert getattr(hit, field.name) == getattr(cold, field.name) \
                == getattr(recomputed, field.name), field.name
        assert cold.error is expected
        assert cold.ok is cold.delegated is (expected is None)
        # A caller mutating its result does not touch the memo.
        hit.ok, hit.error = (not hit.ok), OCSPError.EXPIRED
        assert verify_response(der, cert_id, ca, NOW) == recomputed


def test_result_copy_keeps_every_field():
    """``verify_response`` copies verdicts positionally; a field added to
    ``OCSPCheckResult`` without a place in the copy would reset."""
    names = [field.name for field in dataclasses.fields(OCSPCheckResult)]
    verdict = OCSPCheckResult(*(object() for _ in names))
    copy = verify_module._copy(verdict)
    assert copy is not verdict
    assert [getattr(copy, name) for name in names] == \
        [getattr(verdict, name) for name in names]
