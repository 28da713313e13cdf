"""Unit tests for CAs, revocation registries, and the OCSP responder."""

import pytest

from repro.ca import (
    CertificateAuthority,
    MalformedWindow,
    OCSPResponder,
    ResponderProfile,
    RevocationPolicy,
    RevocationRegistry,
    blank_next_update_profile,
    future_this_update_profile,
    long_validity_profile,
    non_overlapping_profile,
    persistent_malformed_profile,
    serial_stuffing_profile,
    superfluous_certs_profile,
    zero_margin_profile,
)
from repro.ca.responder import MAX_CERT_IDS
from repro.crypto import generate_keypair
from repro.memo import BoundedMemo
from repro.ocsp import (
    CertID,
    CertStatus,
    OCSPError,
    OCSPRequest,
    OCSPResponse,
    ResponseStatus,
    verify_response,
)
from repro.simnet import (DAY, HOUR, WEEK, HTTPRequest,
                          ocsp_http_exchange, ocsp_post)
from repro.x509 import CertificateList

NOW = 1_524_614_400  # 2018-04-25


@pytest.fixture()
def authority():
    return CertificateAuthority.create_root(
        "Unit CA", "http://ocsp.unit.test", "http://crl.unit.test/ca.crl",
        not_before=NOW - 365 * DAY,
    )


@pytest.fixture()
def leaf(authority):
    key = generate_keypair(512, rng=90)
    return authority.issue_leaf("unit.example", key, not_before=NOW - DAY)


def make_responder(authority, profile=None, **kwargs):
    return OCSPResponder(authority, "http://ocsp.unit.test",
                         profile or ResponderProfile(update_interval=None),
                         epoch_start=kwargs.pop("epoch_start", NOW - 30 * DAY),
                         **kwargs)


def query(responder, cert_id, now):
    request = OCSPRequest.for_single(cert_id)
    return ocsp_http_exchange(responder, ocsp_post(responder.url + "/", request.encode()), now)


class TestRegistry:
    def test_simultaneous_propagation(self):
        registry = RevocationRegistry()
        registry.revoke(5, 1000, reason=1)
        assert registry.crl_is_revoked(5)
        assert registry.ocsp_lookup(5, 1000) is not None

    def test_reason_dropped_on_ocsp_by_default(self):
        registry = RevocationRegistry()
        registry.revoke(5, 1000, reason=1)
        assert registry.crl_db.lookup(5).reason == 1
        assert registry.ocsp_lookup(5, 1000).reason is None

    def test_keep_reason_override(self):
        registry = RevocationRegistry()
        registry.revoke(5, 1000, reason=1, keep_reason=True)
        assert registry.ocsp_lookup(5, 1000).reason == 1

    def test_drop_entry_policy(self):
        registry = RevocationRegistry(RevocationPolicy(ocsp_drops_entry=True))
        registry.revoke(5, 1000)
        assert registry.crl_is_revoked(5)
        assert registry.ocsp_lookup(5, 2000) is None

    def test_drop_entry_override(self):
        registry = RevocationRegistry()
        registry.revoke(5, 1000, ocsp_visible=False)
        assert registry.ocsp_lookup(5, 2000) is None

    def test_delayed_propagation(self):
        registry = RevocationRegistry(RevocationPolicy(ocsp_delay=3600))
        registry.revoke(5, 1000)
        assert registry.ocsp_lookup(5, 1000) is None
        assert registry.ocsp_lookup(5, 4599) is None
        assert registry.ocsp_lookup(5, 4600) is not None

    def test_time_offset(self):
        registry = RevocationRegistry(RevocationPolicy(ocsp_time_offset=7 * HOUR))
        registry.revoke(5, 1000)
        assert registry.ocsp_lookup(5, 1000 + 7 * HOUR).revoked_at == 1000 + 7 * HOUR
        assert registry.crl_db.lookup(5).revoked_at == 1000

    def test_per_revocation_offset_override(self):
        registry = RevocationRegistry()
        registry.revoke(5, 1000, ocsp_time_offset=-500)
        assert registry.ocsp_lookup(5, 1000).revoked_at == 500

    def test_records_sorted(self):
        registry = RevocationRegistry()
        registry.revoke(9, 10)
        registry.revoke(3, 20)
        assert [r.serial_number for r in registry.crl_entries()] == [3, 9]


class TestAuthority:
    def test_serials_increase(self, authority):
        key = generate_keypair(512, rng=91)
        a = authority.issue_leaf("a.test", key, NOW)
        b = authority.issue_leaf("b.test", key, NOW)
        assert b.serial_number > a.serial_number

    def test_leaf_has_expected_extensions(self, leaf):
        assert leaf.ocsp_urls == ["http://ocsp.unit.test"]
        assert leaf.crl_urls == ["http://crl.unit.test/ca.crl"]
        assert not leaf.must_staple

    def test_must_staple_opt_in(self, authority):
        key = generate_keypair(512, rng=92)
        cert = authority.issue_leaf("ms.test", key, NOW, must_staple=True)
        assert cert.must_staple

    def test_lets_encrypt_style_no_crl(self, authority):
        key = generate_keypair(512, rng=93)
        cert = authority.issue_leaf("le.test", key, NOW, include_crl_url=False)
        assert cert.crl_urls == []

    def test_ocsp_url_override(self, authority):
        key = generate_keypair(512, rng=94)
        cert = authority.issue_leaf("o.test", key, NOW,
                                    ocsp_url="http://ocsp2.unit.test")
        assert cert.ocsp_urls == ["http://ocsp2.unit.test"]

    def test_intermediate_chain(self, authority):
        intermediate = authority.create_intermediate(
            "Unit Intermediate", "http://ocsp-int.unit.test")
        assert intermediate.certificate.issuer == authority.certificate.subject
        assert intermediate.certificate.is_ca
        assert intermediate.certificate.verify_signature(authority.key.public_key)

    def test_crl_includes_revocations(self, authority, leaf):
        authority.revoke(leaf, NOW, reason=1)
        crl = authority.build_crl(NOW + HOUR)
        assert crl.is_revoked(leaf.serial_number)
        assert crl.verify_signature(authority.key.public_key)

    def test_crl_prunes_expired(self, authority):
        authority.revoke(111, NOW - 100 * DAY)
        authority.revoke(222, NOW)
        crl = authority.build_crl(NOW, prune_expired_before=NOW - 50 * DAY)
        assert not crl.is_revoked(111)
        assert crl.is_revoked(222)

    def test_ocsp_signer_has_eku(self, authority):
        key = generate_keypair(512, rng=95)
        signer = authority.issue_ocsp_signer(key, NOW)
        from repro.asn1 import oid
        assert oid.EKU_OCSP_SIGNING in signer.extensions.extended_key_usages
        assert signer.extensions.has_ocsp_nocheck


class TestResponderBasics:
    def test_good_answer(self, authority, leaf):
        responder = make_responder(authority)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        response = query(responder, cert_id, NOW)
        assert response.status_code == 200
        check = verify_response(response.body, cert_id, authority.certificate, NOW)
        assert check.ok and check.good

    def test_revoked_answer(self, authority, leaf):
        responder = make_responder(authority)
        authority.revoke(leaf, NOW - HOUR, reason=4)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.revoked
        assert check.single.revoked_info.revocation_time == NOW - HOUR

    def test_unknown_for_foreign_certid(self, authority, leaf):
        responder = make_responder(authority)
        cert_id = CertID("sha1", b"\x00" * 20, b"\x00" * 20, 999999)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.cert_status is CertStatus.UNKNOWN

    def test_malformed_request_gets_ocsp_error(self, authority):
        responder = make_responder(authority)
        response = ocsp_http_exchange(responder, ocsp_post(responder.url + "/", b"garbage"), NOW)
        assert response.status_code == 200
        assert OCSPResponse.from_der(response.body).response_status is \
            ResponseStatus.MALFORMED_REQUEST

    def test_ocsp_over_get(self, authority, leaf):
        """RFC 6960 appendix A.1: the GET form works end to end."""
        from repro.simnet import ocsp_get
        responder = make_responder(authority)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        request = OCSPRequest.for_single(cert_id)
        response = ocsp_http_exchange(responder, 
            ocsp_get(responder.url, request.encode()), NOW)
        assert response.status_code == 200
        check = verify_response(response.body, cert_id,
                                authority.certificate, NOW)
        assert check.ok and check.good

    def test_get_with_garbage_path(self, authority):
        responder = make_responder(authority)
        response = ocsp_http_exchange(responder, HTTPRequest("GET", responder.url + "/%%%"), NOW)
        assert response.status_code == 200
        assert OCSPResponse.from_der(response.body).response_status is \
            ResponseStatus.MALFORMED_REQUEST

    def test_other_methods_rejected(self, authority):
        responder = make_responder(authority)
        response = ocsp_http_exchange(responder, HTTPRequest("PUT", responder.url + "/"), NOW)
        assert response.status_code == 405

    def test_nonce_echoed(self, authority, leaf):
        responder = make_responder(authority)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        request = OCSPRequest.for_single(cert_id, nonce=b"\x42" * 8)
        response = ocsp_http_exchange(responder, 
            ocsp_post(responder.url + "/", request.encode()), NOW)
        assert verify_response(response.body, cert_id, authority.certificate, NOW).ok

    def test_try_later_profile(self, authority, leaf):
        responder = make_responder(authority, ResponderProfile(always_try_later=True))
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.error is OCSPError.ERROR_STATUS


class TestResponderProfiles:
    def cert_id(self, authority, leaf):
        return CertID.for_certificate(leaf, authority.certificate)

    def test_zero_margin(self, authority, leaf):
        responder = make_responder(authority, zero_margin_profile())
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.ok
        assert check.single.this_update == NOW  # no margin at all

    def test_zero_margin_fails_slow_clock(self, authority, leaf):
        responder = make_responder(authority, zero_margin_profile())
        cert_id = self.cert_id(authority, leaf)
        body = query(responder, cert_id, NOW).body
        # A client whose clock runs 30 s slow rejects the response.
        check = verify_response(body, cert_id, authority.certificate, NOW - 30)
        assert check.error is OCSPError.NOT_YET_VALID

    def test_future_this_update(self, authority, leaf):
        responder = make_responder(authority, future_this_update_profile(300))
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.error is OCSPError.NOT_YET_VALID

    def test_blank_next_update(self, authority, leaf):
        responder = make_responder(authority, blank_next_update_profile())
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.ok and check.single.next_update is None

    def test_long_validity(self, authority, leaf):
        responder = make_responder(authority, long_validity_profile(1251))
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.single.validity_period == 1251 * DAY

    def test_serial_stuffing(self, authority, leaf):
        responder = make_responder(authority, serial_stuffing_profile(20))
        cert_id = self.cert_id(authority, leaf)
        response = OCSPResponse.from_der(query(responder, cert_id, NOW).body)
        assert len(response.basic.serial_numbers) == 20
        # The requested serial is still answered and verifiable.
        assert verify_response(query(responder, cert_id, NOW).body, cert_id,
                               authority.certificate, NOW).ok

    def test_superfluous_certs(self, authority, leaf):
        responder = make_responder(authority, superfluous_certs_profile(extra=3))
        cert_id = self.cert_id(authority, leaf)
        response = OCSPResponse.from_der(query(responder, cert_id, NOW).body)
        assert len(response.basic.certificates) >= 2

    def test_persistent_malformed_zero(self, authority, leaf):
        responder = make_responder(authority, persistent_malformed_profile("zero"))
        assert query(responder, self.cert_id(authority, leaf), NOW).body == b"0"

    def test_persistent_malformed_javascript(self, authority, leaf):
        responder = make_responder(authority, persistent_malformed_profile("javascript"))
        body = query(responder, self.cert_id(authority, leaf), NOW).body
        assert b"<html>" in body

    def test_malformed_window_only_active_inside(self, authority, leaf):
        window = MalformedWindow(NOW + 100, NOW + 200, "zero")
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=None,
                                                    malformed_windows=(window,)))
        cert_id = self.cert_id(authority, leaf)
        assert query(responder, cert_id, NOW).body != b"0"
        assert query(responder, cert_id, NOW + 150).body == b"0"
        assert query(responder, cert_id, NOW + 200).body != b"0"

    def test_wrong_key_signature_fails(self, authority, leaf):
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=None, wrong_key=True))
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.error is OCSPError.BAD_SIGNATURE

    def test_serial_mismatch_profile(self, authority, leaf):
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=None,
                                                    serial_mismatch=True))
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.error is OCSPError.SERIAL_MISMATCH

    def test_unknown_for_all(self, authority, leaf):
        authority.revoke(leaf, NOW - DAY)
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=None,
                                                    unknown_for_all=True))
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.cert_status is CertStatus.UNKNOWN

    def test_good_for_revoked(self, authority, leaf):
        authority.revoke(leaf, NOW - DAY)
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=None,
                                                    good_for_revoked=True))
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.cert_status is CertStatus.GOOD

    def test_delegated_signing_verifies(self, authority, leaf):
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=None,
                                                    delegated_signing=True))
        cert_id = self.cert_id(authority, leaf)
        check = verify_response(query(responder, cert_id, NOW).body,
                                cert_id, authority.certificate, NOW)
        assert check.ok and check.delegated

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ResponderProfile(malformed_mode="nonsense")
        with pytest.raises(ValueError):
            ResponderProfile(serials_per_response=0)
        with pytest.raises(ValueError):
            ResponderProfile(validity_period=0)
        with pytest.raises(ValueError):
            ResponderProfile(stale_backends=0)


class TestPregeneration:
    def test_same_epoch_same_bytes(self, authority, leaf):
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=DAY),
                                   epoch_start=NOW)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        first = query(responder, cert_id, NOW + 100).body
        second = query(responder, cert_id, NOW + HOUR).body
        assert first == second

    def test_new_epoch_new_bytes(self, authority, leaf):
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=DAY),
                                   epoch_start=NOW)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        first = query(responder, cert_id, NOW + 100).body
        later = query(responder, cert_id, NOW + DAY + 100).body
        assert first != later

    def test_on_demand_produced_at_tracks_now(self, authority, leaf):
        responder = make_responder(authority)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        body = query(responder, cert_id, NOW + 12345).body
        assert OCSPResponse.from_der(body).basic.produced_at == NOW + 12345

    def test_stale_backends_regress_produced_at(self, authority, leaf):
        profile = ResponderProfile(update_interval=DAY, stale_backends=3,
                                   backend_skew=600)
        responder = make_responder(authority, profile)  # epoch_start 30d back
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        produced = []
        for i in range(4):
            body = query(responder, cert_id, NOW + 5 * HOUR + i).body
            produced.append(OCSPResponse.from_der(body).basic.produced_at)
        assert any(b < a for a, b in zip(produced, produced[1:]))

    def test_non_overlapping_profile_shape(self):
        profile = non_overlapping_profile(7200)
        assert profile.validity_period == profile.update_interval == 7200


class TestRequestMemo:
    """``handle`` keeps one response cache keyed by request DER: each
    distinct request parses once and signs once per signing epoch."""

    def test_repeated_handle_matches_fresh_responder(self, authority, leaf):
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=HOUR))
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        requests = [OCSPRequest.for_single(cert_id).encode(),
                    OCSPRequest.for_single(cert_id, nonce=b"\x07" * 8).encode()]
        for now in (NOW, NOW + 10, NOW + 2 * HOUR):
            for request in requests * 2:
                fresh = make_responder(authority,
                                       ResponderProfile(update_interval=HOUR))
                assert responder.handle(request, now).body == \
                    fresh.handle(request, now).body
        # Two epochs sign each request once; every other call is a hit.
        assert responder.cache_stats() == {"entries": 2, "hits": 8,
                                           "misses": 4}

    def test_malformed_request_never_cached(self, authority):
        responder = make_responder(authority)
        for _ in range(3):
            body = responder.handle(b"garbage", NOW).body
            assert OCSPResponse.from_der(body).response_status is \
                ResponseStatus.MALFORMED_REQUEST
        assert responder.cache_stats() == {"entries": 0, "hits": 0,
                                           "misses": 0}

    def test_bounded(self, authority, leaf, monkeypatch):
        responder = make_responder(authority)
        memo = BoundedMemo(64)
        monkeypatch.setattr(responder, "_responses", memo)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        for serial in range(70):
            other = CertID(cert_id.hash_name, cert_id.issuer_name_hash,
                           cert_id.issuer_key_hash, serial)
            request = OCSPRequest.for_single(other).encode()
            assert verify_response(responder.handle(request, NOW).body,
                                   other, authority.certificate, NOW).ok
            assert responder.cache_stats()["entries"] <= 64
        assert responder.cache_stats()["entries"] == 64
        assert (memo.misses, memo.evictions) == (70, 6)

    def test_same_serial_other_issuer_answers_like_fresh(self, authority,
                                                         leaf):
        """Regression: the cache keys on the whole request, not on its
        serials, so a CertID naming another issuer is answered UNKNOWN
        even after the same serial was answered for this issuer."""
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=HOUR))
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        foreign = CertID(cert_id.hash_name, b"\x00" * 20,
                         cert_id.issuer_key_hash, cert_id.serial_number)
        responder.handle(OCSPRequest.for_single(cert_id).encode(), NOW)
        request = OCSPRequest.for_single(foreign).encode()
        answer = responder.handle(request, NOW).body
        fresh = make_responder(authority,
                               ResponderProfile(update_interval=HOUR))
        assert answer == fresh.handle(request, NOW).body
        single = OCSPResponse.from_der(answer).basic.single_responses[0]
        assert single.cert_status is CertStatus.UNKNOWN
        assert single.cert_id == foreign

    def test_due_delayed_delivery_moves_the_epoch(self, authority, leaf):
        """A revocation queued behind ``ocsp_delay`` but already due at
        the instant just served is applied on the next request at that
        same instant."""
        authority.registry.policy.ocsp_delay = 60
        responder = make_responder(authority,
                                   ResponderProfile(update_interval=HOUR))
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        request = OCSPRequest.for_single(cert_id).encode()
        good = responder.handle(request, NOW).body
        authority.revoke(leaf, NOW - HOUR)
        revoked = responder.handle(request, NOW).body
        fresh = make_responder(authority,
                               ResponderProfile(update_interval=HOUR))
        assert revoked == fresh.handle(request, NOW).body != good
        single = OCSPResponse.from_der(revoked).basic.single_responses[0]
        assert single.cert_status is CertStatus.REVOKED


class TestRequestCaps:
    """One request cannot make the responder sign chosen bulk: a nonce
    outside RFC 8954's 1..32 octets or too many CertIDs is a typed
    ``malformedRequest``, never stored."""

    @staticmethod
    def status(responder, request):
        body = responder.handle(request.encode(), NOW).body
        return OCSPResponse.from_der(body).response_status

    @staticmethod
    def cert_ids(authority, leaf, count):
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        return [CertID(cert_id.hash_name, cert_id.issuer_name_hash,
                       cert_id.issuer_key_hash, serial)
                for serial in range(1, count + 1)]

    def test_huge_nonce_is_malformed_and_not_stored(self, authority, leaf):
        responder = make_responder(authority)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        request = OCSPRequest.for_single(cert_id, nonce=b"\xa5" * 100_000)
        for _ in range(2):
            assert self.status(responder, request) is \
                ResponseStatus.MALFORMED_REQUEST
        assert responder.cache_stats() == {"entries": 0, "hits": 0,
                                           "misses": 0}

    def test_thousand_cert_ids_is_malformed_and_not_stored(self, authority,
                                                           leaf):
        responder = make_responder(authority)
        request = OCSPRequest(cert_ids=self.cert_ids(authority, leaf, 1000))
        assert 1000 > MAX_CERT_IDS
        for _ in range(2):
            assert self.status(responder, request) is \
                ResponseStatus.MALFORMED_REQUEST
        assert responder.cache_stats() == {"entries": 0, "hits": 0,
                                           "misses": 0}

    @pytest.mark.parametrize("length, ok", [
        (0, False), (1, True), (8, True), (16, True), (32, True),
        (33, False),
    ])
    def test_nonce_length_bounds(self, authority, leaf, length, ok):
        responder = make_responder(authority)
        cert_id = CertID.for_certificate(leaf, authority.certificate)
        nonce = b"\x01" * length
        request = OCSPRequest.for_single(cert_id, nonce=nonce)
        body = responder.handle(request.encode(), NOW).body
        if ok:
            result = verify_response(body, cert_id, authority.certificate,
                                     NOW, expected_nonce=nonce)
            assert result.ok, result.error
        else:
            assert OCSPResponse.from_der(body).response_status is \
                ResponseStatus.MALFORMED_REQUEST

    def test_cert_id_cap_is_inclusive(self, authority, leaf):
        """At the cap every CertID is answered one for one; one more
        is refused, so one request signs at most the cap's singles."""
        responder = make_responder(authority)
        at_cap = self.cert_ids(authority, leaf, MAX_CERT_IDS)
        body = responder.handle(OCSPRequest(cert_ids=at_cap).encode(),
                                NOW).body
        singles = OCSPResponse.from_der(body).basic.single_responses
        assert [single.cert_id for single in singles] == at_cap
        over = self.cert_ids(authority, leaf, MAX_CERT_IDS + 1)
        assert self.status(responder, OCSPRequest(cert_ids=over)) is \
            ResponseStatus.MALFORMED_REQUEST


class TestCRLService:
    def test_serves_signed_crl(self, authority, leaf):
        from repro.ca import CRLService
        authority.revoke(leaf, NOW - HOUR, reason=1)
        service = CRLService(authority, "http://crl.unit.test/ca.crl",
                             epoch_start=NOW - DAY)
        response = service.handle(HTTPRequest("GET", service.url), NOW)
        assert response.status_code == 200
        crl = CertificateList.from_der(response.body)
        assert crl.is_revoked(leaf.serial_number)
        assert crl.verify_signature(authority.key.public_key)

    def test_post_rejected(self, authority):
        from repro.ca import CRLService
        service = CRLService(authority, "http://crl.unit.test/ca.crl")
        assert service.handle(HTTPRequest("POST", service.url), NOW).status_code == 405

    def test_epoch_stability(self, authority):
        from repro.ca import CRLService
        service = CRLService(authority, "http://crl.unit.test/ca.crl",
                             publication_interval=DAY, epoch_start=NOW)
        a = service.handle(HTTPRequest("GET", service.url), NOW + 100).body
        b = service.handle(HTTPRequest("GET", service.url), NOW + HOUR).body
        assert a == b
