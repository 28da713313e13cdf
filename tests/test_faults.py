"""Tests for repro.faults: injectors, scenarios, the FaultyNetwork
wrapper, resilient client policies, and the chaos experiments.

The two acceptance properties from the subsystem's design:

* the empty FaultPlan is a byte-identical passthrough — the baseline
  chaos scenario reproduces the Figure 3/4 numbers exactly;
* the chaos experiments merge byte-identically at any ``workers``
  count through the runtime cache.
"""

from __future__ import annotations

import io

import pytest

from repro.ca import CertificateAuthority, OCSPResponder, ResponderProfile
from repro.crypto import generate_keypair
from repro.datasets import MeasurementWorld, WorldConfig
from repro.faults import (
    Blackout,
    BodyTamper,
    DnsFlap,
    ErrorBurst,
    FaultPlan,
    FaultyNetwork,
    LatencySpike,
    RequestDrop,
    StaleServe,
    client_policy,
    for_browser,
    injector_from_dict,
    scenario,
    scenario_names,
    unit_draw,
)
from repro.faults.policy import MUST_STAPLE_HARD_FAIL, NO_CHECK
from repro.ocsp import CertStatus, OCSPClient, OCSPError, verify_response
from repro.runtime import (
    ChaosAvailabilityConfig,
    ChaosClientConfig,
    ScanCampaignConfig,
    run_experiment,
)
from repro.scanner.alexa_scan import AlexaAvailability
from repro.scanner.hourly import HourlyScanner
from repro.scanner.io import dump_dataset
from repro.simnet import (
    DAY,
    DNS_RTT_MS,
    HOUR,
    MEASUREMENT_START,
    FailureKind,
    Network,
    OutageWindow,
    ocsp_post,
    ocsp_service,
)
from repro.x509 import CertificateBuilder, Name

NOW = MEASUREMENT_START

SMALL_WORLD = WorldConfig(n_responders=12, certs_per_responder=1, seed=7)


def make_rig(seed=70, *, ocsp_urls=None, crl_service=False):
    """A CA + leaf + responder + network; optionally the leaf carries
    extra OCSP URLs and the CRL distribution point gets bound."""
    host = f"ocsp.faults{seed}.test"
    ca = CertificateAuthority.create_root(
        f"Faults CA {seed}", f"http://{host}",
        crl_url=(f"http://crl.faults{seed}.test/crl.der"
                 if crl_service else None),
        not_before=NOW - 365 * DAY)
    key = generate_keypair(512, rng=seed)
    if ocsp_urls is None:
        leaf = ca.issue_leaf("faults.example", key, not_before=NOW - DAY)
    else:
        builder = (
            CertificateBuilder()
            .serial_number(ca.allocate_serial())
            .issuer(ca.certificate.subject)
            .subject(Name.build("faults.example"))
            .public_key(key.public_key)
            .validity(NOW - DAY, NOW + 89 * DAY)
            .leaf()
            .dns_names(["faults.example"])
            .server_auth()
            .ocsp_url(*ocsp_urls)
        )
        if ca.crl_url:
            builder.crl_url(ca.crl_url)
        leaf = builder.sign(ca.key)
    responder = OCSPResponder(
        ca, ca.ocsp_url,
        ResponderProfile(update_interval=None, this_update_margin=HOUR,
                         validity_period=DAY),
        epoch_start=NOW - 7 * DAY)
    network = Network()
    origin = network.add_origin(f"faults-{seed}", "us-east", ocsp_service(responder))
    network.bind(host, origin)
    if crl_service:
        def handle_crl(request, now):
            from repro.simnet import HTTPResponse
            epoch = now - now % DAY
            return HTTPResponse(status_code=200,
                                body=ca.build_crl(epoch).der)
        crl_host = ca.crl_url.split("/")[2]
        network.bind(crl_host,
                     network.add_origin(f"crl-{seed}", "us-east", handle_crl))
    return ca, leaf, network, origin


def _fetch(network, vantage, url, body=b"x", now=NOW):
    return network.fetch(vantage, ocsp_post(url, body), now)


class TestInjectors:
    def test_unit_draw_deterministic_and_uniformish(self):
        draws = [unit_draw(5, "a", i) for i in range(200)]
        assert draws == [unit_draw(5, "a", i) for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.3 < sum(draws) / len(draws) < 0.7
        assert unit_draw(5, "a", 0) != unit_draw(6, "a", 0)

    def test_window_and_scope_matching(self):
        injector = Blackout(hosts=("ocsp.x.test",), vantages=("Paris",),
                            start=NOW, end=NOW + HOUR)
        assert injector.matches("ocsp.x.test", "Paris", NOW)
        assert not injector.matches("ocsp.x.test", "Paris", NOW + HOUR)
        assert not injector.matches("ocsp.x.test", "Seoul", NOW)
        assert not injector.matches("other.test", "Paris", NOW)

    def test_host_prefix_matching(self):
        injector = Blackout(host_prefixes=("ocsp",))
        assert injector.matches("ocsp3.comodo.test", "Paris", NOW)
        assert not injector.matches("crl3.comodo.test", "Paris", NOW)

    def test_round_trip_preserves_every_field(self):
        injectors = [
            Blackout(hosts=("a.test",), start=NOW, end=NOW + HOUR),
            LatencySpike(vantages=("Sydney",), added_ms=10.0, tail_ms=5.0),
            RequestDrop(rate=0.25, failure="DNS"),
            ErrorBurst(status_code=502, period=3 * HOUR, duty=HOUR),
            DnsFlap(period=2 * HOUR, duty=HOUR),
            StaleServe(age=3 * DAY),
            BodyTamper(mode="truncated", rate=0.5),
        ]
        for injector in injectors:
            data = injector.to_dict()
            rebuilt = injector_from_dict(data)
            assert rebuilt == injector
            assert rebuilt.to_dict() == data


class TestFaultPlan:
    def test_digest_stable_across_round_trip(self):
        for name in scenario_names():
            plan = scenario(name, seed=23)
            rebuilt = FaultPlan.from_dict(plan.to_dict())
            assert rebuilt.plan_digest() == plan.plan_digest()

    def test_distinct_scenarios_have_distinct_digests(self):
        digests = {scenario(name).plan_digest() for name in scenario_names()}
        assert len(digests) == len(scenario_names())

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            scenario("no-such-scenario")


class TestFaultyNetworkPassthrough:
    def test_empty_plan_returns_inner_result_object(self):
        ca, leaf, network, _ = make_rig(seed=71)
        faulty = FaultyNetwork(network)
        direct = _fetch(network, "Paris", ca.ocsp_url)
        wrapped = _fetch(faulty, "Paris", ca.ocsp_url)
        assert wrapped == direct

    def test_delegates_topology_methods(self):
        _, _, network, _ = make_rig(seed=72)
        faulty = FaultyNetwork(network)
        assert faulty.hostnames() == network.hostnames()


class TestFaultyNetworkBehaviors:
    def test_blackout_fails_tcp_inside_window_only(self):
        ca, leaf, network, _ = make_rig(seed=73)
        plan = FaultPlan("t", (Blackout(start=NOW, end=NOW + HOUR),))
        faulty = FaultyNetwork(network, plan)
        assert _fetch(faulty, "Paris", ca.ocsp_url).failure is FailureKind.TCP
        assert _fetch(faulty, "Paris", ca.ocsp_url, now=NOW + HOUR).ok

    def test_error_burst_yields_http_status(self):
        ca, leaf, network, _ = make_rig(seed=74)
        plan = FaultPlan("t", (ErrorBurst(status_code=502, period=4 * HOUR,
                                          duty=HOUR, phase=NOW),))
        faulty = FaultyNetwork(network, plan)
        inside = _fetch(faulty, "Paris", ca.ocsp_url, now=NOW)
        assert inside.failure is FailureKind.HTTP
        assert inside.status_code == 502
        assert _fetch(faulty, "Paris", ca.ocsp_url, now=NOW + 2 * HOUR).ok

    def test_dns_failure_bills_only_the_resolver_rtt(self):
        ca, leaf, network, _ = make_rig(seed=75)
        plan = FaultPlan("t", (RequestDrop(rate=1.0, failure="DNS"),))
        faulty = FaultyNetwork(network, plan)
        result = _fetch(faulty, "Paris", ca.ocsp_url)
        assert result.failure is FailureKind.DNS
        assert result.elapsed_ms == DNS_RTT_MS

    def test_latency_spike_inflates_elapsed_only(self):
        ca, leaf, network, _ = make_rig(seed=76)
        plan = FaultPlan("t", (LatencySpike(added_ms=250.0),))
        faulty = FaultyNetwork(network, plan)
        plain = _fetch(network, "Paris", ca.ocsp_url)
        spiked = _fetch(faulty, "Paris", ca.ocsp_url)
        assert spiked.ok
        assert spiked.elapsed_ms == pytest.approx(plain.elapsed_ms + 250.0)
        assert spiked.response.body == plain.response.body

    def test_request_drop_is_seeded_and_partial(self):
        ca, leaf, network, _ = make_rig(seed=77)
        plan = FaultPlan("t", (RequestDrop(rate=0.5),), seed=9)
        faulty = FaultyNetwork(network, plan)
        outcomes = [_fetch(faulty, "Paris", ca.ocsp_url, now=NOW + i).ok
                    for i in range(40)]
        assert outcomes == [_fetch(faulty, "Paris", ca.ocsp_url,
                                   now=NOW + i).ok for i in range(40)]
        assert any(outcomes) and not all(outcomes)

    def test_stale_serve_breaks_verification_not_transport(self):
        from repro.ocsp import CertID, OCSPRequest
        ca, leaf, network, _ = make_rig(seed=78)
        cert_id = CertID.for_certificate(leaf, ca.certificate)
        request_der = OCSPRequest.for_single(cert_id).encode()
        plan = FaultPlan("t", (StaleServe(age=5 * DAY),))
        faulty = FaultyNetwork(network, plan)
        later = NOW + 6 * DAY  # responder history reaches back past age
        result = _fetch(faulty, "Paris", ca.ocsp_url, body=request_der,
                        now=later)
        assert result.ok  # transport unaffected
        check = verify_response(result.response.body, cert_id,
                                ca.certificate, later)
        assert not check.ok and check.error is OCSPError.EXPIRED

    def test_tampered_bodies_fail_verification(self):
        from repro.ocsp import CertID, OCSPRequest
        ca, leaf, network, _ = make_rig(seed=79)
        cert_id = CertID.for_certificate(leaf, ca.certificate)
        request_der = OCSPRequest.for_single(cert_id).encode()
        expected = {"malformed": OCSPError.MALFORMED,
                    "truncated": OCSPError.MALFORMED,
                    "unauthorized": OCSPError.ERROR_STATUS,
                    "try_later": OCSPError.ERROR_STATUS}
        for mode, error in expected.items():
            plan = FaultPlan("t", (BodyTamper(mode=mode),))
            faulty = FaultyNetwork(network, plan)
            result = _fetch(faulty, "Paris", ca.ocsp_url, body=request_der)
            assert result.ok, mode
            check = verify_response(result.response.body, cert_id,
                                    ca.certificate, NOW)
            assert not check.ok and check.error is error, mode

    def test_extra_bindings_win_without_touching_inner(self):
        from repro.simnet import HTTPRequest, HTTPResponse
        ca, leaf, network, _ = make_rig(seed=80)
        extra = Network()
        extra.bind("side.test", extra.add_origin(
            "side", "us-east",
            lambda request, now: HTTPResponse(status_code=200, body=b"side")))
        faulty = FaultyNetwork(network, extra=extra)
        side = faulty.fetch("Paris", HTTPRequest(method="GET",
                                                 url="http://side.test/"), NOW)
        assert side.ok and side.response.body == b"side"
        assert network.get_binding("side.test") is None
        assert _fetch(faulty, "Paris", ca.ocsp_url).ok


class TestClientPolicies:
    def test_backoff_schedule_is_cumulative(self):
        policy = client_policy("must-staple-hard-fail")
        assert policy.backoff_schedule(3) == [0, policy.backoff_s,
                                              policy.backoff_s * 3]

    def test_policy_round_trip(self):
        for name in ("default", "firefox-soft-fail", "must-staple-hard-fail",
                     "no-check"):
            policy = client_policy(name)
            assert type(policy).from_dict(policy.to_dict()) == policy

    def test_for_browser_mapping(self):
        from repro.browser import BrowserPolicy, by_label
        policies = by_label()
        firefox = for_browser(policies["Firefox 60 (Linux)"])
        assert firefox.name == "must-staple-hard-fail"
        chrome = for_browser(policies["Chrome 66 (Linux)"])
        assert chrome.name == "no-check"
        fetcher = for_browser(BrowserPolicy("Hypothetical", "Linux",
                                            fallback_own_ocsp=True))
        assert fetcher.name == "firefox-soft-fail"


class TestClientFailover:
    def test_failover_tries_every_advertised_url(self):
        ca, leaf, network, _ = make_rig(
            seed=81, ocsp_urls=("http://dead.faults81.test",
                                "http://ocsp.faults81.test"))
        assert len(leaf.ocsp_urls) == 2
        client = OCSPClient(network)
        result = client.check(leaf, ca.certificate, NOW)
        assert result.ok and result.status is CertStatus.GOOD
        assert len(result.attempts) == 2
        assert result.attempts[0].failure is FailureKind.DNS
        assert result.attempts[1].ok
        assert result.total_elapsed_ms == pytest.approx(
            sum(fetch.elapsed_ms for fetch in result.attempts))

    def test_no_failover_policy_stops_at_first_url(self):
        from repro.faults import ClientPolicy
        ca, leaf, network, _ = make_rig(
            seed=82, ocsp_urls=("http://dead.faults82.test",
                                "http://ocsp.faults82.test"))
        client = OCSPClient(network, policy=ClientPolicy("one", failover=False))
        result = client.check(leaf, ca.certificate, NOW)
        assert not result.ok
        assert len(result.attempts) == 1

    def test_retries_advance_the_clock_past_an_outage(self):
        ca, leaf, network, origin = make_rig(seed=83)
        origin.add_outage(OutageWindow(NOW - 1, NOW + 1))
        client = OCSPClient(network, policy=MUST_STAPLE_HARD_FAIL)
        result = client.check(leaf, ca.certificate, NOW)
        # Round 1 hits the outage; the backoff round, two (simulated)
        # seconds later, lands after it and succeeds.
        assert result.ok
        assert len(result.attempts) == 2

    def test_attempt_timeout_counts_and_fails(self):
        from repro.faults import ClientPolicy
        ca, leaf, network, _ = make_rig(seed=84)
        policy = ClientPolicy("tiny", attempt_timeout_ms=1.0)
        client = OCSPClient(network, policy=policy)
        result = client.check(leaf, ca.certificate, NOW)
        assert not result.ok
        assert result.timeouts == len(result.attempts) > 0

    def test_no_check_policy_skips_everything(self):
        ca, leaf, network, _ = make_rig(seed=85)
        client = OCSPClient(network, policy=NO_CHECK)
        result = client.check(leaf, ca.certificate, NOW)
        assert result.skipped and not result.ok
        assert client.requests_sent == 0

    def test_post_hits_advertised_url_verbatim(self):
        """Regression: the client must not append a trailing slash."""
        from repro.simnet import HTTPResponse
        seen = []
        inner_ca, inner_leaf, inner_network, _ = make_rig(seed=86)

        def echo(request, now):
            seen.append(request.url)
            return inner_network.fetch("Paris", ocsp_post(
                inner_ca.ocsp_url, request.body), now).response

        url = "http://alias.faults86.test/ocsp/endpoint"
        network = Network()
        network.bind("alias.faults86.test",
                     network.add_origin("alias-86", "us-east", echo))
        client = OCSPClient(network)
        result = client.check(inner_leaf, inner_ca.certificate, NOW, url=url)
        assert result.ok
        assert seen == [url]

    def test_scanner_post_url_verbatim(self):
        """Regression: HourlyScanner/AlexaAvailability probe site.url
        exactly as advertised (no appended '/')."""
        world = MeasurementWorld(SMALL_WORLD)
        seen = []
        original_fetch = world.network.fetch

        class Spy:
            def fetch(self, vantage, request, now):
                seen.append(request.url)
                return original_fetch(vantage, request, now)

        scanner = HourlyScanner(world, network=Spy())
        target = world.scan_targets()[0]
        scanner.probe(target, "Paris", NOW + HOUR)
        assert seen == [target.site.url]
        seen.clear()
        availability = AlexaAvailability(world, network=Spy())
        availability.site_reachable(world.sites[0], "Paris", NOW + HOUR)
        assert seen == [world.sites[0].url]


class TestCRLFallback:
    def test_crl_rescues_good_and_revoked(self):
        ca, leaf, network, origin = make_rig(seed=87, crl_service=True)
        origin.add_outage(OutageWindow(NOW - 1, NOW + 2 * DAY))
        client = OCSPClient(network, policy=MUST_STAPLE_HARD_FAIL)
        result = client.check(leaf, ca.certificate, NOW)
        assert result.ok and result.via_crl
        assert result.status is CertStatus.GOOD
        assert result.crl_status is CertStatus.GOOD

        ca.revoke(leaf, NOW - 2 * DAY, reason=1)
        revoked = client.check(leaf, ca.certificate, NOW + DAY + HOUR)
        assert revoked.ok and revoked.via_crl
        assert revoked.status is CertStatus.REVOKED

    def test_without_fallback_the_outage_is_fatal(self):
        from repro.faults import FIREFOX_SOFT_FAIL
        ca, leaf, network, origin = make_rig(seed=88, crl_service=True)
        origin.add_outage(OutageWindow(NOW - 1, NOW + DAY))
        client = OCSPClient(network, policy=FIREFOX_SOFT_FAIL)
        result = client.check(leaf, ca.certificate, NOW)
        assert not result.ok and not result.via_crl


def _dump(dataset) -> str:
    stream = io.StringIO()
    dump_dataset(dataset, stream)
    return stream.getvalue()


CHAOS_CAMPAIGN = ScanCampaignConfig(
    world=SMALL_WORLD, interval=12 * HOUR,
    start=MEASUREMENT_START, end=MEASUREMENT_START + DAY,
    target_chunks=2)


class TestBaselineByteIdentity:
    def test_empty_plan_scan_is_byte_identical(self):
        world = MeasurementWorld(SMALL_WORLD)
        plain = HourlyScanner(world, interval=12 * HOUR).run(
            NOW, NOW + DAY)
        wrapped = HourlyScanner(
            world, interval=12 * HOUR,
            network=FaultyNetwork(world.network)).run(NOW, NOW + DAY)
        assert wrapped.content_digest() == plain.content_digest()
        assert _dump(wrapped) == _dump(plain)

    def test_empty_plan_fig4_series_identical(self):
        world = MeasurementWorld(SMALL_WORLD)
        times = [NOW, NOW + 12 * HOUR]
        plain = AlexaAvailability(world).series(times)
        wrapped = AlexaAvailability(
            world, network=FaultyNetwork(world.network)).series(times)
        assert wrapped == plain

    def test_chaos_baseline_reproduces_fig3_dataset(self):
        fig3 = run_experiment("fig3", config=CHAOS_CAMPAIGN, cache=False)
        chaos = run_experiment(
            "chaos-availability",
            config=ChaosAvailabilityConfig(campaign=CHAOS_CAMPAIGN,
                                           scenarios=("baseline",)),
            cache=False)
        assert (_dump(chaos.artifacts["datasets"]["baseline"])
                == _dump(fig3.artifacts["dataset"]))
        assert chaos.summary["scenarios"]["baseline"][
            "overall_failure_rate"] == fig3.summary["overall_failure_rate"]


class TestChaosWorkerIndependence:
    def test_chaos_availability_bytes_equal_at_any_worker_count(self, tmp_path):
        config = ChaosAvailabilityConfig(
            campaign=CHAOS_CAMPAIGN,
            scenarios=("baseline", "regional-blackout"))
        serial = run_experiment("chaos-availability", config=config,
                                workers=1, cache_dir=tmp_path / "serial")
        parallel = run_experiment("chaos-availability", config=config,
                                  workers=3, cache_dir=tmp_path / "parallel")
        assert serial.rows == parallel.rows
        assert serial.series == parallel.series
        assert serial.summary == parallel.summary
        for name in config.scenarios:
            assert (_dump(serial.artifacts["datasets"][name])
                    == _dump(parallel.artifacts["datasets"][name]))

    def test_chaos_clients_bytes_equal_at_any_worker_count(self, tmp_path):
        config = ChaosClientConfig(
            world=SMALL_WORLD,
            scenarios=("baseline", "regional-blackout"),
            policies=("firefox-soft-fail", "must-staple-hard-fail"),
            times=(NOW + HOUR,), vantages=("Paris", "Seoul"))
        serial = run_experiment("chaos-client-outcomes", config=config,
                                workers=1, cache_dir=tmp_path / "serial")
        parallel = run_experiment("chaos-client-outcomes", config=config,
                                  workers=4, cache_dir=tmp_path / "parallel")
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary

    def test_warm_cache_executes_zero_shards(self, tmp_path):
        config = ChaosAvailabilityConfig(campaign=CHAOS_CAMPAIGN,
                                         scenarios=("baseline",))
        cold = run_experiment("chaos-availability", config=config,
                              workers=2, cache_dir=tmp_path)
        warm = run_experiment("chaos-availability", config=config,
                              workers=1, cache_dir=tmp_path)
        assert cold.manifest.computed > 0
        assert warm.manifest.cached == len(warm.manifest.shards)
        assert warm.rows == cold.rows


class TestChaosClientOutcomes:
    def test_grid_semantics(self):
        config = ChaosClientConfig(
            world=SMALL_WORLD,
            scenarios=("baseline", "packet-loss"),
            policies=("firefox-soft-fail", "must-staple-hard-fail",
                      "no-check"),
            times=(NOW + HOUR,), vantages=("Paris", "Sydney"))
        result = run_experiment("chaos-client-outcomes", config=config,
                                cache=False)
        grid = result.summary["grid"]
        for name in config.scenarios:
            # Soft-fail and no-check clients always proceed.
            assert grid[f"{name}/firefox-soft-fail"]["broken_fraction"] == 0.0
            assert grid[f"{name}/no-check"]["proceed_fraction"] == 1.0
            assert grid[f"{name}/no-check"]["no_check_fraction"] == 1.0
            assert grid[f"{name}/no-check"]["mean_attempts"] == 0.0
        assert grid["baseline/must-staple-hard-fail"]["broken_fraction"] == 0.0
        # Packet loss hits CRL transport too, so some hard-fail
        # connections actually break.
        assert result.summary["hard_fail_broken"]["packet-loss"] > 0.0


class TestBrowserFallbackClient:
    def test_connect_uses_resilient_client_for_fallback(self):
        from repro.browser import BrowserPolicy, Verdict, connect
        from repro.webserver import IdealServer
        from repro.x509 import TrustStore
        ca, leaf, network, origin = make_rig(seed=89, crl_service=True)
        origin.add_outage(OutageWindow(NOW - 1, NOW + DAY))
        # The responder is dark, so the server cannot obtain a staple
        # and the browser must fall back to its own fetch.
        server = IdealServer(chain=[leaf, ca.certificate],
                             issuer=ca.certificate, network=network)
        browser = BrowserPolicy("Fallback FF", "Linux",
                                fallback_own_ocsp=True)
        trust = TrustStore([ca.certificate])

        # Plain fallback: responder dark, no staple -> soft fail.
        bare = connect(browser, server, "faults.example", trust, NOW,
                       network=network)
        assert bare.verdict is Verdict.ACCEPTED_SOFT_FAIL

        # Resilient client with CRL fallback: verified GOOD -> accepted.
        client = OCSPClient(network, policy=MUST_STAPLE_HARD_FAIL)
        resilient = connect(browser, server, "faults.example", trust, NOW,
                            ocsp_client=client)
        assert resilient.verdict is Verdict.ACCEPTED
        assert resilient.own_ocsp_request_sent
