"""The serve stack: transport-neutral core, Host routing, daemon.

The load-bearing property throughout: every transport — the in-process
simnet exchange, the ServeApp routing step, and the asyncio daemon over
real TCP — answers byte-identically for the same (request bytes,
simulated clock), because they all drive the same responder core.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.ca import OCSPResponder, ResponderProfile
from repro.datasets import WorldConfig
from repro.ocsp import OCSPRequest, ResponseArtifact
from repro.serve import (
    ServeApp,
    ServeDaemon,
    expected_digest,
    replay_inprocess,
    replay_tcp,
    synthesize_traffic,
)
from repro.simnet import DAY, HOUR, HTTPRequest, ocsp_http_exchange, ocsp_request

URL = "http://ocsp.fixture.test"


@pytest.fixture()
def app(fresh_responder):
    built = ServeApp(now=1_525_000_000)
    built.add_responder("ocsp.fixture.test", fresh_responder)
    return built


def _cache(app):
    return app.stats()["cache_by_host"]["ocsp.fixture.test"]


def _request(cert_id, nonce=None, prefer_get=False):
    der = OCSPRequest.for_single(cert_id, nonce=nonce).encode()
    return ocsp_request(URL, der, prefer_get=prefer_get)


# ---------------------------------------------------------------------------
# transport-neutral byte-identity (the redesigned API's contract)
# ---------------------------------------------------------------------------

class TestByteIdentity:

    def test_post_matches_core(self, app, responder, cert_id):
        request = _request(cert_id)
        direct = ocsp_http_exchange(responder, request, app.now)
        served = app.exchange(request)
        assert served.status_code == direct.status_code == 200
        assert served.body == direct.body
        assert served.headers == direct.headers

    def test_warm_cache_hit_is_still_identical(self, app, responder, cert_id):
        request = _request(cert_id)
        direct = ocsp_http_exchange(responder, request, app.now)
        app.exchange(request)
        assert _cache(app)["hits"] == 0
        again = app.exchange(request)
        assert _cache(app)["hits"] == 1
        assert again.body == direct.body

    def test_get_transport_identical(self, app, responder, cert_id):
        request = _request(cert_id, prefer_get=True)
        assert request.method == "GET"
        direct = ocsp_http_exchange(responder, request, app.now)
        assert app.exchange(request).body == direct.body
        # ...and the warm hit too (GET decodes to the same DER).
        assert app.exchange(request).body == direct.body

    def test_nonced_request_identical_and_cached_separately(
            self, app, responder, cert_id):
        plain = _request(cert_id)
        nonced = _request(cert_id, nonce=b"\x01" * 16)
        app.exchange(plain)
        direct = ocsp_http_exchange(responder, nonced, app.now)
        served = app.exchange(nonced)
        assert served.body == direct.body
        assert served.body != app.exchange(plain).body

    def test_undecodable_get_path_identical(self, app, responder):
        request = HTTPRequest("GET", URL + "/%%%not-base64")
        direct = ocsp_http_exchange(responder, request, app.now)
        served = app.exchange(request)
        assert served.status_code == direct.status_code == 200
        assert served.body == direct.body  # malformed-request envelope

    def test_empty_get_path_identical(self, app, responder):
        request = HTTPRequest("GET", URL + "/")
        assert app.exchange(request).body == \
            ocsp_http_exchange(responder, request, app.now).body

    def test_other_methods_405(self, app, responder, cert_id):
        der = OCSPRequest.for_single(cert_id).encode()
        request = HTTPRequest("PUT", URL, body=der)
        direct = ocsp_http_exchange(responder, request, app.now)
        served = app.exchange(request)
        assert served.status_code == direct.status_code == 405

    def test_unknown_host_404(self, app, cert_id):
        der = OCSPRequest.for_single(cert_id).encode()
        request = HTTPRequest("POST", "http://nobody.test/", body=der)
        assert app.exchange(request).status_code == 404

    def test_malformed_window_responder_never_cached(self, ca, now):
        """A transiently-malformed responder's body flips mid-epoch:
        inside the window the core answers junk without consulting or
        filling its cache, after it the real bytes — the app tracks
        the core exactly."""
        from repro.ca import MalformedWindow
        profile = ResponderProfile(
            update_interval=DAY,
            malformed_windows=(MalformedWindow(now, now + HOUR,
                                               "truncated"),))
        hostile = OCSPResponder(ca, URL, profile, epoch_start=now - 7 * DAY)
        core = OCSPResponder(ca, URL, profile, epoch_start=now - 7 * DAY)
        app = ServeApp(now=now)
        app.add_responder("ocsp.fixture.test", hostile)
        cert_id = _minted_cert_id(ca, now)
        request = _request(cert_id)
        # Inside the window: the malformed body, twice, never a hit.
        inside = ocsp_http_exchange(core, request, now)
        assert app.exchange(request, now=now).body == inside.body
        assert app.exchange(request, now=now).body == inside.body
        assert _cache(app) == {"entries": 0, "hits": 0, "misses": 0}
        # After the window closes (same generation epoch): real bytes.
        later = now + 2 * HOUR
        outside = ocsp_http_exchange(core, request, later)
        assert outside.body != inside.body
        assert app.exchange(request, now=later).body == outside.body
        assert app.exchange(request, now=later).body == outside.body
        assert _cache(app)["hits"] == 1

    def test_same_instant_revocation_answers_revoked(self, ca, now):
        """Regression: a revocation recorded at the instant being served
        moves the signing epoch, so the app stops serving the GOOD
        bytes it answered a moment earlier."""
        from repro.crypto import generate_keypair
        from repro.ocsp import CertID, CertStatus, OCSPResponse
        profile = ResponderProfile(update_interval=DAY)
        leaf = ca.issue_leaf("revoked-now.example",
                             generate_keypair(512, rng=78),
                             not_before=now - DAY)
        cert_id = CertID.for_certificate(leaf, ca.certificate)
        app = ServeApp(now=now)
        app.add_responder("ocsp.fixture.test", OCSPResponder(
            ca, URL, profile, epoch_start=now - 7 * DAY))
        request = _request(cert_id)
        before = app.exchange(request)
        ca.revoke(leaf, now - 60)
        after = app.exchange(request)
        fresh = OCSPResponder(ca, URL, profile, epoch_start=now - 7 * DAY)
        assert after.body == ocsp_http_exchange(fresh, request, now).body
        assert after.body != before.body
        single = OCSPResponse.from_der(after.body).basic.single_responses[0]
        assert single.cert_status is CertStatus.REVOKED

    def test_end_to_end_resign_at_next_update(self, ca, now):
        """A pre-generated responder's bytes depend only on its signing
        epoch: up to and at nextUpdate the app serves the epoch's one
        signed artifact, byte-identical to the core at each instant
        (the old nextUpdate fencepost never changed a byte)."""
        responder = OCSPResponder(
            ca, URL, ResponderProfile(update_interval=DAY,
                                      validity_period=2 * HOUR,
                                      this_update_margin=0),
            epoch_start=now - 7 * DAY)
        app = ServeApp(now=now)
        app.add_responder("ocsp.fixture.test", responder)
        cert_id = _minted_cert_id(ca, now)
        request = _request(cert_id)
        first = app.exchange(request)
        artifact = ResponseArtifact.from_body(first.body)
        assert artifact.next_update == now + 2 * HOUR
        # Same generation epoch one second before expiry: cache hit.
        assert app.exchange(request, now=artifact.next_update - 1).body \
            == first.body
        # At exactly nextUpdate: byte-identical to what the core
        # answers at that instant.
        at_boundary = app.exchange(request, now=artifact.next_update)
        direct = ocsp_http_exchange(responder, request, artifact.next_update)
        assert at_boundary.body == direct.body
        assert _cache(app)["misses"] == 1


def _minted_cert_id(ca, now):
    from repro.crypto import generate_keypair
    from repro.ocsp import CertID
    leaf = ca.issue_leaf("cached.example", generate_keypair(512, rng=77),
                         not_before=now - DAY)
    return CertID.for_certificate(leaf, ca.certificate)


class TestServeCLI:

    def test_cache_capacity_is_an_error(self):
        """The responder core owns the one response cache; ``repro
        serve`` has no capacity knob, and argparse rejects one."""
        from repro.cli import main
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--port", "0", "--cache-capacity", "1"])
        assert exited.value.code == 2


# ---------------------------------------------------------------------------
# the DER core refuses HTTP-shaped arguments
# ---------------------------------------------------------------------------

class TestRespondShim:

    def test_handle_rejects_http_shaped_arguments(self, responder, cert_id,
                                                  now):
        with pytest.raises(TypeError, match="DER request bytes"):
            responder.handle(_request(cert_id), now)


# ---------------------------------------------------------------------------
# ResponseArtifact wire recovery
# ---------------------------------------------------------------------------

class TestResponseArtifact:

    def test_from_body_signed(self, responder, cert_id, now):
        der = OCSPRequest.for_single(cert_id).encode()
        artifact = responder.handle(der, now)
        recovered = ResponseArtifact.from_body(artifact.body)
        assert recovered.source == "fetched"
        assert recovered.produced_at == artifact.produced_at
        assert recovered.next_update == artifact.next_update

    def test_from_body_error_envelope(self, responder, now):
        artifact = responder.handle(None, now)
        assert artifact.source == "error:malformed_request"
        recovered = ResponseArtifact.from_body(artifact.body)
        assert recovered.source == "error:malformed_request"
        assert recovered.next_update is None

    def test_from_body_garbage(self):
        recovered = ResponseArtifact.from_body(b"\xff\x00garbage")
        assert recovered.source == "undecodable"
        assert recovered.produced_at is None

    def test_fresh_fencepost(self):
        artifact = ResponseArtifact(body=b"x", next_update=100)
        assert artifact.fresh(99)
        assert not artifact.fresh(100)
        assert ResponseArtifact(body=b"x").fresh(10**10)


# ---------------------------------------------------------------------------
# the daemon over real TCP (robustness: nothing takes it down)
# ---------------------------------------------------------------------------

def _post(host, path, body):
    return (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


async def _rpc(port, raw):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    writer.write_eof()
    data = await reader.read(1 << 20)
    writer.close()
    return data


async def _until_closed(port, raw):
    """Send *raw* without half-closing; read until the daemon closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(), timeout=2.0)
    finally:
        writer.close()


def _status(raw):
    return int(raw.split(b"\r\n", 1)[0].split(b" ")[1])


def _body(raw):
    return raw.partition(b"\r\n\r\n")[2]


class TestDaemonTCP:

    HOST = "ocsp.fixture.test"

    @pytest.fixture()
    def run_daemon(self, app):
        def runner(probes):
            async def main():
                daemon = ServeDaemon(app, port=0)
                _, port = await daemon.start()
                try:
                    return await probes(port, daemon)
                finally:
                    await daemon.close()
            return asyncio.run(main())
        return runner

    def test_post_and_get_byte_identical(self, run_daemon, app, responder,
                                         cert_id):
        import base64
        import urllib.parse
        der = OCSPRequest.for_single(cert_id).encode()
        direct = ocsp_http_exchange(responder, _request(cert_id), app.now)
        encoded = urllib.parse.quote(base64.b64encode(der).decode(), safe="")

        async def probes(port, daemon):
            post_raw = await _rpc(port, _post(self.HOST, "/", der))
            get_raw = await _rpc(
                port, f"GET /{encoded} HTTP/1.1\r\n"
                      f"Host: {self.HOST}\r\n\r\n".encode())
            return post_raw, get_raw

        post_raw, get_raw = run_daemon(probes)
        assert _status(post_raw) == 200
        assert _body(post_raw) == direct.body
        assert _body(get_raw) == direct.body

    def test_hostile_mutants_as_post_bodies(self, run_daemon, app, responder,
                                            cert_id):
        """Structure-aware DER mutants thrown at the HTTP layer: every
        one gets an answer, none kills the daemon."""
        from repro.hostile import mutate, seed_world
        world = seed_world()
        mutants = [mutate(world.documents["ocsp"], mutation_id, 4242,
                          donors=world.donors).der
                   for mutation_id in range(16)]
        good = OCSPRequest.for_single(cert_id).encode()

        async def probes(port, daemon):
            statuses = []
            for der in mutants:
                raw = await _rpc(port, _post(self.HOST, "/", der))
                statuses.append(_status(raw))
            survivor = await _rpc(port, _post(self.HOST, "/", good))
            return statuses, survivor

        statuses, survivor = run_daemon(probes)
        assert all(code == 200 for code in statuses)  # OCSP error envelopes
        assert _status(survivor) == 200
        direct = ocsp_http_exchange(responder, _request(cert_id), app.now)
        assert _body(survivor) == direct.body

    def test_oversized_body_413(self, run_daemon):
        async def probes(port, daemon):
            return await _rpc(port, _post(self.HOST, "/", b"x" * (1 << 17)))
        assert _status(run_daemon(probes)) == 413

    def test_garbage_request_line_400(self, run_daemon):
        async def probes(port, daemon):
            return await _rpc(port, b"\x16\x03\x01 not http\r\n\r\n")
        assert _status(run_daemon(probes)) == 400

    def test_bad_content_length_400(self, run_daemon):
        async def probes(port, daemon):
            return await _rpc(
                port, b"POST / HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: banana\r\n\r\n")
        assert _status(run_daemon(probes)) == 400

    def test_oversized_headers_431(self, run_daemon):
        async def probes(port, daemon):
            filler = b"X-Filler: " + b"a" * 30_000 + b"\r\n"
            return await _rpc(
                port, b"GET /-/healthz HTTP/1.1\r\nHost: x\r\n"
                      + filler + b"\r\n")
        assert _status(run_daemon(probes)) == 431

    def test_connection_drop_mid_request_daemon_survives(
            self, run_daemon, app, responder, cert_id):
        der = OCSPRequest.for_single(cert_id).encode()

        async def probes(port, daemon):
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST / HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 500\r\n\r\nonly-a-fragment")
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.02)
            raw = await _rpc(port, _post(self.HOST, "/", der))
            return raw, daemon.dropped_connections

        raw, dropped = run_daemon(probes)
        assert _status(raw) == 200
        assert dropped == 1

    def test_get_quoting_edge_cases(self, run_daemon, app, responder):
        """Unquoted '+' and '/', doubly-quoted padding, trailing junk —
        each answers exactly what the in-process transport answers."""
        paths = ["/AAAA", "/%2B%2F%3D", "/SGVsbG8=", "/a/b/SGVsbG8%3D",
                 "/" ]

        async def probes(port, daemon):
            raws = []
            for path in paths:
                raws.append(await _rpc(
                    port, f"GET {path} HTTP/1.1\r\n"
                          f"Host: {self.HOST}\r\n\r\n".encode()))
            return raws

        raws = run_daemon(probes)
        for path, raw in zip(paths, raws):
            direct = ocsp_http_exchange(
                responder, HTTPRequest("GET", URL + path), app.now)
            assert _status(raw) == direct.status_code, path
            assert _body(raw) == direct.body, path

    @pytest.mark.parametrize("head", [
        b"GET /-/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET /-/healthz HTTP/1.0\r\n\r\n",
    ], ids=["http11-close", "http10"])
    def test_closing_request_closes_the_connection(self, run_daemon, head):
        """RFC 9112 §9.6: the daemon closes after answering, so a
        client reading to EOF is not left waiting."""
        async def probes(port, daemon):
            return await _until_closed(port, head)

        raw = run_daemon(probes)
        assert _status(raw) == 200 and _body(raw) == b"ok"
        assert b"\r\nConnection: close\r\n" in raw

    def test_keep_alive_persists_until_close(self, run_daemon):
        """An HTTP/1.0 keep-alive request leaves the connection open for
        the pipelined request behind it, whose ``close`` ends it."""
        async def probes(port, daemon):
            return await _until_closed(
                port, b"GET /-/healthz HTTP/1.0\r\n"
                      b"Connection: Keep-Alive\r\n\r\n"
                      b"GET /-/healthz HTTP/1.1\r\nHost: x\r\n"
                      b"Connection: close\r\n\r\n")

        first, _, second = run_daemon(probes).partition(b"ok")
        assert b"\r\nConnection: keep-alive\r\n" in first
        assert b"\r\nConnection: close\r\n" in second
        assert second.endswith(b"ok")

    def test_unknown_host_404_and_control_endpoints(self, run_daemon):
        async def probes(port, daemon):
            missing = await _rpc(port, _post("nosuch.test", "/", b"x"))
            health = await _rpc(
                port, b"GET /-/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            stats = await _rpc(
                port, b"GET /-/stats HTTP/1.1\r\nHost: x\r\n\r\n")
            return missing, health, stats

        missing, health, stats = run_daemon(probes)
        assert _status(missing) == 404
        assert _status(health) == 200 and _body(health) == b"ok"
        import json
        document = json.loads(_body(stats))
        assert document["daemon"]["connections"] >= 2


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------

class TestLoadgen:

    def test_synthesis_is_deterministic(self, small_world):
        first = synthesize_traffic(small_world, 50, seed=9)
        second = synthesize_traffic(small_world, 50, seed=9)
        assert [(r.method, r.url, r.body) for r in first] == \
            [(r.method, r.url, r.body) for r in second]
        different = synthesize_traffic(small_world, 50, seed=10)
        assert [(r.method, r.url, r.body) for r in first] != \
            [(r.method, r.url, r.body) for r in different]

    def test_inprocess_and_tcp_replays_match_core(self, small_world):
        from repro.serve import direct_responses
        traffic = synthesize_traffic(small_world, 120, seed=5,
                                     get_fraction=0.4, nonce_fraction=0.1)
        app = ServeApp.for_world(small_world)
        expected = expected_digest(
            direct_responses(small_world, traffic, app.now))
        report = replay_inprocess(app, traffic)
        assert report.body_digest == expected
        assert set(report.status_counts) == {200}

        tcp_app = ServeApp.for_world(small_world)

        async def serve_then_replay():
            daemon = ServeDaemon(tcp_app, port=0)
            _, port = await daemon.start()
            try:
                return await asyncio.to_thread(
                    _replay_in_fresh_loop, port, traffic)
            finally:
                await daemon.close()

        tcp_report = asyncio.run(serve_then_replay())
        assert tcp_report.body_digest == expected

    def test_report_percentiles(self):
        from repro.serve import LoadReport
        report = LoadReport(requests=4, duration_s=2.0,
                            latencies_ms=[1.0, 2.0, 3.0, 4.0])
        assert report.req_per_s == 2.0
        assert report.percentile_ms(0) == 1.0
        assert report.percentile_ms(50) == 3.0
        assert report.percentile_ms(99) == 4.0


def _replay_in_fresh_loop(port, traffic):
    return replay_tcp("127.0.0.1", port, traffic, concurrency=4)


class TestIdentityShard:
    """``serve-loadtest``'s identity rows compare the app with a ground
    truth that shares no response cache with it."""

    PAYLOAD = {"world": WorldConfig(n_responders=40, certs_per_responder=1,
                                    seed=13).to_dict(),
               "seed": 6960, "requests": 300, "get_fraction": 0.25,
               "nonce_fraction": 0.03, "lo": 0, "hi": 300}

    def test_identical_when_nothing_is_wrong(self):
        from repro.serve.experiments import serve_identity_shard
        row, = serve_identity_shard(self.PAYLOAD)
        assert row["mismatches"] == 0
        assert row["served_digest"] == row["direct_digest"]
        assert row["cache_hits"] > 0

    def test_sees_a_corrupted_served_cache_entry(self, monkeypatch):
        """The first signed answer is corrupted as it is stored, so
        the app serves the bad bytes every time.  A ground truth read
        from the same cache would serve them too and see nothing."""
        import dataclasses
        from repro.serve.experiments import serve_identity_shard
        exchange = ServeApp.exchange
        corrupted = []

        def exchange_then_corrupt(app, request, now=None):
            response = exchange(app, request, now)
            if corrupted:
                return response
            for entry in app.responders[request.host]._responses.values():
                if entry[2] is not None and entry[2].source == "signed" \
                        and entry[2].body == response.body:
                    body = bytes(response.body[:-1]) + bytes(
                        [response.body[-1] ^ 0x01])
                    entry[2] = ResponseArtifact(body=body, source="signed")
                    corrupted.append(request)
                    return dataclasses.replace(response, body=body)
            return response

        monkeypatch.setattr(ServeApp, "exchange", exchange_then_corrupt)
        row, = serve_identity_shard(self.PAYLOAD)
        assert corrupted
        assert row["mismatches"] > 0
        assert row["served_digest"] != row["direct_digest"]


def test_serve_does_not_load_the_monitor_package():
    # A daemon without --access-log never needs the reducers, replay
    # or windows modules; only the access-emit path imports them.
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, repro.cli, repro.serve; "
             "print('repro.monitor.reducers' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
