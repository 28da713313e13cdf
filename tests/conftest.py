"""Shared fixtures: a small PKI, a small measurement world, scan data.

Session-scoped fixtures keep the suite fast: the expensive artefacts
(worlds, scans, corpora) build once and are treated as read-only by
tests.
"""

from __future__ import annotations

import pytest

from repro.ca import CertificateAuthority, OCSPResponder, ResponderProfile
from repro.crypto import KeyPool, generate_keypair
from repro.datasets import (
    AlexaConfig,
    AlexaModel,
    CertificateCorpus,
    CorpusConfig,
    MeasurementWorld,
    WorldConfig,
)
from repro.ocsp import CertID
from repro.scanner import HourlyScanner
from repro.simnet import DAY, HOUR, MEASUREMENT_START, Network, ocsp_service

NOW = MEASUREMENT_START


@pytest.fixture(scope="session")
def now():
    """The canonical 'current time' for tests: the measurement start."""
    return NOW


@pytest.fixture(scope="session")
def key_pool():
    """A shared pool of 512-bit keys."""
    return KeyPool(size=8, bits=512, seed=99)


@pytest.fixture(scope="session")
def ca(now):
    """A well-behaved root CA."""
    return CertificateAuthority.create_root(
        "Fixture CA", "http://ocsp.fixture.test", "http://crl.fixture.test/ca.crl",
        not_before=now - 365 * DAY,
    )


@pytest.fixture(scope="session")
def leaf_key():
    """A leaf keypair."""
    return generate_keypair(512, rng=1234)


@pytest.fixture(scope="session")
def leaf(ca, leaf_key, now):
    """A plain leaf certificate from the fixture CA."""
    return ca.issue_leaf("plain.example", leaf_key, not_before=now - DAY)


@pytest.fixture(scope="session")
def staple_leaf(ca, leaf_key, now):
    """A Must-Staple leaf certificate."""
    return ca.issue_leaf("staple.example", leaf_key, not_before=now - DAY,
                         must_staple=True)


@pytest.fixture(scope="session")
def cert_id(leaf, ca):
    """The CertID for the plain leaf."""
    return CertID.for_certificate(leaf, ca.certificate)


def _fixture_responder(ca, now):
    return OCSPResponder(
        ca, "http://ocsp.fixture.test",
        ResponderProfile(update_interval=None, this_update_margin=HOUR),
        epoch_start=now - 7 * DAY,
    )


@pytest.fixture(scope="session")
def responder(ca, now):
    """A well-behaved on-demand responder for the fixture CA."""
    return _fixture_responder(ca, now)


@pytest.fixture()
def fresh_responder(ca, now):
    """The same responder with an empty response cache and zeroed
    counters, for tests that count hits and misses."""
    return _fixture_responder(ca, now)


@pytest.fixture(scope="session")
def fixture_network(ca, responder):
    """A network with the fixture responder bound."""
    network = Network()
    origin = network.add_origin("fixture-ocsp", "us-east", ocsp_service(responder))
    network.bind("ocsp.fixture.test", origin)
    return network


@pytest.fixture(scope="session")
def small_world():
    """A 40-responder measurement world (all event groups present)."""
    return MeasurementWorld(WorldConfig(n_responders=40, certs_per_responder=1,
                                        seed=13))


@pytest.fixture(scope="session")
def scan_dataset(small_world):
    """A 3-day, 12-hour-cadence scan over the small world."""
    scanner = HourlyScanner(small_world, interval=12 * HOUR)
    return scanner.run(NOW, NOW + 3 * DAY)


@pytest.fixture(scope="session")
def alexa_model():
    """A 4,000-domain Alexa sample."""
    return AlexaModel(AlexaConfig(size=4_000, seed=21))


@pytest.fixture(scope="session")
def corpus():
    """A 3,000-record certificate corpus."""
    return CertificateCorpus(CorpusConfig(size=3_000, seed=5))
