"""The measurement world: the simulated responder population.

This module assembles everything Section 5 of the paper measured into
one deterministic simulation: a population of OCSP responders (scaled
down from the paper's 536) with the measured mixture of behaviours,
the named outage events, the persistent per-vantage failures, and the
certificates served by each responder.

Every quantity is tied to a paper observation; see the group
definitions in :data:`EVENT_GROUPS` and the attribute quotas in
:class:`WorldConfig`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ca import (
    CertificateAuthority,
    MalformedWindow,
    OCSPResponder,
    ResponderProfile,
)
from ..canon import FieldCodec
from ..crypto import KeyPool
from ..ocsp import CertID
from ..simnet import (
    DAY,
    HOUR,
    MEASUREMENT_END,
    MEASUREMENT_START,
    FailureKind,
    Network,
    Origin,
    OutageWindow,
    at,
    ocsp_service,
)
from ..simnet.vantage import SERVICE_REGIONS, VANTAGE_POINTS
from ..x509 import Certificate

#: Paper population sizes (for scaling).
PAPER_RESPONDERS = 536
PAPER_CERTIFICATES = 14_634


@dataclass
class WorldConfig(FieldCodec):
    """Scale and mixture parameters for the measurement world."""

    n_responders: int = 134
    certs_per_responder: int = 2
    seed: int = 7
    start: int = MEASUREMENT_START
    end: int = MEASUREMENT_END

    # Attribute quotas — fractions of responders (paper Section 5.4).
    zero_margin_fraction: float = 0.172       # Fig 9: no thisUpdate margin
    future_this_update_fraction: float = 0.03  # Fig 9: future thisUpdate
    blank_next_update_fraction: float = 0.091  # Fig 8: blank nextUpdate
    long_validity_fraction: float = 0.02       # Fig 8: > 1 month
    serial20_fraction: float = 0.033           # Fig 7: 20 serials always
    serial_few_fraction: float = 0.015         # Fig 7: 2-5 serials
    multi_cert_fraction: float = 0.145         # Fig 6: >1 certificate
    pregenerated_fraction: float = 0.517       # §5.4: not on demand
    delegated_fraction: float = 0.60           # responses carrying 1 cert
    malformed_fraction: float = 0.016          # Fig 5: persistent garbage

    #: Per-vantage background transient failure probability (tuned so
    #: per-vantage success averages land near Figure 3: Virginia best
    #: at ~2.2% failures, São Paulo worst at ~5.7%).
    noise_rates: Dict[str, float] = field(default_factory=lambda: {
        "Oregon": 0.010,
        "Virginia": 0.006,
        "Sao-Paulo": 0.024,
        "Paris": 0.009,
        "Sydney": 0.013,
        "Seoul": 0.012,
    })

    def scale(self, paper_count: int) -> int:
        """Scale an absolute paper count to this world's population."""
        return max(1, round(paper_count * self.n_responders / PAPER_RESPONDERS))

    @property
    def scale_factor(self) -> float:
        """Multiplier mapping world counts back to paper scale."""
        return PAPER_RESPONDERS / self.n_responders


@dataclass
class EventGroup:
    """A named family of responders sharing infrastructure and fate."""

    name: str
    paper_count: int
    #: (start, duration_seconds, vantage subset or None) outages.
    outages: List[Tuple[int, int, Optional[Set[str]]]] = field(default_factory=list)
    #: Malformed-body windows applied to every member.
    malformed_windows: List[MalformedWindow] = field(default_factory=list)
    #: Profile template for members (None = drawn like everyone else).
    profile_overrides: Dict[str, object] = field(default_factory=dict)
    #: Persistent binding faults: {"dns": {...vantages}, "http_404": {...}}.
    persistent: Dict[str, Set[str]] = field(default_factory=dict)
    #: When persistent faults get fixed (digitalcertvalidation was
    #: repaired on Aug 31, 23:00).
    repaired_at: Optional[int] = None
    #: Alexa share: fraction of Alexa OCSP domains using this family.
    alexa_share: float = 0.0


def default_event_groups() -> List[EventGroup]:
    """Every named event the paper reports, with its time and scope."""
    return [
        # "all of our OCSP requests made to ocsp.comodoca.com failed at
        # 7pm, April 25 for two hours ... observed only at the clients
        # in Oregon, Sydney, and Seoul. 14 additional responders ...
        # CNAME ... or resolved to the same IP" — 15 responders total,
        # and via Figure 4 the event hit ~163K of 606K Alexa domains.
        EventGroup(
            name="comodo",
            paper_count=15,
            outages=[(at(2018, 4, 25, 19), 2 * HOUR,
                      {"Oregon", "Sydney", "Seoul"})],
            alexa_share=0.27,
        ),
        # "9 servers managed by Digicert were down at 9am, August 27
        # for 5 hours, which was only observed at the client in Seoul"
        # — impacting ~77K Alexa domains (Figure 4).
        EventGroup(
            name="digicert",
            paper_count=9,
            outages=[(at(2018, 8, 27, 9), 5 * HOUR, {"Seoul"})],
            alexa_share=0.13,
        ),
        # "five OCSP URLs are subdomains of *.digitalcertvalidation.com,
        # all of which return HTTP 404 errors to our measurement client
        # located in São Paulo" (wellsfargo.com's responder among them);
        # "fixed at 11pm, August 31".  ~318 Alexa domains (0.05%).
        EventGroup(
            name="digitalcertvalidation",
            paper_count=5,
            persistent={"http_404": {"Sao-Paulo"}},
            repaired_at=at(2018, 8, 31, 23),
            alexa_share=0.0005,
        ),
        # "all of our OCSP requests from the clients in Sydney to 16
        # OCSP servers managed by Certum failed at 5pm, August 9 for
        # two hours."
        EventGroup(
            name="certum",
            paper_count=16,
            outages=[(at(2018, 8, 9, 17), 2 * HOUR, {"Sydney"})],
            alexa_share=0.01,
        ),
        # "all of our OCSP requests to the servers managed by wosign
        # and startssl failed at 10pm, August 3 for an hour across the
        # regions."
        EventGroup(
            name="wosign-startssl",
            paper_count=2,
            outages=[(at(2018, 8, 3, 22), 1 * HOUR, None)],
            alexa_share=0.005,
        ),
        # "6 OCSP responders from *.sheca.com misbehaving and returning
        # the response '0' for all requests" — April 29 for 6 hours,
        # again July 28 at 5pm for 3 hours.
        EventGroup(
            name="sheca",
            paper_count=6,
            malformed_windows=[
                MalformedWindow(at(2018, 4, 29, 6), at(2018, 4, 29, 12), "zero"),
                MalformedWindow(at(2018, 7, 28, 17), at(2018, 7, 28, 20), "zero"),
            ],
            alexa_share=0.002,
        ),
        # "3 OCSP responders from postsigum.cz that began returning '0'
        # responses for all requests on May 1st ... disappeared at 9am
        # on May 12th for 17 hours, but began returning '0' responses
        # again after then."
        EventGroup(
            name="postsignum",
            paper_count=3,
            malformed_windows=[
                MalformedWindow(at(2018, 5, 1), at(2018, 5, 12, 9), "zero"),
                MalformedWindow(at(2018, 5, 13, 2), MEASUREMENT_END + DAY, "zero"),
            ],
            alexa_share=0.001,
        ),
        # "for two OCSP responders [identrust] we were never able to
        # make a successful OCSP request from any of our six vantage
        # points."
        EventGroup(
            name="identrust-unreachable",
            paper_count=2,
            outages=[(MEASUREMENT_START - DAY, MEASUREMENT_END - MEASUREMENT_START + 2 * DAY, None)],
            alexa_share=0.0,
        ),
        # "some OCSP servers such as http://ocsp.pki.wayport.net:2560
        # had become unavailable gradually during that time" — the
        # first-month declining success trend of Figure 3.
        EventGroup(
            name="wayport",
            paper_count=3,
            outages=[],  # filled per-member with staggered death dates
            alexa_share=0.0,
        ),
        # "3 OCSP responders are subdomains of hinet.net, all of which
        # set validityPeriod ... to 7,200 seconds and update them every
        # 7,200 seconds."
        EventGroup(
            name="hinet",
            paper_count=3,
            profile_overrides={"validity_period": 7200, "update_interval": 7200,
                               "this_update_margin": 0},
            alexa_share=0.002,
        ),
        # "a responder from ocspcnnicroot.cnnic.cn sets the
        # validityPeriod to 10,800 seconds and updates them at the same
        # rate" — and (footnote 17) runs multiple unsynchronized
        # backends behind one IP.
        EventGroup(
            name="cnnic",
            paper_count=1,
            profile_overrides={"validity_period": 10800, "update_interval": 10800,
                               "this_update_margin": 0, "stale_backends": 3,
                               "backend_skew": 1800},
            alexa_share=0.001,
        ),
        # "an OCSP responder, ocsp.cpc.gov.ae, always put four
        # certificate chains including the root certificate in the OCSP
        # responses" (Figure 6's x = 4 tail).
        EventGroup(
            name="cpc-gov-ae",
            paper_count=1,
            profile_overrides={"include_root_chain": True,
                               "delegated_signing": True, "extra_certs": 3},
            alexa_share=0.0,
        ),
    ]


#: Persistent single-responder fault quotas (paper Section 5.2), beyond
#: the named groups above: 16 DNS, 4 TCP, 8 HTTP (5 of which are the
#: digitalcertvalidation group), 1 invalid HTTPS certificate.
PERSISTENT_QUOTAS = {
    "dns": 16,
    "tcp": 4,
    "http": 3,   # 8 total minus the 5 digitalcertvalidation members
    "tls": 1,
}

#: Per-vantage always-fail targets: "the measurement clients located at
#: Oregon, São Paulo, Paris, and Seoul always fail to fetch OCSP
#: responses from one, seven, one, and four responders, respectively."
ALWAYS_FAIL_TARGETS = {"Oregon": 1, "Sao-Paulo": 7, "Paris": 1, "Seoul": 4}


@dataclass
class ResponderSite:
    """One responder URL with everything attached to it."""

    index: int
    url: str
    hostname: str
    family: str
    region: str
    authority: CertificateAuthority
    responder: OCSPResponder
    origin: Origin
    profile: ResponderProfile
    certificates: List[Certificate] = field(default_factory=list)
    cert_ids: List[CertID] = field(default_factory=list)
    tags: Set[str] = field(default_factory=set)


@dataclass
class ScanTarget:
    """One (certificate, responder) probe of the hourly scan."""

    site: ResponderSite
    certificate: Certificate
    cert_id: CertID
    request_der: bytes


class MeasurementWorld:
    """The fully assembled Section-5 simulation."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        self.rng = random.Random(self.config.seed)
        self.network = Network(noise=self._noise)
        self.sites: List[ResponderSite] = []
        self._key_pool = KeyPool(size=24, bits=512, seed=self.config.seed)
        self._build()

    # -- noise -------------------------------------------------------------------

    #: Fraction of origins that are "flappy" — transient failures in
    #: the wild concentrate on a minority of responders (the paper
    #: found only 36.8% of responders ever had an outage, even though
    #: per-request failure rates run several percent).
    FLAPPY_FRACTION = 0.33

    def _is_flappy(self, origin_name: str) -> bool:
        digest = hashlib.blake2b(
            f"{self.config.seed}|flappy|{origin_name}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2 ** 64 < self.FLAPPY_FRACTION

    def _noise(self, vantage: str, origin_name: str, now: int) -> Optional[FailureKind]:
        """Deterministic transient failures, concentrated on flappy origins."""
        rate = self.config.noise_rates.get(vantage, 0.0)
        if rate <= 0 or not self._is_flappy(origin_name):
            return None
        # The configured per-vantage rate is the population average;
        # flappy origins carry all of it.
        rate = min(0.5, rate / self.FLAPPY_FRACTION)
        hour_bucket = now // HOUR
        digest = hashlib.blake2b(
            f"{self.config.seed}|{vantage}|{origin_name}|{hour_bucket}".encode(),
            digest_size=8,
        ).digest()
        draw = int.from_bytes(digest, "big") / 2 ** 64
        if draw < rate:
            # Split noise between connection failures and 5xx codes.
            return FailureKind.TCP if draw < rate / 2 else FailureKind.HTTP
        return None

    # -- construction ---------------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        groups = default_event_groups()

        # 1. Allocate site slots: event groups first, the rest generic.
        slots: List[Tuple[str, EventGroup]] = []
        for group in groups:
            for _ in range(config.scale(group.paper_count)):
                slots.append((group.name, group))
        if len(slots) > config.n_responders:
            raise ValueError(
                f"n_responders={config.n_responders} too small for the "
                f"event groups ({len(slots)} slots); use >= {len(slots)}"
            )
        generic_group = EventGroup(name="generic", paper_count=0)
        while len(slots) < config.n_responders:
            slots.append(("generic", generic_group))

        # 2. Draw shared attribute assignments over all slots.
        n = len(slots)
        assignments = self._draw_attributes(n)

        # 3. Build each site.
        for index, (family, group) in enumerate(slots):
            site = self._build_site(index, family, group, assignments[index])
            self.sites.append(site)

        # 4. Apply group outages / persistent faults / special cases.
        self._apply_group_effects(groups)
        self._apply_persistent_faults()

    def _draw_attributes(self, n: int) -> List[Dict[str, object]]:
        config = self.config
        rng = self.rng
        indexes = list(range(n))

        def pick(fraction: float, exclude: Set[int] = frozenset()) -> Set[int]:
            count = max(1, round(fraction * n)) if fraction > 0 else 0
            candidates = [i for i in indexes if i not in exclude]
            return set(rng.sample(candidates, min(count, len(candidates))))

        malformed = pick(config.malformed_fraction)
        zero_margin = pick(config.zero_margin_fraction, exclude=malformed)
        future = pick(config.future_this_update_fraction, exclude=malformed | zero_margin)
        blank = pick(config.blank_next_update_fraction, exclude=malformed)
        long_validity = pick(config.long_validity_fraction, exclude=malformed | blank)
        serial20 = pick(config.serial20_fraction, exclude=malformed)
        serial_few = pick(config.serial_few_fraction, exclude=malformed | serial20)
        multi_cert = pick(config.multi_cert_fraction, exclude=malformed)
        # Zero-margin / future-thisUpdate responders are on-demand by
        # construction, so the pre-generation quota is drawn from the
        # rest to keep the §5.4 fraction on target.
        pregenerated = pick(config.pregenerated_fraction,
                            exclude=zero_margin | future)
        delegated = pick(config.delegated_fraction)

        long_validity_list = sorted(long_validity)
        attributes = []
        for i in indexes:
            attribute: Dict[str, object] = {}
            if i in malformed:
                attribute["malformed_mode"] = rng.choice(["empty", "zero", "javascript"])
            if i in blank:
                attribute["blank_next_update"] = True
            elif i in long_validity:
                if long_validity_list and i == long_validity_list[0]:
                    # The extreme the paper flags: 108,130,800 s = 1,251 days.
                    attribute["validity_period"] = 108_130_800
                else:
                    attribute["validity_period"] = rng.choice([35, 60, 90, 180]) * DAY
            else:
                attribute["validity_period"] = rng.choice(
                    [12 * HOUR, DAY, 3 * DAY, 4 * DAY, 7 * DAY, 7 * DAY, 7 * DAY,
                     10 * DAY, 14 * DAY]
                )
            if i in zero_margin:
                attribute["this_update_margin"] = 0
            elif i in future:
                attribute["this_update_margin"] = -rng.choice([60, 300, 900])
            else:
                # Margins never approach the validity period — the
                # paper "did not find any instances" of responses that
                # arrive already expired.
                validity_now = int(attribute.get("validity_period", 7 * DAY))
                margin = rng.choice(
                    [5 * 60, 30 * 60, HOUR, 2 * HOUR, 6 * HOUR, 12 * HOUR]
                )
                attribute["this_update_margin"] = min(margin, validity_now // 4)
            if i in serial20:
                attribute["serials_per_response"] = 20
            elif i in serial_few:
                attribute["serials_per_response"] = rng.choice([2, 3, 5])
            if i in multi_cert:
                attribute["extra_certs"] = rng.choice([1, 2, 3])
                attribute["delegated_signing"] = True
            elif i in delegated:
                attribute["delegated_signing"] = True
            if i in zero_margin or i in future:
                # Zero-margin and future-thisUpdate responders generate
                # at request time by construction (Figure 9's
                # "response became valid at the same time our client
                # made the request").
                attribute["update_interval"] = None
            elif i in pregenerated:
                validity = attribute.get("validity_period", 7 * DAY)
                interval = min(DAY, max(HOUR, int(validity) // 2))
                attribute["update_interval"] = interval
            else:
                attribute["update_interval"] = None
            attributes.append(attribute)
        return attributes

    def _build_site(self, index: int, family: str, group: EventGroup,
                    attribute: Dict[str, object]) -> ResponderSite:
        config = self.config
        merged = dict(attribute)
        merged.update(group.profile_overrides)
        if group.malformed_windows:
            merged["malformed_windows"] = tuple(group.malformed_windows)
            merged.pop("malformed_mode", None)
        profile = ResponderProfile(**merged)

        hostname = f"ocsp{index}.{family}.test"
        url = f"http://{hostname}"
        region = SERVICE_REGIONS[index % len(SERVICE_REGIONS)]
        # CA keys come from the shared pool: distinct issuer *names*
        # keep CertID lookups unambiguous (issuerNameHash and
        # issuerKeyHash must both match), and pooling avoids hundreds
        # of fresh keygens.
        from ..x509 import self_signed, Name
        ca_key = self._key_pool.take()
        ca_cert = self_signed(
            Name.build(f"{family}-{index} CA", organization=family),
            ca_key, serial=1,
            not_before=config.start - 3 * 365 * DAY,
            not_after=config.start + 20 * 365 * DAY,
        )
        authority = CertificateAuthority(
            f"{family}-{index} CA", ca_key, ca_cert,
            ocsp_url=url,
            crl_url=f"http://crl{index}.{family}.test/ca.crl",
        )
        chain_to_root = None
        if profile.include_root_chain:
            # The cpc.gov.ae shape: the issuing CA hangs under two
            # layers of hierarchy, and the responder ships the whole
            # chain (signer + issuing CA + intermediate + root = the
            # paper's "four certificate chains including the root").
            root = CertificateAuthority.create_root(
                f"{family}-{index} Root", ocsp_url=url,
                key_pool=self._key_pool,
                not_before=config.start - 5 * 365 * DAY,
            )
            upper = root.create_intermediate(f"{family}-{index} Upper", url,
                                             key_pool=self._key_pool)
            authority = upper.create_intermediate(f"{family}-{index} CA", url,
                                                  key_pool=self._key_pool)
            authority.crl_url = f"http://crl{index}.{family}.test/ca.crl"
            chain_to_root = [upper.certificate, root.certificate]
        # Responders do not all regenerate at midnight: stagger each
        # site's epoch grid so scans observe realistic producedAt lags.
        epoch_offset = self.rng.randrange(0, DAY)
        responder = OCSPResponder(
            authority, url, profile,
            epoch_start=config.start - 30 * DAY + epoch_offset,
            chain_to_root=chain_to_root,
        )
        origin = self.network.add_origin(f"origin-{index}-{family}", region,
                                         ocsp_service(responder))
        self.network.bind(hostname, origin)

        site = ResponderSite(
            index=index, url=url, hostname=hostname, family=family,
            region=region, authority=authority, responder=responder,
            origin=origin, profile=profile,
        )
        for cert_index in range(config.certs_per_responder):
            lifetime = self.rng.choice([180, 365, 730]) * DAY
            certificate = authority.issue_leaf(
                f"site{index}-{cert_index}.{family}.example",
                self._key_pool.take(),
                not_before=config.start - 30 * DAY,
                lifetime=lifetime,
            )
            site.certificates.append(certificate)
            site.cert_ids.append(CertID.for_certificate(certificate, authority.certificate))
        return site

    def _apply_group_effects(self, groups: List[EventGroup]) -> None:
        by_family: Dict[str, List[ResponderSite]] = {}
        for site in self.sites:
            by_family.setdefault(site.family, []).append(site)

        for group in groups:
            members = by_family.get(group.name, [])
            for start, duration, vantages in group.outages:
                for site in members:
                    site.origin.add_outage(OutageWindow(
                        start=start, end=start + duration,
                        vantages=set(vantages) if vantages else None,
                        kind=FailureKind.TCP,
                    ))
                    site.tags.add("event-outage")
            if group.name == "wayport":
                # Staggered permanent deaths through May.
                death_dates = [at(2018, 5, 5), at(2018, 5, 15), at(2018, 5, 25)]
                for site, death in zip(members, death_dates):
                    site.origin.add_outage(OutageWindow(
                        start=death, end=self.config.end + DAY,
                        kind=FailureKind.HTTP, status_code=503,
                    ))
                    site.tags.add("gradual-death")
            if group.persistent:
                for site in members:
                    binding = self.network.get_binding(site.hostname)
                    for fault, vantages in group.persistent.items():
                        if fault == "http_404":
                            for vantage in vantages:
                                binding.http_error_vantages[vantage] = 404
                        elif fault == "dns":
                            binding.dns_fail_vantages |= set(vantages)
                        elif fault == "tcp":
                            binding.tcp_fail_vantages |= set(vantages)
                    binding.repaired_at = group.repaired_at
                    site.tags.add("persistent-fault")

    def _apply_persistent_faults(self) -> None:
        """Distribute the single-responder persistent faults."""
        config = self.config
        candidates = [site for site in self.sites
                      if site.family == "generic" and "persistent-fault" not in site.tags]
        self.rng.shuffle(candidates)
        cursor = 0

        def take() -> Optional[ResponderSite]:
            nonlocal cursor
            if cursor >= len(candidates):
                return None
            site = candidates[cursor]
            cursor += 1
            return site

        # Per-vantage always-fail targets first (Seoul 4 DNS, etc.).
        remaining_quota = {k: config.scale(v) for k, v in PERSISTENT_QUOTAS.items()}
        targets = {v: config.scale(c) for v, c in ALWAYS_FAIL_TARGETS.items()}
        # digitalcertvalidation already covers part of São Paulo's target.
        dcv = sum(1 for s in self.sites if s.family == "digitalcertvalidation")
        targets["Sao-Paulo"] = max(0, targets.get("Sao-Paulo", 0) - dcv)

        for vantage, count in targets.items():
            for _ in range(count):
                site = take()
                if site is None:
                    return
                binding = self.network.get_binding(site.hostname)
                binding.dns_fail_vantages.add(vantage)
                site.tags.add("persistent-fault")
                remaining_quota["dns"] = max(0, remaining_quota["dns"] - 1)

        # Remaining quotas go to random single vantages.
        fault_order = [("dns", remaining_quota["dns"]),
                       ("tcp", remaining_quota["tcp"]),
                       ("http", remaining_quota["http"]),
                       ("tls", remaining_quota["tls"])]
        for fault, count in fault_order:
            for _ in range(count):
                site = take()
                if site is None:
                    return
                binding = self.network.get_binding(site.hostname)
                vantage = self.rng.choice(VANTAGE_POINTS)
                if fault == "dns":
                    binding.dns_fail_vantages.add(vantage)
                elif fault == "tcp":
                    binding.tcp_fail_vantages.add(vantage)
                elif fault == "http":
                    binding.http_error_vantages[vantage] = self.rng.choice([403, 404, 500, 503])
                elif fault == "tls":
                    binding.https_invalid_cert = True
                    # An HTTPS responder URL (the paper found exactly one).
                    site.url = site.url.replace("http://", "https://", 1)
                site.tags.add("persistent-fault")

    # -- scan inputs --------------------------------------------------------------

    def scan_targets(self) -> List[ScanTarget]:
        """All (certificate, responder) probes, with requests pre-encoded."""
        from ..ocsp import OCSPRequest
        targets = []
        for site in self.sites:
            for certificate, cert_id in zip(site.certificates, site.cert_ids):
                targets.append(ScanTarget(
                    site=site,
                    certificate=certificate,
                    cert_id=cert_id,
                    request_der=OCSPRequest.for_single(cert_id).encode(),
                ))
        return targets

    def sites_by_family(self, family: str) -> List[ResponderSite]:
        """All sites in one named group."""
        return [site for site in self.sites if site.family == family]

    def site_for_url(self, url: str) -> Optional[ResponderSite]:
        """Find a site by its responder URL."""
        for site in self.sites:
            if site.url == url:
                return site
        return None
