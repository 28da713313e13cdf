"""The Censys-substitute certificate corpus.

A :class:`CertificateCorpus` is a seeded, scaled-down synthetic stand-in
for the 112.8M valid certificates of the paper's Censys snapshot.  Each
:class:`CertificateRecord` carries the metadata the Section-4 analyses
read (issuing CA, OCSP URL presence, Must-Staple, validity), and can be
*materialized* into a real DER certificate issued by a simulated CA —
the active-scan pipelines operate exclusively on materialized records,
so AIA extraction and extension parsing run on real bytes.

Generation is **record-addressed**: every record is drawn from its own
derived RNG stream keyed by ``(seed, index)``, so any index range can
be generated independently and the corpus content is identical whether
it is built in one pass or split across shards (the property
:meth:`CertificateCorpus.generate` and the parallel runtime rely on).
Generation is also lazy — constructing a corpus costs nothing until
``records`` is first touched.

Scaling: ``scale`` maps one record to ``scale`` real-world certificates
(default 1 record : 2,000 certs → about 56k records for the full
population; tests use far smaller corpora).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..ca import CertificateAuthority
from ..canon import FieldCodec, derived_rng, split_ranges
from ..crypto import KeyPool
from ..simnet.clock import CENSYS_SNAPSHOT, DAY
from ..x509 import Certificate
from .marketshare import (
    CAShare,
    MUST_STAPLE_CERTIFICATES,
    VALID_CERTIFICATES,
    must_staple_weights,
    normalized_shares,
)


@dataclass
class CertificateRecord:
    """Metadata for one (scaled) corpus certificate."""

    index: int
    domain: str
    ca_name: str
    has_ocsp: bool
    must_staple: bool
    not_before: int
    not_after: int
    serial_number: int = 0
    certificate: Optional[Certificate] = None

    @property
    def ocsp_url(self) -> Optional[str]:
        """The record's responder URL (materialized records read the
        real AIA extension)."""
        if self.certificate is not None:
            urls = self.certificate.ocsp_urls
            return urls[0] if urls else None
        if not self.has_ocsp:
            return None
        return f"http://ocsp1.{_slug(self.ca_name)}.test"

    def days_remaining(self, now: int) -> int:
        """Days of validity left at *now*."""
        return max(0, (self.not_after - now) // DAY)

    def to_dict(self) -> dict:
        """The record's corpus-content fields (materialization state —
        serial number, certificate bytes — is deliberately excluded)."""
        return {
            "index": self.index,
            "domain": self.domain,
            "ca_name": self.ca_name,
            "has_ocsp": self.has_ocsp,
            "must_staple": self.must_staple,
            "not_before": self.not_before,
            "not_after": self.not_after,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CertificateRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            index=data["index"],
            domain=data["domain"],
            ca_name=data["ca_name"],
            has_ocsp=data["has_ocsp"],
            must_staple=data["must_staple"],
            not_before=data["not_before"],
            not_after=data["not_after"],
        )


def _slug(name: str) -> str:
    return name.lower().replace(" ", "").replace("'", "")


@dataclass
class CorpusConfig(FieldCodec):
    """Parameters of a synthetic corpus."""

    #: Number of records to generate.
    size: int = 5_000
    #: Real-world certificates represented by one record.
    scale: float = VALID_CERTIFICATES / 5_000
    seed: int = 2018
    snapshot_time: int = CENSYS_SNAPSHOT
    #: Fraction of records carrying Must-Staple.  The paper's value is
    #: 29,709 / 112,841,653 ≈ 0.000263 — too rare to surface in a small
    #: corpus, so the default boosts it while `scale_must_staple`
    #: records the boost for analysis-time un-scaling.
    must_staple_fraction: float = MUST_STAPLE_CERTIFICATES / VALID_CERTIFICATES
    must_staple_boost: float = 40.0


def generate_records(config: CorpusConfig, start: int = 0,
                     stop: Optional[int] = None) -> List[CertificateRecord]:
    """Generate corpus records for the index range ``[start, stop)``.

    Pure function of ``(config, index)``: each record draws from its
    own derived RNG stream, so disjoint ranges compose into exactly the
    corpus a single full pass would produce.
    """
    stop = config.size if stop is None else min(stop, config.size)
    shares = normalized_shares()
    ca_names = [s.name for s in shares]
    ca_weights = [s.share for s in shares]
    by_name: Dict[str, CAShare] = {s.name: s for s in shares}
    staple_weights = must_staple_weights()
    staple_cas = list(staple_weights)
    staple_probabilities = [staple_weights[name] for name in staple_cas]
    boosted = min(1.0, config.must_staple_fraction * config.must_staple_boost)
    snapshot = config.snapshot_time

    records: List[CertificateRecord] = []
    for index in range(start, stop):
        rng = derived_rng(config.seed, "corpus", index)
        must_staple = rng.random() < boosted
        if must_staple:
            # Must-Staple certificates come from the four CAs that
            # issue them, in the paper's measured proportions.
            ca_name = rng.choices(staple_cas, weights=staple_probabilities)[0]
            has_ocsp = True
        else:
            ca_name = rng.choices(ca_names, weights=ca_weights)[0]
            has_ocsp = rng.random() < by_name[ca_name].ocsp_rate
        # Lifetimes: Let's Encrypt 90 days, others 1-3 years.
        if ca_name == "Lets Encrypt":
            lifetime = 90 * DAY
        else:
            lifetime = rng.choice([365, 730, 1095]) * DAY
        age = int(rng.random() * lifetime)
        not_before = snapshot - age
        records.append(CertificateRecord(
            index=index,
            domain=f"site{index}.example",
            ca_name=ca_name,
            has_ocsp=has_ocsp,
            must_staple=must_staple,
            not_before=not_before,
            not_after=not_before + lifetime,
        ))
    return records


class CertificateCorpus:
    """A seeded population of certificate records.

    ``CertificateCorpus.generate(config, shards=N)`` is the public
    constructor path; the plain constructor remains as a lazy one-shot
    shim (records materialize on first access).
    """

    def __init__(self, config: Optional[CorpusConfig] = None,
                 records: Optional[Iterable[CertificateRecord]] = None) -> None:
        self.config = config or CorpusConfig()
        self._records: Optional[List[CertificateRecord]] = (
            list(records) if records is not None else None)

    @classmethod
    def generate(cls, config: Optional[CorpusConfig] = None,
                 shards: int = 1) -> "CertificateCorpus":
        """Build a corpus from *shards* independent index-range passes.

        The result is byte-identical for any shard count — sharding is
        a work-splitting knob, never a content knob.
        """
        config = config or CorpusConfig()
        records: List[CertificateRecord] = []
        for lo, hi in split_ranges(config.size, shards):
            records.extend(generate_records(config, lo, hi))
        return cls(config, records=records)

    @classmethod
    def from_records(cls, config: CorpusConfig,
                     records: Iterable[CertificateRecord]) -> "CertificateCorpus":
        """Wrap pre-generated records (e.g. merged shard outputs)."""
        return cls(config, records=records)

    @property
    def records(self) -> List[CertificateRecord]:
        """The record population (generated lazily on first access)."""
        if self._records is None:
            self._records = generate_records(self.config)
        return self._records

    @records.setter
    def records(self, value: List[CertificateRecord]) -> None:
        self._records = value

    # -- selections ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def valid_at(self, now: Optional[int] = None) -> List[CertificateRecord]:
        """Records valid at *now* (default: the snapshot time)."""
        now = self.config.snapshot_time if now is None else now
        return [r for r in self.records if r.not_before <= now <= r.not_after]

    def with_min_remaining(self, days: int, now: Optional[int] = None) -> List[CertificateRecord]:
        """Records with at least *days* of validity left — the Hourly
        scan's selection step ("at least 30 days of validity
        remaining")."""
        now = self.config.snapshot_time if now is None else now
        return [r for r in self.valid_at(now) if r.days_remaining(now) >= days]

    def must_staple_records(self) -> List[CertificateRecord]:
        """Records carrying Must-Staple."""
        return [r for r in self.records if r.must_staple]

    def ocsp_records(self) -> List[CertificateRecord]:
        """Records with an OCSP URL."""
        return [r for r in self.records if r.has_ocsp]

    # -- materialization -------------------------------------------------------------

    def materialize(self, records: Iterable[CertificateRecord],
                    authorities: Dict[str, CertificateAuthority],
                    key_pool: Optional[KeyPool] = None) -> List[CertificateRecord]:
        """Issue real certificates for *records* from *authorities*.

        Records whose CA is missing from *authorities* are skipped.
        Returns the materialized subset.
        """
        pool = (key_pool if key_pool is not None
                else KeyPool(size=16, seed=self.config.seed))
        done = []
        for record in records:
            authority = authorities.get(record.ca_name)
            if authority is None:
                continue
            certificate = authority.issue_leaf(
                record.domain,
                pool.take(),
                not_before=record.not_before,
                lifetime=record.not_after - record.not_before,
                must_staple=record.must_staple,
                include_crl_url=authority.crl_url is not None,
            )
            record.certificate = certificate
            record.serial_number = certificate.serial_number
            done.append(record)
        return done
