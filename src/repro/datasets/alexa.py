"""The Alexa Top-1M popularity model.

Produces a scaled population of ranked domains with HTTPS / OCSP /
OCSP-Stapling / Must-Staple attributes whose rank-dependence matches
the paper's Figures 2 and 11:

* HTTPS support "close to 75% across the entire range", slightly
  higher for popular sites (Figure 2, "Domains with certificate"),
* OCSP adoption among HTTPS domains averaging 91.3%, slightly higher
  for popular sites (Figure 2, "Certificates with OCSP responder"),
* OCSP Stapling adoption among OCSP domains around 35%, with "the most
  popular websites that support OCSP tend[ing] to do OCSP Stapling as
  well" (Figure 11),
* exactly 100 Must-Staple certificates across the Top-1M (Section 4).

Like the certificate corpus, domain generation is record-addressed:
each sampled rank draws from its own derived RNG stream, so any rank
range can be generated independently (the runtime shards Alexa scans
by rank range) and shard outputs compose into exactly the population a
single pass would produce.  Only the Must-Staple quota is a global
draw — it runs as a deterministic post-pass over the full population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..canon import FieldCodec, derived_rng, split_ranges

ALEXA_POPULATION = 1_000_000


@dataclass(frozen=True)
class DomainRecord:
    """One ranked domain and its TLS/OCSP posture."""

    rank: int
    domain: str
    ca_name: str
    https: bool
    has_ocsp: bool
    stapling: bool
    must_staple: bool

    def to_dict(self) -> dict:
        """The record's fields as a plain mapping."""
        return {
            "rank": self.rank,
            "domain": self.domain,
            "ca_name": self.ca_name,
            "https": self.https,
            "has_ocsp": self.has_ocsp,
            "stapling": self.stapling,
            "must_staple": self.must_staple,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DomainRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(**data)


def https_probability(rank: int) -> float:
    """P(HTTPS | rank): ~78% at the top, ~72% at rank 1M."""
    return 0.78 - 0.06 * (rank / ALEXA_POPULATION)


def ocsp_probability(rank: int) -> float:
    """P(OCSP | HTTPS, rank): ~93% at the top, ~89.5% at rank 1M."""
    return 0.93 - 0.035 * (rank / ALEXA_POPULATION)


def stapling_probability(rank: int) -> float:
    """P(Stapling | OCSP, rank): ~45% at the top, ~28% at rank 1M."""
    return 0.45 - 0.17 * (rank / ALEXA_POPULATION)


@dataclass
class AlexaConfig(FieldCodec):
    """Parameters for the scaled Alexa model."""

    #: Number of sampled domains (ranks are spread over the full 1M).
    size: int = 20_000
    seed: int = 404
    #: Must-Staple domains in the full population (paper: 100).
    must_staple_population: int = 100


def _default_ca_mixture() -> "tuple[List[str], List[float]]":
    from .marketshare import normalized_shares
    shares = normalized_shares()
    return [s.name for s in shares], [s.share for s in shares]


def generate_domains(config: AlexaConfig, start: int = 0,
                     stop: Optional[int] = None,
                     ca_names: Optional[List[str]] = None,
                     ca_weights: Optional[List[float]] = None,
                     ) -> List[DomainRecord]:
    """Generate sampled domains for sample indexes ``[start, stop)``.

    Pure function of ``(config, index)``; disjoint ranges compose into
    the full population.  Must-Staple flags are *not* assigned here —
    the global quota runs in :func:`apply_must_staple_quota`.
    """
    stop = config.size if stop is None else min(stop, config.size)
    if ca_names is None:
        ca_names, ca_weights = _default_ca_mixture()
    step = ALEXA_POPULATION / config.size
    records: List[DomainRecord] = []
    for i in range(start, stop):
        rng = derived_rng(config.seed, "alexa", i)
        rank = int(i * step) + 1
        https = rng.random() < https_probability(rank)
        has_ocsp = https and rng.random() < ocsp_probability(rank)
        stapling = has_ocsp and rng.random() < stapling_probability(rank)
        ca_name = rng.choices(ca_names, weights=ca_weights)[0] if https else ""
        records.append(DomainRecord(
            rank=rank,
            domain=f"rank{rank}.example",
            ca_name=ca_name,
            https=https,
            has_ocsp=has_ocsp,
            stapling=stapling,
            must_staple=False,
        ))
    return records


def apply_must_staple_quota(config: AlexaConfig,
                            records: List[DomainRecord]) -> List[DomainRecord]:
    """Assign the scaled Must-Staple quota over the full population.

    A deterministic global draw (seeded from the config alone), so the
    outcome is independent of how *records* were sharded — callers must
    pass the complete, rank-ordered population.
    """
    step = ALEXA_POPULATION / config.size
    staple_quota = max(1, round(config.must_staple_population / step))
    staple_candidates = [i for i, r in enumerate(records) if r.has_ocsp]
    rng = derived_rng(config.seed, "alexa-staple")
    chosen = rng.sample(staple_candidates,
                        min(staple_quota, len(staple_candidates)))
    records = list(records)
    for i in chosen:
        record = records[i]
        records[i] = DomainRecord(
            rank=record.rank, domain=record.domain,
            ca_name="Lets Encrypt",  # 97.3% of Must-Staple certs
            https=True, has_ocsp=True, stapling=record.stapling,
            must_staple=True,
        )
    return records


class AlexaModel:
    """A seeded, scaled sample of the Alexa Top-1M."""

    def __init__(self, config: Optional[AlexaConfig] = None,
                 ca_names: Optional[List[str]] = None,
                 ca_weights: Optional[List[float]] = None,
                 records: Optional[Iterable[DomainRecord]] = None) -> None:
        self.config = config or AlexaConfig()
        if records is not None:
            self.records: List[DomainRecord] = list(records)
        else:
            self.records = apply_must_staple_quota(
                self.config,
                generate_domains(self.config, ca_names=ca_names,
                                 ca_weights=ca_weights))

    @classmethod
    def generate(cls, config: Optional[AlexaConfig] = None,
                 shards: int = 1) -> "AlexaModel":
        """Build the model from *shards* independent rank-range passes;
        byte-identical for any shard count."""
        config = config or AlexaConfig()
        ca_names, ca_weights = _default_ca_mixture()
        records: List[DomainRecord] = []
        for lo, hi in split_ranges(config.size, shards):
            records.extend(generate_domains(config, lo, hi,
                                            ca_names, ca_weights))
        return cls(config, records=apply_must_staple_quota(config, records))

    @classmethod
    def from_records(cls, config: AlexaConfig,
                     records: Iterable[DomainRecord],
                     quota_applied: bool = True) -> "AlexaModel":
        """Wrap pre-generated records (e.g. merged shard outputs).

        Pass ``quota_applied=False`` for raw shard outputs so the
        global Must-Staple draw still runs.
        """
        records = list(records)
        if not quota_applied:
            records = apply_must_staple_quota(config, records)
        return cls(config, records=records)

    @property
    def scale(self) -> float:
        """Real-world domains represented by one record."""
        return ALEXA_POPULATION / self.config.size

    # -- selections -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def https_domains(self) -> List[DomainRecord]:
        """Domains serving HTTPS."""
        return [r for r in self.records if r.https]

    def ocsp_domains(self) -> List[DomainRecord]:
        """Domains whose certificates carry an OCSP URL."""
        return [r for r in self.records if r.has_ocsp]

    def stapling_domains(self) -> List[DomainRecord]:
        """Domains observed stapling."""
        return [r for r in self.records if r.stapling]

    def must_staple_domains(self) -> List[DomainRecord]:
        """Domains with Must-Staple certificates."""
        return [r for r in self.records if r.must_staple]
