"""Per-experiment run configurations.

Each experiment's runner takes one small config dataclass.  Configs
travel inside shard payloads and become cache-key material, so every
one serializes stably through the one field-driven codec,
:class:`~repro.canon.FieldCodec`: ``to_dict`` walks the dataclass
fields (nested configs recursively, tuples as lists, an empty tuple in
a ``None``-default field as ``None``, dicts key-sorted), ``from_dict``
rebuilds nested configs and tuples from the type hints (a missing key
takes the field default, an unknown key raises ``TypeError``), and
``config_digest`` is the :func:`~repro.canon.stable_digest` of that
mapping.  A new field therefore reaches every digest and cache key
without further code.  :func:`default_config` maps an experiment id
(plus an optional :class:`~repro.core.figures.FigureScale`) to the
config the CLI, the figure generator, and the benchmarks use.

Transport scheduling knobs (the lease a multi-node run passes as
``run_experiment(lease_s=)``) are deliberately not config fields: they
must never reach shard payloads or cache keys.

The shard *plan* is always a pure function of the config — never of
the worker count — so cache keys are stable across ``workers=`` values
and parallel output is structurally identical to serial output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..canon import FieldCodec
from ..datasets.alexa import AlexaConfig
from ..datasets.corpus import CorpusConfig
from ..datasets.world import WorldConfig
from ..simnet import DAY, HOUR, MEASUREMENT_START


@dataclass
class ScanCampaignConfig(FieldCodec):
    """One hourly-scan campaign (Figures 3, 5-9, §5.4, response size)."""

    world: WorldConfig = field(default_factory=WorldConfig)
    #: Vantage subset (None = all six).
    vantages: Optional[Tuple[str, ...]] = None
    interval: int = HOUR
    start: Optional[int] = None   # None = world.start
    end: Optional[int] = None     # None = world.end
    #: Contiguous target-range slices — the shard granularity (a
    #: config property, NOT tied to ``workers``).
    target_chunks: int = 8



@dataclass
class CorpusRunConfig(FieldCodec):
    """Corpus generation + Section-4 deployment statistics."""

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    shards: int = 4



@dataclass
class AlexaRunConfig(FieldCodec):
    """Alexa model generation + rank-binned adoption (Figures 2, 11)."""

    alexa: AlexaConfig = field(default_factory=AlexaConfig)
    shards: int = 4
    bin_width: int = 10_000



@dataclass
class OutageImpactConfig(FieldCodec):
    """Figure 4: Alexa domains unable to fetch OCSP, per vantage."""

    world: WorldConfig = field(default_factory=WorldConfig)
    seed: int = 11
    times: Tuple[int, ...] = ()
    vantages: Optional[Tuple[str, ...]] = None



@dataclass
class ConsistencyRunConfig(FieldCodec):
    """Table 1 / Figure 10: the CRL↔OCSP cross-check."""

    scale: int = 40
    seed: int = 17



@dataclass
class ReadinessConfig(FieldCodec):
    """Section 8: the cross-principal verdict."""

    world: WorldConfig = field(default_factory=lambda: WorldConfig(
        n_responders=70, certs_per_responder=1))
    corpus: CorpusConfig = field(default_factory=lambda: CorpusConfig(
        size=5_000))
    scan_days: int = 3
    scan_interval: int = 6 * HOUR



@dataclass
class LatencyConfig(FieldCodec):
    """Extension: direct vs CDN-fronted lookup latency."""

    world: WorldConfig = field(default_factory=lambda: WorldConfig(
        n_responders=60, certs_per_responder=1))
    hours: int = 12



@dataclass
class AttackWindowConfig(FieldCodec):
    """Extension: replay / strip-and-block attack windows."""

    seed: int = 6
    validities: Tuple[int, ...] = (2 * HOUR, DAY, 7 * DAY)
    horizon: int = 30 * DAY



@dataclass
class WhatIfRunConfig(FieldCodec):
    """Extension: universal Must-Staple enforcement."""

    n_sites: int = 40



@dataclass
class SeedConfig(FieldCodec):
    """Experiments with no tunable inputs beyond a seed (Tables 2/3,
    Figure 12, the multi-staple / alternatives / ablation studies)."""

    seed: int = 7



@dataclass
class ChaosAvailabilityConfig(FieldCodec):
    """Chaos extension of Figures 3/4: the hourly scan swept across
    named fault scenarios (catalogue in :mod:`repro.faults`)."""

    campaign: ScanCampaignConfig = field(default_factory=ScanCampaignConfig)
    scenarios: Tuple[str, ...] = ("baseline",)
    #: Seed for every scenario's injector draws (scenario names travel
    #: in shard payloads; plans are rebuilt worker-side).
    fault_seed: int = 23



@dataclass
class ChaosClientConfig(FieldCodec):
    """Chaos client-outcome grid: fault scenario × client policy."""

    world: WorldConfig = field(default_factory=WorldConfig)
    scenarios: Tuple[str, ...] = ("baseline",)
    policies: Tuple[str, ...] = ("firefox-soft-fail",)
    times: Tuple[int, ...] = ()
    vantages: Optional[Tuple[str, ...]] = None
    fault_seed: int = 23



@dataclass
class HostileCorpusConfig(FieldCodec):
    """Hostile-corpus survival matrix: seeded DER mutation × the full
    parse/lint/verify stack (:mod:`repro.hostile`)."""

    seed: int = 2018
    #: Fixed "now" for minting and verifying the seed documents.
    reference_time: int = MEASUREMENT_START + DAY
    #: Mutation ids 0..N-1 are generated per kind.
    mutants_per_kind: int = 2000
    kinds: Tuple[str, ...] = ("certificate", "ocsp", "crl")
    #: Contiguous mutation-id slices per kind — the shard granularity.
    chunks: int = 8



@dataclass
class ServeLoadTestConfig(FieldCodec):
    """Serve load test: daemon-path byte-identity plus warm-cache
    throughput over seeded corpus traffic (:mod:`repro.serve`)."""

    world: WorldConfig = field(default_factory=WorldConfig)
    seed: int = 6960
    #: Length of the synthesized request stream.
    requests: int = 4000
    #: Fraction of requests preferring the RFC 6960 A.1 GET transport.
    get_fraction: float = 0.25
    #: Fraction carrying a fresh nonce (cache-busting misses).
    nonce_fraction: float = 0.02
    #: Contiguous request-range slices — the identity-shard granularity.
    chunks: int = 8



@dataclass
class MonitorConvergenceConfig(FieldCodec):
    """Monitor convergence: reducer merges over one scan campaign's
    event log vs. the batch pipeline (:mod:`repro.monitor`).

    Both sides read the campaign's own scan shards, run once.
    ``partitions`` is deliberately independent of the campaign's
    ``target_chunks``: the stream side slices the rows into target
    ranges other than the scan's shards, so convergence is evidence
    about the reducer algebra, not about sharing a partitioning.
    """

    campaign: ScanCampaignConfig = field(
        default_factory=ScanCampaignConfig)
    #: Event-log partition count (contiguous target ranges, one set of
    #: reducer states each).
    partitions: int = 5



def default_config(experiment_id: str, scale: Optional[object] = None):
    """The config an experiment runs with absent an explicit one.

    *scale* is a :class:`repro.core.figures.FigureScale`; omitted, the
    small (sub-minute) scale applies.
    """
    from ..core.figures import FigureScale
    scale = scale or FigureScale.small()

    world = WorldConfig(n_responders=scale.n_responders,
                        certs_per_responder=scale.certs_per_responder,
                        seed=scale.seed)
    campaign = ScanCampaignConfig(
        world=world, interval=scale.scan_interval,
        start=MEASUREMENT_START,
        end=MEASUREMENT_START + scale.scan_days * DAY)

    if experiment_id in ("fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
                         "ext-response-size"):
        return campaign
    if experiment_id == "sec5-freshness":
        # Freshness detection needs hourly cadence from one vantage —
        # producedAt lags are invisible to sparse scans.
        return ScanCampaignConfig(
            world=world, vantages=("Virginia",), interval=HOUR,
            start=MEASUREMENT_START, end=MEASUREMENT_START + 2 * DAY)
    if experiment_id == "sec4-deployment":
        return CorpusRunConfig(corpus=CorpusConfig(size=scale.corpus_size,
                                                   seed=scale.seed))
    if experiment_id in ("fig2", "fig11"):
        return AlexaRunConfig(alexa=AlexaConfig(size=scale.alexa_size,
                                                seed=scale.seed),
                              bin_width=50_000)
    if experiment_id == "fig4":
        stride = max(1, scale.scan_days // 8)
        times = tuple(MEASUREMENT_START + day * DAY
                      for day in range(0, scale.scan_days, stride))
        return OutageImpactConfig(world=world, seed=scale.seed + 4,
                                  times=times)
    if experiment_id in ("tbl1", "fig10"):
        return ConsistencyRunConfig(scale=scale.consistency_scale,
                                    seed=17)
    if experiment_id == "sec8-readiness":
        return ReadinessConfig(
            world=WorldConfig(n_responders=min(70, scale.n_responders),
                              certs_per_responder=1, seed=scale.seed),
            corpus=CorpusConfig(size=min(5_000, scale.corpus_size),
                                seed=scale.seed))
    if experiment_id == "ext-latency":
        return LatencyConfig(world=WorldConfig(
            n_responders=min(60, scale.n_responders),
            certs_per_responder=1, seed=scale.seed))
    if experiment_id == "ext-attack-window":
        return AttackWindowConfig()
    if experiment_id == "ext-whatif":
        return WhatIfRunConfig()
    if experiment_id == "chaos-availability":
        # A trimmed campaign: the scenario sweep multiplies the scan
        # cost, so cap the window and responder count independently of
        # the figure-scale knobs.
        chaos_world = WorldConfig(
            n_responders=min(40, scale.n_responders),
            certs_per_responder=1, seed=scale.seed)
        chaos_campaign = ScanCampaignConfig(
            world=chaos_world, interval=scale.scan_interval,
            start=MEASUREMENT_START,
            end=MEASUREMENT_START + min(3, scale.scan_days) * DAY,
            target_chunks=4)
        return ChaosAvailabilityConfig(
            campaign=chaos_campaign,
            scenarios=("baseline", "responder-brownout",
                       "regional-blackout", "heavy-tail-latency",
                       "stale-responder"))
    if experiment_id == "chaos-client-outcomes":
        return ChaosClientConfig(
            world=WorldConfig(n_responders=min(24, scale.n_responders),
                              certs_per_responder=1, seed=scale.seed),
            scenarios=("baseline", "regional-blackout",
                       "stale-responder", "packet-loss"),
            policies=("firefox-soft-fail", "must-staple-hard-fail",
                      "no-check"),
            times=(MEASUREMENT_START + HOUR,
                   MEASUREMENT_START + 9 * HOUR,
                   MEASUREMENT_START + 17 * HOUR))
    if experiment_id == "hostile-corpus":
        # Budget independent of the figure-scale knobs: 2000 mutants
        # per document kind covers every family ~166 times while
        # keeping the default run under a minute.
        return HostileCorpusConfig()
    if experiment_id == "serve-loadtest":
        # A smaller world than the figure campaigns: the load test
        # exercises the serving stack, not the measurement breadth,
        # and 4000 requests over ~3 dozen sites already drives the
        # cache through hits and nonce misses.
        return ServeLoadTestConfig(
            world=WorldConfig(n_responders=min(20, scale.n_responders),
                              certs_per_responder=2, seed=scale.seed))
    if experiment_id == "monitor-convergence":
        # The same campaign as fig3 at this scale, so its scan shards
        # come straight from the shared artifact cache; the stream side
        # reduces their rows in 5 partitions.
        return MonitorConvergenceConfig(campaign=campaign)
    if experiment_id in ("tbl2", "tbl3", "fig12", "ext-multistaple",
                         "ext-alternatives", "abl-apache-patch",
                         "abl-parser", "abl-keysize"):
        return SeedConfig(seed=scale.seed)
    raise KeyError(f"no default config for experiment {experiment_id!r}")
