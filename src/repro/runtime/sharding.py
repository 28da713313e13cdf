"""Shard planning: how each experiment's work splits into units.

Three families of parallelism, all content-preserving:

* **corpus / Alexa generation** shard by record-index range — safe
  because generation is record-addressed (each record draws from its
  own derived RNG stream);
* **hourly scans** shard by contiguous target range (all vantages
  inside one shard); every shard rebuilds the same deterministic
  world, so all shards share one outage schedule, and probes are pure
  functions of ``(vantage, request, now)``.  Target ranges — not
  vantages — are the split axis because response *signing* is
  per-target: all six vantages reuse one signed response, and a
  vantage split would redo that work sixfold;
* **Alexa availability** (Figure 4) shards by vantage.

Plans depend only on the experiment config — never on the worker
count — so cache keys are stable and a ``workers=8`` run reuses the
shards a serial run produced.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Sequence, Tuple

from ..canon import split_ranges
from ..scanner.io import record_fields
from ..simnet.vantage import VANTAGE_POINTS
from .configs import (
    AlexaRunConfig,
    ConsistencyRunConfig,
    CorpusRunConfig,
    OutageImpactConfig,
    ScanCampaignConfig,
)
from .executor import ShardSpec

_RUNNERS = "repro.runtime.runners"


def campaign_window(config: ScanCampaignConfig) -> "tuple[int, int]":
    """The campaign's resolved [start, end) scan window."""
    start = config.world.start if config.start is None else config.start
    end = config.world.end if config.end is None else config.end
    return start, end


def scan_shards(config: ScanCampaignConfig) -> List[ShardSpec]:
    """One shard per contiguous target range (all vantages inside)."""
    n_targets = config.world.n_responders * config.world.certs_per_responder
    campaign = config.to_dict()
    return [
        ShardSpec(worker=f"{_RUNNERS}:scan_shard",
                  payload={"campaign": campaign, "lo": lo, "hi": hi},
                  label=f"scan[{lo}:{hi}]")
        for lo, hi in split_ranges(n_targets, config.target_chunks)
    ]


#: One decoded scan row: ``(ts, ti, vi, fields)``, where *fields* are
#: the positional :class:`~repro.scanner.results.ProbeRecord` arguments.
ScanEntry = Tuple[int, int, int, tuple]

_MERGE_ORDER = itemgetter(0, 1, 2)


def scan_entries(rows: List[Dict[str, Any]]) -> Tuple[ScanEntry, ...]:
    """Decode one scan shard's rows into immutable entries, the form
    :func:`merge_scan_rows` reads (and the artifact cache memoizes per
    verified entry, so a campaign is decoded once per process)."""
    return tuple([(row["ts"], row["ti"], row["vi"], record_fields(row))
                  for row in rows])


def merge_scan_rows(config: ScanCampaignConfig,
                    outputs: Sequence[Sequence[ScanEntry]]):
    """Merge decoded shard entries into the exact serial ``ScanDataset``.

    The serial scanner loop is time-outer, then target, then vantage;
    sorting the union by ``(timestamp, target index, vantage index)``
    reproduces that order byte-for-byte.  Every call builds fresh
    records, so no two datasets share a mutable ``ProbeRecord``.
    """
    from ..scanner.hourly import ScanDataset
    from ..scanner.results import ProbeRecord
    entries = [entry for shard_entries in outputs for entry in shard_entries]
    entries.sort(key=_MERGE_ORDER)
    start, end = campaign_window(config)
    return ScanDataset(
        records=[ProbeRecord(*fields) for _ts, _ti, _vi, fields in entries],
        vantages=tuple(config.vantages or VANTAGE_POINTS),
        interval=config.interval, start=start, end=end,
    )


def corpus_shards(config: CorpusRunConfig) -> List[ShardSpec]:
    """Contiguous record-index ranges of the corpus."""
    return [
        ShardSpec(worker=f"{_RUNNERS}:corpus_shard",
                  payload={"corpus": config.corpus.to_dict(),
                           "lo": lo, "hi": hi},
                  label=f"corpus[{lo}:{hi}]")
        for lo, hi in split_ranges(config.corpus.size, config.shards)
    ]


def alexa_shards(config: AlexaRunConfig) -> List[ShardSpec]:
    """Contiguous rank-sample ranges of the Alexa model."""
    return [
        ShardSpec(worker=f"{_RUNNERS}:alexa_shard",
                  payload={"alexa": config.alexa.to_dict(),
                           "lo": lo, "hi": hi},
                  label=f"alexa[{lo}:{hi}]")
        for lo, hi in split_ranges(config.alexa.size, config.shards)
    ]


def outage_impact_shards(config: OutageImpactConfig) -> List[ShardSpec]:
    """One Figure-4 shard per vantage point."""
    vantages = list(config.vantages or VANTAGE_POINTS)
    return [
        ShardSpec(worker=f"{_RUNNERS}:outage_impact_shard",
                  payload={"world": config.world.to_dict(),
                           "seed": config.seed,
                           "times": list(config.times),
                           "vantage": vantage},
                  label=f"fig4:{vantage}")
        for vantage in vantages
    ]


def consistency_shards(config: ConsistencyRunConfig) -> List[ShardSpec]:
    """The consistency cross-check runs as one shard whose rows carry
    both the Table-1 counts and the Figure-10 deltas — the two
    experiments share one cache entry."""
    return [ShardSpec(worker=f"{_RUNNERS}:consistency_shard",
                      payload=config.to_dict(),
                      label=f"consistency:1/{config.scale}")]


def single_shard(worker_name: str, config, label: str) -> List[ShardSpec]:
    """A one-shard plan for in-process experiments."""
    return [ShardSpec(worker=f"{_RUNNERS}:{worker_name}",
                      payload={"config": config.to_dict()},
                      label=label)]
