"""The unified experiment result: rows, series, the run record, timings.

Every experiment — a figure, a table, a section statistic, an
extension study — returns the same :class:`ExperimentResult` shape, so
the CLI, the benchmark harness, and :mod:`repro.core.figures` can
consume any artefact without per-figure wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class ShardAttempt:
    """One try at computing a shard under supervision."""

    #: 1-based attempt number within this run (resumed runs restart
    #: their own numbering; the chaos markers carry cross-run state).
    attempt: int
    #: ``ok`` | ``error`` | ``crash`` | ``hang``.
    outcome: str
    #: The :class:`repro.faults.FaultClass` value for failed attempts
    #: ("" when the attempt succeeded).
    fault_class: str = ""
    #: ``TypeName: message`` for raised exceptions, or a supervisor
    #: note (exit code, timeout) for crashes and hangs.
    error: str = ""
    elapsed_ms: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Stable field mapping."""
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "fault_class": self.fault_class,
            "error": self.error,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass
class ShardState:
    """The supervised lifecycle of one shard: every attempt, the final
    outcome, and — for quarantined shards — why."""

    index: int
    label: str
    key: str
    #: ``cached`` | ``computed`` | ``quarantined``.
    outcome: str
    rows: int = 0
    attempts: List[ShardAttempt] = field(default_factory=list)
    quarantine_reason: str = ""

    @property
    def cached(self) -> bool:
        """True when the shard was restored from the artifact cache."""
        return self.outcome == "cached"

    def to_dict(self) -> Dict[str, Any]:
        """Stable field mapping."""
        return {
            "index": self.index,
            "label": self.label,
            "key": self.key,
            "outcome": self.outcome,
            "rows": self.rows,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "quarantine_reason": self.quarantine_reason,
        }


@dataclass
class RunManifest:
    """The run record: which inputs and code, and what every shard
    went through.

    ``shards`` holds one :class:`ShardState` per shard spec, in the
    order the runner executed them.  Partial results always carry
    this, so a degraded-mode completion (``allow_partial=True``) is
    distinguishable from a clean one, and a follow-up invocation knows
    exactly which shards to recompute — the quarantined/missing ones;
    everything else is in the cache.
    """

    experiment_id: str = ""
    config_digest: str = ""
    code_version: str = ""
    workers: int = 1
    shards: List[ShardState] = field(default_factory=list)

    @property
    def cached(self) -> int:
        return sum(1 for shard in self.shards if shard.cached)

    @property
    def computed(self) -> int:
        return sum(1 for shard in self.shards if shard.outcome == "computed")

    @property
    def retried(self) -> int:
        """Shards that needed more than one attempt."""
        return sum(1 for shard in self.shards if len(shard.attempts) > 1)

    def quarantined(self) -> List[ShardState]:
        """The shards that did not produce rows this run."""
        return [shard for shard in self.shards
                if shard.outcome == "quarantined"]

    @property
    def complete(self) -> bool:
        """True when every shard produced rows (cached or computed)."""
        return not self.quarantined()

    def to_dict(self) -> Dict[str, Any]:
        """Stable field mapping."""
        return {
            "experiment_id": self.experiment_id,
            "config_digest": self.config_digest,
            "code_version": self.code_version,
            "workers": self.workers,
            "cached": self.cached,
            "computed": self.computed,
            "retried": self.retried,
            "quarantined": [shard.index for shard in self.quarantined()],
            "complete": self.complete,
            "shards": [shard.to_dict() for shard in self.shards],
        }


def _json_safe(value: Any) -> Any:
    """Replace non-JSON floats (the Figure-8 infinities) recursively."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass
class ExperimentResult:
    """What :func:`repro.runtime.run_experiment` returns.

    ``rows`` is the artefact's tabular data (one dict per row, JSON
    serializable), ``series`` its named point series (Figure 3's
    per-vantage success curves, CDFs, ...), ``summary`` the headline
    scalars the paper quotes.  ``artifacts`` carries live Python
    objects (the merged :class:`ScanDataset`, the corpus, reports) for
    callers that keep analysing in-process; they never enter the cache.
    """

    experiment_id: str
    rows: List[Dict[str, Any]]
    series: Dict[str, List[Any]]
    summary: Dict[str, Any]
    timings: Dict[str, float] = field(default_factory=dict)
    artifacts: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: The run record: inputs, code, and what every shard went through.
    manifest: RunManifest = field(default_factory=RunManifest)

    @property
    def provenance(self) -> RunManifest:
        """The run record under its older name: :attr:`manifest`
        itself, not a copy."""
        return self.manifest

    @property
    def cache_status(self) -> str:
        """``hit`` (all shards cached), ``miss`` (none), ``partial``,
        or ``off`` (cache disabled)."""
        shards = self.manifest.shards
        if not shards or all(s.key == "" for s in shards):
            return "off"
        if all(shard.cached for shard in shards):
            return "hit"
        if any(shard.cached for shard in shards):
            return "partial"
        return "miss"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe document (artifacts excluded by design)."""
        return {
            "experiment_id": self.experiment_id,
            "cache": self.cache_status,
            "rows": _json_safe(self.rows),
            "series": _json_safe(self.series),
            "summary": _json_safe(self.summary),
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
            "manifest": self.manifest.to_dict(),
        }
