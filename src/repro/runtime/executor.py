"""Shard execution: the one step every transport runs a job through.

A :class:`ShardSpec` is a picklable description of one work unit — a
dotted ``module:function`` worker entrypoint plus a JSON-able payload.
:func:`execute_job` is the single place a shard is computed, whichever
transport carried it (in-process or socket fleet, forked or remote):
cache-first by shard key, a firewall that turns any raised
exception into a typed error envelope, timing, cache store, and the
result envelope the coordinator credits.  Because every worker is a
pure function of its payload, the carrier can never change the output
— only the wall clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..refs import resolve_ref
from .cache import ArtifactCache, shard_key


def resolve_worker(dotted: str) -> Callable[[Dict[str, Any]], List[Dict[str, Any]]]:
    """Import a ``module:function`` worker entrypoint.

    Thin wrapper over :func:`repro.refs.resolve_ref` — the same
    resolution the static analyzer mirrors, so a worker ref that runs
    here but escapes the purity contract cannot exist.
    """
    try:
        return resolve_ref(dotted)
    except ValueError as exc:
        raise ValueError(f"worker {exc}") from None


@dataclass
class ShardSpec:
    """One independent, picklable unit of experiment work."""

    worker: str
    payload: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def key(self) -> str:
        """The shard's content address in the artifact cache."""
        return shard_key(self.worker, self.payload)


def execute_job(job: Dict[str, Any], cache: Optional[ArtifactCache] = None,
                owner: str = "", isolated: bool = True) -> Dict[str, Any]:
    """Run one job document; returns its result envelope.

    *job* carries ``ticket``, ``worker`` and ``payload`` (the socket
    fleet's :func:`~repro.runtime.dist.job_document` adds the ``job`` id,
    ``digest`` and cache ``key``).  The envelope echoes id, ticket and
    digest, names *owner*, and carries ``rows`` or the exception's
    ``type`` name and ``message``, by which the coordinator classifies
    the failure.  Rows land in *cache* under the single-host key, so a
    killed campaign resumes on any topology.  Only an *isolated* job
    (one in a disposable worker process) turns ``KeyboardInterrupt``
    and ``SystemExit`` into error envelopes too.
    """
    envelope: Dict[str, Any] = {
        "job": job.get("job"), "ticket": job.get("ticket"),
        "digest": job.get("digest"), "owner": owner,
    }
    cache = cache if cache is not None else ArtifactCache(enabled=False)
    key = job.get("key") or ""
    started = time.perf_counter()
    try:
        rows = cache.load(key) if key else None
        cached = rows is not None
        if rows is None:
            rows = resolve_worker(job["worker"])(job["payload"])
        envelope.update(outcome="ok", rows=rows, cached=cached)
    except BaseException as exc:  # repro: allow-broad-except -- worker firewall; the coordinator classifies the failure by exception name
        if not isolated and not isinstance(exc, Exception):
            raise
        envelope.update(outcome="error", type=type(exc).__name__,
                        message=str(exc))
    envelope["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    if envelope["outcome"] == "ok" and key:
        cache.store(key, job["worker"], envelope["rows"])
    return envelope
