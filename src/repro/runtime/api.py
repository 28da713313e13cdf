"""The unified entrypoint: ``run_experiment()``.

Every paper artefact runs through the same call::

    result = run_experiment("fig3", workers=4)

which resolves the experiment's runner from the registry, builds its
default config (or takes an explicit one), and hands the runner a
:class:`~repro.runtime.supervisor.SupervisedExecutor` that executes
its shards over the named transport against the content-addressed
artifact cache.  It returns an
:class:`~repro.runtime.result.ExperimentResult` carrying rows, series,
summary scalars, timings, and the one run record
(:class:`~repro.runtime.result.RunManifest`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Union

from .cache import CODE_VERSION, ArtifactCache
from .configs import default_config
from .dist import DEFAULT_LEASE_S
from .result import ExperimentResult
from .sock import SocketTransport, local_transport, parse_address
from .supervisor import SupervisedExecutor
from .transport import ShardTransport


def run_experiment(experiment_id: str,
                   config: Optional[Any] = None,
                   workers: int = 1,
                   cache: bool = True,
                   cache_dir: Optional[str] = None,
                   scale: Optional[Any] = None,
                   allow_partial: bool = False,
                   shard_timeout: Optional[float] = None,
                   max_retries: int = 2,
                   transport: Union[None, str, ShardTransport] = None,
                   listen: Optional[str] = None,
                   lease_s: float = DEFAULT_LEASE_S,
                   spawn_workers: Optional[bool] = None,
                   lifecycle: Optional[Callable[[str, Dict[str, Any]],
                                                None]] = None
                   ) -> ExperimentResult:
    """Run one registered experiment end to end.

    Parameters
    ----------
    experiment_id:
        A registry id (``"fig3"``, ``"tbl1"``, ``"sec8-readiness"``, ...).
    config:
        The experiment's run config; defaults to
        :func:`repro.runtime.configs.default_config` at *scale*.
    workers:
        Process count for shard execution.  Output is byte-identical
        for every value — parallelism only changes the wall clock.
    cache / cache_dir:
        Artifact-cache switches.  With an unchanged config and code
        version, a warm rerun restores every shard from cache and
        executes nothing.
    scale:
        Optional :class:`repro.core.figures.FigureScale` used when
        *config* is omitted.
    allow_partial:
        Finish in degraded mode when shards are quarantined instead of
        raising :class:`~repro.runtime.supervisor.ShardQuarantinedError`;
        the manifest says exactly what is missing and why.
    shard_timeout:
        Seconds from a worker taking a shard until the coordinator
        reclaims it as a hang (killing the worker, if the transport
        forked it), however alive the worker looks; the shard retries.
    max_retries:
        Extra attempts per shard beyond the first.
    transport:
        How shard attempts reach compute, by name or as an instance.
        ``None``/``"local"`` runs on this host
        (:func:`~repro.runtime.sock.local_transport`): in-process for
        one worker without a shard timeout, otherwise a fleet of
        *workers* forked processes over loopback; ``"socket"`` listens
        on *listen* for ``repro worker --connect`` workers dialing in
        over TCP — no shared filesystem needed; a
        :class:`~repro.runtime.transport.ShardTransport` instance is
        used as-is (caller owns and closes it).  Every transport
        yields byte-identical merges — topology changes scheduling,
        never content.
    listen:
        ``host:port`` to bind for ``transport="socket"`` (default
        ``127.0.0.1:0`` — an ephemeral port the spawned fleet is
        pointed at automatically).
    lease_s:
        Lease duration for the socket transport, a liveness signal
        only: a dead worker is reclaimed as a crash within about one
        lease of its last heartbeat (scheduling only — deliberately NOT
        cache-key material).
    spawn_workers:
        With ``transport="socket"``: fork up to *workers* local workers
        as shards are dispatched and stop them when the run ends
        (default True; a run served entirely from cache starts none).
        Pass False when an external fleet dials the coordinator.
    lifecycle:
        Optional telemetry callback ``(state, info)`` — wired to the
        monitor's ``worker`` event kind by the CLI.
    """
    from ..core.experiments import experiment as lookup
    entry = lookup(experiment_id)          # raises KeyError on unknown id
    runner = entry.resolve_runner()
    if config is None:
        config = default_config(experiment_id, scale=scale)

    artifact_cache = ArtifactCache(root=cache_dir, enabled=cache)
    owned = not isinstance(transport, ShardTransport)
    if transport is None or transport == "local":
        transport = local_transport(workers, shard_timeout)
    elif transport == "socket":
        host, port = parse_address(listen or "127.0.0.1:0")
        transport = SocketTransport(
            host=host, port=port, lease_s=lease_s,
            shard_timeout=shard_timeout,
            workers=workers if spawn_workers is None or spawn_workers
            else 0)
    elif owned:
        raise ValueError(f"unknown transport: {transport!r}")
    executor = SupervisedExecutor(
        workers=workers, cache=artifact_cache, shard_timeout=shard_timeout,
        max_retries=max_retries, allow_partial=allow_partial,
        transport=transport, lifecycle=lifecycle)
    manifest = executor.manifest
    manifest.experiment_id = experiment_id
    manifest.config_digest = config.config_digest()
    manifest.code_version = CODE_VERSION

    started = time.perf_counter()
    try:
        payload = runner(executor, config)
    finally:
        if owned:
            transport.close()
    total_s = time.perf_counter() - started

    timings = {
        "total_s": total_s,
        "shard_ms_total": sum(attempt.elapsed_ms
                              for shard in manifest.shards
                              for attempt in shard.attempts),
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        rows=payload.get("rows", []),
        series=payload.get("series", {}),
        summary=payload.get("summary", {}),
        timings=timings,
        artifacts=payload.get("artifacts", {}),
        manifest=manifest)
