"""repro.runtime — sharded parallel experiment execution.

The runtime turns every paper artefact into the same three-stage
pipeline: **plan** (split the experiment into content-addressed
shards), **execute** (cache-first, over any transport), and **merge**
(deterministically, so parallel output is byte-identical to serial).
:func:`run_experiment` is the single public entrypoint; the CLI, the
benchmarks, and :mod:`repro.core.figures` all sit on it.

Every run goes through :class:`SupervisedExecutor`: results stream
into the artifact cache the moment each shard completes, crashed or
hung workers are restarted, transient failures retry with capped
backoff, unrecoverable shards are quarantined, and the result carries
one run record, a :class:`RunManifest`: the config digest and code
version, and every shard's attempts.  Every transport
computes a shard through one execute step
(:func:`~repro.runtime.executor.execute_job`).
:mod:`~repro.runtime.chaos` provides the self-chaos workers that prove
this machinery in tests and CI.
"""

from .api import run_experiment
from .cache import (
    CODE_VERSION,
    SCHEMA_VERSION,
    ArtifactCache,
    CacheStats,
    VerifyReport,
    default_cache_dir,
    shard_key,
)
from .configs import (
    AlexaRunConfig,
    AttackWindowConfig,
    ChaosAvailabilityConfig,
    ChaosClientConfig,
    ConsistencyRunConfig,
    CorpusRunConfig,
    HostileCorpusConfig,
    LatencyConfig,
    MonitorConvergenceConfig,
    OutageImpactConfig,
    ReadinessConfig,
    ScanCampaignConfig,
    SeedConfig,
    WhatIfRunConfig,
    default_config,
)
from .dist import job_document
from .executor import ShardSpec, resolve_worker
from .sock import (
    FrameBuffer,
    SocketTransport,
    SocketWorker,
    connect_backoff,
    parse_address,
)
from .result import (
    ExperimentResult,
    RunManifest,
    ShardAttempt,
    ShardState,
)
from .supervisor import ShardQuarantinedError, SupervisedExecutor
from .transport import AttemptOutcome, ShardTransport

__all__ = [
    "AlexaRunConfig",
    "ArtifactCache",
    "AttackWindowConfig",
    "AttemptOutcome",
    "CODE_VERSION",
    "CacheStats",
    "ChaosAvailabilityConfig",
    "ChaosClientConfig",
    "ConsistencyRunConfig",
    "CorpusRunConfig",
    "ExperimentResult",
    "FrameBuffer",
    "HostileCorpusConfig",
    "LatencyConfig",
    "MonitorConvergenceConfig",
    "OutageImpactConfig",
    "ReadinessConfig",
    "RunManifest",
    "SCHEMA_VERSION",
    "ScanCampaignConfig",
    "SeedConfig",
    "ShardAttempt",
    "ShardQuarantinedError",
    "ShardSpec",
    "ShardState",
    "ShardTransport",
    "SocketTransport",
    "SocketWorker",
    "SupervisedExecutor",
    "VerifyReport",
    "WhatIfRunConfig",
    "connect_backoff",
    "default_cache_dir",
    "default_config",
    "job_document",
    "parse_address",
    "resolve_worker",
    "run_experiment",
    "shard_key",
]
