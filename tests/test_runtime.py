"""Tests for repro.runtime — sharding, caching, and the unified API.

The load-bearing guarantees:

* parallel output is byte-identical to serial output (and to the
  plain in-process scanner) for shard-merged experiments;
* the artifact cache hits on an unchanged config, misses on any config
  change, and a warm rerun executes zero shards;
* every registry entry resolves to a callable runner;
* the config -> cache-key mapping is frozen: every default config's
  ``to_dict()``, digest and planned shard keys match
  ``tests/data/config_digests.json``, and every config class
  round-trips through JSON.
"""

from __future__ import annotations

import dataclasses
import io
import json
import typing
from pathlib import Path

import pytest

from repro.canon import FieldCodec
from repro.core.experiments import all_experiments, experiment
from repro.core.figures import FigureScale
from repro.datasets import AlexaConfig, CorpusConfig, WorldConfig
from repro.datasets.corpus import CertificateCorpus
from repro.runtime import (
    AlexaRunConfig,
    ArtifactCache,
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
    ShardSpec,
    SupervisedExecutor,
    WhatIfRunConfig,
    default_config,
    run_experiment,
    shard_key,
)
from repro.runtime.configs import ServeLoadTestConfig
from repro.scanner.hourly import HourlyScanner
from repro.scanner.io import dump_dataset
from repro.simnet import DAY, HOUR, MEASUREMENT_START

SMALL_CAMPAIGN = ScanCampaignConfig(
    world=WorldConfig(n_responders=40, certs_per_responder=1, seed=7),
    interval=12 * HOUR,
    start=MEASUREMENT_START,
    end=MEASUREMENT_START + 2 * DAY,
)


def _dump(dataset) -> str:
    stream = io.StringIO()
    dump_dataset(dataset, stream)
    return stream.getvalue()


class TestShardMergeDeterminism:
    def test_fig3_parallel_bytes_equal_serial(self):
        serial = run_experiment("fig3", config=SMALL_CAMPAIGN, workers=1,
                                cache=False)
        parallel = run_experiment("fig3", config=SMALL_CAMPAIGN, workers=4,
                                  cache=False)
        assert serial.rows == parallel.rows
        assert serial.series == parallel.series
        assert serial.summary == parallel.summary
        assert (_dump(serial.artifacts["dataset"])
                == _dump(parallel.artifacts["dataset"]))

    def test_fig3_merge_matches_inprocess_scanner(self):
        from repro.datasets import MeasurementWorld
        result = run_experiment("fig3", config=SMALL_CAMPAIGN, workers=3,
                                cache=False)
        scanner = HourlyScanner(MeasurementWorld(SMALL_CAMPAIGN.world),
                                interval=SMALL_CAMPAIGN.interval)
        direct = scanner.run(SMALL_CAMPAIGN.start, SMALL_CAMPAIGN.end)
        assert _dump(result.artifacts["dataset"]) == _dump(direct)

    def test_sec4_parallel_equals_serial(self):
        config = CorpusRunConfig(corpus=CorpusConfig(size=300, seed=7),
                                 shards=4)
        serial = run_experiment("sec4-deployment", config=config, workers=1,
                                cache=False)
        parallel = run_experiment("sec4-deployment", config=config, workers=4,
                                  cache=False)
        assert serial.rows == parallel.rows
        assert serial.summary == parallel.summary

    def test_sharded_corpus_equals_lazy_corpus(self):
        config = CorpusConfig(size=120, seed=5)
        lazy = CertificateCorpus(config)
        sharded = CertificateCorpus.generate(config, shards=4)
        assert [r.to_dict() for r in lazy.records] \
            == [r.to_dict() for r in sharded.records]

    def test_shard_plan_independent_of_workers(self):
        from repro.runtime.sharding import scan_shards
        keys = [spec.key() for spec in scan_shards(SMALL_CAMPAIGN)]
        assert keys == [spec.key() for spec in scan_shards(SMALL_CAMPAIGN)]
        assert len(set(keys)) == len(keys)


class TestArtifactCache:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        cold = run_experiment("fig3", config=SMALL_CAMPAIGN,
                              cache_dir=str(tmp_path))
        warm = run_experiment("fig3", config=SMALL_CAMPAIGN,
                              cache_dir=str(tmp_path))
        assert cold.cache_status == "miss"
        assert cold.manifest.cached == 0
        assert cold.manifest.computed == len(cold.manifest.shards)
        assert warm.cache_status == "hit"
        assert warm.manifest.cached == len(warm.manifest.shards)
        assert warm.rows == cold.rows
        assert warm.series == cold.series
        assert warm.summary == cold.summary

    def test_warm_hit_across_worker_counts(self, tmp_path):
        cold = run_experiment("fig3", config=SMALL_CAMPAIGN, workers=2,
                              cache_dir=str(tmp_path))
        warm = run_experiment("fig3", config=SMALL_CAMPAIGN, workers=1,
                              cache_dir=str(tmp_path))
        assert cold.cache_status == "miss"
        assert warm.cache_status == "hit"

    def test_config_change_invalidates(self, tmp_path):
        run_experiment("fig3", config=SMALL_CAMPAIGN,
                       cache_dir=str(tmp_path))
        changed = ScanCampaignConfig(
            world=WorldConfig(n_responders=40, certs_per_responder=1,
                              seed=8),
            interval=SMALL_CAMPAIGN.interval,
            start=SMALL_CAMPAIGN.start, end=SMALL_CAMPAIGN.end)
        rerun = run_experiment("fig3", config=changed,
                               cache_dir=str(tmp_path))
        assert rerun.cache_status == "miss"

    def test_cache_disabled_reports_off(self):
        result = run_experiment("tbl2", cache=False)
        assert result.cache_status == "off"

    def test_scan_campaign_shards_shared_across_experiments(self, tmp_path):
        cold = run_experiment("fig3", config=SMALL_CAMPAIGN,
                              cache_dir=str(tmp_path))
        fig6 = run_experiment("fig6", config=SMALL_CAMPAIGN,
                              cache_dir=str(tmp_path))
        assert cold.cache_status == "miss"
        assert fig6.cache_status == "hit"

    def test_corrupt_entry_recomputes(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        key = shard_key("m:f", {"x": 1})
        cache.store(key, "m:f", [{"a": 1}])
        assert cache.load(key) == [{"a": 1}]
        with open(cache._path(key), "w") as stream:
            stream.write("not json\n")
        assert cache.load(key) is None

    def test_executor_runs_uncached_specs(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        executor = SupervisedExecutor(workers=1, cache=cache)
        specs = [ShardSpec(
            worker="repro.runtime.runners:corpus_shard",
            payload={"corpus": CorpusConfig(size=4, seed=1).to_dict(),
                     "lo": 0, "hi": 4})]
        outputs = executor.run_shards(specs)
        assert len(outputs[0]) == 4
        assert not executor.manifest.shards[0].cached
        outputs2 = executor.run_shards(specs)
        assert executor.manifest.shards[1].cached
        assert outputs2 == outputs


class TestRegistryCompleteness:
    def test_every_experiment_has_callable_runner(self):
        for entry in all_experiments():
            runner = entry.resolve_runner()
            assert callable(runner), entry.experiment_id

    def test_every_experiment_has_default_config(self):
        for scale in (FigureScale.small(), FigureScale.full()):
            for entry in all_experiments():
                config = default_config(entry.experiment_id, scale)
                digest = config.config_digest()
                assert isinstance(digest, str) and digest
                # Configs round-trip through their dict form.
                rebuilt = type(config).from_dict(
                    json.loads(json.dumps(config.to_dict())))
                assert rebuilt == config, entry.experiment_id
                assert rebuilt.config_digest() == digest

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("not-an-experiment")


DATA_DIR = Path(__file__).parent / "data"

#: Every config class; each derives its codec from :class:`FieldCodec`.
CONFIG_CLASSES = (
    WorldConfig, CorpusConfig, AlexaConfig, ScanCampaignConfig,
    CorpusRunConfig, AlexaRunConfig, OutageImpactConfig,
    ConsistencyRunConfig, ReadinessConfig, LatencyConfig,
    AttackWindowConfig, WhatIfRunConfig, SeedConfig,
    ChaosAvailabilityConfig, ChaosClientConfig, HostileCorpusConfig,
    ServeLoadTestConfig, MonitorConvergenceConfig,
)


class _Planned(Exception):
    """Raised by :class:`_PlanRecorder` once a runner has planned."""


class _PlanRecorder:
    """A stand-in executor that records the first planned shard batch and
    stops the runner before anything executes."""

    def __init__(self) -> None:
        self.specs = []

    def run_shards(self, specs):
        self.specs.extend(specs)
        raise _Planned


def _planned_keys(experiment_id: str, config) -> list:
    ctx = _PlanRecorder()
    with pytest.raises(_Planned):
        experiment(experiment_id).resolve_runner()(ctx, config)
    return [spec.key() for spec in ctx.specs]


def _non_default_value(hint, default):
    """A value of type *hint* that differs from *default*."""
    if isinstance(default, FieldCodec):
        return _non_default_config(type(default))
    if typing.get_origin(hint) is typing.Union:          # Optional[X]
        hint = typing.get_args(hint)[0]
    origin = typing.get_origin(hint)
    if origin is tuple:
        element = _non_default_value(typing.get_args(hint)[0], None)
        return tuple(default or ()) + (element,)
    if origin is dict:
        return {key: value + 0.5 for key, value in default.items()}
    if hint is str:
        return "Virginia"
    if hint is float:
        return (default or 0.0) + 0.5
    return (default or 0) + 1


def _non_default_config(cls):
    """An instance of *cls* with a non-default value in every field,
    nested configs included."""
    hints = typing.get_type_hints(cls)
    values = {}
    for field in dataclasses.fields(cls):
        default = getattr(cls(), field.name)
        values[field.name] = _non_default_value(hints[field.name], default)
        assert values[field.name] != default, (cls.__name__, field.name)
    return cls(**values)


class TestConfigCodec:
    def test_config_classes_are_every_codec_subclass(self):
        assert set(FieldCodec.__subclasses__()) == set(CONFIG_CLASSES)

    @pytest.mark.parametrize("cls", CONFIG_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_non_default_round_trip(self, cls):
        config = _non_default_config(cls)
        rebuilt = cls.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.config_digest() == config.config_digest()
        assert config.config_digest() != cls().config_digest()

    @pytest.mark.parametrize("cls", CONFIG_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_unknown_key_raises(self, cls):
        with pytest.raises(TypeError):
            cls.from_dict({**cls().to_dict(), "not_a_field": 1})

    def test_missing_key_takes_default(self):
        assert ScanCampaignConfig.from_dict({}) == ScanCampaignConfig()
        assert (ChaosClientConfig.from_dict({"fault_seed": 5})
                == ChaosClientConfig(fault_seed=5))

    @pytest.mark.parametrize("cls", (ScanCampaignConfig, OutageImpactConfig,
                                     ChaosClientConfig),
                             ids=lambda cls: cls.__name__)
    def test_empty_vantages_mean_all(self, cls):
        empty, unset = cls(vantages=()), cls(vantages=None)
        assert empty.to_dict()["vantages"] is None
        assert empty.config_digest() == unset.config_digest()


class TestFrozenConfigDigests:
    """The config -> cache-key mapping recorded in
    ``tests/data/config_digests.json``: a drift means a warm cache would
    serve one campaign's shards to another (or miss every shard)."""

    FROZEN = json.loads((DATA_DIR / "config_digests.json").read_text())

    @staticmethod
    def _check(record, experiment_id, config):
        assert json.dumps(config.to_dict()) == record["to_dict"]
        assert config.config_digest() == record["config_digest"]
        assert _planned_keys(experiment_id, config) == record["shard_keys"]

    @pytest.mark.parametrize("scale_name", ("small", "full"))
    def test_default_configs(self, scale_name):
        scale = getattr(FigureScale, scale_name)()
        frozen = self.FROZEN[scale_name]
        assert set(frozen) == {entry.experiment_id
                               for entry in all_experiments()}
        for experiment_id, record in sorted(frozen.items()):
            self._check(record, experiment_id,
                        default_config(experiment_id, scale))

    def test_hostile_fleet_configs(self):
        # perfbench/hostile_fleet.py: seeds 0 and 7, cold and rerun corpus.
        frozen = self.FROZEN["hostile_fleet"]
        assert len(frozen) == 4
        for seed, record in sorted(frozen.items()):
            self._check(record, "hostile-corpus",
                        HostileCorpusConfig(seed=int(seed), chunks=200))


class TestResultShape:
    def test_result_document_is_json_serializable(self):
        result = run_experiment("fig8", config=SMALL_CAMPAIGN, cache=False)
        document = result.to_dict()
        encoded = json.dumps(document)
        # The Figure-8 blank-nextUpdate infinity maps to the "inf" token.
        assert '"inf"' in encoded
        assert document["cache"] == "off"
        assert document["manifest"]["experiment_id"] == "fig8"

    def test_timings_and_provenance_populated(self):
        result = run_experiment("tbl3", cache=False)
        assert result.timings["total_s"] >= 0
        assert result.manifest.workers == 1
        assert len(result.manifest.shards) == 1
        assert result.timings["shard_ms_total"] == pytest.approx(sum(
            attempt.elapsed_ms for shard in result.manifest.shards
            for attempt in shard.attempts))

    def test_provenance_is_the_manifest(self):
        result = run_experiment("tbl3", cache=False)
        assert result.provenance is result.manifest
        config = default_config("tbl3")
        assert result.manifest.config_digest == config.config_digest()
        assert result.manifest.code_version

    def test_document_has_one_per_shard_list(self):
        document = run_experiment("fig3", config=SMALL_CAMPAIGN,
                                  cache=False).to_dict()
        assert "provenance" not in document
        manifest = document["manifest"]
        assert manifest["config_digest"] == SMALL_CAMPAIGN.config_digest()
        assert manifest["code_version"]

        def shard_lists(node, path=""):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from shard_lists(value, f"{path}.{key}")
            elif isinstance(node, list):
                if node and all(isinstance(item, dict) and "key" in item
                                and "label" in item for item in node):
                    yield path
                for item in node:
                    yield from shard_lists(item, path + "[]")

        assert list(shard_lists(document)) == [".manifest.shards"]

    def test_record_spans_every_run_shards_call(self, tmp_path):
        """An executor may run several shard batches: the one record
        lists every batch, indexed 0..n-1 in spec order, with the scan
        batch restored from a cache that fig3 filled."""
        from repro.runtime.sharding import corpus_shards, scan_shards
        corpus = corpus_shards(CorpusRunConfig(
            corpus=CorpusConfig(size=8, seed=3), shards=2))
        scan = scan_shards(SMALL_CAMPAIGN)
        run_experiment("fig3", config=SMALL_CAMPAIGN,
                       cache_dir=str(tmp_path))
        executor = SupervisedExecutor(
            cache=ArtifactCache(root=str(tmp_path)))
        executor.run_shards(corpus)
        executor.run_shards(scan)
        manifest = executor.manifest
        specs = corpus + scan
        assert [s.index for s in manifest.shards] == list(range(len(specs)))
        assert [(s.label, s.key) for s in manifest.shards] \
            == [(spec.label, spec.key()) for spec in specs]
        assert [s.cached for s in manifest.shards] \
            == [False] * len(corpus) + [True] * len(scan)
        assert (manifest.cached, manifest.computed) \
            == (len(scan), len(corpus))


class TestCLIRuntime:
    def test_run_subcommand_reports_cache_status(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["run", "tbl2", "--cache-dir", str(tmp_path)]) == 0
        assert "cache: miss" in capsys.readouterr().out
        assert main(["run", "tbl2", "--cache-dir", str(tmp_path)]) == 0
        assert "cache: hit" in capsys.readouterr().out

    def test_run_json_document(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["run", "abl-parser", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["experiment_id"] == "abl-parser"
        assert document["rows"]

    def test_run_unknown_experiment_fails(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["run", "nope", "--cache-dir", str(tmp_path)]) == 2

    def test_root_seed_alias_is_an_error(self, tmp_path):
        from repro.cli import build_parser, main
        out = tmp_path / "scan.jsonl"
        scan = ["scan", "--scale", "small", "--no-cache", "--out", str(out)]
        # The same scan arguments parse without the root-level --seed ...
        assert build_parser().parse_args(scan).command == "scan"
        # ... so only the root --seed makes this an error.
        with pytest.raises(SystemExit) as exited:
            main(["--seed", "9", *scan])
        assert exited.value.code == 2
        assert not out.exists()

    def test_figures_full_alias_is_an_error(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "figs"
        with pytest.raises(SystemExit) as exited:
            main(["figures", "--full", "--out", str(out)])
        assert exited.value.code == 2
        assert not out.exists()
