"""Tests for repro.runtime — sharding, caching, and the unified API.

The load-bearing guarantees:

* parallel output is byte-identical to serial output (and to the
  plain in-process scanner) for shard-merged experiments;
* the artifact cache hits on an unchanged config, misses on any config
  change, and a warm rerun executes zero shards;
* every registry entry resolves to a callable runner.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.experiments import all_experiments
from repro.datasets import CorpusConfig, WorldConfig
from repro.datasets.corpus import CertificateCorpus
from repro.runtime import (
    ArtifactCache,
    CorpusRunConfig,
    ScanCampaignConfig,
    ShardSpec,
    SupervisedExecutor,
    default_config,
    run_experiment,
    shard_key,
)
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
        assert cold.provenance.executed_shards == len(cold.provenance.shards)
        assert warm.cache_status == "hit"
        assert warm.provenance.executed_shards == 0
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
        outputs, records = executor.run(specs)
        assert len(outputs[0]) == 4
        assert not records[0].cached
        outputs2, records2 = executor.run(specs)
        assert records2[0].cached
        assert outputs2 == outputs


class TestRegistryCompleteness:
    def test_every_experiment_has_callable_runner(self):
        for entry in all_experiments():
            runner = entry.resolve_runner()
            assert callable(runner), entry.experiment_id

    def test_every_experiment_has_default_config(self):
        for entry in all_experiments():
            config = default_config(entry.experiment_id)
            digest = config.config_digest()
            assert isinstance(digest, str) and digest
            # Configs round-trip through their dict form.
            rebuilt = type(config).from_dict(
                json.loads(json.dumps(config.to_dict())))
            assert rebuilt.config_digest() == digest

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("not-an-experiment")


class TestResultShape:
    def test_result_document_is_json_serializable(self):
        result = run_experiment("fig8", config=SMALL_CAMPAIGN, cache=False)
        document = result.to_dict()
        encoded = json.dumps(document)
        # The Figure-8 blank-nextUpdate infinity maps to the "inf" token.
        assert '"inf"' in encoded
        assert document["cache"] == "off"
        assert document["provenance"]["experiment_id"] == "fig8"

    def test_timings_and_provenance_populated(self):
        result = run_experiment("tbl3", cache=False)
        assert result.timings["total_s"] >= 0
        assert result.provenance.workers == 1
        assert len(result.provenance.shards) == 1


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

    def test_root_seed_alias_is_an_error(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "scan.jsonl"
        assert main(["--seed", "9", "scan", "--responders", "40",
                     "--days", "1", "--interval", "12", "--no-cache",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "removed" in err
        # The migration hint names the exact replacement spelling.
        assert "repro scan --seed 9" in err
        assert not out.exists()

    def test_figures_full_alias_is_an_error(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["figures", "--full", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "removed" in err and "--scale full" in err
