"""Tests for the crash-tolerant supervised runtime.

The self-chaos harness (:mod:`repro.runtime.chaos`) injects worker
crashes (``os._exit``), hangs, raised exceptions, and hand-corrupted
cache entries; every test's load-bearing assertion is the same
determinism contract PR 2 established — merged output byte-identical
to an undisturbed serial run, no matter what died along the way.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.datasets import CorpusConfig
from repro.faults import FaultClass, classify_exception
from repro.runtime import (
    ArtifactCache,
    CorpusRunConfig,
    RunManifest,
    ShardQuarantinedError,
    ShardSpec,
    SupervisedExecutor,
    resolve_worker,
    run_experiment,
    shard_key,
)
from repro.runtime.chaos import chaos_wrap
from repro.runtime.sharding import corpus_shards
from repro.runtime.sock import local_transport

#: Small but multi-shard: 6 shards of 8 corpus records each.
CORPUS_CONFIG = CorpusRunConfig(corpus=CorpusConfig(size=48, seed=11),
                                shards=6)


def plain_specs():
    return corpus_shards(CORPUS_CONFIG)


def serial_outputs(specs):
    """The undisturbed serial baseline: direct calls, no cache, no
    supervisor."""
    return [resolve_worker(spec.worker)(spec.payload) for spec in specs]


def output_bytes(outputs) -> str:
    return json.dumps(outputs, sort_keys=True)


@pytest.fixture
def baseline():
    return output_bytes(serial_outputs(plain_specs()))


def supervised(tmp_path, name="cache", **kwargs):
    kwargs.setdefault("workers", 4)
    kwargs.setdefault("max_retries", 2)
    return SupervisedExecutor(cache=ArtifactCache(root=str(tmp_path / name)),
                              **kwargs)


class TestChaosRecovery:
    """Injected faults must not change a single output byte."""

    def test_worker_crash_is_retried(self, tmp_path, baseline):
        specs = plain_specs()
        specs[1] = chaos_wrap(specs[1], "crash", 1, str(tmp_path / "scratch"))
        executor = supervised(tmp_path)
        outputs = executor.run_shards(specs)
        assert output_bytes(outputs) == baseline
        state = executor.manifest.shards[1]
        assert state.outcome == "computed"
        assert [a.outcome for a in state.attempts] == ["crash", "ok"]
        assert state.attempts[0].fault_class == "transient"
        assert "exited" in state.attempts[0].error

    def test_hung_worker_is_killed_and_retried(self, tmp_path, baseline):
        specs = plain_specs()
        specs[2] = chaos_wrap(specs[2], "hang", 1, str(tmp_path / "scratch"),
                              hang_s=60.0)
        executor = supervised(tmp_path, shard_timeout=1.0)
        outputs = executor.run_shards(specs)
        assert output_bytes(outputs) == baseline
        state = executor.manifest.shards[2]
        assert [a.outcome for a in state.attempts] == ["hang", "ok"]
        assert "timeout" in state.attempts[0].error

    def test_transient_exception_retries_with_backoff(self, tmp_path,
                                                      baseline):
        specs = plain_specs()
        specs[3] = chaos_wrap(specs[3], "transient", 2,
                              str(tmp_path / "scratch"))
        executor = supervised(tmp_path)
        outputs = executor.run_shards(specs)
        assert output_bytes(outputs) == baseline
        state = executor.manifest.shards[3]
        assert [a.outcome for a in state.attempts] == ["error", "error", "ok"]
        assert all(a.fault_class == "transient"
                   for a in state.attempts[:2])

    def test_retry_success_is_byte_identical_to_clean_run(self, tmp_path,
                                                          baseline):
        """The satellite contract: a shard that succeeds on attempt 2
        yields output byte-identical to a run that never failed."""
        specs = plain_specs()
        specs[0] = chaos_wrap(specs[0], "transient", 1,
                              str(tmp_path / "scratch"))
        executor = supervised(tmp_path, workers=1)
        outputs = executor.run_shards(specs)
        assert output_bytes(outputs) == baseline
        assert len(executor.manifest.shards[0].attempts) == 2

    def test_everything_at_once(self, tmp_path, baseline):
        """Crash + hang + transient + corrupt cache entry, one run."""
        specs = plain_specs()
        scratch = str(tmp_path / "scratch")
        specs[1] = chaos_wrap(specs[1], "crash", 1, scratch)
        specs[2] = chaos_wrap(specs[2], "hang", 1, scratch, hang_s=60.0)
        specs[4] = chaos_wrap(specs[4], "transient", 1, scratch)
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        # Pre-corrupt shard 5's cache entry: right key, tampered rows.
        key5 = specs[5].key()
        cache.store(key5, specs[5].worker, [{"fake": True}])
        with open(cache._path(key5), "r+") as stream:
            raw = stream.read()
            stream.seek(0)
            stream.write(raw.replace("true", "null"))
            stream.truncate()
        executor = SupervisedExecutor(workers=4, cache=cache,
                                      shard_timeout=1.0, max_retries=2)
        outputs = executor.run_shards(specs)
        assert output_bytes(outputs) == baseline
        outcomes = {s.index: s.outcome for s in executor.manifest.shards}
        assert set(outcomes.values()) == {"computed"}  # nothing trusted the bad entry
        retried = [s for s in executor.manifest.shards
                   if len(s.attempts) > 1]
        assert len(retried) == 3
        # The corrupted entry is quarantined, and a fresh one stored.
        assert os.listdir(os.path.join(cache.root, "corrupt"))
        assert cache.load(key5) is not None


class TestForkedFleet:
    def test_workers_exit_once_the_coordinator_is_gone(self, tmp_path):
        """A forked worker must read EOF when its coordinator dies, so no
        worker may hold a coordinator-side socket open: not the
        listener, and not a sibling's connection.  A respawned worker
        is forked after its siblings connected, so it inherits both;
        it is frozen here, so it cannot let go of them by exiting."""
        specs = plain_specs()[:3]
        specs[0] = chaos_wrap(specs[0], "crash", 1,
                              str(tmp_path / "scratch"))
        transport = local_transport(workers=3, shard_timeout=60.0)
        for ticket, spec in enumerate(specs):
            transport.dispatch(ticket, spec.worker, spec.payload)
        first = set(transport.fleet)
        processes = list(transport.fleet.values())
        try:
            outcomes, deadline = [], time.perf_counter() + 60.0
            while len(outcomes) < 3 and time.perf_counter() < deadline:
                outcomes.extend(transport.poll(0.5))
            crash, = [o for o in outcomes if o.ticket == 0]
            assert crash.outcome == "crash"
            assert crash.message == "worker exited (code 23)"
            transport.dispatch(3, specs[0].worker, specs[0].payload)
            respawned, = set(transport.fleet) - first
            processes = list(transport.fleet.values())
            while len(outcomes) < 4 and time.perf_counter() < deadline:
                outcomes.extend(transport.poll(0.5))
            assert sorted(o.outcome for o in outcomes) == \
                ["crash", "ok", "ok", "ok"]
            while respawned not in [p.worker_id for p in transport._peers]:
                assert time.perf_counter() < deadline
                transport.poll(0.1)
            frozen = transport.fleet[respawned]
            os.kill(frozen.pid, signal.SIGSTOP)
            # All a dead coordinator leaves: its sockets closed, no
            # stop broadcast.
            for peer in transport._peers:
                peer.sock.close()
            transport._listener.close()
            siblings = [p for p in processes if p is not frozen]
            for process in siblings:
                process.join(timeout=5.0)
            assert not any(process.is_alive() for process in siblings)
            assert frozen.is_alive()
        finally:
            for process in processes:
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
            transport.close()


class TestQuarantine:
    def test_permanent_fault_quarantines_immediately(self, tmp_path):
        specs = plain_specs()
        specs[2] = chaos_wrap(specs[2], "permanent", 99,
                              str(tmp_path / "scratch"))
        executor = supervised(tmp_path, allow_partial=True)
        outputs = executor.run_shards(specs)
        state = executor.manifest.shards[2]
        assert state.outcome == "quarantined"
        assert len(state.attempts) == 1  # no retry budget wasted
        assert state.quarantine_reason.startswith("permanent:")
        assert outputs[2] == []
        assert len(executor.manifest.shards) == len(specs)
        # Healthy shards are untouched by the neighbour's failure.
        baseline = serial_outputs(plain_specs())
        for index in (0, 1, 3, 4, 5):
            assert outputs[index] == baseline[index]

    def test_crash_loop_becomes_poison(self, tmp_path):
        specs = plain_specs()[:2]
        specs[1] = chaos_wrap(specs[1], "crash", 99,
                              str(tmp_path / "scratch"))
        executor = supervised(tmp_path, max_retries=1, allow_partial=True)
        executor.run_shards(specs)
        state = executor.manifest.shards[1]
        assert state.outcome == "quarantined"
        assert state.quarantine_reason.startswith("poison:")
        assert len(state.attempts) == 2  # initial + one retry

    def test_without_allow_partial_raises_after_completion(self, tmp_path):
        """The error comes *after* healthy shards persisted — that is
        what makes the rerun cheap."""
        specs = plain_specs()
        specs[1] = chaos_wrap(specs[1], "permanent", 99,
                              str(tmp_path / "scratch"))
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        executor = SupervisedExecutor(workers=4, cache=cache, max_retries=2)
        with pytest.raises(ShardQuarantinedError) as excinfo:
            executor.run_shards(specs)
        assert "permanent" in str(excinfo.value)
        assert len(excinfo.value.states) == 1
        # All five healthy shards already live in the cache.
        assert sum(1 for _ in cache.entries()) == 5

    def test_unknown_exception_is_permanent(self):
        assert classify_exception("KeyError") is FaultClass.PERMANENT
        assert classify_exception("TimeoutError") is FaultClass.TRANSIENT
        assert classify_exception("MemoryError") is FaultClass.POISON


class TestResume:
    def test_interrupted_run_resumes_from_cache(self, tmp_path, baseline):
        """First invocation quarantines a crash-looping shard; the
        second recomputes only that shard and completes the campaign."""
        specs = plain_specs()
        # Crashes 3 times total; run 1 (max_retries=1) sees crashes
        # 1-2 and quarantines; run 2 sees crash 3 then success.
        specs[2] = chaos_wrap(specs[2], "crash", 3, str(tmp_path / "scratch"))
        cache = ArtifactCache(root=str(tmp_path / "cache"))

        first = SupervisedExecutor(workers=4, cache=cache, max_retries=1,
                                   allow_partial=True)
        outputs1 = first.run_shards(specs)
        assert outputs1[2] == []
        assert first.manifest.shards[2].outcome == "quarantined"

        second = SupervisedExecutor(workers=4, cache=cache, max_retries=1,
                                    allow_partial=True)
        outputs2 = second.run_shards(specs)
        outcomes = [s.outcome for s in second.manifest.shards]
        assert outcomes.count("cached") == 5
        assert outcomes.count("computed") == 1
        assert output_bytes(outputs2) == baseline

    def test_mixed_cached_computed_provenance(self, tmp_path):
        """The manifest says what came from where, and the
        threaded-through keys match spec.key()."""
        specs = plain_specs()
        cache = ArtifactCache(root=str(tmp_path / "cache"))
        warmup = SupervisedExecutor(workers=2, cache=cache)
        warmup.run_shards(specs[:3])

        executor = SupervisedExecutor(workers=2, cache=cache)
        outputs = executor.run_shards(specs)
        states = executor.manifest.shards
        assert [s.cached for s in states] == [True] * 3 + [False] * 3
        assert [s.outcome for s in states] \
            == ["cached"] * 3 + ["computed"] * 3
        for spec, rows, state in zip(specs, outputs, states):
            assert state.key == spec.key()
            assert state.rows == len(rows) > 0
        assert output_bytes(outputs) == output_bytes(serial_outputs(specs))


class TestCacheIntegrity:
    def store_one(self, tmp_path, rows=None):
        cache = ArtifactCache(root=str(tmp_path / "c"))
        rows = rows if rows is not None else [{"a": 1}, {"b": 2}, {"c": 3}]
        key = shard_key("m:f", {"x": 1})
        cache.store(key, "m:f", rows)
        return cache, key

    def test_round_trip(self, tmp_path):
        cache, key = self.store_one(tmp_path)
        assert cache.load(key) == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_truncated_at_line_boundary_is_corruption(self, tmp_path):
        """Satellite regression: a file cut at a line boundary used to
        silently return fewer rows; now the header row count (and the
        digest) flags it."""
        cache, key = self.store_one(tmp_path)
        path = cache._path(key)
        with open(path) as stream:
            lines = stream.read().splitlines()
        with open(path, "w") as stream:
            stream.write("\n".join(lines[:-1]) + "\n")  # drop last row only
        assert cache.load(key) is None
        assert os.path.basename(path) in os.listdir(
            os.path.join(cache.root, "corrupt"))

    def test_tampered_payload_is_corruption(self, tmp_path):
        cache, key = self.store_one(tmp_path)
        path = cache._path(key)
        with open(path) as stream:
            raw = stream.read()
        with open(path, "w") as stream:
            stream.write(raw.replace('{"b": 2}', '{"b": 9}'))
        assert cache.load(key) is None

    def test_second_store_leaves_the_entry_untouched(self, tmp_path):
        """Keys are content addresses: storing an existing key again
        (worker and coordinator sharing one directory) writes nothing."""
        cache, key = self.store_one(tmp_path)
        before = os.stat(cache._path(key))
        cache.store(key, "m:f", [{"a": 1}, {"b": 2}, {"c": 3}])
        after = os.stat(cache._path(key))
        assert (after.st_ino, after.st_mtime_ns) \
            == (before.st_ino, before.st_mtime_ns)

    def test_missing_file_is_plain_miss(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path / "c"))
        assert cache.load(shard_key("m:f", {"y": 2})) is None
        assert not os.path.isdir(os.path.join(cache.root, "corrupt"))

    def test_corrupt_entry_recomputes_and_heals(self, tmp_path):
        cache, key = self.store_one(tmp_path)
        with open(cache._path(key), "w") as stream:
            stream.write("garbage\n")
        assert cache.load(key) is None
        cache.store(key, "m:f", [{"a": 1}, {"b": 2}, {"c": 3}])
        assert cache.load(key) == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        cache, key = self.store_one(tmp_path)
        with open(cache._path(key), "w") as stream:
            stream.write("garbage\n")
        assert cache.load(key) is None  # quarantined
        removed, freed = cache.gc(dry_run=True)
        assert removed == 1 and freed > 0
        assert cache.stats().corrupt_entries == 1  # still there
        assert cache.gc() == (removed, freed)
        assert cache.stats().corrupt_entries == 0

    def test_gc_max_age_keeps_fresh_evidence(self, tmp_path):
        cache, key = self.store_one(tmp_path)
        with open(cache._path(key), "w") as stream:
            stream.write("garbage\n")
        assert cache.load(key) is None
        corrupt = os.path.join(cache.root, "corrupt",
                               os.path.basename(cache._path(key)))
        now = os.path.getmtime(corrupt) + 100.0
        assert cache.gc(max_age_s=500.0, now=now) == (0, 0)
        assert cache.stats().corrupt_entries == 1
        removed, _freed = cache.gc(max_age_s=50.0, now=now)
        assert removed == 1
        assert cache.stats().corrupt_entries == 0

    def test_gc_max_age_requires_explicit_now(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path / "c"))
        with pytest.raises(ValueError, match="wall clock"):
            cache.gc(max_age_s=10.0)

    def test_stats_verify_gc(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path / "c"))
        keys = [shard_key("m:f", {"i": i}) for i in range(3)]
        for i, key in enumerate(keys):
            cache.store(key, "m:f", [{"i": i}])
        stats = cache.stats()
        assert stats.entries == 3 and stats.rows == 3
        assert stats.corrupt_entries == 0
        # Corrupt one entry by hand; verify must catch and quarantine.
        with open(cache._path(keys[1]), "a") as stream:
            stream.write('{"extra": "row"}\n')
        report = cache.verify()
        assert report.checked == 3 and report.ok == 2
        assert report.corrupt == [keys[1]]
        assert not report.clean
        assert cache.stats().corrupt_entries == 1
        # Second verify is clean (the bad entry is gone from the live set).
        assert cache.verify().clean
        removed, freed = cache.gc()
        assert removed == 1 and freed > 0
        assert cache.stats().corrupt_entries == 0
        removed, _freed = cache.gc(everything=True)
        assert removed == 2
        assert cache.stats().entries == 0


class TestBackoffBudget:
    """Satellite: retry backoff never outlives the shard's own
    wall-clock budget — a shard with 0.3s of timeout left is not put
    to sleep for 1s first."""

    def test_exponential_ramp_with_cap(self):
        executor = SupervisedExecutor(backoff_base_s=0.1, backoff_cap_s=0.4)
        assert [executor._backoff_s(n) for n in (1, 2, 3, 4, 5)] \
            == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_capped_by_remaining_timeout_budget(self):
        executor = SupervisedExecutor(shard_timeout=1.0,
                                      backoff_base_s=0.4,
                                      backoff_cap_s=10.0)
        # Attempt 3 wants 1.6s, but only 0.1s of budget remains.
        assert executor._backoff_s(3, spent_s=0.9) == pytest.approx(0.1)
        # Budget exhausted: retry immediately rather than sleep at all.
        assert executor._backoff_s(3, spent_s=1.0) == 0.0
        assert executor._backoff_s(3, spent_s=5.0) == 0.0

    def test_uncapped_without_timeout(self):
        executor = SupervisedExecutor(backoff_base_s=0.4,
                                      backoff_cap_s=10.0)
        assert executor._backoff_s(3, spent_s=100.0) == pytest.approx(1.6)


class TestResolveWorker:
    def test_wrong_function_name_raises_value_error(self):
        """Satellite regression: used to surface as a bare
        AttributeError with no hint of the dotted entrypoint."""
        with pytest.raises(ValueError,
                           match=r"repro\.runtime\.runners:not_a_worker"):
            resolve_worker("repro.runtime.runners:not_a_worker")

    def test_malformed_spelling_raises(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve_worker("no-colon-here")

    def test_good_entrypoint_resolves(self):
        assert callable(resolve_worker("repro.runtime.runners:corpus_shard"))


class TestRunExperimentSupervised:
    def test_supervised_result_carries_manifest(self, tmp_path):
        result = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                                workers=2, cache_dir=str(tmp_path))
        manifest = result.manifest
        assert isinstance(manifest, RunManifest)
        assert manifest.experiment_id == "sec4-deployment"
        assert manifest.complete
        assert manifest.computed == len(manifest.shards) == 6
        document = result.to_dict()
        assert document["manifest"]["complete"] is True
        json.dumps(document)  # JSON-safe

    def test_supervised_equals_unsupervised(self, tmp_path):
        """In-process (one worker, no cache) and a 3-worker forked
        fleet merge to the same result."""
        plain = run_experiment("sec4-deployment", config=CORPUS_CONFIG,
                               cache=False)
        supervised_result = run_experiment(
            "sec4-deployment", config=CORPUS_CONFIG, workers=3,
            cache_dir=str(tmp_path))
        assert supervised_result.rows == plain.rows
        assert supervised_result.summary == plain.summary

    def test_every_result_carries_a_manifest(self):
        """Every run is supervised, so even a one-worker, cache-off run
        reports what each shard went through."""
        result = run_experiment("tbl2", cache=False)
        assert isinstance(result.manifest, RunManifest)
        assert result.manifest.computed == len(result.manifest.shards) == 1
        assert result.to_dict()["manifest"]["complete"] is True

    def test_chaos_fig3_supervised_matches_serial(self, tmp_path):
        """The acceptance scenario on a real scan campaign: inject a
        crash into one scan shard, supervise at 4 workers, and demand
        the merged dataset match the undisturbed serial run."""
        from repro.datasets import WorldConfig
        from repro.runtime import ScanCampaignConfig
        from repro.runtime.sharding import (merge_scan_rows, scan_entries,
                                            scan_shards)
        from repro.scanner.io import dump_dataset
        import io

        campaign = ScanCampaignConfig(
            world=WorldConfig(n_responders=12, certs_per_responder=1,
                              seed=7),
            interval=12 * 3600, start=1518048000,
            end=1518048000 + 2 * 86400, target_chunks=4)
        specs = scan_shards(campaign)
        serial = merge_scan_rows(
            campaign, [scan_entries(rows) for rows in serial_outputs(specs)])

        chaotic = list(specs)
        chaotic[1] = chaos_wrap(specs[1], "crash", 1,
                                str(tmp_path / "scratch"))
        executor = SupervisedExecutor(
            workers=4, cache=ArtifactCache(root=str(tmp_path / "cache")))
        merged = merge_scan_rows(
            campaign, executor.run_shards(chaotic, decode=scan_entries))

        def dump(dataset):
            stream = io.StringIO()
            dump_dataset(dataset, stream)
            return stream.getvalue()

        assert dump(merged) == dump(serial)


class TestCacheCLI:
    def test_stats_verify_gc_commands(self, tmp_path, capsys):
        from repro.cli import main
        cache_dir = str(tmp_path / "c")
        assert main(["run", "tbl2", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out

        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        assert "1 ok, 0 corrupt" in capsys.readouterr().out

        # Corrupt the lone entry; verify flags it and exits nonzero.
        cache = ArtifactCache(root=cache_dir)
        (key, path), = cache.entries()
        with open(path, "a") as stream:
            stream.write("trailing garbage\n")
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        assert key in capsys.readouterr().out

        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_run_supervise_flag(self, tmp_path, capsys):
        """Every run is supervised: a plain run prints its manifest."""
        from repro.cli import main
        assert main(["run", "tbl2", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "manifest: 0 cached, 1 computed" in out
