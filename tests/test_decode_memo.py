"""Each verified scan-cache entry is decoded once per process.

``ArtifactCache.load(key, decode)`` still reads and verifies every
entry on every call; only the decode that follows is memoized, on the
digest of the row bytes just verified
(:data:`repro.memo.DECODED_ENTRIES`).  These tests pin the reuse on
the Figure 3 family and that the memo never weakens the cache: a
corrupted entry is quarantined and recomputed without the memo being
consulted for its bytes, results share no mutable record, an uncached
run leaves the memo alone, and a decode error propagates with nothing
stored.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.canon import stable_digest
from repro.datasets import CorpusConfig
from repro.memo import BoundedMemo
from repro.runtime import (ArtifactCache, CorpusRunConfig,
                           SupervisedExecutor, run_experiment)
from repro.runtime import cache as cache_module
from repro.runtime.chaos import chaos_wrap
from repro.runtime.sharding import corpus_shards, scan_entries
from repro.scanner.results import ProbeOutcome

#: The experiments that read the default Figure 3 campaign's entries.
FAMILY = ("fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
          "ext-response-size")


def digest(result) -> str:
    return stable_digest({"rows": result.rows, "series": result.series,
                          "summary": result.summary})


def run(experiment_id, cache_dir):
    return run_experiment(experiment_id, workers=1, cache_dir=cache_dir)


@pytest.fixture
def memo(monkeypatch):
    """A fresh decoded-entry memo, so counts start at zero."""
    memo = BoundedMemo(cache_module.DECODED_ENTRIES.cap)
    monkeypatch.setattr(cache_module, "DECODED_ENTRIES", memo)
    return memo


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A cache holding the default fig3 campaign, and its cold digest."""
    root = tmp_path_factory.mktemp("campaign")
    cold = run("fig3", str(root))
    assert cold.manifest.computed == 8
    return root, digest(cold)


@pytest.fixture
def cache_dir(campaign, tmp_path):
    root = tmp_path / "cache"
    shutil.copytree(campaign[0], root)
    return str(root)


def test_family_rerun_decodes_each_entry_once(cache_dir, memo, monkeypatch):
    verified = []
    check = ArtifactCache._verified
    monkeypatch.setattr(ArtifactCache, "_verified", staticmethod(
        lambda raw: verified.append(raw) or check(raw)))
    run("fig3", cache_dir)
    assert (memo.misses, memo.hits, len(verified)) == (8, 0, 8)
    for experiment_id in FAMILY[1:]:
        assert run(experiment_id, cache_dir).manifest.cached == 8
    # Every read is still verified; only the decode is reused.
    assert (memo.misses, memo.hits, len(verified)) == (8, 48, 56)
    assert (len(memo), memo.evictions) == (8, 0)


def test_corrupt_entry_is_quarantined_and_recomputed(cache_dir, memo):
    run("fig3", cache_dir)
    clean = digest(run("fig5", cache_dir))
    key, path = next(ArtifactCache(root=cache_dir).entries())
    with open(path, "rb") as stream:
        data = bytearray(stream.read())
    body = data.index(b"\n") + 1
    at = next(i for i in range(body, len(data)) if data[i:i + 1].isdigit())
    data[at] ^= 1                      # still a digit: valid JSON, bad digest
    with open(path, "wb") as stream:
        stream.write(data)

    misses, hits = memo.misses, memo.hits
    result = run("fig5", cache_dir)
    assert (result.manifest.cached, result.manifest.computed) == (7, 1)
    assert os.listdir(os.path.join(cache_dir, cache_module.CORRUPT_DIR)) \
        == [f"{key}.jsonl"]
    # The corrupt bytes never reached the memo, and the recomputed rows
    # were decoded without being stored.
    assert (memo.misses, memo.hits, len(memo)) == (misses, hits + 7, 8)
    assert digest(result) == clean
    # The recomputed entry has the original bytes, so it is a hit again.
    assert run("fig6", cache_dir).manifest.cached == 8
    assert (memo.misses, memo.hits) == (misses, hits + 15)


def test_results_share_no_mutable_record(cache_dir, memo):
    first = run("fig3", cache_dir)
    second = run("fig3", cache_dir)
    assert memo.hits == 8
    records = first.artifacts["dataset"].records
    assert records[0] is not second.artifacts["dataset"].records[0]
    before = digest(second)
    for record in records:
        record.outcome = ProbeOutcome.TCP_FAILURE
    del records[::2]
    assert digest(run("fig3", cache_dir)) == before


def test_uncached_run_never_touches_the_memo(campaign, memo):
    result = run_experiment("fig3", workers=1, cache=False)
    assert (memo.misses, memo.hits, len(memo)) == (0, 0, 0)
    assert digest(result) == campaign[1]


def _scan_row(**overrides):
    row = {"vantage": "Virginia", "url": "http://ocsp.a/", "family": "rsa",
           "serial": 7, "ts": 1524614400, "outcome": "OK", "ti": 0, "vi": 0}
    row.update(overrides)
    return row


def test_decode_error_propagates_and_stores_nothing(tmp_path, memo):
    cache = ArtifactCache(root=str(tmp_path))
    key = "ab" * 16
    rows = [_scan_row(), _scan_row(outcome="usable response")]
    cache.store(key, "m:f", rows)
    for attempt in (1, 2):
        with pytest.raises(KeyError):
            cache.load(key, scan_entries)
        assert (memo.misses, len(memo)) == (attempt, 0)
    # The bytes verified: the entry is not corruption and stays live.
    assert cache.load(key) == rows
    assert not os.path.exists(tmp_path / cache_module.CORRUPT_DIR)


def test_run_shards_decodes_every_outcome(tmp_path, memo):
    specs = corpus_shards(CorpusRunConfig(
        corpus=CorpusConfig(size=12, seed=11), shards=3))
    cache = ArtifactCache(root=str(tmp_path / "cache"))
    computed = SupervisedExecutor(cache=cache).run_shards(specs, decode=tuple)
    assert all(type(output) is tuple for output in computed)
    assert len(memo) == 0              # computed rows are not memoized
    restored = SupervisedExecutor(cache=cache).run_shards(specs,
                                                          decode=tuple)
    assert restored == computed and memo.misses == 3

    broken = [chaos_wrap(specs[0], "permanent", 9, str(tmp_path / "s"))]
    executor = SupervisedExecutor(cache=cache, max_retries=0,
                                  allow_partial=True)
    assert executor.run_shards(broken, decode=tuple) == [()]
    assert executor.manifest.shards[0].outcome == "quarantined"
