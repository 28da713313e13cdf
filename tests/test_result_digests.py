"""Frozen result digests (``tests/data/result_digests.json``).

The byte-identity gates elsewhere compare one topology with another
(serial == parallel, pipe == socket); a change that alters every
topology alike passes them.  This module pins the *content*: the
rows/series/summary digests of the small-scale Figure 3 family, of
``tbl1`` and ``fig10`` (one shared cache), of the two chaos
experiments and of the two other scan-shard consumers
(``sec5-freshness``, ``monitor-convergence``), of the fifteen
standalone experiments, and of every hostile-corpus row, error
attribution included, as recorded by
``tools/record_result_digests.py``.
The same tool records ``tests/data/hostile/mutant_digests.json``, the
digests of the hostile mutants' bytes themselves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
DATA = Path(__file__).resolve().parent / "data"
FROZEN = json.loads((DATA / "result_digests.json").read_text())
FROZEN_MUTANTS = json.loads(
    (DATA / "hostile" / "mutant_digests.json").read_text())["seeds"]


def _recorder():
    sys.path.insert(0, str(TOOLS))
    try:
        import record_result_digests
    finally:
        sys.path.remove(str(TOOLS))
    return record_result_digests


def _check_frozen(section, current):
    """Every experiment's rows/series/summary digest matches the file."""
    assert set(current) == set(FROZEN[section])
    for experiment_id, parts in sorted(FROZEN[section].items()):
        for part, digest in sorted(parts.items()):
            assert current[experiment_id][part] == digest, \
                f"{experiment_id} {part} drifted"


def test_scan_family_digests_frozen(tmp_path):
    recorder = _recorder()
    current = recorder.scan_family_digests(str(tmp_path / "cache"))
    _check_frozen("scan_family", current)


def test_consistency_digests_frozen(tmp_path):
    recorder = _recorder()
    current = recorder.consistency_digests(str(tmp_path / "cache"))
    _check_frozen("consistency", current)


def test_hostile_corpus_digests_frozen():
    frozen = FROZEN["hostile_corpus"]
    current = _recorder().hostile_digests()
    assert current["row_count"] == frozen["row_count"]
    drifted = sorted(group for group, digest in frozen["rows"].items()
                     if current["rows"].get(group) != digest)
    assert not drifted, f"hostile rows drifted in {drifted}"
    assert set(current["rows"]) == set(frozen["rows"])
    assert current["summary"] == frozen["summary"]


def test_mutant_digests_frozen():
    recorder = _recorder()
    assert set(FROZEN_MUTANTS) == {str(seed)
                                   for seed in recorder.MUTANT_SEEDS}
    current = recorder.mutant_digests()
    for seed, groups in sorted(FROZEN_MUTANTS.items()):
        assert set(current[seed]) == set(groups)
        drifted = sorted(group for group, digest in groups.items()
                         if current[seed][group] != digest)
        assert not drifted, f"seed {seed}: mutant bytes drifted in {drifted}"


def test_chaos_digests_frozen():
    current = _recorder().chaos_digests()
    _check_frozen("chaos", current)


def test_scan_consumer_digests_frozen():
    current = _recorder().scan_consumer_digests()
    _check_frozen("scan_consumers", current)


def test_standalone_digests_frozen():
    current = _recorder().standalone_digests()
    _check_frozen("standalone", current)


def test_frozen_file_is_complete():
    # A truncated freeze would make the checks above vacuous.
    recorder = _recorder()
    assert set(FROZEN["scan_family"]) == set(recorder.SCAN_FAMILY)
    assert set(FROZEN["consistency"]) == set(recorder.CONSISTENCY_FAMILY)
    assert set(FROZEN["chaos"]) == set(recorder.CHAOS)
    assert set(FROZEN["scan_consumers"]) == set(recorder.SCAN_CONSUMERS)
    assert set(FROZEN["standalone"]) == set(recorder.STANDALONE)
    assert FROZEN["hostile_corpus"]["rows"]
