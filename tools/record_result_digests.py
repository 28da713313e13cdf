#!/usr/bin/env python3
"""Record (or print) the frozen result digests of the scan family, the
hostile corpus and the chaos experiments.

``tests/data/result_digests.json`` holds, for each experiment of the
Figure 3 family (``fig3``, ``fig5``-``fig9``, ``ext-response-size``)
at small scale, the :func:`repro.canon.stable_digest` of its rows,
series and summary.  The family shares one cache, so ``fig3`` runs
cold and the rest restore its shards, exactly as a researcher's
campaign does.  ``tbl1`` and ``fig10`` read one consistency shard, so
they share a cache the same way.  For ``hostile-corpus`` (default
config) it holds one digest per ``(kind, family)`` group of rows,
every field included (``error_class``, ``error_detail``,
``error_offset``), plus the digest of the summary: a decoder change
that moves one error offset changes a group digest even when the
outcome counts stay the same.  For
``chaos-availability`` and ``chaos-client-outcomes`` (small scale) it
holds the rows/series/summary digests, as for the scan family.  So it
does for ``sec5-freshness`` and ``monitor-convergence`` (small scale),
the two other experiments that merge scan shards, and for the fifteen
standalone experiments of :data:`STANDALONE`, each run alone.

Timings, provenance and the run manifest are measurements, not
results, so they are left out.

``tests/data/hostile/mutant_digests.json`` pins the mutants
themselves: for the default hostile corpus (seed 2018) and the
disjoint corpus ``perfbench``'s hostile-fleet reruns (seed
2018 + 10**6), one digest of every mutant's DER per ``(kind, family)``.
A mutation change that alters bytes but keeps each mutant's
classification passes the row digests and fails this one.

Usage::

    PYTHONPATH=src python tools/record_result_digests.py          # print
    PYTHONPATH=src python tools/record_result_digests.py --write  # refresh both

Refreshing the file is a check change: only a change that means to
alter results may do it, and it must say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
DIGESTS = DATA / "result_digests.json"
MUTANT_DIGESTS = DATA / "hostile" / "mutant_digests.json"

#: Mutation seeds whose mutant bytes are frozen: the default corpus and
#: the rerun corpus of perfbench's hostile-fleet (its base seed plus its
#: ``rerun_seed_offset``).
MUTANT_SEEDS = (2018, 2018 + 1_000_000)

#: The Figure 3 family, in the order a shared cache fills and serves.
SCAN_FAMILY = ("fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
               "ext-response-size")

#: The consistency pair: ``tbl1`` fills a shared cache with the one
#: consistency shard and ``fig10`` restores it.
CONSISTENCY_FAMILY = ("tbl1", "fig10")

#: The fault-scenario sweeps, each run alone without a cache.
CHAOS = ("chaos-availability", "chaos-client-outcomes")

#: The other experiments that merge scan shards, each run alone
#: without a cache.
SCAN_CONSUMERS = ("sec5-freshness", "monitor-convergence")

#: Experiments that share no shards with another, each run alone
#: without a cache.  Their rows hold no timings.
STANDALONE = ("sec4-deployment", "fig2", "tbl2", "fig11", "fig12", "tbl3",
              "sec8-readiness", "ext-multistaple", "ext-attack-window",
              "ext-alternatives", "abl-apache-patch", "abl-parser", "fig4",
              "ext-latency", "ext-whatif")


def shared_cache_digests(experiment_ids, cache_dir: str
                         ) -> Dict[str, Dict[str, str]]:
    """rows/series/summary digests of each experiment, in order, all on
    one cache."""
    from repro.canon import stable_digest
    from repro.runtime import run_experiment

    out = {}
    for experiment_id in experiment_ids:
        result = run_experiment(experiment_id, workers=1,
                                cache_dir=cache_dir)
        out[experiment_id] = {"rows": stable_digest(result.rows),
                              "series": stable_digest(result.series),
                              "summary": stable_digest(result.summary)}
    return out


def scan_family_digests(cache_dir: str) -> Dict[str, Dict[str, str]]:
    """rows/series/summary digests of the scan family, one shared cache."""
    return shared_cache_digests(SCAN_FAMILY, cache_dir)


def consistency_digests(cache_dir: str) -> Dict[str, Dict[str, str]]:
    """rows/series/summary digests of ``tbl1`` and ``fig10``, one
    shared cache."""
    return shared_cache_digests(CONSISTENCY_FAMILY, cache_dir)


def hostile_digests() -> Dict[str, Any]:
    """Per-(kind, family) row digests plus the summary digest."""
    from repro.canon import stable_digest
    from repro.runtime import run_experiment

    result = run_experiment("hostile-corpus", workers=1, cache=False)
    groups: Dict[str, list] = {}
    for row in result.rows:
        groups.setdefault(f"{row['kind']}/{row['family']}", []).append(row)
    return {"rows": {group: stable_digest(rows)
                     for group, rows in sorted(groups.items())},
            "row_count": len(result.rows),
            "summary": stable_digest(result.summary)}


def mutant_digests() -> Dict[str, Dict[str, str]]:
    """Per-seed, per-(kind, family) digest of every mutant's DER, in
    mutation-id order, for the default corpus shape."""
    from repro.canon import stable_digest
    from repro.hostile import mutate, seed_world
    from repro.runtime import HostileCorpusConfig

    out = {}
    for seed in MUTANT_SEEDS:
        config = HostileCorpusConfig(seed=seed)
        world = seed_world(config.reference_time)
        groups: Dict[str, list] = {}
        for kind in config.kinds:
            document = world.documents[kind]
            for mutation_id in range(config.mutants_per_kind):
                mutant = mutate(document, mutation_id, seed,
                                donors=world.donors)
                groups.setdefault(f"{kind}/{mutant.family}", []).append(
                    mutant.der.hex())
        out[str(seed)] = {group: stable_digest(ders)
                          for group, ders in sorted(groups.items())}
    return out


def uncached_digests(experiment_ids) -> Dict[str, Dict[str, str]]:
    """rows/series/summary digests of each experiment, run alone."""
    from repro.canon import stable_digest
    from repro.runtime import run_experiment

    out = {}
    for experiment_id in experiment_ids:
        result = run_experiment(experiment_id, workers=1, cache=False)
        out[experiment_id] = {"rows": stable_digest(result.rows),
                              "series": stable_digest(result.series),
                              "summary": stable_digest(result.summary)}
    return out


def chaos_digests() -> Dict[str, Dict[str, str]]:
    """rows/series/summary digests of the chaos experiments."""
    return uncached_digests(CHAOS)


def standalone_digests() -> Dict[str, Dict[str, str]]:
    """rows/series/summary digests of the standalone experiments."""
    return uncached_digests(STANDALONE)


def scan_consumer_digests() -> Dict[str, Dict[str, str]]:
    """rows/series/summary digests of ``sec5-freshness`` and
    ``monitor-convergence``."""
    return uncached_digests(SCAN_CONSUMERS)


def compute() -> Dict[str, Any]:
    """Every frozen digest, recomputed now."""
    with tempfile.TemporaryDirectory(prefix="result-digests-") as cache:
        scan = scan_family_digests(cache)
    with tempfile.TemporaryDirectory(prefix="result-digests-") as cache:
        consistency = consistency_digests(cache)
    return {"scan_family": scan, "consistency": consistency,
            "hostile_corpus": hostile_digests(),
            "chaos": chaos_digests(),
            "scan_consumers": scan_consumer_digests(),
            "standalone": standalone_digests()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"overwrite {DIGESTS.name}")
    args = parser.parse_args(argv)
    document = {
        "about": ("stable_digest of rows/series/summary for the small-scale "
                  "Figure 3 family (one shared cache), tbl1 and fig10 "
                  "(one shared cache), the chaos experiments, the other "
                  "scan-shard consumers and the standalone experiments, and "
                  "of every hostile-corpus row, grouped "
                  "by kind/family; written by "
                  "tools/record_result_digests.py"),
        **compute(),
    }
    mutants = {
        "about": ("stable_digest of the hex DER of every hostile mutant, in "
                  "mutation-id order, per mutation seed and kind/family, "
                  "for the default corpus shape; written by "
                  "tools/record_result_digests.py"),
        "seeds": mutant_digests(),
    }
    for path, doc in ((DIGESTS, document), (MUTANT_DIGESTS, mutants)):
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        if args.write:
            path.write_text(text)
            print(f"wrote {path}")
        else:
            sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
