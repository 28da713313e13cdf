"""Streaming-monitor extension — reducer convergence and replay rate.

The ``monitor-convergence`` experiment slices one scan campaign's
event log into independent partitions, reduces each through the
mergeable reducer library, merges the states in both fold directions,
and compares the finalized aggregates digest-for-digest against the
batch pipeline.  The replay rate is measured here, outside the run:
the median of repeated single-partition replays of the run's event
log — the events/sec number the perf trajectory records.
"""

from conftest import banner

from repro.monitor.replay import dataset_to_events, replay_rate
from repro.runtime import default_config, run_experiment


def test_monitor_replay(benchmark):
    config = default_config("monitor-convergence")

    result = benchmark.pedantic(
        run_experiment, args=("monitor-convergence",),
        kwargs={"config": config}, rounds=1, iterations=1)

    summary = result.summary
    events_per_s = replay_rate(
        dataset_to_events(result.artifacts["dataset"]))
    banner("Monitor convergence: stream vs batch")
    print(f"  events: {summary['events']}  "
          f"partitions: {summary['partitions']}")
    print(f"  replay: {events_per_s:.0f} events/s")
    print(f"  batch  digest: {summary['batch_digest']}")
    print(f"  stream digest: {summary['stream_digest']}")

    # The whole point: any partitioning of the event log, merged in
    # any order, finalizes to the batch pipeline's exact bytes.
    assert summary["converged"]
    assert summary["merge_commutes"]
    assert summary["stream_digest"] == summary["batch_digest"]
    assert summary["events"] > 0
    # A one-pass pure-python replay should stay comfortably above
    # 10k events/s even on slow CI hardware.
    assert events_per_s >= 10_000
