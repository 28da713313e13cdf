"""Event producers and the stream-vs-batch convergence harness.

Producers turn every existing batch artifact into the monitor's event
stream: scan datasets and shard rows become ``probe`` events, the
Alexa model becomes ``domain`` events, TLS handshake observations
become ``handshake`` events.  Each producer assigns ordinals
consistent with the artifact's own order, which is all the reducers
need (see :mod:`repro.monitor.reducers`).

The harness then proves the subsystem's central claim: partition a
log any way you like, reduce each partition independently, merge the
states in any order, and ``finalize`` emits *the same bytes* as the
batch pipeline.  :func:`convergence` checks one reducer over one
partitioning; :func:`fig3_convergence` is the acceptance check —
stream vs. :func:`repro.core.availability.analyze_availability` over
a full scan campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .events import MonitorEvent
from .reducers import AvailabilityReducer, Reducer, default_reducers

#: Timed passes behind :func:`replay_rate`; the median damps the
#: scheduler noise a single pass carries.
_REPLAY_PASSES = 5


# ---------------------------------------------------------------------------
# event producers
# ---------------------------------------------------------------------------

def probe_events(records: Sequence,
                 base: int = 0) -> Iterator[MonitorEvent]:
    """Scan records as ``probe`` events, ordinal = record index.

    The payload is the scan-file wire dict verbatim, so
    :func:`event_to_record` round-trips exactly.
    """
    from ..scanner.io import record_to_dict
    for index, record in enumerate(records, start=base):
        yield MonitorEvent(kind="probe", ts=record.timestamp,
                           seq=(index,), data=record_to_dict(record))


def dataset_to_events(dataset) -> Iterator[MonitorEvent]:
    """A whole :class:`~repro.scanner.ScanDataset` as its event log."""
    return probe_events(dataset.records)


def event_to_record(event: MonitorEvent):
    """The :class:`~repro.scanner.ProbeRecord` behind a probe event."""
    from ..scanner.io import record_from_dict
    if event.kind != "probe":
        raise ValueError(f"not a probe event: {event.kind}")
    return record_from_dict(event.data)


def rows_to_events(rows: Iterable[Dict[str, object]]
                   ) -> Iterator[MonitorEvent]:
    """Runtime scan-shard rows as probe events.

    Shard rows carry the global ``(ts, ti, vi)`` coordinates the
    deterministic merge sorts on — exactly an event ordinal: the
    dataset order *is* the sorted coordinate order, so shard-local
    ordinals agree with whole-log ordinals without any coordination
    between shards.
    """
    for row in rows:
        data = {key: value for key, value in row.items()
                if key not in ("ti", "vi")}
        yield MonitorEvent(kind="probe", ts=row["ts"],
                           seq=(row["ts"], row["ti"], row["vi"]),
                           data=data)


def domain_events(records: Sequence, ts: Optional[int] = None,
                  base: int = 0) -> Iterator[MonitorEvent]:
    """Alexa-model domain records as ``domain`` events."""
    if ts is None:
        from ..simnet.clock import ALEXA_SCAN_DATE
        ts = ALEXA_SCAN_DATE
    for index, record in enumerate(records, start=base):
        yield MonitorEvent(kind="domain", ts=ts, seq=(index,),
                           data=record.to_dict())


def handshake_events(observations: Sequence, ts: int,
                     base: int = 0) -> Iterator[MonitorEvent]:
    """TLS handshake observations as ``handshake`` events."""
    for index, observation in enumerate(observations, start=base):
        staple = observation.staple
        yield MonitorEvent(kind="handshake", ts=ts, seq=(index,), data={
            "hostname": observation.hostname,
            "software": observation.software,
            "stapled": observation.stapled,
            "must_staple": observation.must_staple,
            "staple_fresh": observation.staple_fresh,
            "handshake_delay_ms": round(
                observation.handshake_delay_ms, 3),
            "staple_produced_at": staple.produced_at if staple else None,
            "staple_next_update": staple.next_update if staple else None,
            "staple_size": len(staple.body) if staple else None,
        })


# ---------------------------------------------------------------------------
# replay + partitioning
# ---------------------------------------------------------------------------

def reduce_log(events: Iterable[MonitorEvent],
               reducers: Optional[Dict[str, Reducer]] = None
               ) -> Dict[str, Dict[str, object]]:
    """Single-partition replay through every reducer, one pass."""
    if reducers is None:
        reducers = default_reducers()
    states = {name: reducer.init() for name, reducer in reducers.items()}
    for event in events:
        for name, reducer in reducers.items():
            if event.kind in reducer.kinds:
                states[name] = reducer.step(states[name], event)
    return states


def replay_rate(events: Iterable[MonitorEvent]) -> float:
    """Events per second through every stock reducer, one partition.

    The median of five timed replays.  A measurement, not a result: no
    runner or shard calls it, so it never reaches rows or the cache;
    the bench tooling takes it over a finished run's dataset.
    """
    import time
    events = list(events)
    reducers = default_reducers()
    durations = []
    for _ in range(_REPLAY_PASSES):
        started = time.perf_counter()
        reduce_log(events, reducers)
        durations.append(time.perf_counter() - started)
    duration = sorted(durations)[_REPLAY_PASSES // 2]
    return round(len(events) / duration, 1) if duration else 0.0


def partition_events(events: Iterable[MonitorEvent], partitions: int,
                     scheme: str = "round-robin"
                     ) -> List[List[MonitorEvent]]:
    """Split a log into *partitions* event lists.

    ``round-robin`` interleaves (the adversarial case for merge order);
    ``contiguous`` mirrors how the runtime's shards slice the stream.
    """
    if partitions < 1:
        raise ValueError("need at least one partition")
    events = list(events)
    if scheme == "round-robin":
        return [events[lane::partitions] for lane in range(partitions)]
    if scheme == "contiguous":
        from ..canon import split_ranges
        return [events[lo:hi]
                for lo, hi in split_ranges(len(events), partitions)]
    raise ValueError(f"unknown partition scheme: {scheme!r}")


def merge_states(reducer: Reducer,
                 states: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fold partition states with ``merge`` (empty fold = ``init``)."""
    merged = reducer.init()
    for state in states:
        merged = reducer.merge(merged, state)
    return merged


@dataclass
class ConvergenceCheck:
    """One stream-vs-batch comparison, digest-level."""

    reducer: str
    partitions: int
    scheme: str
    events: int
    single_digest: str
    merged_digest: str

    @property
    def converged(self) -> bool:
        return self.single_digest == self.merged_digest


def convergence(events: Iterable[MonitorEvent], reducer: Reducer,
                partitions: int = 4,
                scheme: str = "round-robin") -> ConvergenceCheck:
    """Does a partitioned replay finalize to the single-partition bytes?

    Digests cover the *finalized* answers (the figures), computed via
    :func:`repro.canon.stable_digest` over canonical JSON — equal
    digests mean equal bytes in every downstream artifact.
    """
    from ..canon import stable_digest
    events = list(events)
    single = reducer.reduce(events)
    parts = [reducer.reduce(part)
             for part in partition_events(events, partitions, scheme)]
    merged = merge_states(reducer, parts)
    return ConvergenceCheck(
        reducer=reducer.name, partitions=partitions, scheme=scheme,
        events=len(events),
        single_digest=stable_digest(reducer.finalize(single)),
        merged_digest=stable_digest(reducer.finalize(merged)),
    )


@dataclass
class Fig3Convergence:
    """The acceptance check: stream vs. batch Figure-3 aggregates."""

    events: int
    partitions: int
    batch_digest: str
    stream_digest: str

    @property
    def converged(self) -> bool:
        return self.batch_digest == self.stream_digest


def fig3_convergence(dataset, partitions: int = 4) -> Fig3Convergence:
    """Replay a scan's event log; compare against the batch report."""
    from ..canon import stable_digest
    from ..core.availability import analyze_availability
    reducer = AvailabilityReducer()
    events = list(dataset_to_events(dataset))
    parts = [reducer.reduce(part) for part in
             partition_events(events, partitions, "contiguous")]
    stream_report = reducer.finalize(merge_states(reducer, parts))
    batch_report = analyze_availability(dataset)
    return Fig3Convergence(
        events=len(events), partitions=partitions,
        batch_digest=stable_digest(batch_report),
        stream_digest=stable_digest(stream_report),
    )
