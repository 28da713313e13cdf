"""repro.monitor: event schema, reducer algebra, windows, convergence.

The subsystem's load-bearing claim is algebraic: reduce any partition
of an event log independently, merge the states in any order, and
``finalize`` emits bytes identical to a single-partition replay — so
the batch pipeline (one partition) and the streaming monitor (many)
can never disagree.  The property tests here attack that claim with
seeded random partitionings and merge orders; the convergence tests
pin it against the real batch analyzers.
"""

from __future__ import annotations

import asyncio
import io
import json
import random

import pytest

from repro.canon import stable_digest
from repro.monitor import (
    EVENT_KINDS,
    EventLogWriter,
    MonitorEvent,
    TRANSPORT_FAILURES,
    WindowedAggregate,
    convergence,
    dataset_to_events,
    default_reducers,
    domain_events,
    dumps_events,
    event_to_record,
    fig3_convergence,
    handshake_events,
    loads_events,
    merge_states,
    partition_events,
    probe_events,
    read_header,
    reduce_log,
    rows_to_events,
    write_events,
)


# ---------------------------------------------------------------------------
# event schema and wire format
# ---------------------------------------------------------------------------

def _probe_event(seq=(0,), ts=1_524_614_400, outcome="OK", **extra):
    data = {"vantage": "us-east", "url": "http://ocsp.a.test",
            "ts": ts, "outcome": outcome}
    data.update(extra)
    return MonitorEvent(kind="probe", ts=ts, seq=seq, data=data)


def _access_event(seq, status=200, size=512, source="cache",
                  host="ocsp.a.test", ts=1_524_614_400):
    return MonitorEvent(kind="access", ts=ts, seq=seq,
                        data={"host": host, "method": "POST",
                              "status": status, "size": size,
                              "source": source})


class TestEventSchema:
    def test_wire_round_trip(self):
        event = _probe_event(seq=(3, 1, 4), elapsed_ms=1.234)
        rebuilt = MonitorEvent.from_dict(
            json.loads(json.dumps(event.to_dict())))
        assert rebuilt == event
        assert rebuilt.seq == (3, 1, 4)  # tuple again, not list

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            MonitorEvent(kind="nope", ts=0, seq=(0,), data={}).validate()

    def test_missing_payload_keys_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            MonitorEvent(kind="access", ts=0, seq=(0,),
                         data={"host": "a"}).validate()

    def test_empty_seq_rejected(self):
        with pytest.raises(ValueError, match="ordinal"):
            _probe_event(seq=()).validate()

    def test_log_round_trip_with_meta(self):
        events = [_probe_event(seq=(i,)) for i in range(5)]
        text = dumps_events(events, meta={"source": "test", "seed": 7})
        header = read_header(io.StringIO(text))
        assert header["meta"] == {"source": "test", "seed": 7}
        assert loads_events(text) == events

    def test_writer_assigns_running_ordinals(self):
        buffer = io.StringIO()
        writer = EventLogWriter(buffer)
        first = writer.append("access", 100, _access_event((0,)).data)
        second = writer.append("access", 101, _access_event((0,)).data)
        assert (first.seq, second.seq) == ((0,), (1,))
        assert [e.seq for e in loads_events(buffer.getvalue())] \
            == [(0,), (1,)]

    def test_not_a_log_rejected(self):
        with pytest.raises(ValueError, match="not a repro monitor"):
            loads_events('{"format": "something-else"}\n')
        with pytest.raises(ValueError, match="empty"):
            loads_events("")

    def test_writer_validates_on_emit(self):
        writer = EventLogWriter(io.StringIO())
        with pytest.raises(ValueError):
            writer.emit(MonitorEvent(kind="access", ts=0, seq=(0,),
                                     data={}))


class TestProducers:
    def test_transport_failures_mirror_probe_record(self):
        """The reducers' literal failure set must equal the set
        ProbeRecord.transport_ok rejects."""
        from repro.scanner import ProbeOutcome
        from repro.scanner.results import ProbeRecord
        derived = {
            outcome.name for outcome in ProbeOutcome
            if not ProbeRecord(vantage="v", responder_url="u",
                               family="f", serial_number=1,
                               timestamp=0, outcome=outcome).transport_ok
        }
        assert TRANSPORT_FAILURES == derived

    def test_probe_event_round_trips_to_record(self, scan_dataset):
        records = scan_dataset.records[:50]
        events = list(probe_events(records))
        assert [event_to_record(e) for e in events] == list(records)
        assert [e.seq for e in events] == [(i,) for i in range(50)]
        assert all(e.ts == r.timestamp
                   for e, r in zip(events, records))

    def test_event_to_record_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="not a probe event"):
            event_to_record(_access_event((0,)))

    def test_shard_rows_reduce_like_the_dataset(self, scan_dataset):
        """Shard rows carry (ts, ti, vi) ordinals; the dataset carries
        running indexes.  Both orders are consistent with the log
        order, so every reducer converges to the same bytes."""
        from repro.runtime.runners import scan_shard
        from repro.runtime.configs import ScanCampaignConfig, WorldConfig
        config = ScanCampaignConfig(
            world=WorldConfig(n_responders=40, certs_per_responder=1,
                              seed=13),
            interval=scan_dataset.interval,
            start=scan_dataset.start, end=scan_dataset.end)
        rows = scan_shard({"campaign": config.to_dict(),
                           "lo": 0, "hi": 40})
        row_states = reduce_log(rows_to_events(rows))
        dataset_states = reduce_log(dataset_to_events(scan_dataset))
        for name, reducer in default_reducers().items():
            assert stable_digest(reducer.finalize(row_states[name])) \
                == stable_digest(reducer.finalize(dataset_states[name]))

    def test_domain_events_validate(self, alexa_model):
        events = list(domain_events(alexa_model.records[:20]))
        assert len(events) == 20
        assert all(e.validate() for e in events)
        assert [e.data["rank"] for e in events] \
            == [r.rank for r in alexa_model.records[:20]]


# ---------------------------------------------------------------------------
# reducer algebra (the mergeable contract, attacked with seeded noise)
# ---------------------------------------------------------------------------

def _random_events(rng: random.Random, count: int):
    """A seeded mixed-kind event stream exercising every reducer."""
    outcomes = ["OK", "DNS_FAILURE", "TCP_FAILURE", "TLS_FAILURE",
                "HTTP_ERROR", "STALE", "MALFORMED"]
    vantages = ["us-east", "eu-west", "ap-south"]
    events = []
    for index in range(count):
        ts = 1_524_614_400 + rng.randrange(0, 7) * 43_200
        kind = rng.choice(list(EVENT_KINDS))
        if kind == "probe":
            this_update = rng.choice([None, ts - rng.randrange(0, 3_600)])
            next_update = None
            if this_update is not None:
                next_update = rng.choice(
                    [None, this_update + rng.randrange(1, 7_200)])
            data = {
                "vantage": rng.choice(vantages),
                "url": f"http://ocsp{rng.randrange(6)}.test",
                "ts": ts,
                "outcome": rng.choice(outcomes),
                "http_status": rng.choice([None, 200, 404, 500]),
                "size": rng.choice([None, rng.randrange(300, 3_000)]),
                "elapsed_ms": round(rng.random() * 50, 3),
                "this_update": this_update,
                "next_update": next_update,
            }
        elif kind == "domain":
            https = rng.random() < 0.7
            has_ocsp = https and rng.random() < 0.9
            data = {"rank": rng.randrange(1, 100_000),
                    "domain": f"site{index}.test", "https": https,
                    "has_ocsp": has_ocsp,
                    "stapling": has_ocsp and rng.random() < 0.3}
        elif kind == "handshake":
            stapled = rng.random() < 0.4
            data = {"hostname": f"www{rng.randrange(9)}.test",
                    "software": rng.choice(["nginx", "apache", None]),
                    "stapled": stapled,
                    "staple_fresh": stapled and rng.random() < 0.8,
                    "must_staple": rng.random() < 0.1}
        elif kind == "access":
            data = {"host": f"ocsp{rng.randrange(6)}.test",
                    "method": rng.choice(["GET", "POST"]),
                    "status": rng.choice([200, 404, 405]),
                    "size": rng.randrange(0, 3_000),
                    "source": rng.choice(["cache", "signed", "error",
                                          "control"])}
        else:
            data = {"worker": f"w{rng.randrange(4)}",
                    "state": rng.choice(["dispatched", "claim",
                                         "computed", "done", "retried",
                                         "quarantined"]),
                    "shard": f"shard-{rng.randrange(8)}"}
        events.append(MonitorEvent(kind=kind, ts=ts, seq=(index,),
                                   data=data).validate())
    return events


@pytest.fixture(scope="module", params=[11, 23, 47])
def noisy_events(request):
    return _random_events(random.Random(request.param), 400)


@pytest.fixture(scope="module", params=sorted(default_reducers()))
def reducer(request):
    return default_reducers()[request.param]


class TestReducerAlgebra:
    def test_any_partitioning_finalizes_identically(self, noisy_events,
                                                    reducer):
        """Random partition assignment + shuffled merge order must
        reproduce the single-partition bytes."""
        rng = random.Random(hash((reducer.name, len(noisy_events))) & 0xffff)
        single = stable_digest(reducer.finalize(
            reducer.reduce(noisy_events)))
        for partitions in (1, 2, 5, 9):
            lanes = [[] for _ in range(partitions)]
            for event in noisy_events:
                lanes[rng.randrange(partitions)].append(event)
            states = [reducer.reduce(lane) for lane in lanes]
            rng.shuffle(states)
            merged = merge_states(reducer, states)
            assert stable_digest(reducer.finalize(merged)) == single

    def test_merge_is_associative(self, noisy_events, reducer):
        a, b, c = (reducer.reduce(part) for part in
                   partition_events(noisy_events, 3, "round-robin"))
        left = reducer.merge(reducer.merge(a, b), c)
        right = reducer.merge(a, reducer.merge(b, c))
        assert stable_digest(reducer.finalize(left)) \
            == stable_digest(reducer.finalize(right))

    def test_merge_is_commutative(self, noisy_events, reducer):
        a, b = (reducer.reduce(part) for part in
                partition_events(noisy_events, 2, "contiguous"))
        assert stable_digest(reducer.finalize(reducer.merge(a, b))) \
            == stable_digest(reducer.finalize(reducer.merge(b, a)))

    def test_merge_does_not_mutate_arguments(self, noisy_events, reducer):
        a, b = (reducer.reduce(part) for part in
                partition_events(noisy_events, 2, "round-robin"))
        before = (stable_digest(a), stable_digest(b))
        reducer.merge(a, b)
        assert (stable_digest(a), stable_digest(b)) == before

    def test_init_is_the_merge_identity(self, noisy_events, reducer):
        state = reducer.reduce(noisy_events)
        digest = stable_digest(reducer.finalize(state))
        assert stable_digest(reducer.finalize(
            reducer.merge(reducer.init(), state))) == digest
        assert stable_digest(reducer.finalize(
            reducer.merge(state, reducer.init()))) == digest

    def test_states_are_json_trees(self, noisy_events, reducer):
        """States must survive the runtime's shard cache (JSON)."""
        state = reducer.reduce(noisy_events)
        thawed = json.loads(json.dumps(state))
        assert stable_digest(reducer.finalize(thawed)) \
            == stable_digest(reducer.finalize(state))

    def test_convergence_check_round_robin(self, noisy_events, reducer):
        check = convergence(noisy_events, reducer, partitions=7,
                            scheme="round-robin")
        assert check.converged
        assert check.events == len(noisy_events)

    def test_partition_events_rejects_bad_args(self, noisy_events):
        with pytest.raises(ValueError, match="at least one"):
            partition_events(noisy_events, 0)
        with pytest.raises(ValueError, match="unknown partition scheme"):
            partition_events(noisy_events, 2, "hashed")


# ---------------------------------------------------------------------------
# stream-vs-batch convergence (the acceptance property)
# ---------------------------------------------------------------------------

class TestBatchConvergence:
    def test_fig3_stream_equals_batch(self, scan_dataset):
        check = fig3_convergence(scan_dataset, partitions=5)
        assert check.converged
        assert check.events == len(scan_dataset)

    def test_availability_report_fields_survive_streaming(self,
                                                          scan_dataset):
        """Not just digests: the streamed report is the same object
        contents the batch analyzer produced."""
        from repro.core import analyze_availability
        batch = analyze_availability(scan_dataset)
        states = reduce_log(dataset_to_events(scan_dataset))
        streamed = default_reducers()["availability"].finalize(
            states["availability"])
        assert streamed == batch
        assert list(streamed.success_series) \
            == list(batch.success_series)  # vantage insertion order

    def test_fig2_curves_match_adoption_reducer(self, alexa_model):
        from repro.core.adoption import RANK_BIN, figure2_adoption
        from repro.monitor import AdoptionReducer
        reducer = AdoptionReducer(bin_width=RANK_BIN)
        final = reducer.finalize(reducer.reduce(
            domain_events(alexa_model.records)))
        figure = figure2_adoption(alexa_model)
        assert final[AdoptionReducer.HTTPS] \
            == figure.curves["Domains with certificate"]
        assert final[AdoptionReducer.OCSP] \
            == figure.curves["Certificates with OCSP responder"]

    def test_handshake_events_feed_freshness(self):
        from repro.ca import (
            CertificateAuthority,
            OCSPResponder,
            ResponderProfile,
        )
        from repro.crypto import generate_keypair
        from repro.scanner import scan_servers
        from repro.simnet import (
            DAY,
            HOUR,
            MEASUREMENT_START,
            Network,
            ocsp_service,
        )
        from repro.webserver import ApacheServer, IdealServer, NginxServer
        now = MEASUREMENT_START
        ca = CertificateAuthority.create_root(
            "Mon CA", "http://ocsp.mon.test",
            not_before=now - 365 * DAY)
        ocsp = OCSPResponder(ca, "http://ocsp.mon.test",
                             ResponderProfile(update_interval=None,
                                              this_update_margin=HOUR),
                             epoch_start=now - 7 * DAY)
        network = Network()
        network.bind("ocsp.mon.test", network.add_origin(
            "mon-ocsp", "us-east", ocsp_service(ocsp)))

        def site(name, server_class, stapling=True):
            leaf = ca.issue_leaf(name,
                                 generate_keypair(512, rng=hash(name)
                                                  & 0xFFFF),
                                 not_before=now - DAY)
            return server_class(chain=[leaf, ca.certificate],
                                issuer=ca.certificate, network=network,
                                stapling_enabled=stapling)

        servers = [site("a.mon.test", IdealServer),
                   site("b.mon.test", ApacheServer),
                   site("c.mon.test", NginxServer, stapling=False)]
        observations = scan_servers(servers, now)
        events = list(handshake_events(observations, ts=now))
        assert all(e.validate() for e in events)
        final = default_reducers()["freshness"].finalize(
            reduce_log(events)["freshness"])
        assert final["handshakes"] == len(observations)
        stapled = sum(1 for o in observations if o.stapled)
        assert final["stapling_pct"] == pytest.approx(
            100.0 * stapled / len(observations))
        assert set(final["stapling_by_software"]) \
            == {o.software for o in observations}


# ---------------------------------------------------------------------------
# worker lifecycle reducer (distributed-runtime telemetry)
# ---------------------------------------------------------------------------

class TestWorkerLifecycleReducer:
    @staticmethod
    def _event(seq, worker, state, shard="s0", ts=1_524_614_400):
        return MonitorEvent(kind="worker", ts=ts, seq=seq,
                            data={"worker": worker, "state": state,
                                  "shard": shard}).validate()

    def test_worker_kind_validates(self):
        self._event((0,), "w0", "claim")
        with pytest.raises(ValueError, match="missing keys"):
            MonitorEvent(kind="worker", ts=0, seq=(0,),
                         data={"worker": "w0"}).validate()

    def test_census_counts_states_and_shards(self):
        reducer = default_reducers()["worker-lifecycle"]
        events = [
            self._event((0,), "w0", "claim", "s0"),
            self._event((1,), "w1", "claim", "s1"),
            self._event((2,), "w0", "done", "s0"),
            self._event((3,), "w0", "claim", "s2"),
            self._event((4,), "w1", "error", "s1"),
            self._event((5,), "w0", "done", "s2"),
        ]
        final = reducer.finalize(reducer.reduce(events))
        assert final["events"] == 6
        assert final["states"] == {"claim": 3, "done": 2, "error": 1}
        assert final["worker_count"] == 2
        assert list(final["workers"]) == ["w0", "w1"]  # first-seen order
        assert final["workers"]["w0"] == {
            "states": {"claim": 2, "done": 2}, "shards": 2}
        assert final["workers"]["w1"] == {
            "states": {"claim": 1, "error": 1}, "shards": 1}

    def test_first_seen_order_survives_merge(self):
        """Per-worker log files merge to the order a single
        concatenated replay would produce, whatever the merge order."""
        reducer = default_reducers()["worker-lifecycle"]
        log_a = [self._event((3,), "late", "claim"),
                 self._event((4,), "late", "done")]
        log_b = [self._event((0,), "early", "claim"),
                 self._event((1,), "early", "done")]
        merged = reducer.merge(reducer.reduce(log_a),
                               reducer.reduce(log_b))
        flipped = reducer.merge(reducer.reduce(log_b),
                                reducer.reduce(log_a))
        assert list(reducer.finalize(merged)["workers"]) \
            == list(reducer.finalize(flipped)["workers"]) \
            == ["early", "late"]

    def test_connection_states_count_but_skip_the_shard_census(self):
        """Socket-fleet connect/disconnect/reconnect events carry an
        empty shard label: they count as states but must not inflate
        the per-worker shard census — a flapping link is not work."""
        reducer = default_reducers()["worker-lifecycle"]
        events = [
            self._event((0,), "w0", "connect", ""),
            self._event((1,), "w0", "claim", "s0"),
            self._event((2,), "w0", "disconnect", ""),
            self._event((3,), "w0", "reconnect", ""),
            self._event((4,), "w0", "done", "s0"),
            self._event((5,), "w0", "disconnect", ""),
        ]
        final = reducer.finalize(reducer.reduce(events))
        assert final["states"] == {"claim": 1, "connect": 1,
                                   "disconnect": 2, "done": 1,
                                   "reconnect": 1}
        assert final["workers"]["w0"]["shards"] == 1  # s0 only
        assert final["reconnects"] == 1

    def test_reconnects_sum_across_merged_logs(self):
        reducer = default_reducers()["worker-lifecycle"]
        log_a = [self._event((0,), "w0", "connect", ""),
                 self._event((1,), "w0", "reconnect", "")]
        log_b = [self._event((2,), "w1", "connect", ""),
                 self._event((3,), "w1", "reconnect", ""),
                 self._event((4,), "w1", "reconnect", "")]
        merged = reducer.merge(reducer.reduce(log_a),
                               reducer.reduce(log_b))
        assert reducer.finalize(merged)["reconnects"] == 3
        assert reducer.finalize(reducer.merge(
            reducer.reduce(log_b), reducer.reduce(log_a)))["reconnects"] \
            == 3


# ---------------------------------------------------------------------------
# tumbling windows and watermarks
# ---------------------------------------------------------------------------

class TestWindows:
    WIDTH = 100

    def _event(self, ts, index):
        return _access_event((index,), ts=ts)

    def test_watermark_closes_ripe_windows_in_order(self):
        window = WindowedAggregate(default_reducers()["response-stats"],
                                   width=self.WIDTH)
        closed = []
        for index, ts in enumerate([10, 50, 120, 130, 310]):
            closed.extend(window.observe(self._event(ts, index)))
        # ts=310 closes [0,100) and [100,200), oldest first.
        assert [(w.start, w.end, w.events) for w in closed] \
            == [(0, 100, 2), (100, 200, 2)]
        assert closed[0].result["events"] == 2

    def test_flush_closes_remainder_in_time_order(self):
        """Out-of-order events behind the watermark close their window
        immediately on observe; flush only drains what is still open."""
        window = WindowedAggregate(default_reducers()["response-stats"],
                                   width=self.WIDTH)
        closed = []
        for index, ts in enumerate([250, 20, 110]):
            closed.extend(window.observe(self._event(ts, index)))
        assert [(w.start, w.end) for w in closed] \
            == [(0, 100), (100, 200)]
        assert [(w.start, w.end) for w in window.flush()] == [(200, 300)]
        assert window.counters()["open_windows"] == 0
        assert window.counters()["closed_windows"] == 3

    def test_late_events_are_counted_not_applied(self):
        window = WindowedAggregate(default_reducers()["response-stats"],
                                   width=self.WIDTH)
        window.observe(self._event(10, 0))
        closed = window.observe(self._event(250, 1))
        assert [(w.start, w.events) for w in closed] == [(0, 1)]
        # A straggler for the closed [0,100) window.
        assert window.observe(self._event(20, 2)) == []
        counters = window.counters()
        assert counters["late_events"] == 1
        assert counters["watermark"] == 250
        # The straggler is not in any window's result.
        total = sum(w.result["events"] for w in window.flush())
        assert total == 1  # only the ts=250 event remains open

    def test_allowed_lateness_defers_closing(self):
        strict = WindowedAggregate(default_reducers()["response-stats"],
                                   width=self.WIDTH)
        lenient = WindowedAggregate(default_reducers()["response-stats"],
                                    width=self.WIDTH, allowed_lateness=60)
        for index, ts in enumerate([10, 130]):
            strict_closed = strict.observe(self._event(ts, index))
            lenient_closed = lenient.observe(self._event(ts, index))
        assert [(w.start, w.end) for w in strict_closed] == [(0, 100)]
        assert lenient_closed == []  # 130 < 100 + 60
        assert [(w.start, w.end) for w in
                lenient.observe(self._event(161, 2))] == [(0, 100)]

    def test_bad_parameters_rejected(self):
        reducer = default_reducers()["response-stats"]
        with pytest.raises(ValueError, match="width"):
            WindowedAggregate(reducer, width=0)
        with pytest.raises(ValueError, match="lateness"):
            WindowedAggregate(reducer, width=10, allowed_lateness=-1)

    def test_windowed_totals_match_unwindowed(self, noisy_events):
        """Summing closed-window event counts reconciles with a flat
        replay — windows partition the stream, they don't drop it
        (absent lateness)."""
        reducer = default_reducers()["response-stats"]
        window = WindowedAggregate(reducer, width=43_200,
                                   allowed_lateness=10**9)
        closed = []
        for event in sorted(noisy_events, key=lambda e: e.ts):
            closed.extend(window.observe(event))
        closed.extend(window.flush())
        flat = reducer.finalize(reducer.reduce(noisy_events))
        consumed = sum(w.result["events"] for w in closed)
        assert consumed == flat["events"]
        assert window.counters()["late_events"] == 0


# ---------------------------------------------------------------------------
# serve integration: access events, /-/stats, the loadgen gate
# ---------------------------------------------------------------------------

class TestServeAccessEvents:
    @pytest.fixture()
    def app(self, fresh_responder):
        from repro.serve import ServeApp
        built = ServeApp(now=1_525_000_000)
        built.add_responder("ocsp.fixture.test", fresh_responder)
        return built

    def _exchange(self, app, cert_id, prefer_get=False):
        from repro.ocsp import OCSPRequest
        from repro.simnet import ocsp_request
        der = OCSPRequest.for_single(cert_id).encode()
        return app.exchange(ocsp_request("http://ocsp.fixture.test", der,
                                         prefer_get=prefer_get))

    def test_sources_tag_the_serving_path(self, app, cert_id):
        from repro.simnet import HTTPRequest
        sink = []
        app.access_sink = sink.append
        self._exchange(app, cert_id)            # miss -> signed
        self._exchange(app, cert_id)            # hit  -> cache
        app.exchange(HTTPRequest(method="POST",
                                 url="http://nobody.test/", body=b""))
        assert [e.data["source"] for e in sink] \
            == ["signed", "cache", "error"]
        assert [e.seq for e in sink] == [(0,), (1,), (2,)]
        assert all(e.ts == app.now for e in sink)
        assert all(e.validate() for e in sink)
        assert app.access_events == 3

    def test_no_sink_means_no_events(self, app, cert_id):
        self._exchange(app, cert_id)
        assert app.access_events == 0
        assert app.stats()["access"] == {"events": 0, "enabled": False}

    def test_access_events_reduce_consistently(self, app, cert_id):
        sink = []
        app.access_sink = sink.append
        for _ in range(5):
            self._exchange(app, cert_id)
        final = default_reducers()["response-stats"].finalize(
            reduce_log(sink)["response-stats"])
        assert final["events"] == 5
        assert final["by_kind"] == {"access": 5}
        assert final["status_counts"] == {"200": 5}
        assert final["sources"] == {"cache": 4, "signed": 1}
        assert final["total_bytes"] == sum(e.data["size"] for e in sink)

    def test_stats_expose_cache_by_host(self, app, cert_id):
        self._exchange(app, cert_id)
        self._exchange(app, cert_id)
        stats = app.stats()
        per_host = stats["cache_by_host"]["ocsp.fixture.test"]
        assert per_host["hits"] == 1
        assert per_host["misses"] == 1
        assert stats["cache"]["hits"] == 1


class TestDaemonAccessLog:
    def test_daemon_writes_monitor_events(self, fresh_responder, cert_id):
        from repro.ocsp import OCSPRequest
        from repro.serve import ServeApp, ServeDaemon

        app = ServeApp(now=1_525_000_000)
        app.add_responder("ocsp.fixture.test", fresh_responder)
        buffer = io.StringIO()
        app.access_sink = EventLogWriter(buffer, meta={"source": "t"}).emit
        der = OCSPRequest.for_single(cert_id).encode()
        raw = (b"POST / HTTP/1.1\r\nHost: ocsp.fixture.test\r\n"
               b"Content-Length: %d\r\n\r\n" % len(der)) + der

        async def main():
            daemon = ServeDaemon(app, port=0)
            _, port = await daemon.start()
            try:
                results = []
                for payload in (raw, raw,
                                b"GET /-/stats HTTP/1.1\r\n"
                                b"Host: x\r\n\r\n"):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    writer.write(payload)
                    await writer.drain()
                    writer.write_eof()
                    results.append(await reader.read(1 << 20))
                    writer.close()
                return results
            finally:
                await daemon.close()

        first, second, stats_raw = asyncio.run(main())
        events = loads_events(buffer.getvalue())
        assert [e.data["source"] for e in events] \
            == ["signed", "cache", "control"]
        assert all(e.data["status"] == 200 for e in events)
        stats = json.loads(stats_raw.partition(b"\r\n\r\n")[2])
        # The stats body is rendered before its own access event logs.
        assert stats["access"] == {"events": 2, "enabled": True}
        assert stats["signed"] == 1
        assert "cache_by_host" in stats
        assert stats["cache_by_host"]["ocsp.fixture.test"]["hits"] == 1


class TestLoadgenGate:
    def _report(self, **overrides):
        from repro.serve import LoadReport
        report = LoadReport(requests=4, duration_s=0.1,
                            status_counts={200: 4},
                            body_digest="abc")
        for name, value in overrides.items():
            setattr(report, name, value)
        return report

    def test_clean_report_passes(self):
        from repro.serve import loadgen_gate
        assert loadgen_gate(self._report()) == []
        assert loadgen_gate(self._report(), expected="abc") == []

    def test_each_failure_mode_is_named(self):
        from repro.serve import loadgen_gate
        assert "never got a complete" in loadgen_gate(
            self._report(incomplete=2))[0]
        assert "non-200" in loadgen_gate(
            self._report(status_counts={200: 3, 500: 1}))[0]
        assert "digest mismatch" in loadgen_gate(
            self._report(), expected="other")[0]

    def test_failures_accumulate(self):
        from repro.serve import loadgen_gate
        problems = loadgen_gate(
            self._report(incomplete=1, status_counts={500: 4}),
            expected="other")
        assert len(problems) == 3

    def test_summary_carries_incomplete(self):
        assert self._report(incomplete=3).summary()["incomplete"] == 3


# ---------------------------------------------------------------------------
# the monitor-convergence experiment and the CLI
# ---------------------------------------------------------------------------

def small_monitor_config():
    """14 targets x 4 ticks x 6 vantages, in 3 partitions."""
    from repro.datasets import WorldConfig
    from repro.runtime import MonitorConvergenceConfig, ScanCampaignConfig
    from repro.simnet import DAY, HOUR, MEASUREMENT_START
    campaign = ScanCampaignConfig(
        world=WorldConfig(n_responders=14, certs_per_responder=1, seed=7),
        interval=12 * HOUR, start=MEASUREMENT_START,
        end=MEASUREMENT_START + 2 * DAY)
    return MonitorConvergenceConfig(campaign=campaign, partitions=3)


class TestMonitorExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.runtime import run_experiment
        return run_experiment("monitor-convergence",
                              config=small_monitor_config(), cache=False)

    def test_stream_converges_to_batch(self, result):
        summary = result.summary
        assert summary["converged"]
        assert summary["merge_commutes"]
        assert summary["stream_digest"] == summary["batch_digest"]
        assert summary["events"] == 14 * 4 * 6  # targets x ticks x vantages
        assert summary["partitions"] == 3

    def test_summary_reports_operational_stats(self, result):
        summary = result.summary
        assert "events_per_s" not in summary
        assert summary["responders"] == 14
        assert set(summary["status_counts"]) <= {"200", "404", "500"}

    def test_deterministic_rows_exclude_timing(self, result):
        """Rows are the partition states alone: no timing row."""
        kinds = {row["kind"] for row in result.rows}
        assert kinds == {"state"}
        for row in result.rows:
            json.dumps(row["state"])  # JSON tree, cache-safe


class TestMonitorProbesOnce:
    """The monitor reads the campaign's own scan shards: one probe per
    (target, vantage, time), and none once ``fig3`` filled the cache."""

    @pytest.fixture()
    def probes(self, monkeypatch):
        from repro.scanner.hourly import HourlyScanner
        calls = []
        probe = HourlyScanner.probe

        def counted(self, *args, **kwargs):
            calls.append(args)
            return probe(self, *args, **kwargs)

        monkeypatch.setattr(HourlyScanner, "probe", counted)
        return calls

    def test_cold_run_probes_once_per_event(self, probes):
        from repro.runtime import run_experiment
        result = run_experiment("monitor-convergence", workers=1,
                                cache=False)
        assert result.summary["events"] == 5880
        assert len(probes) == result.summary["events"]

    def test_run_after_fig3_probes_nothing(self, probes, tmp_path, capsys):
        from repro.cli import main
        assert main(["run", "fig3", "--cache-dir", str(tmp_path)]) == 0
        assert probes
        probes.clear()
        capsys.readouterr()
        assert main(["run", "monitor-convergence",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert probes == []
        assert "executed 0" in out
        assert "cache: hit" in out

    def test_serial_parallel_socket_identity(self, tmp_path):
        from repro.runtime import run_experiment
        config = small_monitor_config()
        runs = [
            run_experiment("monitor-convergence", config=config,
                           cache=False),
            run_experiment("monitor-convergence", config=config,
                           workers=2, cache_dir=str(tmp_path / "local")),
            run_experiment("monitor-convergence", config=config,
                           workers=2, transport="socket",
                           listen="127.0.0.1:0",
                           cache_dir=str(tmp_path / "sock")),
        ]
        digests = {(stable_digest(run.rows), stable_digest(run.series),
                    stable_digest(run.summary)) for run in runs}
        assert len(digests) == 1
        assert all(run.summary["converged"] and run.summary["merge_commutes"]
                   for run in runs)


class TestMonitorCli:
    @pytest.fixture()
    def log_path(self, tmp_path, scan_dataset):
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="ascii") as stream:
            write_events(stream,
                         probe_events(scan_dataset.records[:240]),
                         meta={"source": "test"})
        return str(path)

    def test_replay_with_convergence_gate(self, log_path, capsys):
        from repro.cli import main
        assert main(["monitor", "replay", log_path,
                     "--partitions", "4"]) == 0
        out = capsys.readouterr().out
        assert "converges over 4 partitions" in out
        for name in default_reducers():
            assert name in out

    def test_replay_json_document(self, log_path, capsys):
        from repro.cli import main
        assert main(["monitor", "replay", log_path, "--json"]) == 0
        last_line = capsys.readouterr().out.strip().splitlines()[-1]
        document = json.loads(last_line)
        assert document["events"] == 240
        assert set(document["aggregates"]) == set(default_reducers())

    def test_summarize(self, log_path, capsys):
        from repro.cli import main
        assert main(["monitor", "summarize", log_path]) == 0
        out = capsys.readouterr().out
        assert "240 events" in out
        assert "probe: 240" in out
        assert "source=test" in out

    def test_tail_windows(self, log_path, capsys):
        from repro.cli import main
        assert main(["monitor", "tail", log_path,
                     "--window", "43200"]) == 0
        out = capsys.readouterr().out
        assert "late_events=0" in out
        assert "[" in out  # at least one closed window line

    def test_unreadable_log_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        missing = str(tmp_path / "nope.jsonl")
        assert main(["monitor", "replay", missing]) == 2
        assert "cannot read" in capsys.readouterr().err
