"""``serve-open``: the OCSP daemon under an open-loop request schedule.

Each sample starts a fresh ``repro serve`` over loopback TCP (set-up is
spawn until ``/-/healthz`` answers 200, world build and key generation
included), then drives it from this process over at most two
keep-alive connections:

1. a pipelined burst of the seeded request set into the empty
   pre-signed cache (``run_s``: every distinct CertID is signed once);
2. the same burst again, warm, three times (``rerun_s``, their median:
   the cache-hit path);
3. the rate ladder from ``spec.json``: requests are sent on a fixed
   schedule regardless of replies (independent OCSP clients make an
   open loop), and each latency is timed from the request's due time,
   so a stall also charges the requests queued behind it.

Every response body is compared with the in-process responder core's
answer (``direct_responses``) and every stream digest with
``expected_digest`` of those bodies.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import signal
import subprocess
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

from common import (BENCH_DIR, Deadline, child_env, cpu_roles, median,
                    peak_rss_mb_of, percentile, place, print_table,
                    remove_tree, stop_process, tail_percentile, work_dir)

#: Requests one connection may have in flight during a burst.
BURST_WINDOW = 32
#: Warm bursts per daemon; ``rerun_s`` is their median.
WARM_REPEATS = 3
#: How long a daemon may take to answer ``/-/healthz``.
READY_TIMEOUT_S = 60.0
#: How long a step waits for stragglers after its last due time.
DRAIN_TIMEOUT_S = 15.0


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------

class Daemon:
    """One ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, serve_args: List[str],
                 spans_path: Optional[str] = None) -> None:
        if spans_path:
            command = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                       spans_path]
        else:
            command = [sys.executable, "-m", "repro"]
        command += ["serve", "--host", "127.0.0.1", "--port", "0"] \
            + serve_args
        self.started = started = time.perf_counter()
        self.proc = subprocess.Popen(command, env=child_env(),
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        place(self.proc.pid, cpu_roles()[1])
        line = self.proc.stderr.readline()
        marker = "http://127.0.0.1:"
        if marker not in line:
            stop_process(self.proc, signal.SIGINT)
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0])
        self.host = "127.0.0.1"
        while self._get("/-/healthz")[0] != 200:
            if self.proc.poll() is not None \
                    or time.perf_counter() - started > READY_TIMEOUT_S:
                stop_process(self.proc, signal.SIGINT)
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - started

    def _get(self, path: str):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        status, body = self._get("/-/stats")
        return json.loads(body) if status == 200 else {}

    def stop(self) -> float:
        """SIGINT (a clean shutdown, which writes spans); returns the
        daemon's peak RSS in MiB."""
        peak = peak_rss_mb_of(self.proc.pid) or 0.0
        stop_process(self.proc, signal.SIGINT)
        self.proc.stderr.close()
        return peak


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------

async def _read_response(reader: asyncio.StreamReader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head[:-4].decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _drive(host: str, port: int, payloads: Sequence[bytes],
                 offsets: Optional[Sequence[float]], connections: int
                 ) -> Dict[str, Any]:
    """Send *payloads* over *connections* pipelined keep-alive streams.

    With *offsets* (seconds from the step start) requests go out on
    that schedule whatever the replies do; without, as a burst limited
    to :data:`BURST_WINDOW` in flight per connection.
    """
    clock = time.perf_counter
    count = len(payloads)
    sent = [0.0] * count
    done: List[Optional[float]] = [None] * count
    statuses = [0] * count
    bodies: List[Optional[bytes]] = [None] * count
    streams = [await asyncio.open_connection(host, port)
               for _ in range(connections)]
    fifos = [deque() for _ in range(connections)]
    windows = [asyncio.Semaphore(BURST_WINDOW) for _ in range(connections)]
    start = clock() + 0.005

    async def receive(lane: int) -> None:
        reader = streams[lane][0]
        for _ in range(len(range(lane, count, connections))):
            status, body = await _read_response(reader)
            index = fifos[lane].popleft()
            done[index] = clock()
            statuses[index] = status
            bodies[index] = body
            if offsets is None:
                windows[lane].release()

    async def send() -> None:
        index = 0
        while index < count:
            if offsets is None:
                lane = index % connections
                await windows[lane].acquire()
                fifos[lane].append(index)
                sent[index] = clock()
                streams[lane][1].write(payloads[index])
                index += 1
                continue
            now = clock()
            while index < count and start + offsets[index] <= now:
                lane = index % connections
                fifos[lane].append(index)
                sent[index] = now
                streams[lane][1].write(payloads[index])
                index += 1
            if index < count:
                await asyncio.sleep(max(0.0, start + offsets[index]
                                        - clock()))

    receivers = [asyncio.ensure_future(receive(lane))
                 for lane in range(connections)]
    try:
        await send()
        await asyncio.wait_for(asyncio.gather(*receivers),
                               timeout=DRAIN_TIMEOUT_S)
    except (asyncio.TimeoutError, asyncio.IncompleteReadError,
            ConnectionError):
        pass
    finally:
        for task in receivers:
            task.cancel()
        await asyncio.gather(*receivers, return_exceptions=True)
        for _reader, writer in streams:
            writer.close()
    due = [start + offset for offset in offsets] if offsets else sent
    return {"sent": sent, "done": done, "due": due, "statuses": statuses,
            "bodies": bodies}


def drive(host: str, port: int, payloads: Sequence[bytes],
          offsets: Optional[Sequence[float]], connections: int
          ) -> Dict[str, Any]:
    return asyncio.run(_drive(host, port, payloads, offsets, connections))


def failed_flags(outcome: Dict[str, Any],
                 expected: Sequence[bytes]) -> List[bool]:
    """Per request: incomplete, not 200, or not byte-identical."""
    return [body is None or status != 200 or body != want
            for status, body, want in zip(outcome["statuses"],
                                          outcome["bodies"], expected)]


def burst_seconds(outcome: Dict[str, Any]) -> float:
    finished = [t for t in outcome["done"] if t is not None]
    return (max(finished) if finished else time.perf_counter()) \
        - outcome["sent"][0]


def step_summary(outcome: Dict[str, Any], rate: float,
                 failed: Sequence[bool]) -> Dict[str, Any]:
    """Latency from due time, generator lag, and backlog of one step.

    A failed request counts as missing every latency limit (infinite).
    """
    due, sent, done = outcome["due"], outcome["sent"], outcome["done"]
    latencies = [float("inf") if bad else (end - start) * 1e3
                 for start, end, bad in zip(due, done, failed)]
    lags = [(s - d) * 1e3 for s, d in zip(sent, due)]
    last_due = due[-1]
    middle = due[0] + (last_due - due[0]) / 2

    def backlog(at: float) -> int:
        return sum(1 for d, end in zip(due, done)
                   if d <= at and (end is None or end > at))

    return {"rate": rate, "latencies_ms": latencies, "lag_ms": lags,
            "backlog_mid": backlog(middle), "backlog_end": backlog(last_due)}


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

class ServeWorkload:
    def __init__(self, spec: Dict[str, Any], seed: int,
                 daemon_seed: Optional[int]) -> None:
        from repro.datasets import MeasurementWorld, WorldConfig
        from repro.serve import (direct_responses, expected_digest,
                                 synthesize_traffic)
        from repro.serve.loadgen import render_request
        self.spec = spec["serve_open"]
        world_seed = self.spec["world_seed"]
        world = MeasurementWorld(WorldConfig(
            n_responders=self.spec["responders"],
            certs_per_responder=self.spec["certs"], seed=world_seed))
        now = world.config.start + 3600
        self.serve_args = [
            "--seed", str(world_seed if daemon_seed is None
                          else daemon_seed),
            "--responders", str(self.spec["responders"]),
            "--certs", str(self.spec["certs"]), "--now", str(now)]
        self.connections = self.spec["connections"]
        self.ladder = [float(rate) for rate in self.spec["ladder_rps"]]

        def traffic(count: int, stream: int):
            requests = synthesize_traffic(
                world, count, seed=seed * 1000 + stream,
                get_fraction=self.spec["get_fraction"],
                nonce_fraction=self.spec["nonce_fraction"])
            wire = [render_request(r) for r in requests]
            # The core answers identical request bytes identically at a
            # fixed clock, so ground truth is computed once per distinct
            # request (a few thousand instead of ~60k per run).
            distinct = {}
            for payload, request in zip(wire, requests):
                distinct.setdefault(payload, request)
            answers = dict(zip(distinct, direct_responses(
                world, list(distinct.values()), now)))
            return wire, [answers[payload] for payload in wire]

        self.burst, self.burst_expected = traffic(self.spec["burst"], 0)
        self.burst_digest = expected_digest(self.burst_expected)
        self.expected_digest = expected_digest
        self.steps = []
        for number, rate in enumerate(self.ladder, start=1):
            count = int(rate * self.spec["step_s"])
            payloads, expected = traffic(count, number)
            self.steps.append((rate, payloads, expected,
                               [i / rate for i in range(count)]))
        self.distinct_cert_ids = len(world.scan_targets())

    def sample(self, spans_path: Optional[str] = None) -> Dict[str, Any]:
        daemon = Daemon(self.serve_args, spans_path)
        try:
            result: Dict[str, Any] = {"setup_s": daemon.setup_s,
                                      "attempted": 0, "failed": 0,
                                      "digest_ok": True, "steps": []}
            bursts, windows = [], []
            for _ in range(1 + WARM_REPEATS):
                window_start = time.perf_counter()
                outcome = drive(daemon.host, daemon.port, self.burst, None,
                                self.connections)
                bursts.append(burst_seconds(outcome))
                windows.append((window_start, time.perf_counter()))
                self._account(result, outcome, self.burst_expected)
            result["run_s"] = bursts[0]
            result["rerun_s"] = median(bursts[1:])
            result["timings"] = {
                "setup_s": [(daemon.setup_s, (daemon.started, daemon.started
                                              + daemon.setup_s))],
                "run_s": [(bursts[0], windows[0])],
                "rerun_s": list(zip(bursts[1:], windows[1:]))}
            for rate, payloads, expected, offsets in self.steps:
                outcome = drive(daemon.host, daemon.port, payloads, offsets,
                                self.connections)
                failed = self._account(result, outcome, expected)
                result["steps"].append(step_summary(outcome, rate, failed))
            result["stats"] = daemon.stats()
        finally:
            result_rss = daemon.stop()
        result["peak_rss_mb"] = result_rss
        return result

    def _account(self, result, outcome, expected) -> List[bool]:
        """Count attempts and failures; returns the per-request flags."""
        bodies = [body if body is not None else b""
                  for body in outcome["bodies"]]
        failed = failed_flags(outcome, expected)
        result["attempted"] += len(expected)
        result["failed"] += sum(failed)
        seen = self.expected_digest(bodies)
        result.setdefault("first_digest", seen)
        if seen != self.expected_digest(expected):
            result["digest_ok"] = False
        return failed


def ladder_report(spec: Dict[str, Any], samples: List[Dict[str, Any]]
                  ) -> Dict[str, Any]:
    """Pool each rate's latencies over samples; decide sustained steps."""
    limit_ms = spec["latency_limit_ms"]
    lag_limit_ms = spec["lag_limit_ms"]
    report = {"steps": [], "max_rps": 0.0}
    for position, rate in enumerate(spec["ladder_rps"]):
        steps = [sample["steps"][position] for sample in samples]
        latencies = [v for step in steps for v in step["latencies_ms"]]
        lags = [v for step in steps for v in step["lag_ms"]]
        lag_p99 = percentile(lags, 99)
        growth_cap = max(spec["backlog_floor"], rate * limit_ms / 1e3)
        backlog_end = max(step["backlog_end"] for step in steps)
        # Growing: more requests outstanding at the last due time than
        # the latency limit allows at this rate, and more than halfway.
        growing = any(step["backlog_end"] > growth_cap
                      and step["backlog_end"] > step["backlog_mid"]
                      for step in steps)
        behind = lag_p99 > lag_limit_ms
        tail_q = tail_percentile(len(latencies))
        entry = {"rate": rate, "n": len(latencies),
                 "p50_ms": percentile(latencies, 50),
                 "tail_q": tail_q,
                 "tail_ms": percentile(latencies, tail_q) if tail_q else None,
                 "p99_ms": percentile(latencies, 99),
                 "lag_p99_ms": lag_p99, "backlog_end": backlog_end,
                 "generator_behind": behind, "backlog_growing": growing}
        entry["sustained"] = not behind and not growing
        entry["meets_limit"] = entry["sustained"] and \
            entry["p99_ms"] <= limit_ms
        if entry["meets_limit"]:
            report["max_rps"] = max(report["max_rps"], rate)
        report["steps"].append(entry)
    return report


def run(spec: Dict[str, Any], seed: int, seconds: float, trace: bool,
        daemon_seed: Optional[int] = None) -> Dict[str, Any]:
    """Samples until the deadline; returns the workload summary."""
    from tracer import layer_stats, load_document, root_span_ms

    workload = ServeWorkload(spec, seed, daemon_seed)
    deadline = Deadline(seconds)
    work = work_dir("serve")
    samples: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        while (not samples or (trace and not traced)
               or deadline.remaining() > 0):
            spans = None
            if trace and len(traced) < len(samples):
                spans = str(work / f"spans-{len(traced)}.json")
            sample = workload.sample(spans)
            if spans:
                document = load_document(spans)
                sample["layers"] = layer_stats([document])
                sample["documents"] = [document]
                run_window = tuple(int(t * 1e9)
                                   for t in sample["timings"]["run_s"][0][1])
                sample["unattributed_ms"] = (
                    sample["run_s"] * 1e3
                    - root_span_ms(document, run_window))
                traced.append(sample)
            else:
                samples.append(sample)
    finally:
        remove_tree(work)
    return {"samples": samples, "traced": traced,
            "ladder": ladder_report(workload.spec, samples),
            "burst_digest": workload.burst_digest,
            "distinct_cert_ids": workload.distinct_cert_ids}


def ladder_rows(report: Dict[str, Any], spec: Dict[str, Any]
                ) -> List[List[Any]]:
    """``p50_ms.rNN`` / ``p99_ms.rNN`` and ``max_rps`` as table rows."""
    rows: List[List[Any]] = []
    for name, entry in zip(spec["ladder_names"], report["steps"]):
        what = f"offered {entry['rate']:g} req/s, from due time"
        for q in ("p50", "p99"):
            value = (f"{entry[q + '_ms']:.4f}" if entry["sustained"]
                     else "n/a (not sustained)")
            rows.append([f"{q}_ms.{name}", "ms", entry["n"], value, "", "",
                         "", what])
    rows.append(["max_rps", "req/s", len(report["steps"]),
                 f"{report['max_rps']:g}", "", "", "",
                 f"highest ladder rate sustained with p99 <= "
                 f"{spec['latency_limit_ms']:g} ms"])
    return rows


def print_ladder(report: Dict[str, Any], spec: Dict[str, Any]) -> None:
    names = spec["ladder_names"]
    rows = [["step", "offered req/s", "n", "p50 ms", "tail", "p99 ms",
             "lag p99 ms", "end backlog", "verdict"]]
    for name, entry in zip(names, report["steps"]):
        if not entry["sustained"]:
            verdict = ("not sustained: generator behind"
                       if entry["generator_behind"]
                       else "not sustained: backlog growing")
            latency = ["n/a", "n/a", "n/a"]
        else:
            verdict = "meets limit" if entry["meets_limit"] \
                else "over limit"
            tail = (f"p{entry['tail_q']:g}={entry['tail_ms']:.3f}"
                    if entry["tail_q"] else "n/a")
            latency = [f"{entry['p50_ms']:.3f}", tail,
                       f"{entry['p99_ms']:.3f}"]
        rows.append([name, f"{entry['rate']:g}", entry["n"], *latency,
                     f"{entry['lag_p99_ms']:.3f}", entry["backlog_end"],
                     verdict])
    print_table(f"serve-open rate ladder (open loop, "
                f"{spec['connections']} pipelined connections, p99 limit "
                f"{spec['latency_limit_ms']} ms)", rows)

