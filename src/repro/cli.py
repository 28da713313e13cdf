"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``         — any registered experiment via the unified runtime;
  for ``sec4-deployment``, ``tbl1``-``tbl3`` and ``sec8-readiness`` it
  also prints the paper table
* ``figures``     — write every paper artefact's data file
* ``scan``        — run the Figure 3 campaign, save JSON-lines / events
* ``analyze``     — availability + quality report over a scan, or the
  whole-program effect & purity analyzer
* ``experiments`` — the experiment registry (paper artefact → benchmark)
* ``scenarios``   — the fault-scenario and client-policy catalogues
* ``selftest``    — the Section-8 responder self-test harness
* ``issue``       — mint a demo Must-Staple certificate chain as PEM
* ``inspect``     — asn1parse-style dump of a PEM/DER file
* ``lint``        — static conformance analysis of certificates/OCSP/CRLs
* ``hostile``     — seeded structure-aware DER mutation (hostile corpus)
* ``cache``       — artifact-cache maintenance (stats / verify / gc)
* ``serve``       — asyncio OCSP-over-HTTP responder daemon
* ``loadgen``     — deterministic load generator against a daemon
* ``monitor``     — replay/tail/summarize a monitor event log
* ``worker``      — execute shards for a TCP coordinator
  (``--connect host:port``)

Experiment-running commands (``run``, ``figures``, ``scan`` and
``analyze``) share the runtime flags ``--scale``, ``--seed``,
``--workers``, ``--cache-dir`` and ``--no-cache``.  Every paper table
or figure the CLI prints or writes funnels through
:func:`repro.runtime.run_experiment` on the experiment's default config
at that scale, whose supervised executor makes every run
crash-tolerant and resumable, and is rendered by
:data:`repro.core.figures.ARTEFACTS`.  ``run`` additionally takes
``--allow-partial``, ``--shard-timeout`` and ``--retries`` (supervision
policy), and ``--transport socket [--listen HOST:PORT]`` to coordinate
a fleet of ``repro worker`` processes over TCP with no shared
filesystem at all.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .simnet import DAY, HOUR, MEASUREMENT_START

_DEFAULT_SEED = 7


def _seed(args: argparse.Namespace) -> int:
    """Resolve the effective seed (``<command> --seed N``; the old
    root-level spelling is rejected in :func:`main`)."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    return _DEFAULT_SEED


def _scale(args: argparse.Namespace):
    """The :class:`~repro.core.figures.FigureScale` that ``--scale``
    names, seeded by ``--seed``."""
    from .core.figures import FigureScale
    scale = FigureScale.full() if args.scale == "full" else FigureScale.small()
    scale.seed = _seed(args)
    return scale


def _runtime_kwargs(args: argparse.Namespace) -> dict:
    """The run_experiment() knobs shared by every runtime command."""
    return {
        "workers": getattr(args, "workers", 1),
        "cache": not getattr(args, "no_cache", False),
        "cache_dir": getattr(args, "cache_dir", None),
    }


def _cmd_scan(args: argparse.Namespace) -> int:
    from .runtime import run_experiment
    from .scanner.io import dump_dataset
    scale = _scale(args)
    print(f"scanning {scale.scan_days} days x {scale.n_responders} "
          f"responders every {scale.scan_interval // HOUR}h from 6 "
          f"vantages...", file=sys.stderr)
    result = run_experiment("fig3", scale=scale, **_runtime_kwargs(args))
    dataset = result.artifacts["dataset"]
    if args.out:
        with open(args.out, "w") as stream:
            count = dump_dataset(dataset, stream)
        print(f"wrote {count} probes to {args.out} "
              f"(cache: {result.cache_status})", file=sys.stderr)
    else:
        dump_dataset(dataset, sys.stdout)
    if args.events:
        from .monitor import dataset_to_events, write_events
        with open(args.events, "w", encoding="ascii") as stream:
            count = write_events(stream, dataset_to_events(dataset),
                                 meta={"source": "repro scan",
                                       "seed": scale.seed})
        print(f"wrote {count} events to {args.events}", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import os
    static_requested = (args.strict or args.contract or args.graph
                        or args.format != "text"
                        or (args.scan_file and os.path.isdir(args.scan_file)))
    if static_requested:
        return _cmd_analyze_static(args)
    from .core import analyze_availability, quality_headlines
    from .scanner.io import load_dataset
    if args.scan_file:
        with open(args.scan_file) as stream:
            dataset = load_dataset(stream)
    else:
        # No file: run the fig3 campaign through the runtime.
        from .runtime import run_experiment
        result = run_experiment("fig3", scale=_scale(args),
                                **_runtime_kwargs(args))
        dataset = result.artifacts["dataset"]
        print(f"cache: {result.cache_status}", file=sys.stderr)
    report = analyze_availability(dataset)
    print(f"{len(dataset)} probes, {report.responder_count} responders")
    print("failure rate by vantage:")
    for vantage, rate in sorted(report.failure_rate.items(), key=lambda kv: kv[1]):
        print(f"  {vantage:10s} {rate:.2f}%")
    print(f"never reachable anywhere: {len(report.never_successful_anywhere)}")
    print(f"responders with >=1 outage: {len(report.responders_with_outage)} "
          f"({report.outage_fraction * 100:.1f}%)")
    headlines = quality_headlines(dataset)
    print(f"zero-margin responders: {headlines.zero_margin}")
    print(f"blank nextUpdate: {headlines.blank_next_update}")
    print(f"pre-generated responses: {headlines.not_on_demand}")
    return 0


def _cmd_analyze_static(args: argparse.Namespace) -> int:
    """The whole-program effect & purity analyzer (`repro analyze --strict`)."""
    import json
    import os
    from pathlib import Path

    from .analyze import analyze_package, analyze_tree, contract_table, graph_dump
    from .lint.output import render_report

    if args.scan_file and os.path.isdir(args.scan_file):
        root = Path(args.scan_file).resolve()
        analysis = analyze_tree(root)
    else:
        analysis = analyze_package()

    if args.graph:
        document = json.dumps(graph_dump(analysis), indent=2, sort_keys=True)
        with open(args.graph, "w") as stream:
            stream.write(document + "\n")
        print(f"call graph: {args.graph}", file=sys.stderr)

    if args.contract:
        print(contract_table(analysis))
    elif args.format != "text":
        sys.stdout.write(render_report(analysis.report, args.format))
    else:
        for finding in analysis.report.findings:
            print(finding.render())
        pure = sum(1 for r in analysis.contracts
                   if r.contract.kind != "unresolved" and not r.violations)
        print(f"{len(analysis.program.modules)} modules, "
              f"{len(analysis.graph.functions)} functions; "
              f"{pure}/{len(analysis.contracts)} contracts pure; "
              f"{len(analysis.report.findings)} finding(s)")

    if args.strict:
        return 0 if analysis.ok else 1
    return 0 if analysis.clean else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .core.experiments import index_table
    print(index_table())
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """List the chaos fault scenarios and client resilience policies."""
    from .core import render_table
    from .faults import POLICIES, scenario, scenario_names

    rows = []
    for name in scenario_names():
        plan = scenario(name)
        kinds = ", ".join(injector.kind for injector in plan.injectors) \
            or "(passthrough)"
        rows.append([name, len(plan.injectors), kinds, plan.plan_digest()])
    print(render_table(["scenario", "injectors", "kinds", "digest"], rows,
                       title="Fault scenarios (repro run chaos-availability)"))
    print()
    rows = []
    for name, policy in POLICIES.items():
        rows.append([
            name,
            "yes" if policy.check_revocation else "no",
            policy.attempt_timeout_ms or "-",
            policy.retries_per_url,
            "yes" if policy.failover else "no",
            "yes" if policy.crl_fallback else "no",
            "hard" if policy.hard_fail else "soft",
        ])
    print(render_table(
        ["policy", "checks", "attempt ms", "retries/url", "failover",
         "crl fallback", "fail mode"],
        rows, title="Client policies (repro run chaos-client-outcomes)"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from .core.figures import paper_table
    from .runtime import ShardQuarantinedError, run_experiment
    kwargs = _runtime_kwargs(args)
    kwargs.update(allow_partial=args.allow_partial,
                  shard_timeout=args.shard_timeout,
                  max_retries=args.retries)
    if args.transport == "socket":
        from .runtime import parse_address
        from .runtime.dist import DEFAULT_LEASE_S
        try:
            parse_address(args.listen)
        except ValueError as exc:
            print(f"run: --listen {exc}", file=sys.stderr)
            return 2
        kwargs.update(transport="socket", listen=args.listen,
                      lease_s=DEFAULT_LEASE_S if args.lease is None
                      else args.lease,
                      spawn_workers=not args.no_spawn)
    try:
        result = run_experiment(args.experiment_id, scale=_scale(args),
                                **kwargs)
    except KeyError:
        print(f"run: unknown experiment {args.experiment_id!r} "
              f"(see 'repro experiments')", file=sys.stderr)
        return 2
    except ShardQuarantinedError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if result.manifest.complete else 3
    manifest = result.manifest
    print(f"experiment: {result.experiment_id}")
    print(f"config: {manifest.config_digest} "
          f"(code {manifest.code_version})")
    print(f"shards: {len(manifest.shards)} "
          f"(executed {len(manifest.shards) - manifest.cached}, "
          f"cached {manifest.cached}, "
          f"workers {manifest.workers})")
    print(f"rows: {len(result.rows)}")
    for key, value in result.to_dict()["summary"].items():
        print(f"  {key}: {value}")
    print(f"wall: {result.timings['total_s']:.2f}s "
          f"(shard compute {result.timings['shard_ms_total']:.0f}ms)")
    print(f"cache: {result.cache_status}")
    print(f"manifest: {manifest.cached} cached, "
          f"{manifest.computed} computed, {manifest.retried} retried, "
          f"{len(manifest.quarantined())} quarantined")
    for state in manifest.quarantined():
        print(f"  quarantined {state.label or state.index}: "
              f"{state.quarantine_reason}")
    if not manifest.complete:
        return 3
    table = paper_table(result)
    if table is not None:
        print()
        sys.stdout.write(table)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .core.figures import generate_all
    print(f"generating figure/table data into {args.out} "
          f"({args.scale} scale, workers={args.workers})...", file=sys.stderr)
    written = generate_all(args.out, _scale(args), **_runtime_kwargs(args))
    for path in written:
        print(path)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    """Run the Section-8 self-test harness against simulated responders."""
    from .datasets import MeasurementWorld, WorldConfig
    from .scanner import self_test_responder
    world = MeasurementWorld(WorldConfig(n_responders=args.responders,
                                         certs_per_responder=1,
                                         seed=_seed(args)))
    now = MEASUREMENT_START + HOUR
    unhealthy = 0
    for site in world.sites[:args.limit]:
        report = self_test_responder(world.network, site.url,
                                     site.certificates[0],
                                     site.authority.certificate, now)
        if not report.healthy or (report.warnings and args.verbose):
            print(report.render())
            print()
        if not report.healthy:
            unhealthy += 1
    print(f"{unhealthy}/{min(args.limit, len(world.sites))} responders "
          f"need attention")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .asn1.dump import describe_certificate, dump_der
    from .asn1.errors import ASN1Error
    from .x509.pem import decode_pem
    with open(args.path, "rb") as stream:
        raw = stream.read()
    blobs: list = []
    try:
        text = raw.decode("ascii")
        blobs = decode_pem(text)
    except (UnicodeDecodeError, ValueError):
        pass
    if not blobs:
        blobs = [("DER", raw)]
    for label, der in blobs:
        print(f"--- {label} ({len(der)} bytes) ---")
        if label == "CERTIFICATE":
            try:
                print(describe_certificate(der))
                print()
            except (ASN1Error, ValueError) as exc:  # still dump the raw structure
                print(f"(certificate summary failed: {exc})")
        print(dump_der(der, max_lines=args.max_lines))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static conformance analysis over certificates / OCSP / CRLs."""
    import json

    from .datasets import WorldConfig
    from .lint import (
        LintContext,
        LintEngine,
        LintReport,
        lint_world,
        render_catalogue,
        render_report,
        self_test,
    )

    def emit(text: str) -> None:
        if args.out:
            with open(args.out, "w") as stream:
                stream.write(text)
        else:
            sys.stdout.write(text)

    if args.rules:
        emit(render_catalogue() + "\n")
        return 0

    if args.self_test:
        ok, text = self_test()
        emit(text + "\n")
        return 0 if ok else 1

    if args.corpus:
        summary = lint_world(
            config=WorldConfig(n_responders=args.responders,
                               certs_per_responder=args.certs,
                               seed=_seed(args)),
            reference_time=args.reference_time,
        )
        if args.format == "json":
            document = {"schema": "repro-lint-corpus/1", **summary.to_dict()}
            emit(json.dumps(document, indent=2, sort_keys=True) + "\n")
        elif args.format == "sarif":
            emit(render_report(summary.report, "sarif"))
        else:
            percents = summary.figure5_percent()
            lines = [
                f"corpus lint @ t={summary.reference_time}: "
                f"{summary.probes} probes, {summary.certificates} certificates, "
                f"{summary.crls} CRLs",
                "figure 5 (static): " + ", ".join(
                    f"{label} {percents[label]:.2f}%" for label in percents),
                f"unusable total: {summary.unusable_percent():.2f}%",
                f"agreement with verify_response: "
                f"{summary.agreement}/{summary.probes}",
            ]
            for disagreement in summary.disagreements:
                lines.append(f"  DISAGREE {disagreement.source}: "
                             f"lint={disagreement.lint_class} "
                             f"verify={disagreement.verify_class}")
            lines.append("findings by severity: " +
                         ", ".join(f"{k}={v}"
                                   for k, v in summary.report.by_severity().items()))
            emit("\n".join(lines) + "\n")
        return 0 if not summary.disagreements else 1

    if not args.paths:
        print("lint: provide paths, or one of --corpus / --self-test / --rules",
              file=sys.stderr)
        return 2

    reference = args.reference_time
    if reference is None:
        reference = MEASUREMENT_START
    engine = LintEngine(LintContext(reference_time=reference))
    report = LintReport(reference_time=reference)
    for path in args.paths:
        try:
            partial = engine.lint_path(path, kind=args.kind)
        except OSError as exc:
            print(f"lint: cannot read {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        report.artifacts += partial.artifacts
        report.extend(partial.findings)
    report.sort()
    emit(render_report(report, args.format))
    return 0 if report.clean else 1


def _cmd_hostile(args: argparse.Namespace) -> int:
    """Generate (and classify) seeded structure-aware DER mutants."""
    import json
    import os

    from .core import render_table
    from .hostile import KINDS, OUTCOMES, classify_mutant, mutate, seed_world

    seed = _seed(args)
    if args.reference_time is not None:
        world = seed_world(args.reference_time)
    else:
        world = seed_world()
    kinds = list(KINDS) if args.kind == "all" else [args.kind]
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    rows = []
    totals = {outcome: 0 for outcome in OUTCOMES}
    for kind in kinds:
        document = world.documents[kind]
        for mutation_id in range(args.count):
            mutant = mutate(document, mutation_id, seed, donors=world.donors)
            row = classify_mutant(kind, mutant.der, world)
            rows.append({"kind": kind, "mutation_id": mutation_id,
                         "family": mutant.family, **row})
            totals[row["outcome"]] += 1
            if args.out:
                name = f"{kind}-{mutation_id:05d}-{mutant.family}.der"
                with open(os.path.join(args.out, name), "wb") as stream:
                    stream.write(mutant.der)

    if args.format == "json":
        document = {"schema": "repro-hostile-mutate/1", "seed": seed,
                    "reference_time": world.reference_time,
                    "outcomes": totals, "rows": rows}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        table_rows = [[row["kind"], row["mutation_id"], row["family"],
                       row["outcome"], row["error_class"] or "-", row["size"]]
                      for row in rows]
        print(render_table(
            ["kind", "id", "family", "outcome", "error class", "bytes"],
            table_rows,
            title=f"Hostile corpus (seed {seed}, {len(rows)} mutants)"))
        print("outcomes: " + ", ".join(
            f"{outcome}={count}" for outcome, count in totals.items()))
    if args.out:
        print(f"wrote {len(rows)} mutants to {args.out}", file=sys.stderr)
    # A mutant escaping the taxonomy means a parser bug: fail loudly.
    return 0 if totals["unexpected_exception"] == 0 else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    """Artifact-cache maintenance: stats, integrity verify, gc."""
    from .runtime import ArtifactCache
    cache = ArtifactCache(root=args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats.root}")
        print(f"entries: {stats.entries} ({stats.bytes} bytes, "
              f"{stats.rows} rows)")
        print(f"quarantined: {stats.corrupt_entries} "
              f"({stats.corrupt_bytes} bytes)")
        return 0
    if args.action == "verify":
        report = cache.verify()
        print(f"checked {report.checked} entries: {report.ok} ok, "
              f"{len(report.corrupt)} corrupt")
        for key in report.corrupt:
            print(f"  corrupt (quarantined): {key}")
        return 0 if report.clean else 1
    # gc
    now = None
    if args.max_age is not None:
        from .runtime.dist import now_s
        now = now_s()
    removed, freed = cache.gc(everything=args.all, max_age_s=args.max_age,
                              dry_run=args.dry_run, now=now)
    scope = "all entries" if args.all else "quarantined entries"
    if args.max_age is not None:
        scope += f" older than {args.max_age:g}s"
    verb = "would remove" if args.dry_run else "removed"
    print(f"gc ({scope}): {verb} {removed} files, "
          f"{'freeing' if args.dry_run else 'freed'} {freed} bytes")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Execute shards for the TCP coordinator at ``--connect`` until it
    stops the fleet (or the idle/job limits hit)."""
    from .runtime import ArtifactCache
    from .runtime.sock import (DEFAULT_RECONNECT_LIMIT, SocketWorker,
                               parse_address)

    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache = ArtifactCache(root=args.cache_dir)
    events = None
    stream = None
    if args.events:
        from .monitor import EventLogWriter
        stream = open(args.events, "w", encoding="ascii")
        events = EventLogWriter(stream, meta={"source": "repro worker",
                                              "worker": args.id})
    worker = SocketWorker(
        host, port, args.id, cache=cache, events=events,
        reconnect_limit=DEFAULT_RECONNECT_LIMIT if args.reconnect is None
        else args.reconnect)
    try:
        executed = worker.run(max_jobs=args.max_jobs,
                              idle_exit_s=args.idle_exit)
    except KeyboardInterrupt:
        print(f"worker {args.id}: interrupted", file=sys.stderr)
        return 130
    finally:
        if stream is not None:
            stream.close()
    print(f"worker {args.id}: executed {executed} shard(s)",
          file=sys.stderr)
    return 0


def _cmd_issue(args: argparse.Namespace) -> int:
    from .ca import CertificateAuthority
    from .crypto import generate_keypair
    from .x509.pem import chain_to_pem
    now = MEASUREMENT_START
    ca = CertificateAuthority.create_root(
        "Demo CA", f"http://ocsp.demo.test", not_before=now - 365 * DAY)
    leaf = ca.issue_leaf(args.domain, generate_keypair(512, rng=_seed(args)),
                         not_before=now, must_staple=args.must_staple)
    sys.stdout.write(chain_to_pem([leaf, ca.certificate]))
    print(f"issued {args.domain} "
          f"(must-staple={'yes' if leaf.must_staple else 'no'}, "
          f"serial={leaf.serial_number})", file=sys.stderr)
    return 0


def _serve_world(args: argparse.Namespace):
    """The (world, now) a serve/loadgen invocation operates on."""
    from .datasets import MeasurementWorld, WorldConfig
    world = MeasurementWorld(WorldConfig(n_responders=args.responders,
                                         certs_per_responder=args.certs,
                                         seed=_seed(args)))
    now = args.now if args.now is not None else world.config.start + HOUR
    return world, now


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio OCSP responder daemon over a simulated world."""
    import asyncio

    from .serve import ServeApp, ServeDaemon

    world, now = _serve_world(args)
    app = ServeApp.for_world(world, now=now)
    access_log = None
    if args.access_log:
        from .monitor import EventLogWriter
        access_log = open(args.access_log, "w", encoding="ascii")
        writer = EventLogWriter(access_log, meta={
            "source": "repro serve", "seed": _seed(args), "now": now,
            "responders": args.responders, "certs": args.certs})
        app.access_sink = writer.emit
    daemon = ServeDaemon(app, host=args.host, port=args.port)

    async def serve() -> None:
        host, port = await daemon.start()
        print(f"serving {len(app.responders)} responders on "
              f"http://{host}:{port} (simulated now={now}, seed="
              f"{_seed(args)}); control: /-/healthz /-/stats",
              file=sys.stderr)
        await daemon.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("serve: shutting down", file=sys.stderr)
    finally:
        if access_log is not None:
            print(f"serve: {app.access_events} access events in "
                  f"{args.access_log}", file=sys.stderr)
            access_log.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay seeded corpus traffic against a daemon (or in-process)."""
    from .serve import (
        ServeApp,
        direct_responses,
        expected_digest,
        loadgen_gate,
        replay_inprocess,
        replay_tcp,
        synthesize_traffic,
    )

    world, now = _serve_world(args)
    traffic = synthesize_traffic(world, args.requests, seed=_seed(args),
                                 get_fraction=args.get_fraction,
                                 nonce_fraction=args.nonce_fraction)
    if args.inprocess:
        app = ServeApp.for_world(world, now=now)
        report = replay_inprocess(app, traffic)
    else:
        try:
            report = replay_tcp(args.host, args.port, traffic,
                                concurrency=args.concurrency)
        except ConnectionError as exc:
            print(f"loadgen: cannot reach {args.host}:{args.port}: {exc} "
                  f"(start 'repro serve' with the same --seed/--responders/"
                  f"--certs/--now first)", file=sys.stderr)
            return 2
    summary = report.summary()
    print(f"{summary['requests']} requests in {summary['duration_s']:.3f}s: "
          f"{summary['req_per_s']:.0f} req/s")
    print(f"latency p50 {summary['p50_ms']:.3f} ms, "
          f"p99 {summary['p99_ms']:.3f} ms")
    print("status counts: " + ", ".join(
        f"{code}={count}" for code, count in summary["status_counts"].items()))
    print(f"body digest: {report.body_digest}")
    expected = None
    if not args.no_verify:
        expected = expected_digest(direct_responses(world, traffic, now))
    problems = loadgen_gate(report, expected=expected)
    if not problems:
        if expected is not None:
            print("byte-identity vs in-process responder core: OK")
        return 0
    for problem in problems:
        print(f"loadgen: GATE FAILED: {problem}", file=sys.stderr)
    if expected is not None and report.body_digest != expected:
        print("loadgen: is the daemon serving the same "
              "--seed/--responders/--certs/--now?", file=sys.stderr)
    return 1


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Replay, tail, or summarize a monitor event log."""
    import json

    from .canon import canonical, stable_digest
    from .monitor import (
        WindowedAggregate,
        convergence,
        default_reducers,
        iter_events,
        read_header,
    )

    try:
        with open(args.log, "r", encoding="ascii") as stream:
            header = read_header(stream)
            events = list(iter_events(stream))
    except (OSError, ValueError) as exc:
        print(f"monitor: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    meta = header.get("meta", {})

    if args.action == "summarize":
        by_kind: dict = {}
        for event in events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        print(f"{args.log}: {len(events)} events")
        if meta:
            print("meta: " + ", ".join(
                f"{name}={value}" for name, value in sorted(meta.items())))
        if events:
            print(f"event-time span: {min(e.ts for e in events)} .. "
                  f"{max(e.ts for e in events)}")
        for kind, count in sorted(by_kind.items()):
            print(f"  {kind}: {count}")
        return 0

    reducers = default_reducers()

    if args.action == "tail":
        reducer = reducers[args.reducer]
        window = WindowedAggregate(reducer, width=args.window,
                                   allowed_lateness=args.lateness)

        def render(closed) -> None:
            print(f"[{closed.start} .. {closed.end}) {closed.events:>6} "
                  f"events  {stable_digest(closed.result)}")
            if args.json:
                print(json.dumps(canonical(closed.result), sort_keys=True))

        for event in events:
            for closed in window.observe(event):
                render(closed)
        for closed in window.flush():
            render(closed)
        counters = window.counters()
        print(", ".join(f"{name}={counters[name]}"
                        for name in ("events", "late_events",
                                     "closed_windows", "watermark")))
        return 0

    # replay: every reducer over the whole log, plus (optionally) the
    # partitioned-merge convergence gate.
    document = {"log": args.log, "events": len(events), "aggregates": {}}
    diverged = []
    for name in sorted(reducers):
        reducer = reducers[name]
        final = reducer.finalize(reducer.reduce(events))
        document["aggregates"][name] = canonical(final)
        line = f"{name}: {stable_digest(final)}"
        if args.partitions > 1:
            check = convergence(events, reducer,
                                partitions=args.partitions,
                                scheme="round-robin")
            if check.converged:
                line += f"  (converges over {args.partitions} partitions)"
            else:
                diverged.append(name)
                line += (f"  DIVERGED: merged {check.merged_digest} != "
                         f"single {check.single_digest}")
        print(line)
    if args.json:
        print(json.dumps(document, sort_keys=True))
    if diverged:
        print(f"monitor: partitioned replay diverged from the "
              f"single-partition answer for: {', '.join(diverged)}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Is the Web Ready for OCSP "
                    "Must-Staple?' (IMC 2018)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Shared flags: every command that can reach run_experiment() takes
    # the same runtime knobs; seed-only commands take just --seed.
    seed_flags = argparse.ArgumentParser(add_help=False)
    seed_flags.add_argument("--seed", type=int, default=None,
                            help=f"RNG seed (default {_DEFAULT_SEED})")
    runtime_flags = argparse.ArgumentParser(add_help=False,
                                            parents=[seed_flags])
    runtime_flags.add_argument("--workers", type=int, default=1,
                               help="shard worker processes (output is "
                                    "identical at any count)")
    runtime_flags.add_argument("--cache-dir", default=None,
                               help="artifact cache directory (default: "
                                    "$REPRO_CACHE_DIR or "
                                    "~/.cache/repro-experiments)")
    runtime_flags.add_argument("--no-cache", action="store_true",
                               help="disable the artifact cache")
    runtime_flags.add_argument("--scale", choices=["small", "full"],
                               default="small",
                               help="experiment size: small (seconds) or "
                                    "full (benchmark scale)")

    run = commands.add_parser(
        "run", parents=[runtime_flags],
        help="run any registered experiment via the unified runtime")
    run.add_argument("experiment_id", metavar="experiment",
                     help="registry id, e.g. fig3 (see 'repro experiments')")
    run.add_argument("--json", action="store_true",
                     help="print the full result document as JSON")
    run.add_argument("--allow-partial", action="store_true",
                     help="finish in degraded mode when shards are "
                          "quarantined (exit code 3)")
    run.add_argument("--shard-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="the coordinator reclaims a shard as hung "
                          "this long after a worker took it, kills the "
                          "worker if it forked it, and retries (forks "
                          "one even at --workers 1)")
    run.add_argument("--retries", type=int, default=2,
                     help="extra attempts per shard beyond the first "
                          "(default 2)")
    run.add_argument("--transport", choices=["local", "socket"],
                     default="local",
                     help="local (default: in-process at --workers 1 "
                          "without --shard-timeout, else forked workers "
                          "over loopback) or socket (a TCP coordinator "
                          "on --listen that 'repro worker --connect' "
                          "workers dial from any host, plus --workers "
                          "forked ones unless --no-spawn)")
    run.add_argument("--listen", default="127.0.0.1:0",
                     metavar="HOST:PORT",
                     help="with --transport socket: the address to "
                          "bind (default 127.0.0.1:0 — an ephemeral "
                          "port the forked fleet dials)")
    run.add_argument("--no-spawn", action="store_true",
                     help="with --transport socket: do not fork a "
                          "local worker fleet; externally started "
                          "'repro worker' processes do the work")
    run.add_argument("--lease", type=float, default=None,
                     metavar="SECONDS",
                     help="with --transport socket: lease duration; a "
                          "dead worker is detected within about one "
                          "lease (default: the runtime's "
                          "DEFAULT_LEASE_S)")
    run.set_defaults(func=_cmd_run)

    scan = commands.add_parser("scan", parents=[runtime_flags],
                               help="run the Figure 3 campaign")
    scan.add_argument("--out", help="write JSON-lines here (default: stdout)")
    scan.add_argument("--events", default=None, metavar="PATH",
                      help="also write the campaign as a monitor event "
                           "log ('repro monitor' reads this)")
    scan.set_defaults(func=_cmd_scan)

    analyze = commands.add_parser(
        "analyze", parents=[runtime_flags],
        help="report over a saved scan, or (with --strict/--contract/"
             "--graph) the whole-program effect & purity analyzer")
    analyze.add_argument("scan_file", nargs="?", default=None,
                         help="saved scan (default: run the fig3 campaign); "
                              "a directory selects the static analyzer "
                              "and is used as its source root")
    analyze.add_argument("--strict", action="store_true",
                         help="static analyzer: exit 1 on ANY finding, "
                              "warnings included")
    analyze.add_argument("--contract", action="store_true",
                         help="static analyzer: print the purity-contract "
                              "certification table")
    analyze.add_argument("--graph", metavar="FILE", default=None,
                         help="static analyzer: dump the call graph + "
                              "effect map as JSON to FILE")
    analyze.add_argument("--format", choices=["text", "json", "sarif"],
                         default="text",
                         help="static analyzer report format")
    analyze.set_defaults(func=_cmd_analyze)

    experiments = commands.add_parser("experiments", help="the experiment index")
    experiments.set_defaults(func=_cmd_experiments)

    scenarios = commands.add_parser(
        "scenarios", help="fault-scenario and client-policy catalogues")
    scenarios.set_defaults(func=_cmd_scenarios)

    issue = commands.add_parser("issue", parents=[seed_flags],
                                help="mint a demo certificate chain")
    issue.add_argument("domain")
    issue.add_argument("--must-staple", action="store_true")
    issue.set_defaults(func=_cmd_issue)

    lint = commands.add_parser(
        "lint", parents=[seed_flags],
        help="static conformance analysis (certificates/OCSP/CRLs)")
    lint.add_argument("paths", nargs="*",
                      help="PEM bundles or raw DER files to lint")
    lint.add_argument("--kind", choices=["auto", "certificate", "ocsp", "crl"],
                      default="auto",
                      help="artifact kind for raw DER (default: sniff)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text", help="report format")
    lint.add_argument("--reference-time", type=int, default=None,
                      help="POSIX 'now' for freshness rules "
                           "(default: measurement start)")
    lint.add_argument("--corpus", action="store_true",
                      help="batch-lint the synthetic responder corpus "
                           "(static Figure 5)")
    lint.add_argument("--responders", type=int, default=40,
                      help="corpus size for --corpus")
    lint.add_argument("--certs", type=int, default=1,
                      help="certificates per responder for --corpus")
    lint.add_argument("--self-test", action="store_true", dest="self_test",
                      help="mint a known-good chain and assert a clean lint")
    lint.add_argument("--rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--out", help="write the report here instead of stdout")
    lint.set_defaults(func=_cmd_lint)

    hostile = commands.add_parser(
        "hostile", parents=[seed_flags],
        help="seeded structure-aware DER mutation (hostile corpus)")
    hostile.add_argument("action", choices=["mutate"],
                         help="mutate: generate and classify seeded mutants")
    hostile.add_argument("--kind",
                         choices=["all", "certificate", "ocsp", "crl"],
                         default="all", help="seed document kind")
    hostile.add_argument("--count", type=int, default=24,
                         help="mutants per kind (default 24)")
    hostile.add_argument("--out", default=None, metavar="DIR",
                         help="also write each mutant's DER into this "
                              "directory")
    hostile.add_argument("--format", choices=["table", "json"],
                         default="table", help="report format")
    hostile.add_argument("--reference-time", type=int, default=None,
                         help="POSIX 'now' for the seed world "
                              "(default: measurement start + 1 day)")
    hostile.set_defaults(func=_cmd_hostile)

    cache = commands.add_parser(
        "cache", help="artifact-cache maintenance")
    cache.add_argument("action", choices=["stats", "verify", "gc"],
                       help="stats: totals; verify: integrity-check every "
                            "entry (corrupt ones are quarantined); gc: "
                            "delete quarantined entries")
    cache.add_argument("--cache-dir", default=None,
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-experiments)")
    cache.add_argument("--all", action="store_true",
                       help="gc: also delete every live entry")
    cache.add_argument("--max-age", type=float, default=None,
                       metavar="SECONDS",
                       help="gc: only remove quarantined entries older "
                            "than this (default: all of them)")
    cache.add_argument("--dry-run", action="store_true",
                       help="gc: report what would be removed without "
                            "deleting anything")
    cache.set_defaults(func=_cmd_cache)

    worker = commands.add_parser(
        "worker",
        help="execute shards for a TCP coordinator (see 'repro run "
             "--transport socket')")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the socket coordinator to dial")
    worker.add_argument("--reconnect", type=int, default=None,
                        metavar="N",
                        help="consecutive failed dials before giving "
                             "the coordinator up for dead, with capped "
                             "exponential backoff between dials "
                             "(default: the runtime's "
                             "DEFAULT_RECONNECT_LIMIT)")
    worker.add_argument("--id", default="worker", metavar="NAME",
                        help="worker id recorded in leases and result "
                             "envelopes (default: worker)")
    worker.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                             "$REPRO_CACHE_DIR or "
                             "~/.cache/repro-experiments)")
    worker.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after executing this many shards")
    worker.add_argument("--idle-exit", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long without a job "
                             "(default: wait for the coordinator's "
                             "stop broadcast)")
    worker.add_argument("--events", default=None, metavar="PATH",
                        help="write worker lifecycle events as a "
                             "monitor event log ('repro monitor' "
                             "reads this)")
    worker.set_defaults(func=_cmd_worker)

    inspect = commands.add_parser("inspect",
                                  help="asn1parse-style dump of a PEM/DER file")
    inspect.add_argument("path")
    inspect.add_argument("--max-lines", type=int, default=200)
    inspect.set_defaults(func=_cmd_inspect)

    figures = commands.add_parser(
        "figures", parents=[runtime_flags],
        help="write every figure/table's data files")
    figures.add_argument("--out", default="results")
    figures.set_defaults(func=_cmd_figures)

    serve = commands.add_parser(
        "serve", parents=[seed_flags],
        help="asyncio OCSP-over-HTTP responder daemon (simulated world)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8688,
                       help="listen port (0 = ephemeral; default 8688)")
    serve.add_argument("--responders", type=int, default=20)
    serve.add_argument("--certs", type=int, default=2,
                       help="certificates per responder")
    serve.add_argument("--now", type=int, default=None,
                       help="fixed simulated POSIX clock "
                            "(default: world start + 1h)")
    serve.add_argument("--access-log", default=None, metavar="PATH",
                       help="write one MonitorEvent JSONL line per served "
                            "request ('repro monitor' reads this)")
    serve.set_defaults(func=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen", parents=[seed_flags],
        help="deterministic load generator against a daemon")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8688)
    loadgen.add_argument("--requests", type=int, default=4000)
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="keep-alive TCP connections")
    loadgen.add_argument("--responders", type=int, default=20)
    loadgen.add_argument("--certs", type=int, default=2,
                         help="certificates per responder")
    loadgen.add_argument("--now", type=int, default=None,
                         help="fixed simulated POSIX clock "
                              "(must match the daemon's)")
    loadgen.add_argument("--get-fraction", type=float, default=0.25,
                         help="fraction preferring RFC 6960 A.1 GET")
    loadgen.add_argument("--nonce-fraction", type=float, default=0.02,
                         help="fraction carrying a cache-busting nonce")
    loadgen.add_argument("--inprocess", action="store_true",
                         help="replay through the serving app directly, "
                              "no daemon needed")
    loadgen.add_argument("--no-verify", action="store_true",
                         help="skip the byte-identity check against the "
                              "in-process responder core")
    loadgen.set_defaults(func=_cmd_loadgen)

    monitor = commands.add_parser(
        "monitor",
        help="replay/tail/summarize a monitor event log through the "
             "mergeable reducers")
    monitor.add_argument("action",
                         choices=["replay", "tail", "summarize"],
                         help="replay: all reducers over the whole log "
                              "(with a partitioned-merge convergence "
                              "gate); tail: stream through tumbling "
                              "event-time windows; summarize: header "
                              "and per-kind counts")
    monitor.add_argument("log", help="event log path (JSONL, written by "
                                     "'repro scan --events', 'repro serve "
                                     "--access-log', or write_events())")
    monitor.add_argument("--partitions", type=int, default=1,
                         help="replay: also reduce the log in N "
                              "round-robin partitions, merge, and exit "
                              "non-zero unless the result is "
                              "byte-identical")
    monitor.add_argument("--reducer", default="response-stats",
                         choices=["adoption", "availability", "freshness",
                                  "response-stats", "worker-lifecycle"],
                         help="tail: the reducer to window (default "
                              "response-stats)")
    monitor.add_argument("--window", type=int, default=43200,
                         help="tail: tumbling window width in simulated "
                              "seconds (default 12h)")
    monitor.add_argument("--lateness", type=int, default=0,
                         help="tail: allowed lateness before a window "
                              "closes, in simulated seconds")
    monitor.add_argument("--json", action="store_true",
                         help="also print full aggregates as JSON")
    monitor.set_defaults(func=_cmd_monitor)

    selftest = commands.add_parser(
        "selftest", parents=[seed_flags],
        help="responder self-test harness (Section 8 rec. #1)")
    selftest.add_argument("--responders", type=int, default=40)
    selftest.add_argument("--limit", type=int, default=40)
    selftest.add_argument("--verbose", action="store_true",
                          help="also print warning-only reports")
    selftest.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
