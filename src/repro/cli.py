"""Command-line entry points.

``corona-server`` runs a production Corona server::

    corona-server --host 0.0.0.0 --port 7700 --data ./corona-data

``corona-bench`` regenerates one reproduced paper result from the shell::

    corona-bench fig3
    corona-bench table2 --quick

``repro`` hosts the analysis tooling (and wraps the two above)::

    repro lint src/ --strict
    repro lint --changed origin/main
    repro deepcheck src --baseline deepcheck-baseline.json
    repro racecheck --shards 3 --inject-race
    repro tracecheck --updates 50 --dump trace.jsonl
    repro topology --shards 4 --format json
"""

from __future__ import annotations

import argparse
import asyncio
import sys

__all__ = [
    "server_main",
    "bench_main",
    "lint_main",
    "deepcheck_main",
    "racecheck_main",
    "tracecheck_main",
    "benchcheck_main",
    "topology_main",
    "main",
]


def server_main(argv: list[str] | None = None) -> int:
    """Entry point of ``corona-server``."""
    parser = argparse.ArgumentParser(
        prog="corona-server",
        description="Run a stateful Corona group-communication server.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=7700, help="bind port")
    parser.add_argument(
        "--data", default=None,
        help="stable-storage directory (omit for a memory-only server)",
    )
    parser.add_argument(
        "--server-id", default="corona-1", help="identity reported to clients"
    )
    parser.add_argument(
        "--stateless", action="store_true",
        help="run as a sequencer only (the Figure 3 comparator)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="partition the groups over N shards on the one event loop: "
             "separate cores, WAL directories (<data>/shard<i>) and units "
             "of failure and migration, no added CPU parallelism",
    )
    args = parser.parse_args(argv)

    from repro.core.server import ServerConfig
    from repro.runtime.server import CoronaServer
    from repro.storage.store import GroupStore

    config = ServerConfig(server_id=args.server_id, stateful=not args.stateless)
    if args.shards > 1:
        server = CoronaServer(
            config=config, shards=args.shards, store_root=args.data
        )
    else:
        store = GroupStore(args.data) if args.data else None
        server = CoronaServer(config=config, store=store)

    async def _run() -> None:
        host, port = await server.start(args.host, args.port)
        recovered = server.recovered_groups
        print(f"corona-server {args.server_id} listening on {host}:{port}"
              + (f" ({args.shards} shards)" if args.shards > 1 else "")
              + (f" ({recovered} groups recovered)" if recovered else ""))
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def bench_main(argv: list[str] | None = None) -> int:
    """Entry point of ``corona-bench``."""
    from repro.bench.experiments import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="corona-bench",
        description="Regenerate one reproduced result of the ICDCS'99 paper.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument(
        "--quick", action="store_true", help="smaller parameters, faster run"
    )
    args = parser.parse_args(argv)

    from dataclasses import fields

    from repro.bench.report import format_table

    rows = EXPERIMENTS[args.experiment].run(quick=args.quick)
    if not rows:
        print("no results")
        return 1
    headers = [f.name for f in fields(rows[0])]
    table = [[getattr(row, h) for h in headers] for row in rows]
    print(format_table(f"{args.experiment} (reproduced)", headers, table))
    return 0


def lint_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro lint``: the coronalint static analyzer."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Run the determinism/protocol lint rules over source trees.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all enabled rules)",
    )
    parser.add_argument(
        "--config", default="pyproject.toml",
        help="pyproject.toml holding [tool.corona-lint] (default: ./pyproject.toml)",
    )
    parser.add_argument(
        "--no-config", action="store_true", help="ignore pyproject configuration"
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="BASE",
        help="lint only .py files changed vs. BASE per git diff "
             "(default base: HEAD), plus untracked ones",
    )
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.analysis.findings import Severity, findings_to_json, format_findings
    from repro.analysis.lint import changed_paths, lint_paths, load_config

    from repro.analysis.rules import RULE_DOCS

    try:
        config = load_config(None if args.no_config else Path(args.config))
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.rules:
        config.rules = tuple(
            rule.strip() for rule in args.rules.split(",") if rule.strip()
        )
    unknown = [r for r in config.rules if r not in RULE_DOCS]
    if unknown:
        print(f"repro lint: unknown rule id(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    if args.changed is not None:
        paths = changed_paths(base=args.changed)
        if not paths:
            if args.fmt == "text":
                print("coronalint: no changed python files")
            return 0
    else:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print("repro lint: no such path(s): "
                  + ", ".join(str(p) for p in missing), file=sys.stderr)
            return 2
    findings = lint_paths(paths, config)
    if args.fmt == "json":
        print(findings_to_json(findings))
    elif findings:
        print(format_findings(findings))
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if args.fmt == "text":
        print(f"coronalint: {errors} error(s), {warnings} warning(s)")
    if errors or (args.strict and findings):
        return 1
    return 0


def deepcheck_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro deepcheck``: whole-program concurrency
    analysis (lease ownership, commit path, blocking reachability)."""
    parser = argparse.ArgumentParser(
        prog="repro deepcheck",
        description="Cross-module concurrency analysis over the program "
        "graph: group-runtime access outside the owning shard's lease "
        "(SHARD004), shared-state mutation outside the scheduler commit "
        "path (SCHED001), and blocking-call reachability from event-loop "
        "code (BLOCK001-002).  Known findings live in a committed "
        "baseline; only NEW findings fail the run.",
    )
    parser.add_argument(
        "root", nargs="?", default="src", help="source tree to analyze"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated deepcheck rule ids (default: configured set)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="known-findings JSON to diff against "
             "(default: deepcheck-baseline from pyproject, if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring any baseline file",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to the current findings (keeping "
             "existing justifications) and exit 0",
    )
    parser.add_argument(
        "--config", default="pyproject.toml",
        help="pyproject.toml holding [tool.corona-lint] (default: ./pyproject.toml)",
    )
    args = parser.parse_args(argv)

    import json
    from pathlib import Path

    from repro.analysis.deepcheck import (
        DEEP_RULES,
        baseline_payload,
        deepcheck_paths,
        load_baseline,
        split_baselined,
        unjustified_entries,
    )
    from repro.analysis.findings import findings_to_json, format_findings
    from repro.analysis.lint import load_config

    try:
        config = load_config(Path(args.config))
    except ValueError as exc:
        print(f"repro deepcheck: {exc}", file=sys.stderr)
        return 2
    rules = config.deepcheck_rules
    if args.rules:
        rules = tuple(
            rule.strip() for rule in args.rules.split(",") if rule.strip()
        )
        unknown = [r for r in rules if r not in DEEP_RULES]
        if unknown:
            print(f"repro deepcheck: unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    root = Path(args.root)
    if not root.exists():
        print(f"repro deepcheck: no such path: {root}", file=sys.stderr)
        return 2
    _graph, findings = deepcheck_paths(root, rules, config.per_rule_exclude)

    baseline_path = Path(args.baseline or config.deepcheck_baseline)
    baseline = [] if args.no_baseline else load_baseline(baseline_path)
    if args.update_baseline:
        payload = baseline_payload(findings, baseline)
        baseline_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"deepcheck: baseline {baseline_path} updated "
              f"({len(findings)} finding(s))")
        return 0
    new, stale = split_baselined(findings, baseline)
    unjustified = unjustified_entries(baseline)
    if args.fmt == "json":
        print(findings_to_json(new))
    else:
        if new:
            print(format_findings(new))
        print(
            f"deepcheck: {len(findings)} finding(s), "
            f"{len(findings) - len(new)} baselined, {len(new)} new, "
            f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}"
        )
        for entry in stale:
            print(f"  stale: {entry.get('rule')} {entry.get('path')} — "
                  f"{entry.get('message')}")
        for entry in unjustified:
            print(f"  unjustified: {entry.get('rule')} {entry.get('path')} — "
                  f"replace the TODO placeholder with a real justification")
    return 1 if new or unjustified else 0


def racecheck_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro racecheck``: the happens-before checker."""
    parser = argparse.ArgumentParser(
        prog="repro racecheck",
        description="Replay an instrumented sharded-host trace under "
        "vector clocks and report unordered conflicting accesses "
        "(RACE001).  Default: run the seeded script on an instrumented "
        "sharded sim world.",
    )
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument(
        "--check", default=None, metavar="PATH",
        help="check a JSONL race trace file instead of running the sim",
    )
    parser.add_argument(
        "--dump", default=None, metavar="PATH",
        help="write the recorded trace as JSONL before checking it",
    )
    parser.add_argument(
        "--inject-race", action="store_true",
        help="append a deliberate unordered write/write pair (self-test: "
             "the checker must report it, exit code flips to 1)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.analysis.findings import findings_to_json, format_findings
    from repro.analysis.racecheck import (
        check_race_trace,
        events_from_jsonl,
        events_to_jsonl,
        inject_race,
        seeded_sharded_trace,
    )

    if args.check:
        try:
            text = Path(args.check).read_text()
        except OSError as exc:
            print(f"repro racecheck: cannot read {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            events = events_from_jsonl(text)
        except (ValueError, TypeError, KeyError) as exc:
            print(f"repro racecheck: malformed trace {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        name = args.check
    else:
        events = seeded_sharded_trace(shards=args.shards)
        name = "sharded-sim-trace"
    if args.inject_race:
        events = inject_race(events)
    if args.dump:
        Path(args.dump).write_text(events_to_jsonl(events))
    findings = check_race_trace(events, name=name)
    if args.fmt == "json":
        print(findings_to_json(findings))
    elif findings:
        print(format_findings(findings))
    if args.fmt == "text":
        hops = sum(1 for e in events if e.kind == "recv")
        print(
            f"racecheck: {len(events)} events ({hops} mailbox hops), "
            f"{len(findings)} race(s)"
        )
    return 1 if findings else 0


def tracecheck_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro tracecheck``: the ordering-invariant checker."""
    parser = argparse.ArgumentParser(
        prog="repro tracecheck",
        description="Verify total/causal/FIFO/checkpoint invariants on a "
        "seeded simulation trace (or a recorded trace file).",
    )
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--updates", type=int, default=30)
    parser.add_argument("--groups", type=int, default=2)
    parser.add_argument(
        "--check", default=None, metavar="PATH",
        help="check a JSONL trace file instead of running the seeded sim",
    )
    parser.add_argument(
        "--dump", default=None, metavar="PATH",
        help="write the generated trace as JSONL before checking it",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.analysis.findings import findings_to_json, format_findings
    from repro.analysis.tracecheck import (
        check_trace,
        seeded_sim_trace,
        trace_from_jsonl,
        trace_to_jsonl,
    )

    if args.check:
        try:
            text = Path(args.check).read_text()
        except OSError as exc:
            print(f"repro tracecheck: cannot read {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            events = trace_from_jsonl(text)
        except (ValueError, TypeError, KeyError) as exc:
            print(f"repro tracecheck: malformed trace {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        name = args.check
    else:
        events = seeded_sim_trace(
            n_clients=args.clients, n_updates=args.updates, n_groups=args.groups
        )
        name = "sim-trace"
    if args.dump:
        Path(args.dump).write_text(trace_to_jsonl(events))
    findings = check_trace(events, name=name)
    if args.fmt == "json":
        print(findings_to_json(findings))
    elif findings:
        print(format_findings(findings))
    if args.fmt == "text":
        deliveries = sum(1 for e in events if e.kind == "deliver")
        print(
            f"tracecheck: {len(events)} events ({deliveries} deliveries), "
            f"{len(findings)} violation(s)"
        )
    return 1 if findings else 0


def benchcheck_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro benchcheck``: the benchmark regression gate."""
    from repro.bench.compare import (
        GATED_BENCHMARKS,
        check_baseline,
        default_baseline_dir,
    )

    parser = argparse.ArgumentParser(
        prog="repro benchcheck",
        description="Compare freshly generated BENCH_<name>.json results "
        "against the committed baselines; fail on drift beyond tolerance.",
    )
    parser.add_argument(
        "names", nargs="*", default=None, metavar="NAME",
        help="benchmarks to gate (default: the deterministic set, "
        f"{', '.join(GATED_BENCHMARKS)})",
    )
    parser.add_argument(
        "--baseline-dir", default=None, metavar="DIR",
        help="directory holding the committed baselines (default: repo root)",
    )
    parser.add_argument(
        "--fresh-dir", default=None, metavar="DIR",
        help="directory holding fresh results (default: $CORONA_BENCH_DIR)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10, metavar="REL",
        help="relative tolerance per numeric leaf (default: 0.10 = 10%%)",
    )
    args = parser.parse_args(argv)

    import os
    from pathlib import Path

    fresh = args.fresh_dir or os.environ.get("CORONA_BENCH_DIR")
    if not fresh:
        print("repro benchcheck: pass --fresh-dir or set CORONA_BENCH_DIR",
              file=sys.stderr)
        return 2
    baseline_dir = (
        Path(args.baseline_dir) if args.baseline_dir else default_baseline_dir()
    )
    names = args.names or list(GATED_BENCHMARKS)
    failed = False
    for name in names:
        deviations = check_baseline(
            name, baseline_dir, Path(fresh), rel_tol=args.tolerance
        )
        if deviations:
            failed = True
            print(f"benchcheck {name}: {len(deviations)} deviation(s)")
            for deviation in deviations:
                print(f"  {deviation}")
        else:
            print(f"benchcheck {name}: within ±{args.tolerance * 100:.0f}% "
                  "of the committed baseline")
    return 1 if failed else 0


def topology_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro topology``: inspect the elastic shard
    topology of a seeded sharded deployment (leases, epochs, per-shard
    placement, folded dispatch counters, migration history)."""
    parser = argparse.ArgumentParser(
        prog="repro topology",
        description="Run a seeded sharded sim scenario (a few groups, "
        "traffic, one live migration) and print the topology report: "
        "lease/epoch table, per-shard group placement and dispatch "
        "stats, and the migration log.",
    )
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--groups", type=int, default=6)
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", dest="fmt"
    )
    args = parser.parse_args(argv)

    import json

    from repro.bench.report import format_table
    from repro.runtime.topology import topology_report
    from repro.sim.harness import CoronaWorld

    if args.shards < 2:
        print("repro topology: need --shards >= 2", file=sys.stderr)
        return 2

    world = CoronaWorld()
    server = world.add_sharded_server(shards=args.shards)
    sender = world.add_client(client_id="sender")
    listener = world.add_client(client_id="listener")
    world.run()
    groups = [f"room-{i}" for i in range(max(1, args.groups))]
    for group in groups:
        sender.call("create_group", group, False)
        world.run()
        for client in (sender, listener):
            client.call("join_group", group)
        world.run()
        sender.call("bcast_update", group, "doc", group.encode())
    world.run()
    # one seeded live migration so the report shows a lease + epoch bump
    host = server.host
    src = host.router.route(groups[0])
    host.migrate_group(groups[0], (src + 1) % args.shards)
    world.run()
    report = topology_report(host)

    if args.fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    shard_rows = [
        [
            index,
            entry["group_count"],
            " ".join(entry["groups"]) or "-",
            entry["stats"]["sends"],
            entry["stats"]["migrations_in"],
            entry["stats"]["migrations_out"],
        ]
        for index, entry in sorted(report["per_shard"].items())
    ]
    print(format_table(
        f"topology ({report['shards']} shards)",
        ["shard", "groups", "names", "sends", "mig in", "mig out"],
        shard_rows,
    ))
    lease_rows = [
        [group, shard, report["epochs"].get(group, 0)]
        for group, shard in sorted(report["leases"].items())
    ]
    if lease_rows:
        print(format_table("leases", ["group", "shard", "epoch"], lease_rows))
    mig_rows = [
        [m["group"], m["src"], m["dst"], m["epoch"], m["outcome"],
         f"{m['freeze_window']:.6f}", m["buffered"], m["bytes"]]
        for m in report["migrations"]
    ]
    if mig_rows:
        print(format_table(
            "migrations",
            ["group", "src", "dst", "epoch", "outcome", "freeze", "buffered",
             "bytes"],
            mig_rows,
        ))
    totals = report["total"]
    print(f"total: {totals['sends']} send(s), "
          f"{totals['stale_epoch_rejects']} stale-epoch reject(s), "
          f"{len(report['migrations'])} migration(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro``: dispatch to the tool subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Corona reproduction tooling.",
    )
    parser.add_argument(
        "command",
        choices=(
            "lint", "deepcheck", "racecheck", "tracecheck", "benchcheck",
            "topology", "server", "bench",
        ),
        help="tool to run; arguments after it are passed through",
    )
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv[:1])
    rest = argv[1:]
    dispatch = {
        "lint": lint_main,
        "deepcheck": deepcheck_main,
        "racecheck": racecheck_main,
        "tracecheck": tracecheck_main,
        "benchcheck": benchcheck_main,
        "topology": topology_main,
        "server": server_main,
        "bench": bench_main,
    }
    try:
        return dispatch[args.command](rest)
    except BrokenPipeError:
        # Downstream of a closed pipe (`repro lint --format json | head`):
        # not an error, but the interpreter would print a traceback on exit
        # while flushing stdout unless we detach it first.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
