"""Command-line front end: ``repro-cachesim`` (or ``python -m repro``).

Subcommands map one-to-one onto the paper's experiments plus the basic
simulator operations::

    repro-cachesim list-traces
    repro-cachesim characterize ZGREP VCCOM
    repro-cachesim generate ZGREP -o zgrep.rtrc --length 100000
    repro-cachesim simulate ZGREP --size 16384 --split --purge 20000
    repro-cachesim campaign --traces VCCOM,ZGREP --sizes 1024,4096 --workers 4
    repro-cachesim serve --workers 4 --cache-dir /shared/cache
    repro-cachesim campaign --traces VCCOM --remote http://127.0.0.1:8795
    repro-cachesim table1 --length 100000
    repro-cachesim table2
    repro-cachesim table3
    repro-cachesim table4 --length 60000
    repro-cachesim table5
    repro-cachesim fig2
    repro-cachesim fig3-4 --length 60000
    repro-cachesim validate
    repro-cachesim fudge
"""

from __future__ import annotations

import argparse
import sys

from . import analysis
from .analysis.table2 import table2_experiment
from .core import CacheGeometry, simulate
from .trace import save_trace
from .workloads import catalog

__all__ = ["main"]


def _sizes(argument: str) -> list[int]:
    return [int(token) for token in argument.split(",")]


def _add_length(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--length", type=int, default=None,
        help="references per trace (default: the paper's per-trace length)",
    )


def _add_mechanism_args(parser: argparse.ArgumentParser) -> None:
    """Miss-path mechanism flags shared by simulate and campaign."""
    p = parser.add_argument_group("miss-path mechanisms (docs/mechanisms.md)")
    p.add_argument("--victim", type=int, default=0, metavar="LINES",
                   help="fully associative victim cache of N lines")
    p.add_argument("--miss-cache", type=int, default=0, metavar="LINES",
                   help="fully associative miss cache of N lines")
    p.add_argument("--stream-buffers", type=int, default=0, metavar="N",
                   help="N sequential stream buffers on the miss path")
    p.add_argument("--stream-depth", type=int, default=4, metavar="LINES",
                   help="lines per stream buffer (default 4)")
    p.add_argument("--l2", type=int, default=None, metavar="BYTES",
                   help="unified, inclusive second-level cache capacity")
    p.add_argument("--l2-line", type=int, default=None, metavar="BYTES",
                   help="L2 line size (default: the primary line size)")
    p.add_argument("--l2-assoc", type=int, default=None, metavar="WAYS",
                   help="L2 associativity (default: fully associative)")


def _mechanism_config(args: argparse.Namespace):
    """The MechanismConfig the flags describe (inactive without any)."""
    from .core import MechanismConfig

    return MechanismConfig(
        victim_entries=args.victim,
        miss_entries=args.miss_cache,
        stream_buffers=args.stream_buffers,
        stream_depth=args.stream_depth,
        l2_size=args.l2,
        l2_line_size=args.l2_line,
        l2_associativity=args.l2_assoc,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cachesim",
        description="Reproduction of Smith, 'Cache Evaluation and the "
        "Impact of Workload Choice' (ISCA 1985).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-traces", help="list the 57 catalog traces")

    p = sub.add_parser("study",
                       help="run a design-space study (line size or "
                       "associativity)")
    p.add_argument("dimension", choices=["linesize", "associativity"])
    p.add_argument("--capacity", type=int, default=8192,
                   help="capacity at which to print the study (bytes)")
    _add_length(p)

    p = sub.add_parser("machines",
                       help="list the paper's real machines; optionally "
                       "simulate a trace on one")
    p.add_argument("--on", default=None, metavar="MACHINE",
                   help="machine name to simulate (see the listing)")
    p.add_argument("--trace", default="VCCOM")
    _add_length(p)

    p = sub.add_parser("characterize", help="Table 2 rows for given traces")
    p.add_argument("traces", nargs="+")
    _add_length(p)

    p = sub.add_parser("generate", help="generate a trace to a file")
    p.add_argument("trace")
    p.add_argument("-o", "--output", required=True)
    _add_length(p)

    p = sub.add_parser(
        "campaign",
        help="run a trace x size simulation campaign in parallel, with "
        "result caching (see REPRO_WORKERS / REPRO_CACHE_DIR)",
    )
    p.add_argument("--traces", type=lambda s: s.split(","), default=None,
                   help="comma-separated trace names (default: all 57)")
    p.add_argument("--sizes", type=_sizes, default=None,
                   help="comma-separated cache sizes in bytes")
    p.add_argument("--line", type=int, default=16, help="line size in bytes")
    p.add_argument("--assoc", type=int, default=None,
                   help="set associativity (default: fully associative)")
    p.add_argument("--replacement", default="lru",
                   choices=["lru", "fifo", "random", "lfu"])
    p.add_argument("--write", default="copy-back",
                   choices=["copy-back", "write-through"])
    p.add_argument("--fetch", default="demand",
                   choices=["demand", "prefetch-always", "prefetch-tagged",
                            "stream"])
    p.add_argument("--split", action="store_true", help="split I/D caches")
    p.add_argument("--purge", type=int, default=None,
                   help="purge every N references (task switching)")
    _add_mechanism_args(p)
    p.add_argument("--stack", action="store_true",
                   help="use the one-pass LRU stack sweep per trace instead "
                   "of direct simulation (fully associative LRU only)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: REPRO_WORKERS or CPU count)")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (default: REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk result cache")
    p.add_argument("--trace-store", default=None, metavar="DIR",
                   help="shared content-addressed trace store: each "
                   "distinct trace is generated once, stored as a "
                   "memory-mappable .rtrc file, and mapped by every "
                   "worker (default: REPRO_TRACE_STORE)")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="append JSONL lifecycle events to PATH, or '-' to "
                   "stream them to stdout (default: REPRO_EVENT_LOG)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="stream a per-cell progress line to stderr")
    p.add_argument("--remote", nargs="?", const="", default=None, metavar="URL",
                   help="submit the campaign to a running campaign service "
                   "(repro-cachesim serve) instead of executing locally, "
                   "and tail its SSE event stream "
                   "(default URL: REPRO_SERVICE_URL)")
    p.add_argument("--user", default=None,
                   help="user identity for --remote quota accounting "
                   "(default: $USER)")
    p.add_argument("--priority", type=int, default=0,
                   help="campaign priority for --remote (higher runs first)")
    p.add_argument("--retries", type=int, default=None,
                   help="transient-failure retries per cell "
                   "(default: REPRO_RETRIES or 2)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-cell wall-time limit, pool mode only "
                   "(default: REPRO_CELL_TIMEOUT or none)")
    _add_length(p)

    p = sub.add_parser(
        "serve",
        help="run the campaign service: an HTTP/SSE API that schedules, "
        "dedupes, and executes campaigns for many concurrent clients "
        "(see docs/service.md)",
    )
    p.add_argument("--host", default=None,
                   help="bind address (default: REPRO_SERVICE_HOST or 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port; 0 picks a free one "
                   "(default: REPRO_SERVICE_PORT or 8795)")
    p.add_argument("--workers", type=int, default=None,
                   help="pool worker processes (default: REPRO_WORKERS or "
                   "CPU count)")
    p.add_argument("--cache-dir", default=None,
                   help="shared result-cache directory; enables cross-process "
                   "dedupe (default: REPRO_CACHE_DIR)")
    p.add_argument("--trace-store", default=None, metavar="DIR",
                   help="shared content-addressed trace store for the workers "
                   "(default: REPRO_TRACE_STORE)")
    p.add_argument("--quota", type=int, default=None,
                   help="max outstanding campaigns per user "
                   "(default: REPRO_SERVICE_QUOTA or unlimited)")
    p.add_argument("--max-active", type=int, default=None,
                   help="campaigns run concurrently "
                   "(default: REPRO_SERVICE_ACTIVE or 4)")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="service-global JSONL event log ('-' = stdout)")

    p = sub.add_parser("simulate", help="simulate one trace / cache configuration")
    p.add_argument("trace")
    p.add_argument("--size", type=int, default=16384, help="capacity in bytes")
    p.add_argument("--line", type=int, default=16, help="line size in bytes")
    p.add_argument("--assoc", type=int, default=None,
                   help="set associativity (default: fully associative)")
    p.add_argument("--replacement", default="lru",
                   choices=["lru", "fifo", "random", "lfu"])
    p.add_argument("--write", default="copy-back",
                   choices=["copy-back", "write-through"])
    p.add_argument("--fetch", default="demand",
                   choices=["demand", "prefetch-always", "prefetch-tagged",
                            "stream"])
    p.add_argument("--split", action="store_true", help="split I/D caches")
    p.add_argument("--purge", type=int, default=None,
                   help="purge every N references (task switching)")
    _add_mechanism_args(p)
    _add_length(p)

    p = sub.add_parser(
        "mechanisms",
        help="miss-path mechanism study: victim/miss caches, stream "
        "buffers, and a two-level hierarchy vs. the plain baseline",
    )
    p.add_argument("--traces", type=lambda s: s.split(","), default=None,
                   help="comma-separated trace names (default: all 57)")
    p.add_argument("--size", type=int, default=4096, help="primary bytes")
    p.add_argument("--line", type=int, default=16, help="line size in bytes")
    p.add_argument("--assoc", type=int, default=1,
                   help="primary associativity (default: direct-mapped; "
                   "0 = fully associative)")
    p.add_argument("--no-l2", action="store_true",
                   help="skip the two-level variant")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: REPRO_WORKERS or CPU count)")
    _add_length(p)

    for name, help_text in [
        ("table1", "Table 1 / Figure 1: unified miss ratios for all traces"),
        ("table2", "Table 2: trace characteristics"),
        ("table3", "Table 3: dirty-push fractions"),
        ("table4", "Table 4 + Figures 5-10: the prefetch study"),
        ("table5", "Table 5: design target miss ratios"),
        ("fig2", "Figure 2: [Hard80] MVS curves"),
        ("fig3-4", "Figures 3-4: split I/D miss ratios"),
        ("validate", "Section 4.1 validations (Clark, Z80000, 68020)"),
        ("fudge", "Section 4 cross-architecture fudge factors"),
        ("report", "run everything and emit a Markdown experiment report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_length(p)
        if name in ("table1", "fig3-4", "table4"):
            p.add_argument("--sizes", type=_sizes, default=None,
                           help="comma-separated cache sizes in bytes")
        if name == "report":
            p.add_argument("--no-prefetch", action="store_true",
                           help="skip the expensive prefetch study")
            p.add_argument("-o", "--output", default=None,
                           help="write the report to a file instead of stdout")
    return parser


def _cmd_list_traces() -> None:
    rows = []
    for name in catalog.names():
        params = catalog.get(name)
        rows.append(
            (name, params.architecture, params.language,
             catalog.default_length(name), params.description[:60])
        )
    print(analysis.render_table(
        ["trace", "architecture", "language", "length", "description"], rows,
        title="The 57 catalog traces (49 programs; LISP/VAXIMA in 5 sections)",
    ))


def _cmd_machines(args: argparse.Namespace) -> None:
    from .machines import ALL_MACHINES

    if args.on is None:
        rows = [
            (m.name, m.capacity, m.line_size,
             m.associativity if m.associativity else "full",
             "sector" if m.sector_size else
             ("split" if m.split else "unified"),
             m.write_policy.strategy.value)
            for m in ALL_MACHINES.values()
        ]
        print(analysis.render_table(
            ["machine", "bytes", "line", "ways", "organization", "write"],
            rows, title="Machines described in the paper",
        ))
        return
    try:
        machine = ALL_MACHINES[args.on]
    except KeyError:
        raise SystemExit(
            f"unknown machine {args.on!r}; run 'machines' for the list"
        ) from None
    trace = catalog.generate(args.trace, args.length)
    report = simulate(trace, machine.build(), purge_interval=20_000)
    print(f"{machine.name}: miss ratio {report.miss_ratio:.4f} on "
          f"{args.trace} ({report.references} references)")
    if machine.notes:
        print(f"  ({machine.notes})")


def _simulate_job(args: argparse.Namespace, size: int, mechanisms):
    """The simulation job the ``simulate``/``campaign`` flags describe."""
    from .core.jobs import SimulateJob

    return SimulateJob(
        size=size,
        line_size=args.line,
        associativity=args.assoc,
        replacement=args.replacement,
        write=args.write,
        fetch=args.fetch,
        split=args.split,
        purge_interval=args.purge,
        mechanisms=mechanisms,
    )


def _cmd_simulate(args: argparse.Namespace) -> None:
    trace = catalog.generate(args.trace, args.length)
    geometry = CacheGeometry(args.size, args.line, args.assoc)
    report = _simulate_job(args, args.size, _mechanism_config(args)).run(trace)
    stats = report.overall
    print(f"trace            : {report.trace_name} ({report.references} references)")
    print(f"cache            : {geometry.describe()}"
          f"{' (split I/D)' if args.split else ''}")
    print(f"policies         : {args.replacement}, {args.write}, {args.fetch}")
    print(f"miss ratio       : {report.miss_ratio:.4f}")
    print(f"  instruction    : {report.instruction_miss_ratio:.4f}")
    print(f"  data           : {report.data_miss_ratio:.4f}")
    print(f"memory traffic   : {stats.memory_traffic_bytes} bytes "
          f"({stats.lines_fetched} fetches, {stats.lines_written_back} write-backs)")
    print(f"dirty data pushes: {stats.dirty_data_push_fraction:.3f} of {stats.data_pushes}")
    if report.mechanisms:
        print(f"effective miss   : {report.effective_miss_ratio:.4f} "
              f"(assembly, incl. miss-path mechanisms)")
        print(f"effective traffic: {report.effective_memory_traffic_bytes} bytes")
        for name, block in report.mechanisms:
            if name == "l2":
                detail = (f"local miss ratio {block.miss_ratio:.4f}, "
                          f"{block.lines_fetched} memory fetches, "
                          f"{block.dirty_pushes} write-backs")
            else:
                hit = 1.0 - block.miss_ratio
                detail = (f"hit rate {hit:.4f} over {block.references} "
                          f"probed misses")
                if name == "stream-buffers":
                    detail += f", {block.prefetches} lines prefetched"
            print(f"  {name:15s}: {detail}")


def _cmd_campaign(args: argparse.Namespace) -> int:
    import os

    from .campaign import run_campaign
    from .core.jobs import CampaignCell, StackSweepJob, TraceSpec
    from .trace.store import TRACE_STORE_ENV

    if args.trace_store:
        # Exported (not passed) so pool workers inherit it and resolve
        # their traces through the same store the parent primed.
        os.environ[TRACE_STORE_ENV] = args.trace_store

    names = args.traces if args.traces is not None else catalog.names()
    for name in names:
        catalog.get(name)  # fail fast on unknown traces
    sizes = args.sizes or list(analysis.PAPER_CACHE_SIZES)
    mechanisms = _mechanism_config(args)
    if mechanisms.active and args.stack:
        raise SystemExit(
            "--stack is a plain LRU sweep; miss-path mechanism flags "
            "need direct simulation (drop --stack)"
        )

    cells = []
    if args.stack:
        job = StackSweepJob(
            sizes=tuple(sizes), line_size=args.line, purge_interval=args.purge
        )
        for name in names:
            cells.append(
                CampaignCell(
                    label=name, trace=TraceSpec.catalog(name, args.length), job=job
                )
            )
    else:
        for name in names:
            spec = TraceSpec.catalog(name, args.length)
            for size in sizes:
                job = _simulate_job(args, size, mechanisms)
                cells.append(
                    CampaignCell(label=f"{name}/{size}", trace=spec, job=job)
                )

    cache = False if args.no_cache else (args.cache_dir or None)

    if args.remote is not None:
        return _run_remote_campaign(args, cells, sizes, mechanisms)

    from .service.spec import summarize_value

    progress = None
    if args.verbose:
        count = iter(range(1, len(cells) + 1))

        def progress(outcome):
            _print_progress(next(count), len(cells), outcome.label,
                            outcome.error and str(outcome.error),
                            outcome.source, outcome.wall_seconds)

    result = run_campaign(
        cells, workers=args.workers, cache=cache, progress=progress,
        retries=args.retries, timeout=args.timeout, events=args.events,
    )
    _print_miss_ratios("Campaign miss ratios", args, sizes, mechanisms, [
        (outcome.label, summarize_value(outcome.value) if outcome.ok else None)
        for outcome in result.outcomes
    ])
    print()
    print(result.summary())
    if result.failed_cells:
        print(f"{result.failed_cells} cell(s) failed; re-run to retry just "
              "the failures (successes are cached)", file=sys.stderr)
        return 1
    return 0


def _print_progress(count, total, label, error, source, wall_seconds) -> None:
    """One ``--verbose`` line for a finished or failed cell."""
    if error is not None:
        status = f"FAILED ({error})"
    elif source == "run":
        status = f"{wall_seconds:.2f}s"
    else:
        status = source
    print(f"[{count}/{total}] {label}: {status}", file=sys.stderr, flush=True)


def _print_miss_ratios(title, args, sizes, mechanisms, results) -> None:
    """The miss-ratio table of ``(label, summarize_value dict)`` pairs, local
    or remote alike; a failed cell (``None``) renders as NaN."""
    nan = float("nan")
    metric = "effective_miss_ratio" if mechanisms.active else "miss_ratio"
    series: dict[str, list[float]] = {}
    for label, value in results:
        value = value or {}
        if args.stack:
            points = value.get("curve") or [None] * len(sizes)
        else:
            label, points = label.rsplit("/", 1)[0], [value.get(metric)]
        series.setdefault(label, []).extend(nan if v is None else v for v in points)
    kind = "stack sweep" if args.stack else "simulation"
    if mechanisms.active:
        kind += ", effective miss ratio with miss-path mechanisms"
    print(analysis.render_series(
        "trace \\ bytes", sizes, series, title=f"{title} ({kind})",
    ))


def _run_remote_campaign(args: argparse.Namespace, cells, sizes, mechanisms) -> int:
    """Submit a campaign to a running service and tail its SSE stream."""
    import os

    from .campaign import EventLog
    from .service import SERVICE_URL_ENV, ServiceClient, ServiceError

    url = args.remote or os.environ.get(SERVICE_URL_ENV)
    if not url:
        raise SystemExit(
            f"--remote needs a service URL (or set {SERVICE_URL_ENV}); "
            "start one with: repro-cachesim serve"
        )
    client = ServiceClient(url, user=args.user)
    log = EventLog(args.events) if args.events is not None else None
    total = len(cells)
    count = iter(range(1, total + 1))

    def on_event(event):
        if log is not None:
            fields = {k: v for k, v in event.items() if k not in ("event", "time")}
            log.emit(event["event"], **fields)
        if args.verbose and event["event"] in ("cell_finished", "cell_failed"):
            failed = event["event"] == "cell_failed"
            _print_progress(next(count), total, event.get("label"),
                            f"{event.get('error')}: {event.get('message')}"
                            if failed else None,
                            event["source"], event.get("wall_seconds", 0.0))

    try:
        campaign_id = client.submit_cells(cells, priority=args.priority)
        print(f"submitted campaign {campaign_id} to {url} "
              f"({total} cells)", file=sys.stderr)
        final = client.wait(campaign_id, on_event=on_event)
    except ServiceError as exc:
        raise SystemExit(str(exc)) from None
    finally:
        if log is not None:
            log.close()

    _print_miss_ratios("Remote campaign miss ratios", args, sizes, mechanisms, [
        (outcome["label"], outcome.get("value") if outcome["ok"] else None)
        for outcome in final.get("results") or []
    ])
    print()
    print(f"campaign {final['id']} [{final['status']}]: {final['cells']} cells "
          f"({final['cached']} cached, {final['shared']} shared, "
          f"{final['simulated']} simulated, {final['failed']} failed)")
    if final["failed"] or final["status"] != "done":
        print("some cells failed on the service; see its event log",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .service import PoolBackend, Scheduler
    from .service.http import DEFAULT_HOST, DEFAULT_PORT, serve
    from .trace.store import TRACE_STORE_ENV

    if args.trace_store:
        os.environ[TRACE_STORE_ENV] = args.trace_store
    host = args.host or os.environ.get("REPRO_SERVICE_HOST") or DEFAULT_HOST
    port = args.port
    if port is None:
        port = int(os.environ.get("REPRO_SERVICE_PORT") or DEFAULT_PORT)
    backend = PoolBackend(args.workers)
    scheduler = Scheduler(
        backend,
        cache=args.cache_dir,
        quota=args.quota,
        max_active=args.max_active,
        events=args.events,
    )

    def announce(server):
        cache = (
            scheduler.cache.directory if scheduler.cache is not None else "disabled"
        )
        print(f"campaign service listening on {server.url} "
              f"(backend={backend.name} capacity={backend.capacity} "
              f"cache={cache})", file=sys.stderr, flush=True)

    try:
        asyncio.run(serve(scheduler, host, port, ready=announce))
    except KeyboardInterrupt:
        pass  # serve() itself returns when interrupted inside the loop
    print("campaign service stopped", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    command = args.command
    if command == "list-traces":
        _cmd_list_traces()
    elif command == "machines":
        _cmd_machines(args)
    elif command == "study":
        if args.dimension == "linesize":
            study = analysis.line_size_study(
                capacities=(args.capacity,), length=args.length
            )
        else:
            study = analysis.associativity_study(
                capacities=(args.capacity,), length=args.length
            )
        print(study.render(args.capacity))
    elif command == "characterize":
        result = table2_experiment(args.traces, args.length)
        print(result.render())
    elif command == "generate":
        trace = catalog.generate(args.trace, args.length)
        save_trace(trace, args.output)
        print(f"wrote {len(trace)} references to {args.output}")
    elif command == "simulate":
        _cmd_simulate(args)
    elif command == "campaign":
        return _cmd_campaign(args)
    elif command == "serve":
        return _cmd_serve(args)
    elif command == "mechanisms":
        study = analysis.mechanism_study(
            workloads=args.traces,
            size=args.size,
            line_size=args.line,
            associativity=args.assoc if args.assoc else None,
            include_l2=not args.no_l2,
            length=args.length,
            workers=args.workers,
        )
        print(study.summary())
    elif command == "table1":
        result = analysis.table1_experiment(sizes=args.sizes or analysis.PAPER_CACHE_SIZES,
                                            length=args.length)
        print(result.render())
    elif command == "table2":
        print(table2_experiment(length=args.length).render())
    elif command == "table3":
        print(analysis.table3_experiment(length=args.length).render())
    elif command == "table4":
        study = analysis.prefetch_study(sizes=args.sizes or analysis.PAPER_CACHE_SIZES,
                                        length=args.length)
        print(study.render_table4())
        print()
        print(study.render_figures())
    elif command == "table5":
        targets = analysis.design_target_estimate(length=args.length)
        print(targets.render())
    elif command == "fig2":
        sizes = list(analysis.PAPER_CACHE_SIZES)
        print(analysis.render_series(
            "curve \\ bytes", sizes, analysis.figure2_series(sizes),
            title="Figure 2: [Hard80] MVS miss ratios",
        ))
    elif command == "fig3-4":
        result = analysis.figures_3_and_4(sizes=args.sizes or analysis.PAPER_CACHE_SIZES,
                                          length=args.length)
        print(result.render())
    elif command == "validate":
        targets = analysis.design_target_estimate(length=args.length)
        print("Clark [Clar83] comparison:")
        for key, value in analysis.clark_comparison(targets).items():
            print(f"  {key:32s} {value:.4f}")
        print("Z80000 [Alpe83] comparison (hit ratios):")
        for subblock, row in analysis.z80000_comparison(args.length).items():
            print(f"  {subblock:2d}B sub-blocks: " +
                  "  ".join(f"{k}={v:.3f}" for k, v in row.items()))
        print("68020 256B/4B-line instruction cache (paper predicts 0.2-0.6):")
        for key, value in analysis.estimate_68020_icache(args.length).items():
            print(f"  {key:12s} {value:.3f}")
    elif command == "fudge":
        print(analysis.fudge_table(length=args.length))
    elif command == "report":
        text = analysis.generate_report(
            length=args.length,
            include_prefetch=not args.no_prefetch,
            progress=lambda stage: print(f"[report] {stage}", file=sys.stderr),
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
