"""``python -m repro`` — the campaign command line.

Subcommands
-----------
``run``      run (or resume) an experiment campaign and print its rows
``list``     list registered experiments (``--scenarios`` for environments)
``status``   show completion state of campaigns (catalogue-backed when a
             ``catalog.sqlite`` exists under the root; tree scan otherwise)
``results``  print the rows of an existing campaign artifact
``submit``   register a campaign in the catalogue + enqueue its cells
``work``     drain the job queue as one cooperative worker (``--server`` for
             remote HTTP draining with no catalogue file access)
``serve``    the campaign service HTTP API (submit/status/stream/query/leases)
``proxy``    a deterministic TCP chaos proxy in front of ``repro serve``
``query``    cross-run aggregation over the catalogue (cells or bench rows)
``store``    catalogue maintenance (``store ingest`` backfills legacy trees)
``top``      live terminal dashboard: campaign progress, worker roster,
             telemetry ticker (``--once`` for a single CI-friendly frame)

Examples::

    python -m repro run table5 --scale smoke --workers 4
    python -m repro status --root runs --watch 2
    python -m repro top --server http://127.0.0.1:8642 --once
    python -m repro submit defense_matrix --scale smoke --root runs
    python -m repro work --root runs &  python -m repro work --root runs
    python -m repro serve --root runs --port 8642
    python -m repro query accuracy --by defense --format table
    python -m repro store ingest --root runs --bench BENCH_throughput.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.common import SCALES
from repro.rl.stats import dump_json
from repro.runs.context import CampaignInterrupted
from repro.runs.registry import get_experiment, list_experiments
from repro.runs.runner import list_campaigns, load_rows, run


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """The arguments that name one campaign and its artifact directory."""
    parser.add_argument("experiment", help="registered experiment id (see 'list')")
    parser.add_argument("--scale", choices=sorted(SCALES), default=None,
                        help="training budget preset (default: the experiment's own)")
    parser.add_argument("--seed", type=int, default=None,
                        help="campaign seed (default: the experiment's base seed)")
    parser.add_argument("--root", default="runs",
                        help="artifact root directory (default: runs)")
    parser.add_argument("--out-dir", default=None,
                        help="explicit artifact directory (overrides --root)")


def _add_job_arguments(parser: argparse.ArgumentParser) -> None:
    """The per-cell execution options every job of a campaign carries."""
    parser.add_argument("--checkpoint-every", type=int, default=2,
                        help="save a resumable checkpoint every N PPO updates")
    parser.add_argument("--max-attempts", type=int, default=1,
                        help="in-process retries per cell (deterministic "
                             "exponential backoff between attempts)")
    parser.add_argument("--retry-backoff", type=float, default=0.25,
                        help="base backoff seconds (doubles per attempt)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock budget, enforced by a "
                             "watchdog that kills hung cells")
    parser.add_argument("--fault-plan", default=None,
                        help="chaos injection: a FaultPlan JSON file path or "
                             "inline JSON (also via REPRO_RUN_FAULT_PLAN)")


def _campaign_options(args: argparse.Namespace) -> dict:
    """Keyword arguments shared by ``run()`` and ``submit_campaign()``."""
    return {"scale": args.scale, "seed": args.seed, "root": args.root,
            "out_dir": args.out_dir, "checkpoint_every": args.checkpoint_every,
            "max_attempts": args.max_attempts,
            "retry_backoff": args.retry_backoff, "timeout": args.timeout,
            "fault_plan": args.fault_plan}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, inspect, and resume the paper's experiment campaigns.")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run (or resume) an experiment campaign",
        description="Run an experiment campaign; re-running on the same "
                    "artifact directory skips completed cells and resumes "
                    "in-flight training from checkpoints.")
    _add_campaign_arguments(run_parser)
    _add_job_arguments(run_parser)
    run_parser.add_argument("--workers", type=int, default=1,
                            help="local drainer processes")
    run_parser.add_argument("--format", choices=("table", "json", "none"),
                            default="table", help="how to print the resulting rows")
    run_parser.add_argument("--lenient", action="store_true",
                            help="strict=False: return partial rows + per-cell "
                                 "error records instead of raising on failure")

    list_parser = commands.add_parser("list", help="list registered experiments")
    list_parser.add_argument("--scenarios", action="store_true",
                             help="list registered environment scenarios instead")

    status_parser = commands.add_parser(
        "status", help="show completion state of campaign artifacts")
    status_parser.add_argument("--root", default="runs",
                               help="artifact root directory (default: runs)")
    status_parser.add_argument("--no-catalog", action="store_true",
                               help="force the artifact-tree scan even when a "
                                    "catalog.sqlite exists under the root")
    status_parser.add_argument("--watch", type=float, default=None,
                               metavar="SECONDS",
                               help="reprint the status every N seconds "
                                    "until interrupted (plain output, no "
                                    "screen control)")

    submit_parser = commands.add_parser(
        "submit", help="register a campaign in the catalogue and enqueue "
                       "its cells for 'repro work' processes")
    _add_campaign_arguments(submit_parser)
    _add_job_arguments(submit_parser)

    work_parser = commands.add_parser(
        "work", help="drain the job queue as one cooperative worker")
    work_parser.add_argument("--root", default="runs")
    work_parser.add_argument("--run-id", default=None,
                             help="drain only this campaign (default: any)")
    work_parser.add_argument("--worker-id", default=None,
                             help="stable worker identity (default: host-pid)")
    work_parser.add_argument("--lease-ttl", type=int, default=60,
                             help="lease seconds before a silent worker's cell "
                                  "is reclaimable (heartbeats extend it)")
    work_parser.add_argument("--max-job-attempts", type=int, default=3,
                             help="queue-level claims per cell before it is "
                                  "marked failed")
    work_parser.add_argument("--poll", type=float, default=0.5,
                             help="seconds between claims while others hold leases")
    work_parser.add_argument("--watch", action="store_true",
                             help="keep polling for new submissions instead of "
                                  "exiting when the queue drains")
    work_parser.add_argument("--max-cells", type=int, default=None,
                             help="stop after executing this many cells")
    work_parser.add_argument("--catalog", default=None,
                             help="explicit catalogue file (default: "
                                  "<root>/catalog.sqlite)")
    work_parser.add_argument("--server", default=None,
                             help="drain over HTTP from this 'repro serve' "
                                  "URL instead of the local catalogue "
                                  "(artifacts land under --root)")
    work_parser.add_argument("--client-timeout", type=float, default=30.0,
                             help="per-request deadline in seconds "
                                  "(remote mode)")
    work_parser.add_argument("--client-retries", type=int, default=6,
                             help="retry budget per request after the first "
                                  "attempt (remote mode)")
    work_parser.add_argument("--client-backoff", type=float, default=0.25,
                             help="base retry backoff seconds, doubling per "
                                  "retry up to 8s (remote mode)")

    serve_parser = commands.add_parser(
        "serve", help="run the campaign service HTTP API")
    serve_parser.add_argument("--root", default="runs")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642,
                              help="TCP port (0 picks a free one)")

    proxy_parser = commands.add_parser(
        "proxy", help="run a deterministic TCP chaos proxy in front of "
                      "'repro serve'")
    proxy_parser.add_argument("--upstream", required=True,
                              help="upstream server as host:port")
    proxy_parser.add_argument("--host", default="127.0.0.1")
    proxy_parser.add_argument("--port", type=int, default=0,
                              help="listen port (0 picks a free one)")
    proxy_parser.add_argument("--plan", default=None,
                              help="NetworkChaosPlan JSON file or inline JSON "
                                   "(default: pass traffic through unchanged)")

    query_parser = commands.add_parser(
        "query", help="aggregate a metric across all catalogued runs")
    query_parser.add_argument("metric", nargs="?", default=None,
                              help="metric key to aggregate (omit with --list-keys)")
    query_parser.add_argument("--by", default=None,
                              help="group key: 'run' (default), any cell "
                                   "param/row key, or a bench dimension")
    query_parser.add_argument("--experiment", default=None,
                              help="restrict to one experiment id")
    query_parser.add_argument("--scale", default=None,
                              help="restrict to one scale name")
    query_parser.add_argument("--bench", action="store_true",
                              help="aggregate the bench table instead of cell metrics")
    query_parser.add_argument("--benchmark", default=None,
                              help="restrict bench rows to one benchmark")
    query_parser.add_argument("--scenario", default=None,
                              help="restrict bench rows to one scenario")
    query_parser.add_argument("--list-keys", action="store_true",
                              help="list available metric/bench keys and exit")
    query_parser.add_argument("--format", choices=("table", "json", "csv"),
                              default="table")
    query_parser.add_argument("--root", default="runs")
    query_parser.add_argument("--catalog", default=None,
                              help="explicit catalogue file (default: "
                                   "<root>/catalog.sqlite)")

    store_parser = commands.add_parser(
        "store", help="catalogue maintenance")
    store_commands = store_parser.add_subparsers(dest="store_command",
                                                 required=True)
    ingest_parser = store_commands.add_parser(
        "ingest", help="backfill the catalogue from legacy runs/ trees "
                       "and BENCH_*.json files")
    ingest_parser.add_argument("--root", default="runs",
                               help="runs tree to ingest (default: runs)")
    ingest_parser.add_argument("--bench", action="append", default=[],
                               help="BENCH_*.json trajectory file to ingest "
                                    "(repeatable; re-ingest replaces its rows)")
    ingest_parser.add_argument("--catalog", default=None,
                               help="explicit catalogue file (default: "
                                    "<root>/catalog.sqlite)")

    top_parser = commands.add_parser(
        "top", help="live dashboard: campaign progress, worker roster, "
                    "telemetry ticker")
    top_parser.add_argument("--root", default="runs",
                            help="runs tree whose catalogue to read "
                                 "(ignored with --server)")
    top_parser.add_argument("--catalog", default=None,
                            help="explicit catalogue file (default: "
                                 "<root>/catalog.sqlite)")
    top_parser.add_argument("--server", default=None,
                            help="read from this 'repro serve' URL instead "
                                 "of a local catalogue")
    top_parser.add_argument("--interval", type=float, default=2.0,
                            help="seconds between refreshes (default: 2)")
    top_parser.add_argument("--once", action="store_true",
                            help="print one frame and exit (CI / pipes)")
    top_parser.add_argument("--client-timeout", type=float, default=10.0,
                            help="per-request deadline in seconds "
                                 "(--server mode)")

    results_parser = commands.add_parser(
        "results", help="print the rows of an existing campaign artifact")
    _add_campaign_arguments(results_parser)
    results_parser.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    try:
        campaign = run(args.experiment, workers=args.workers,
                       strict=not args.lenient, **_campaign_options(args))
    except (CampaignInterrupted, KeyboardInterrupt) as error:
        print(f"campaign interrupted: {error or 'Ctrl-C'}", file=sys.stderr)
        print("re-run the same command to resume from the checkpoint",
              file=sys.stderr)
        return 3
    except RuntimeError as error:
        print(f"campaign failed: {error}", file=sys.stderr)
        print("re-run to re-attempt the failed cells, or pass --lenient "
              "for partial rows", file=sys.stderr)
        return 1
    if args.format == "table":
        print(campaign.format_results())
    elif args.format == "json":
        print(dump_json(campaign.to_dict(), indent=2))
    if args.format != "json":
        resumed = f" ({campaign.resumed} cells reused)" if campaign.resumed else ""
        print(f"\n{campaign.completed}/{len(campaign.cells)} cells complete{resumed}; "
              f"artifacts in {campaign.out_dir}")
        for cell in campaign.errors:
            print(f"cell {cell['index']} ({cell['slug']}): {cell['status']} — "
                  f"{cell.get('error')}", file=sys.stderr)
    return 0 if not campaign.errors else 4


def _command_list(args: argparse.Namespace) -> int:
    if args.scenarios:
        import repro

        for scenario_id in repro.list_scenarios():
            print(scenario_id)
        return 0
    for experiment_id in list_experiments():
        spec = get_experiment(experiment_id)
        cells = f"{len(spec.grid)} cells" if spec.grid else "scale-dependent cells"
        print(f"{experiment_id:<10} {cells:<22} {spec.description}")
    return 0


def _command_status(args: argparse.Namespace) -> int:
    if args.watch is None:
        return _status_once(args)
    # --watch N: plain reprint loop — no screen control, so the output stays
    # pipe- and scrollback-friendly (use 'repro top' for the live dashboard).
    import time

    interval = max(0.1, float(args.watch))
    try:
        while True:
            code = _status_once(args)
            if code != 0:
                return code
            print(f"-- refreshing every {interval:g}s (Ctrl-C to stop) --",
                  flush=True)
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _status_once(args: argparse.Namespace) -> int:
    """One status table: from the catalogue when one exists (with a workers
    column while someone drains), else from a scan of the artifact tree."""
    from repro.runs.artifacts import quarantined_files
    from repro.store.catalog import Catalog, catalog_path

    catalog_file = catalog_path(Path(args.root))
    draining: dict = {}
    footer = None
    if catalog_file.exists() and not args.no_catalog:
        with Catalog(catalog_file) as catalog:
            records = catalog.list_runs()
            draining = catalog.active_workers_by_run()
        campaigns = [dict(record, campaign=record["run_id"],
                          completed=record["completed"] or 0,
                          failed=record["failed"] or 0,
                          quarantined=len(quarantined_files(
                              catalog_file.parent / record["run_id"])))
                     for record in records]
        empty = f"catalogue {catalog_file} holds no runs yet"
        footer = f"\n(catalogue: {catalog_file}; pass --no-catalog for the tree scan)"
    else:
        campaigns = list_campaigns(args.root)
        empty = f"no campaign artifacts under {args.root}/"
    if not campaigns:
        print(empty)
        return 0
    workers_header = f"{'workers':<8} " if draining else ""
    header = (f"{'campaign':<28} {'experiment':<14} {'scale':<6} {'cells':<9} "
              f"{'failed':<7} {'attempts':<9} {workers_header}"
              f"{'quarantined':<12} status")
    print(header)
    print("-" * len(header))
    for status in campaigns:
        cells = f"{status['completed']}/{status['cells']}"
        workers = (f"{draining.get(status['campaign'], 0):<8} "
                   if draining else "")
        print(f"{status['campaign']:<28} {status['experiment']:<14} "
              f"{status['scale']:<6} {cells:<9} {status['failed']:<7} "
              f"{status['attempts']:<9} {workers}{status['quarantined']:<12} "
              f"{status['status']}")
    if footer:
        print(footer)
    return 0


def _command_results(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment)
    try:
        rows = load_rows(spec, scale=args.scale, seed=args.seed,
                         root=args.root, out_dir=args.out_dir)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.format == "json":
        print(dump_json(rows, indent=2))
    else:
        print(spec.format_rows(rows))
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.store.worker import submit_campaign

    try:
        submission = submit_campaign(args.experiment,
                                     **_campaign_options(args))
    except (KeyError, ValueError) as error:
        print(f"submit failed: {error}", file=sys.stderr)
        return 1
    print(f"submitted {submission.run_id}: {submission.enqueued} job(s) "
          f"enqueued over {submission.cells} cell(s); artifacts in "
          f"{submission.out_dir}")
    print("drain with: python -m repro work --root "
          f"{Path(submission.out_dir).parent}")
    return 0


def _command_work(args: argparse.Namespace) -> int:
    from repro.store.client import RetryableTransportError, StoreClientError
    from repro.store.worker import work

    try:
        summary = work(root=args.root, run_id=args.run_id,
                       worker_id=args.worker_id, lease_ttl=args.lease_ttl,
                       max_job_attempts=args.max_job_attempts,
                       poll_seconds=args.poll, watch=args.watch,
                       max_cells=args.max_cells, catalog_file=args.catalog,
                       server=args.server,
                       client_timeout=args.client_timeout,
                       client_retries=args.client_retries,
                       client_backoff=args.client_backoff)
    except RetryableTransportError as error:
        print(f"worker gave up: {error}", file=sys.stderr)
        return 5
    except StoreClientError as error:
        print(f"worker protocol error: {error}", file=sys.stderr)
        return 2
    print(dump_json(summary.to_dict(), indent=2))
    if summary.interrupted or any(cell["status"] == "interrupted"
                                  for cell in summary.cells):
        print("worker interrupted; lease released", file=sys.stderr)
        return 3
    return 0 if summary.failed == 0 else 4


def _command_serve(args: argparse.Namespace) -> int:
    from repro.store.server import serve

    serve(Path(args.root), host=args.host, port=args.port)
    return 0


def _command_proxy(args: argparse.Namespace) -> int:
    from repro.runs.faults import NetworkChaosPlan
    from repro.store.chaos import run_proxy

    host, _, port = args.upstream.rpartition(":")
    if not host or not port.isdigit():
        print(f"--upstream must be host:port, got {args.upstream!r}",
              file=sys.stderr)
        return 2
    plan = NetworkChaosPlan.resolve(args.plan) or NetworkChaosPlan()
    run_proxy((host, int(port)), plan, host=args.host, port=args.port)
    return 0


def _command_top(args: argparse.Namespace) -> int:
    from repro.telemetry.dashboard import LocalSource, ServerSource, run_dashboard

    if args.server is not None:
        from repro.store.client import StoreClient

        client = StoreClient(args.server, worker_id="repro-top",
                             timeout=args.client_timeout, max_retries=2)
        source = ServerSource(client)
    else:
        from repro.store.connection import catalog_path

        catalog_file = (Path(args.catalog) if args.catalog is not None
                        else catalog_path(Path(args.root)))
        source = LocalSource(catalog_file)
    return run_dashboard(source, interval=args.interval, once=args.once)


def _command_query(args: argparse.Namespace) -> int:
    from repro.store.catalog import Catalog
    from repro.store.connection import catalog_path
    from repro.store.query import (
        aggregate_bench,
        aggregate_metric,
        format_rows,
        list_bench_keys,
        list_metric_keys,
    )

    catalog_file = (Path(args.catalog) if args.catalog is not None
                    else catalog_path(Path(args.root)))
    if not catalog_file.exists():
        print(f"no catalogue at {catalog_file}; run a campaign or "
              "'repro store ingest' first", file=sys.stderr)
        return 1
    with Catalog(catalog_file) as catalog:
        if args.list_keys:
            keys = (list_bench_keys(catalog) if args.bench
                    else list_metric_keys(catalog))
            print(format_rows(keys, args.format))
            return 0
        if args.metric is None:
            print("a metric is required (or pass --list-keys)", file=sys.stderr)
            return 2
        try:
            if args.bench:
                rows = aggregate_bench(catalog, args.metric,
                                       by=args.by or "num_envs",
                                       benchmark=args.benchmark,
                                       scenario=args.scenario)
            else:
                rows = aggregate_metric(catalog, args.metric,
                                        by=args.by or "run",
                                        experiment=args.experiment,
                                        scale=args.scale)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    title = f"{args.metric} by {args.by or ('num_envs' if args.bench else 'run')}"
    print(format_rows(rows, args.format, title=title))
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from repro.store.ingest import ingest

    summary = ingest(root=args.root, bench_files=args.bench,
                     catalog_file=args.catalog)
    print(f"ingested {summary['runs']} run(s), {summary['cells']} cell "
          f"record(s), {summary['bench_rows']} bench row(s) into "
          f"{summary['catalog']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _command_run, "list": _command_list,
                "status": _command_status, "results": _command_results,
                "submit": _command_submit, "work": _command_work,
                "serve": _command_serve, "proxy": _command_proxy,
                "query": _command_query, "store": _command_store,
                "top": _command_top}
    return handlers[args.command](args)
