"""Command-line interface for the GSINO reproduction.

The one-shot subcommands cover the paper's workflows::

    python -m repro.cli tables  --scale 0.03 --circuits ibm01 ibm02
    python -m repro.cli compare --circuit ibm03 --rate 0.5 --scale 0.03
    python -m repro.cli characterize --samples 80

``tables`` regenerates the paper's Tables 1–3 on the synthetic suite,
``compare`` runs the three flows on a single circuit and prints one row of
each table (with a per-stage timing breakdown and the stage-graph execution
summary), and ``characterize`` builds the LSK lookup table from the circuit
simulator and optionally writes it to a JSON file that ``GsinoConfig`` can
load back.  ``flows`` exposes the stage-graph layer directly::

    python -m repro.cli flows --list
    python -m repro.cli flows --show gsino
    python -m repro.cli flows --run compare --circuit ibm01 --store .repro-store
    python -m repro.cli flows --run gsino --resume --store .repro-store

``--run`` materialises a flow's graph (shared ancestors computed once);
with ``--store DIR`` every stage artifact is persisted, and ``--resume``
restores them — an interrupted or repeated run re-executes nothing that is
already on disk.

The flow-running subcommands share the engine flags (``--workers N``: 1
runs serially, N >= 2 over a process pool; ``--no-cache``, ``--store DIR``)
and the solver flags:
``--effort`` picks the per-region SINO effort level and ``--chains N`` runs N
independent annealing chains per panel.  ``--store DIR`` persists every
stage artifact (panel layouts included) in the result store in DIR, so
repeated runs warm-start across processes::

    python -m repro.cli compare --circuit ibm02 --effort anneal --store .repro-store

The service verbs run GSINO as a long-lived system (see
:mod:`repro.service`)::

    python -m repro.cli serve  --root svc --idle-exit 60 &
    python -m repro.cli submit --root svc --scenario dense-bus --param seed=9 --wait 120
    python -m repro.cli status --root svc
    python -m repro.cli cancel --root svc JOB_ID
    python -m repro.cli gc     --root svc --max-mb 64 --purge-jobs

``serve --workers K`` scales the same spool across a supervised local fleet
of K lease-claiming worker processes; ``status --cluster`` shows per-worker
liveness, leases and throughput, and ``loadgen`` measures the fleet::

    python -m repro.cli serve   --root svc --workers 3 --lease-ttl 10 &
    python -m repro.cli loadgen --root svc --scenario dense-bus --jobs 24 --verify
    python -m repro.cli status  --root svc --cluster

``gateway`` serves the same spool to remote clients over HTTP/JSON with
per-client rate limits, a bounded admission queue and group-committed spool
writes; ``loadgen --http`` drives it with concurrent clients::

    python -m repro.cli gateway --root svc --port 8750 --rate 50 --burst 100 &
    python -m repro.cli loadgen --http http://127.0.0.1:8750 --jobs 24 --clients 4

Every lifecycle transition is appended to the root's event log; ``events``
tails it and ``metrics`` aggregates the fleet's snapshots (see DESIGN.md
§"Observability layer")::

    python -m repro.cli events  --root svc --tail 20
    python -m repro.cli events  --root svc --job JOB_ID --json
    python -m repro.cli metrics --root svc
    python -m repro.cli status  --root svc --health
    python -m repro.cli flows   --run gsino --trace

``watch`` (with the ``[tui]`` extra installed) opens a live terminal
dashboard over the same data — worker liveness, queue depth and
throughput, an event tail, and keyboard cancel/requeue::

    python -m repro.cli watch --root svc
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.analysis.report import format_percentage
from repro.bench.profiles import DEFAULT_CIRCUITS
from repro.catalog import EFFORT_LEVELS, FLOW_NAMES
from repro.obs.events import follow_events, format_event, iter_events, read_events
from repro.obs.health import collect_fleet_health, format_health
from repro.obs.metrics import fleet_metrics_from_events, format_metrics
from repro.obs.trace import Tracer, maybe_span, set_active_tracer
from repro.service.scenarios import list_scenarios
from repro.service.spool import (
    gc_service,
    refuse_sharded_root,
    request_cancel,
    service_status,
    submit_job,
    wait_for_job,
)
from repro.service.store import ResultStore, read_cumulative_store_stats

if TYPE_CHECKING:
    from repro.flow.runner import FlowRunner, StageExecution


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution-engine flags shared by the flow-running subcommands."""
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="1 runs independent work units serially; N >= 2 over a pool "
        "of N processes",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the panel-solution cache",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist stage artifacts, panel layouts included, in the result "
        "store in DIR (repeated runs warm-start across processes)",
    )
    parser.add_argument(
        "--effort",
        choices=list(EFFORT_LEVELS),
        default="greedy",
        help="per-region SINO effort level",
    )
    parser.add_argument(
        "--chains",
        type=_positive_int,
        default=1,
        help="independent annealing chains per panel (annealing efforts only)",
    )


def _add_tables_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "tables", help="regenerate Tables 1-3 on the synthetic suite", allow_abbrev=False
    )
    parser.add_argument("--scale", type=float, default=0.03, help="benchmark size scale in (0, 1]")
    parser.add_argument("--seed", type=int, default=7, help="base random seed")
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=list(DEFAULT_CIRCUITS),
        help="benchmark circuits to include (ibm01..ibm06)",
    )
    parser.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=[0.3, 0.5],
        help="sensitivity rates to evaluate",
    )
    parser.add_argument("--output", type=Path, default=None, help="write the tables to this file")
    _add_engine_arguments(parser)


def _add_compare_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "compare", help="run ID+NO, iSINO and GSINO on one circuit", allow_abbrev=False
    )
    parser.add_argument("--circuit", default="ibm01", help="benchmark circuit name")
    parser.add_argument("--rate", type=float, default=0.3, help="sensitivity rate")
    parser.add_argument("--scale", type=float, default=0.03, help="benchmark size scale in (0, 1]")
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    parser.add_argument("--bound", type=float, default=None, help="crosstalk bound in volts")
    _add_engine_arguments(parser)


def _add_flows_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "flows",
        help="inspect and run stage-graph flows (list, show, run, resume)",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--list", action="store_true", help="list the registered flows and exit"
    )
    parser.add_argument(
        "--show",
        choices=list(FLOW_NAMES),
        default=None,
        metavar="NAME",
        help="print a flow's stage graph (artifact <- stage(inputs)) and exit",
    )
    parser.add_argument(
        "--run",
        choices=list(FLOW_NAMES) + ["compare"],
        default=None,
        metavar="NAME",
        help="run one flow (or 'compare' for all three over a shared runner)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from persisted stage artifacts (requires --run and --store)",
    )
    parser.add_argument("--circuit", default="ibm01", help="benchmark circuit name")
    parser.add_argument("--rate", type=float, default=0.3, help="sensitivity rate")
    parser.add_argument("--scale", type=float, default=0.03, help="benchmark size scale in (0, 1]")
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    parser.add_argument("--bound", type=float, default=None, help="crosstalk bound in volts")
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record spans (stages, solves, dispatches) and print the trace report",
    )
    _add_engine_arguments(parser)


def _add_characterize_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "characterize",
        help="build the LSK lookup table with the circuit simulator",
        allow_abbrev=False,
    )
    parser.add_argument("--samples", type=int, default=120, help="number of simulated panels")
    parser.add_argument("--seed", type=int, default=2002, help="random seed of the sweep")
    parser.add_argument("--output", type=Path, default=None, help="write the table JSON here")


def _add_root_argument(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--root",
        type=Path,
        required=required,
        metavar="DIR",
        help="service state directory (spool + result store)",
    )


def _add_serve_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the job service (one worker, or --workers K for a local fleet)",
        allow_abbrev=False,
    )
    _add_root_argument(parser)
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="K",
        help="run a supervised local cluster of K worker processes over the "
        "spool (default: one in-process worker; both claim jobs by lease)",
    )
    parser.add_argument(
        "--backend-workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="panel batches of each worker: 1 runs them serially, N >= 2 "
        "over a pool of N processes",
    )
    parser.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help="job-lease time-to-live; an expired lease of a dead worker is "
        "reclaimed by any live or restarted worker",
    )
    parser.add_argument(
        "--poll",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="fallback poll interval when no doorbell ring arrives",
    )
    parser.add_argument(
        "--store-max-mb",
        type=_positive_float,
        default=None,
        metavar="MB",
        help="LRU size cap of the result store",
    )
    parser.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        help="exit after this many finished jobs (default: serve forever)",
    )
    parser.add_argument(
        "--idle-exit",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="exit after this long without runnable work (default: serve forever)",
    )


def _add_submit_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "submit", help="queue a scenario job for the workers", allow_abbrev=False
    )
    # --root is validated in the handler: --list reads only the in-process
    # registry and needs no service directory.
    _add_root_argument(parser, required=False)
    parser.add_argument(
        "--scenario", default=None, help="registered scenario name (see --list)"
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter override (repeatable), e.g. --param seed=9",
    )
    parser.add_argument("--priority", type=int, default=0, help="higher runs first")
    parser.add_argument(
        "--max-attempts", type=_positive_int, default=2, help="executions before a job fails"
    )
    parser.add_argument(
        "--wait",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="block until the job finishes (exit code reflects its status)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the registered scenarios and exit"
    )


def _add_status_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "status", help="report worker, job, cache and store state", allow_abbrev=False
    )
    _add_root_argument(parser)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="include per-worker liveness, leases and throughput",
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="include typed per-worker health verdicts and the queue record",
    )


def _add_loadgen_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "loadgen",
        help="submit a burst of scenario jobs and report latency/throughput",
        allow_abbrev=False,
    )
    # --root is validated in the handler: --http bursts drive a remote
    # gateway over the wire and never touch the spool directly.
    _add_root_argument(parser, required=False)
    parser.add_argument(
        "--http",
        default=None,
        metavar="URL",
        help="drive a live `repro gateway` at URL with concurrent HTTP "
        "clients instead of writing the spool directly",
    )
    parser.add_argument(
        "--clients",
        type=_positive_int,
        default=4,
        metavar="N",
        help="concurrent HTTP client connections (--http mode only)",
    )
    parser.add_argument(
        "--no-retry",
        action="store_true",
        help="give up on a 429 instead of honouring Retry-After (--http mode)",
    )
    parser.add_argument("--scenario", default="smoke", help="registered scenario name")
    parser.add_argument(
        "--jobs", type=_positive_int, default=12, help="burst size (distinct derived seeds)"
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter override applied to every job (repeatable)",
    )
    parser.add_argument("--priority", type=int, default=0, help="higher runs first")
    parser.add_argument(
        "--max-attempts", type=_positive_int, default=2, help="executions before a job fails"
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=300.0,
        metavar="SECONDS",
        help="how long to wait for the burst to finish",
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="submit the burst and return immediately (no report)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the event-log report against a spool scan",
    )


def _add_gateway_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "gateway",
        help="serve the HTTP/JSON front door over a service root",
        allow_abbrev=False,
    )
    _add_root_argument(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8750,
        help="bind port (0 picks a free one; the bound port is printed)",
    )
    parser.add_argument(
        "--rate",
        type=_positive_float,
        default=50.0,
        metavar="PER_SECOND",
        help="per-client token-bucket refill rate",
    )
    parser.add_argument(
        "--burst",
        type=_positive_float,
        default=100.0,
        metavar="TOKENS",
        help="per-client token-bucket capacity",
    )
    parser.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=256,
        metavar="N",
        help="bounded admission queue size (overflow answers 429)",
    )
    parser.add_argument(
        "--batch-max",
        type=_positive_int,
        default=16,
        metavar="N",
        help="most submissions written to the spool in one batch",
    )


def _add_events_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "events",
        help="print a service root's append-only event log",
        allow_abbrev=False,
    )
    _add_root_argument(parser)
    parser.add_argument(
        "--tail", type=_positive_int, default=None, metavar="N", help="only the newest N events"
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="keep printing new events as they are appended (Ctrl-C to stop)",
    )
    parser.add_argument(
        "--poll",
        type=_positive_float,
        default=0.2,
        metavar="SECONDS",
        help="--follow poll interval (backs off to 1s while idle)",
    )
    parser.add_argument(
        "--job", default=None, metavar="ID", help="only events touching one job id"
    )
    parser.add_argument(
        "--json", action="store_true", help="one raw JSON record per line (JSONL)"
    )


def _add_metrics_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "metrics",
        help="aggregate fleet metrics snapshots and store lifetime stats",
        allow_abbrev=False,
    )
    _add_root_argument(parser)
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _add_watch_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "watch",
        help="live fleet dashboard (requires the [tui] extra)",
        allow_abbrev=False,
    )
    _add_root_argument(parser)
    parser.add_argument(
        "--interval",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="dashboard refresh interval",
    )


def _add_cancel_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "cancel", help="request cancellation of a job", allow_abbrev=False
    )
    _add_root_argument(parser)
    parser.add_argument("job_id", help="id printed by `repro submit`")


def _add_gc_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "gc", help="evict the result store / purge finished jobs", allow_abbrev=False
    )
    _add_root_argument(parser)
    parser.add_argument(
        "--max-mb",
        type=_positive_float,
        default=None,
        metavar="MB",
        help="evict the store down to this size"
    )
    parser.add_argument(
        "--purge-jobs", action="store_true", help="remove records of finished jobs"
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    # No prefix matching anywhere: an abbreviation, or a retired option
    # that prefixes a live one (``--backend`` of ``--backend-workers``),
    # must be an error, not a silent match.
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Towards Global Routing With RLC Crosstalk Constraints'",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_tables_parser(subparsers)
    _add_compare_parser(subparsers)
    _add_flows_parser(subparsers)
    _add_characterize_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_submit_parser(subparsers)
    _add_status_parser(subparsers)
    _add_loadgen_parser(subparsers)
    _add_gateway_parser(subparsers)
    _add_events_parser(subparsers)
    _add_metrics_parser(subparsers)
    _add_watch_parser(subparsers)
    _add_cancel_parser(subparsers)
    _add_gc_parser(subparsers)
    return parser


def _mb_to_bytes(megabytes: Optional[float]) -> Optional[int]:
    """MB flag value to bytes; flags are validated positive by argparse."""
    if megabytes is None:
        return None
    return max(1, int(megabytes * 1024 * 1024))


def _run_tables(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import ExperimentConfig, render_all_tables, run_table_suite

    config = ExperimentConfig(
        circuits=tuple(args.circuits),
        sensitivity_rates=tuple(args.rates),
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        use_cache=not args.no_cache,
        sino_effort=args.effort,
        chains=args.chains,
        store_path=args.store,
    )
    start = time.perf_counter()
    comparisons = run_table_suite(config)
    text = render_all_tables(comparisons)
    elapsed = time.perf_counter() - start
    print(text)
    print(f"\nSuite completed in {elapsed:.1f} s.")
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"Tables written to {args.output}")
    return 0


def _stage_note(executions: Sequence[StageExecution]) -> str:
    """``artifact=seconds|shared|restored`` breakdown of one flow's stages."""
    parts = []
    for execution in executions:
        if execution.outcome == "shared":
            parts.append(f"{execution.artifact}=shared")
        elif execution.outcome == "restored":
            parts.append(f"{execution.artifact}=restored")
        else:
            parts.append(f"{execution.artifact}={execution.seconds:.2f}s")
    return " ".join(parts)


def _print_stage_graph_summary(runner: FlowRunner) -> None:
    """The greppable one-line stage-execution summary (CI flow-smoke)."""
    counts = runner.outcome_counts()
    print(
        f"  stage graph: {counts['executed']} executed, "
        f"{counts['restored']} restored, {counts['shared']} shared"
    )


def _instance_run_setup(args: argparse.Namespace):
    """(circuit, config, store, engine) shared by ``compare`` and ``flows``.

    One construction path, so a new solver or engine flag can never reach
    one subcommand and silently miss the other.  The gateway and the
    supervisor run this module too, so the solver stack is imported here,
    by the verbs that solve, and not at module level.
    """
    from repro.bench.ibm import generate_circuit
    from repro.engine.backends import create_backend
    from repro.engine.cache import SolutionCache
    from repro.engine.panels import Engine
    from repro.gsino.config import GsinoConfig
    from repro.sino.anneal import AnnealConfig

    circuit = generate_circuit(
        args.circuit, sensitivity_rate=args.rate, scale=args.scale, seed=args.seed
    )
    anneal = AnnealConfig(chains=args.chains) if args.chains > 1 else None
    config = GsinoConfig(
        crosstalk_bound=args.bound,
        length_scale=1.0 / (args.scale ** 0.5),
        sino_effort=args.effort,
        anneal=anneal,
    )
    store = None if args.store is None else ResultStore(args.store)
    engine = Engine(
        backend=create_backend(args.workers),
        cache=None if args.no_cache else SolutionCache(store=store),
        tracer=Tracer() if getattr(args, "trace", False) else None,
    )
    # Deep call sites (the anneal chain loop) span against the ambient
    # tracer; install it so ``--trace`` reports show per-chain anneal spans.
    set_active_tracer(engine.tracer)
    return circuit, config, store, engine


def _run_compare(args: argparse.Namespace) -> int:
    from repro.flow.flows import build_context, run_compare

    circuit, config, store, engine = _instance_run_setup(args)
    with engine:
        context = build_context(circuit.grid, circuit.netlist, config, engine)
        outcome = run_compare(context, store=store)
    results = outcome.results
    id_no = results["id_no"]
    print(
        f"{circuit.profile.name}: {circuit.netlist.num_nets} nets, "
        f"sensitivity {format_percentage(args.rate, 0)}, bound {config.resolved_bound():.2f} V "
        f"[backend={engine.backend.name}, cache={'off' if engine.cache is None else 'on'}]"
    )
    for name in FLOW_NAMES:
        result = results[name]
        metrics = result.metrics
        area_overhead = metrics.area.overhead_vs(id_no.metrics.area)
        cache_note = ""
        if result.cache_stats is not None:
            cache_note = f"  cache_hits={result.cache_stats}"
        print(
            f"  {name:6s} violations={metrics.crosstalk.num_violations:<5d} "
            f"avg_wl={metrics.average_wirelength_um:8.1f} um  "
            f"area={metrics.area.dimensions_label():>14s} ({format_percentage(area_overhead)})  "
            f"shields={metrics.total_shields}  "
            f"runtime={result.runtime_seconds:.2f}s{cache_note}"
        )
        print(f"         stages: {_stage_note(outcome.runner.executions_for(name))}")
    refine = results["gsino"].phase3_report
    if refine is not None:
        print(
            f"  gsino phase III: unfixable_nets={len(refine.unfixable_nets)} "
            f"pass1_capped={refine.pass1_capped} pass2_capped={refine.pass2_capped}"
        )
    _print_stage_graph_summary(outcome.runner)
    if engine.cache is not None:
        print(f"  panel cache: {engine.cache_stats()} over {len(engine.cache)} entries")
    if store is not None:
        stats = engine.cache_stats()
        redundant = "zero redundant solves" if stats.misses == 0 else f"{stats.misses} cold solves"
        entries, total_bytes = store.disk_usage()
        print(
            f"  persistent store: {store.stats()}; {entries} entries, "
            f"{total_bytes} bytes ({redundant})"
        )
    return 0


def _run_flows(args: argparse.Namespace) -> int:
    from repro.flow.flows import build_context, flow_graph, list_flows, run_flow
    from repro.flow.runner import FlowRunner

    if args.list:
        for name, description in list_flows():
            stages = len(flow_graph(name).schedule())
            print(f"  {name:8s} {description} [{stages} stages]")
        print("  compare  all three flows over one shared runner")
        return 0
    if args.show is not None:
        print(f"{args.show} stage graph:")
        for line in flow_graph(args.show).describe():
            print(f"  {line}")
        return 0
    if args.run is None:
        raise SystemExit("flows: choose one of --list, --show NAME or --run NAME")
    names = FLOW_NAMES if args.run == "compare" else (args.run,)
    circuit, config, store, engine = _instance_run_setup(args)
    # One root span, so the report's %root column shares out the whole run.
    with engine, maybe_span(engine.tracer, "run", flows=len(names)):
        context = build_context(circuit.grid, circuit.netlist, config, engine)
        runner = FlowRunner(context, store=store, tracer=engine.tracer)
        results = {name: run_flow(name, context, runner=runner) for name in names}
    print(
        f"{circuit.profile.name}: {circuit.netlist.num_nets} nets, "
        f"sensitivity {format_percentage(args.rate, 0)} "
        f"[backend={engine.backend.name}, cache={'off' if engine.cache is None else 'on'}]"
    )
    for name in names:
        result = results[name]
        metrics = result.metrics
        print(
            f"  {name:6s} violations={metrics.crosstalk.num_violations:<5d} "
            f"avg_wl={metrics.average_wirelength_um:8.1f} um  "
            f"area={metrics.area.dimensions_label():>14s}  "
            f"shields={metrics.total_shields}  runtime={result.runtime_seconds:.2f}s"
        )
        print(f"         stages: {_stage_note(runner.executions_for(name))}")
    _print_stage_graph_summary(runner)
    if args.resume:
        counts = runner.outcome_counts()
        print(
            f"  resumed from {args.store}: {counts['restored']} stage(s) restored, "
            f"{counts['executed']} executed"
        )
    if engine.tracer is not None:
        print(engine.tracer.format_report())
    return 0


def _run_characterize(args: argparse.Namespace) -> int:
    # The characterisation sweep pulls in scipy; no other verb needs it.
    from repro.noise.table_builder import LskTableBuilder, TableBuildConfig

    config = TableBuildConfig(num_samples=args.samples, seed=args.seed)
    builder = LskTableBuilder(config)
    table = builder.build()
    low, high = table.noise_range
    print(f"Built a {table.num_entries}-entry LSK table spanning {low:.3f}-{high:.3f} V")
    print(f"LSK budget at the 0.15 V bound: {table.lsk_for_noise(0.15):.3e} m*K")
    if args.output is not None:
        table.save(args.output)
        print(f"Table written to {args.output}")
    return 0


def _parse_params(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse ``KEY=VALUE`` overrides; values are JSON when possible, else str."""
    params: Dict[str, object] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.cluster import ClusterConfig, ClusterSupervisor, WorkerConfig, serve_worker

    worker = WorkerConfig(
        root=args.root,
        backend_workers=args.backend_workers,
        poll_interval=args.poll,
        lease_ttl=args.lease_ttl,
        store_max_bytes=_mb_to_bytes(args.store_max_mb),
    )
    if args.workers is None:
        # One in-process worker.
        serve_worker(worker, max_jobs=args.max_jobs, idle_exit=args.idle_exit)
        return 0
    config = ClusterConfig(worker=worker, workers=args.workers)
    supervisor = ClusterSupervisor(config)
    print(
        f"cluster serving {args.root} with {args.workers} worker(s) "
        f"[backend_workers={args.backend_workers}, lease_ttl={args.lease_ttl:.1f}s]",
        flush=True,
    )
    finished = supervisor.run(max_jobs=args.max_jobs, idle_exit=args.idle_exit)
    print(
        f"cluster served {finished} job(s) across {args.workers} worker(s) "
        f"({supervisor.restarts} restart(s))",
        flush=True,
    )
    if supervisor.gave_up:
        print(
            f"repro serve: giving up: every worker died and the restart budget of "
            f"{config.max_restarts} restart(s) is spent (their worker-exited events: "
            f"repro events --root {args.root})",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_loadgen(args: argparse.Namespace) -> int:
    if args.http is not None:
        return _run_http_loadgen(args)
    if args.root is None:
        raise SystemExit("loadgen needs --root DIR (or --http URL for a live gateway)")
    from repro.service.cluster import format_loadgen_report, run_loadgen

    try:
        report = run_loadgen(
            args.root,
            scenario=args.scenario,
            jobs=args.jobs,
            params=_parse_params(args.param),
            priority=args.priority,
            max_attempts=args.max_attempts,
            timeout=args.timeout,
            wait=not args.no_wait,
            verify=args.verify,
        )
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"loadgen rejected: {message}") from None
    for line in format_loadgen_report(report):
        print(line)
    if args.no_wait:
        return 0
    return 0 if report.done == report.submitted else 1


def _run_http_loadgen(args: argparse.Namespace) -> int:
    if args.verify:
        raise SystemExit("--verify needs spool access; it cannot be combined with --http")
    from repro.service.gateway.loadgen import format_http_loadgen_report, run_http_loadgen

    try:
        report = run_http_loadgen(
            args.http,
            scenario=args.scenario,
            jobs=args.jobs,
            clients=args.clients,
            params=_parse_params(args.param),
            priority=args.priority,
            max_attempts=args.max_attempts,
            timeout=args.timeout,
            wait=not args.no_wait,
            retry_429=not args.no_retry,
        )
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"loadgen rejected: {message}") from None
    for line in format_http_loadgen_report(report):
        print(line)
    if report.errors:
        return 1
    if args.no_wait:
        return 0 if report.admitted == report.attempted else 1
    return 0 if report.done == report.admitted == report.attempted else 1


def _run_gateway(args: argparse.Namespace) -> int:
    from repro.service.gateway.server import GatewayConfig, run_gateway

    config = GatewayConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        rate=args.rate,
        burst=args.burst,
        queue_depth=args.queue_depth,
        batch_max=args.batch_max,
    )
    counters = run_gateway(config)
    admitted = counters.get("gateway.admitted", 0)
    rejected = counters.get("gateway.rejected.rate", 0) + counters.get(
        "gateway.rejected.queue", 0
    )
    print(
        f"gateway stopped: {counters.get('gateway.requests', 0)} requests, "
        f"{admitted} admitted in {counters.get('gateway.batches', 0)} batches, "
        f"{rejected} rejected"
    )
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    if args.list:
        for name, description in list_scenarios():
            print(f"  {name:18s} {description}")
        return 0
    if args.root is None:
        raise SystemExit("--root is required to submit a job")
    if args.scenario is None:
        raise SystemExit("--scenario is required (or use --list)")
    try:
        job = submit_job(
            args.root,
            args.scenario,
            params=_parse_params(args.param),
            priority=args.priority,
            max_attempts=args.max_attempts,
        )
    except (KeyError, TypeError, ValueError) as error:
        # Unknown scenario / bad parameter: an operator mistake, not a crash.
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"submit rejected: {message}") from None
    print(f"submitted {job.job_id} (scenario={job.scenario}, priority={job.priority})")
    if args.wait is None:
        return 0
    try:
        finished = wait_for_job(args.root, job.job_id, timeout=args.wait)
    except TimeoutError as error:
        print(f"{job.job_id}: {error} (is a worker serving --root {args.root}?)")
        return 1
    print(f"{finished.job_id}: {finished.status}")
    if finished.result is not None:
        print(f"  result: {json.dumps(finished.result)}")
    if finished.error:
        print(f"  error: {finished.error}")
    return 0 if finished.status == "done" else 1


def _render_status(report: Dict[str, object]) -> str:
    lines = [f"service root: {report['root']}", _render_worker_line(report.get("cluster"))]
    counts = report["jobs"]["counts"]
    summary = ", ".join(f"{count} {status}" for status, count in sorted(counts.items()))
    lines.append(f"jobs: {summary or 'none'}")
    for record in report["jobs"]["records"]:
        note = ""
        result = record.get("result") or {}
        if result:
            cache = result.get("cache") or {}
            note = (
                f"  panels={result.get('panels')} shields={result.get('shields')}"
                f" cache={cache.get('hits', 0)}h/{cache.get('store_hits', 0)}d/"
                f"{cache.get('misses', 0)}m"
            )
        if record.get("error"):
            note += f"  error={record['error']}"
        lines.append(f"  {record['job_id']:28s} {record['status']:9s}{note}")
    totals = report["cache_totals"]
    lines.append(
        f"cache totals: hits={totals['hits']} misses={totals['misses']} "
        f"store_hits={totals['store_hits']}"
    )
    store = report["store"]
    if store is not None:
        lines.append(f"store: {store['entries']} entries, {store['bytes']} bytes")
    gateway = report.get("gateway")
    if gateway is not None:
        heartbeat = gateway.get("heartbeat") or {}
        counters = heartbeat.get("counters") or {}
        queue = heartbeat.get("queue") or {}
        if gateway.get("alive"):
            lines.append(
                f"gateway: listening on {heartbeat.get('host')}:{heartbeat.get('port')} "
                f"(pid {heartbeat.get('pid')}, heartbeat {gateway.get('heartbeat_age', 0.0):.1f}s "
                f"ago, queue {queue.get('depth', 0)}/{queue.get('capacity', 0)})"
            )
        else:
            lines.append("gateway: not running")
        lines.append(
            f"gateway traffic: requests={counters.get('gateway.requests', 0)} "
            f"admitted={counters.get('gateway.admitted', 0)} "
            f"rejected_rate={counters.get('gateway.rejected.rate', 0)} "
            f"rejected_queue={counters.get('gateway.rejected.queue', 0)} "
            f"batches={counters.get('gateway.batches', 0)}"
        )
    return "\n".join(lines)


def _render_worker_line(cluster: Optional[Dict[str, object]]) -> str:
    """The one-line worker summary of the default ``repro status``."""
    workers = (cluster or {}).get("workers") or {}
    if not workers:
        return "workers: none have served this root"
    alive = sum(1 for info in workers.values() if info.get("alive"))
    return f"workers: {alive} alive, {len(workers) - alive} stopped"


def _render_cluster(cluster: Optional[Dict[str, object]]) -> str:
    """The ``status --cluster`` section: workers, reclaim totals, leases."""
    if not cluster or not (cluster.get("workers") or cluster.get("leases")):
        return "cluster: no workers have served this root"
    workers = cluster.get("workers") or {}
    alive = sum(1 for info in workers.values() if info.get("alive"))
    done = sum(int((info.get("heartbeat") or {}).get("jobs_done", 0)) for info in workers.values())
    failed = sum(
        int((info.get("heartbeat") or {}).get("jobs_failed", 0)) for info in workers.values()
    )
    reclaimed = sum(
        int((info.get("heartbeat") or {}).get("jobs_reclaimed", 0)) for info in workers.values()
    )
    lines = [
        f"cluster: {len(workers)} workers ({alive} alive), {done} done, "
        f"{failed} failed, {reclaimed} reclaimed"
    ]
    for worker_id, info in sorted(workers.items()):
        heartbeat = info.get("heartbeat") or {}
        stale = "stopped" if heartbeat.get("stopped") else "stale"
        state = "alive" if info.get("alive") else stale
        lease = heartbeat.get("lease") or "-"
        lines.append(
            f"  {worker_id:24s} {state:7s} pid={heartbeat.get('pid')} "
            f"hb={info.get('heartbeat_age', 0.0):.1f}s "
            f"done={heartbeat.get('jobs_done', 0)} failed={heartbeat.get('jobs_failed', 0)} "
            f"reclaimed={heartbeat.get('jobs_reclaimed', 0)} "
            f"throughput={info.get('throughput_jobs_per_s', 0.0):.2f} jobs/s lease={lease}"
        )
    for lease in cluster.get("leases") or []:
        expires = lease.get("expires_in")
        expiry_note = f", expires in {expires:.1f}s" if expires is not None else ""
        lines.append(
            f"  lease: {lease['job_id']} held by {lease['worker_id']} "
            f"(age {lease['age_seconds']:.1f}s{expiry_note})"
        )
    return "\n".join(lines)


def _run_status(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(service_status(args.root, with_health=args.health), indent=2))
        return 0
    report = service_status(args.root)
    print(_render_status(report))
    if args.cluster:
        print(_render_cluster(report.get("cluster")))
    if args.health:
        print(format_health(collect_fleet_health(args.root)))
    return 0


def _run_events(args: argparse.Namespace) -> int:
    def render(record: Dict[str, object]) -> str:
        return json.dumps(record) if args.json else format_event(record)

    if args.follow:
        try:
            for record in follow_events(args.root, poll_interval=args.poll):
                if args.job is not None and record.get("job") != args.job:
                    continue
                print(render(record), flush=True)
        except KeyboardInterrupt:
            pass
        return 0
    records = read_events(args.root, job_id=args.job, tail=args.tail)
    for record in records:
        print(render(record))
    if not records and not args.json:
        print("no events recorded")
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    # The fleet view merges the latest snapshot per writer *generation*
    # (a registry snapshot is cumulative over one process lifetime, and a
    # restarted writer must sum with — not shadow — its predecessor).
    merged, writers = fleet_metrics_from_events(iter_events(args.root, event="metrics"))
    store_stats = None
    if (args.root / "store").exists():
        store_stats = read_cumulative_store_stats(args.root / "store")
    if args.json:
        payload = {
            "root": str(args.root),
            "writers": writers,
            "metrics": merged,
            "store": None if store_stats is None else store_stats.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"service root: {args.root} ({len(writers)} reporting writer(s))")
    print(format_metrics(merged))
    if store_stats is not None:
        print(f"store lifetime: {store_stats}")
    return 0


def _run_watch(args: argparse.Namespace) -> int:
    # Textual lives behind the [tui] extra; repro.watch raises a helpful
    # error when it is missing, which we surface as a plain message.
    from repro.watch import run_watch

    try:
        run_watch(args.root, interval=args.interval)
    except ModuleNotFoundError as exc:
        print(f"repro watch: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_cancel(args: argparse.Namespace) -> int:
    if request_cancel(args.root, args.job_id):
        print(f"cancellation requested for {args.job_id}")
        return 0
    print(f"cannot cancel {args.job_id}: no such job, or it already finished")
    return 1


def _run_gc(args: argparse.Namespace) -> int:
    report = gc_service(
        args.root, max_bytes=_mb_to_bytes(args.max_mb), purge_jobs=args.purge_jobs
    )
    print(
        f"evicted {report['evicted_blobs']} blob(s), purged {report['purged_jobs']} job(s), "
        f"swept {report['purged_workers']} dead worker(s)"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if getattr(args, "store", None) is not None and getattr(args, "no_cache", False):
        parser.error("--store requires the panel cache (drop --no-cache)")
    if getattr(args, "resume", False):
        if getattr(args, "run", None) is None:
            parser.error("--resume requires --run NAME")
        if getattr(args, "store", None) is None:
            parser.error("--resume requires --store DIR (the persisted stage artifacts)")
    handlers = {
        "tables": _run_tables,
        "compare": _run_compare,
        "flows": _run_flows,
        "characterize": _run_characterize,
        "serve": _run_serve,
        "submit": _run_submit,
        "status": _run_status,
        "loadgen": _run_loadgen,
        "gateway": _run_gateway,
        "events": _run_events,
        "metrics": _run_metrics,
        "watch": _run_watch,
        "cancel": _run_cancel,
        "gc": _run_gc,
    }
    handler = handlers.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
        return 2
    if getattr(args, "root", None) is not None:
        try:
            refuse_sharded_root(args.root)
        except RuntimeError as error:
            raise SystemExit(f"repro {args.command}: {error}") from None
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream closed early (e.g. `repro status | head`); not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
