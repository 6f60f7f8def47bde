"""The pre-refactor monolithic flow drivers, retained as the golden oracle.

These are the hand-written flow implementations that preceded the
``repro.flow`` stage-graph subsystem, kept verbatim (modulo renames) so the
golden-equivalence suite can pin the staged flows **bit-identical** to the
historic behaviour on every Table 1–3 quantity — the same pattern as the
annealer's retained oracle in ``anneal_reference.py``.

Do not add features here: new flow behaviour belongs in :mod:`repro.flow`,
and any intentional behavioural change must update both implementations
and the golden suite together.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.engine.panels import Engine
from repro.grid.nets import Netlist
from repro.grid.regions import RoutingGrid
from repro.grid.routes import RoutingSolution
from repro.gsino.budgeting import NetBudget, compute_budgets
from repro.gsino.config import GsinoConfig
from repro.gsino.metrics import compute_flow_metrics
from repro.gsino.phase1 import run_phase1
from repro.gsino.phase2 import run_phase2
from repro.gsino.phase3 import run_phase3
from repro.gsino.pipeline import FlowResult
from repro.router.iterative_deletion import IterativeDeletionRouter, RouterReport


def _route_baseline(
    grid: RoutingGrid, netlist: Netlist, config: GsinoConfig
) -> Tuple[RoutingSolution, RouterReport]:
    """One conventional ID routing run (no shield reservation)."""
    router = IterativeDeletionRouter(grid, netlist, config=config.baseline_weights)
    return router.route()


def reference_run_gsino(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    budgets: Optional[Dict[int, NetBudget]] = None,
    engine: Optional[Engine] = None,
) -> FlowResult:
    """The historic three-phase GSINO driver (pre-stage-graph)."""
    config = config or GsinoConfig()
    engine = engine or Engine()
    start = time.perf_counter()
    stats_before = engine.cache_stats()

    if budgets is None:
        budgets = compute_budgets(netlist, config)
    phase1 = run_phase1(grid, netlist, config, budgets=budgets)
    phase2 = run_phase2(phase1.routing, netlist, budgets, config, solver="sino", engine=engine)
    phase3_report = run_phase3(phase1.routing, phase2, budgets, netlist, config, engine=engine)
    metrics, congestion = compute_flow_metrics(phase1.routing, phase2.panels, config)

    return FlowResult(
        name="gsino",
        routing=phase1.routing,
        panels=dict(phase2.panels),
        budgets=budgets,
        metrics=metrics,
        congestion=congestion,
        router_report=phase1.router_report,
        phase3_report=phase3_report,
        runtime_seconds=time.perf_counter() - start,
        cache_stats=None if engine.cache is None else engine.cache_stats() - stats_before,
    )


def reference_run_baseline_flows(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    budgets: Optional[Dict[int, NetBudget]] = None,
    engine: Optional[Engine] = None,
) -> Dict[str, FlowResult]:
    """The historic ID+NO / iSINO driver sharing one conventional routing."""
    config = config or GsinoConfig()
    engine = engine or Engine()
    if budgets is None:
        budgets = compute_budgets(netlist, config)

    start = time.perf_counter()
    routing, router_report = _route_baseline(grid, netlist, config)
    routing_time = time.perf_counter() - start

    results: Dict[str, FlowResult] = {}

    start = time.perf_counter()
    stats_before = engine.cache_stats()
    ordering = run_phase2(routing, netlist, budgets, config, solver="ordering", engine=engine)
    metrics, congestion = compute_flow_metrics(routing, ordering.panels, config)
    results["id_no"] = FlowResult(
        name="id_no",
        routing=routing,
        panels=dict(ordering.panels),
        budgets=budgets,
        metrics=metrics,
        congestion=congestion,
        router_report=router_report,
        runtime_seconds=routing_time + (time.perf_counter() - start),
        cache_stats=None if engine.cache is None else engine.cache_stats() - stats_before,
    )

    start = time.perf_counter()
    stats_before = engine.cache_stats()
    sino = run_phase2(routing, netlist, budgets, config, solver="sino", engine=engine)
    metrics, congestion = compute_flow_metrics(routing, sino.panels, config)
    results["isino"] = FlowResult(
        name="isino",
        routing=routing,
        panels=dict(sino.panels),
        budgets=budgets,
        metrics=metrics,
        congestion=congestion,
        router_report=router_report,
        runtime_seconds=routing_time + (time.perf_counter() - start),
        cache_stats=None if engine.cache is None else engine.cache_stats() - stats_before,
    )
    return results


def reference_run_id_no(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    engine: Optional[Engine] = None,
) -> FlowResult:
    """The historic standalone ID+NO driver."""
    config = config or GsinoConfig()
    engine = engine or Engine()
    budgets = compute_budgets(netlist, config)
    start = time.perf_counter()
    stats_before = engine.cache_stats()
    routing, router_report = _route_baseline(grid, netlist, config)
    ordering = run_phase2(routing, netlist, budgets, config, solver="ordering", engine=engine)
    metrics, congestion = compute_flow_metrics(routing, ordering.panels, config)
    return FlowResult(
        name="id_no",
        routing=routing,
        panels=dict(ordering.panels),
        budgets=budgets,
        metrics=metrics,
        congestion=congestion,
        router_report=router_report,
        runtime_seconds=time.perf_counter() - start,
        cache_stats=None if engine.cache is None else engine.cache_stats() - stats_before,
    )


def reference_run_isino(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    engine: Optional[Engine] = None,
) -> FlowResult:
    """The historic standalone iSINO driver."""
    config = config or GsinoConfig()
    engine = engine or Engine()
    budgets = compute_budgets(netlist, config)
    start = time.perf_counter()
    stats_before = engine.cache_stats()
    routing, router_report = _route_baseline(grid, netlist, config)
    sino = run_phase2(routing, netlist, budgets, config, solver="sino", engine=engine)
    metrics, congestion = compute_flow_metrics(routing, sino.panels, config)
    return FlowResult(
        name="isino",
        routing=routing,
        panels=dict(sino.panels),
        budgets=budgets,
        metrics=metrics,
        congestion=congestion,
        router_report=router_report,
        runtime_seconds=time.perf_counter() - start,
        cache_stats=None if engine.cache is None else engine.cache_stats() - stats_before,
    )


def reference_compare_flows(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    engine: Optional[Engine] = None,
) -> Dict[str, FlowResult]:
    """The historic three-flow comparison (shared routing + shared engine)."""
    from repro.engine.cache import SolutionCache

    config = config or GsinoConfig()
    engine = engine or Engine(cache=SolutionCache())
    budgets = compute_budgets(netlist, config)
    results = reference_run_baseline_flows(grid, netlist, config, budgets=budgets, engine=engine)
    results["gsino"] = reference_run_gsino(grid, netlist, config, budgets=budgets, engine=engine)
    return results
