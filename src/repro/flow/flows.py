"""The paper's three flows as declarative stage graphs, plus the drivers.

One shared stage table expresses every artifact of the comparison::

    budgets        <- budgeting()
    route_baseline <- route_id(weights=baseline)
    route_reserved <- route_id(weights=reserved)
    panels_id_no   <- solve_panels(route_baseline, budgets; solver=ordering)
    panels_isino   <- solve_panels(route_baseline, budgets; solver=sino)
    panels_gsino   <- solve_panels(route_reserved, budgets; solver=sino)
    refine_gsino   <- refine_phase3(route_reserved, panels_gsino, budgets)
    metrics_*      <- metrics(route, panels)

and each flow is a :class:`~repro.flow.graph.FlowGraph` over that table:
ID+NO and iSINO differ only in their panel solver, GSINO adds the reserved
routing and Phase III.  Because the graphs share stage objects and artifact
names, a single :class:`~repro.flow.runner.FlowRunner` materialises the
common ancestors (the baseline routing, the budgets) exactly once per
``compare`` run — and, with a store attached, exactly once *ever* per
(instance, configuration).

New flow variants — different orderings, budget policies, effort
portfolios — are new graph recombinations over the same stage kinds, not
new monoliths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, cast

from repro.catalog import FLOW_NAMES
from repro.engine.panels import Engine
from repro.flow.artifacts import MetricsArtifact, RefineArtifact, RoutingArtifact
from repro.flow.graph import ArtifactStore, FlowContext, FlowGraph, Stage
from repro.flow.runner import FlowRunner
from repro.flow.stages import (
    budgeting_stage,
    metrics_stage,
    panels_of,
    refine_stage,
    route_stage,
    solve_panels_stage,
)
from repro.grid.nets import Netlist
from repro.grid.regions import RoutingGrid
from repro.gsino.budgeting import NetBudget
from repro.gsino.config import GsinoConfig
from repro.gsino.pipeline import FlowResult

#: Canonical artifact names of the comparison universe.
BUDGETS = "budgets"
ROUTE_BASELINE = "route_baseline"
ROUTE_RESERVED = "route_reserved"
PANELS_ID_NO = "panels_id_no"
PANELS_ISINO = "panels_isino"
PANELS_GSINO = "panels_gsino"
REFINE_GSINO = "refine_gsino"
METRICS_ID_NO = "metrics_id_no"
METRICS_ISINO = "metrics_isino"
METRICS_GSINO = "metrics_gsino"

#: One-line flow summaries (``repro flows --list``).
FLOW_DESCRIPTIONS: Dict[str, str] = {
    "id_no": "conventional ID routing + per-region net ordering (no shields)",
    "isino": "conventional ID routing + full per-region SINO",
    "gsino": "three-phase GSINO: budgeting, reserved routing, SINO, refinement",
}


def _stage_table() -> Dict[str, Stage]:
    """The shared artifact -> stage table behind every flow graph."""
    return {
        BUDGETS: budgeting_stage(),
        ROUTE_BASELINE: route_stage("baseline"),
        ROUTE_RESERVED: route_stage("reserved"),
        PANELS_ID_NO: solve_panels_stage(ROUTE_BASELINE, solver="ordering"),
        PANELS_ISINO: solve_panels_stage(ROUTE_BASELINE, solver="sino"),
        PANELS_GSINO: solve_panels_stage(ROUTE_RESERVED, solver="sino"),
        REFINE_GSINO: refine_stage(ROUTE_RESERVED, PANELS_GSINO),
        METRICS_ID_NO: metrics_stage(ROUTE_BASELINE, PANELS_ID_NO),
        METRICS_ISINO: metrics_stage(ROUTE_BASELINE, PANELS_ISINO),
        METRICS_GSINO: metrics_stage(ROUTE_RESERVED, REFINE_GSINO),
    }


#: (routing, final panels, metrics, optional refine) artifacts per flow.
_FLOW_ARTIFACTS: Dict[str, Tuple[str, str, str, Optional[str]]] = {
    "id_no": (ROUTE_BASELINE, PANELS_ID_NO, METRICS_ID_NO, None),
    "isino": (ROUTE_BASELINE, PANELS_ISINO, METRICS_ISINO, None),
    "gsino": (ROUTE_RESERVED, REFINE_GSINO, METRICS_GSINO, REFINE_GSINO),
}

_STAGES: Dict[str, Stage] = _stage_table()

_GRAPHS: Dict[str, FlowGraph] = {
    name: FlowGraph(name=name, stages=_STAGES, targets=(_FLOW_ARTIFACTS[name][2],))
    for name in FLOW_NAMES
}


def flow_graph(name: str) -> FlowGraph:
    """The registered graph of one flow."""
    try:
        return _GRAPHS[name]
    except KeyError:
        raise KeyError(f"unknown flow {name!r}; registered: {sorted(_GRAPHS)}") from None


def list_flows() -> List[Tuple[str, str]]:
    """(name, description) of every registered flow, in comparison order."""
    return [(name, FLOW_DESCRIPTIONS[name]) for name in FLOW_NAMES]


def build_context(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    engine: Optional[Engine] = None,
) -> FlowContext:
    """One shared context per routing instance (built once, threaded through
    every flow of a comparison)."""
    return FlowContext.build(grid, netlist, config=config, engine=engine)


@dataclass
class CompareOutcome:
    """A finished three-flow comparison plus its runner (execution stats)."""

    results: Dict[str, FlowResult]
    runner: FlowRunner


def run_flow(
    name: str,
    context: FlowContext,
    store: Optional[ArtifactStore] = None,
    runner: Optional[FlowRunner] = None,
    seeds: Optional[Mapping[str, object]] = None,
) -> FlowResult:
    """Materialise one flow's graph and assemble its :class:`FlowResult`.

    Passing an existing ``runner`` shares previously materialised artifacts
    (and their store); ``seeds`` installs precomputed artifact values (e.g.
    budgets) under their normal signatures before materialisation.
    """
    graph = flow_graph(name)
    runner = runner or FlowRunner(context, store=store)
    for artifact, value in (seeds or {}).items():
        runner.seed(graph, artifact, value)
    return _assemble(name, graph, runner)


def run_compare(
    context: FlowContext,
    store: Optional[ArtifactStore] = None,
    runner: Optional[FlowRunner] = None,
) -> CompareOutcome:
    """Run ID+NO, iSINO and GSINO over one shared runner.

    Shared ancestors (the baselines' routing, the budgets) are materialised
    exactly once; with a ``store``, a repeated comparison restores every
    stage artifact and executes nothing.
    """
    runner = runner or FlowRunner(context, store=store)
    results = {name: _assemble(name, flow_graph(name), runner) for name in FLOW_NAMES}
    return CompareOutcome(results=results, runner=runner)


def _assemble(name: str, graph: FlowGraph, runner: FlowRunner) -> FlowResult:
    """Materialise a flow and fold its artifacts into the legacy result type."""
    engine = runner.context.engine
    start = time.perf_counter()
    stats_before = engine.cache_stats()
    first_execution = len(runner.executions)
    artifacts = runner.materialize(graph)
    elapsed = time.perf_counter() - start

    routing_name, panels_name, metrics_name, refine_name = _FLOW_ARTIFACTS[name]
    routing = cast(RoutingArtifact, artifacts[routing_name])
    metrics = cast(MetricsArtifact, artifacts[metrics_name])
    panels = panels_of(artifacts[panels_name])
    phase3_report = None
    if refine_name is not None:
        phase3_report = cast(RefineArtifact, artifacts[refine_name]).report
    stage_timings = {
        execution.artifact: execution.seconds
        for execution in runner.executions[first_execution:]
    }
    return FlowResult(
        name=name,
        routing=routing.routing,
        panels=dict(panels),
        budgets=cast(Dict[int, NetBudget], artifacts[BUDGETS]),
        metrics=metrics.metrics,
        congestion=metrics.congestion,
        router_report=routing.report,
        phase3_report=phase3_report,
        runtime_seconds=elapsed,
        cache_stats=None if engine.cache is None else engine.cache_stats() - stats_before,
        stage_timings=stage_timings,
    )
