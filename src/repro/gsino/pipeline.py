"""End-to-end flow drivers: GSINO and the flow-comparison harness.

Since the stage-graph refactor these drivers are thin shims over
:mod:`repro.flow`: each flow is a declarative graph of reusable stages
(budgeting, routing, panel solving, refinement, metrics) materialised by a
:class:`~repro.flow.runner.FlowRunner`, which memoises stage artifacts by
content signature, shares common ancestors across flows and — when a
persistent store is attached — resumes interrupted runs stage-granular.
The legacy monolithic implementation is retained verbatim in
``tests/oracles/gsino_reference.py`` as the golden-equivalence oracle; the
staged flows are bit-identical to it on every Table 1–3 quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.engine.cache import CacheStats, SolutionCache
from repro.engine.panels import Engine
from repro.grid.congestion import CongestionMap
from repro.grid.nets import Netlist
from repro.grid.regions import RoutingGrid
from repro.grid.routes import RoutingSolution
from repro.gsino.budgeting import NetBudget
from repro.gsino.config import GsinoConfig
from repro.gsino.metrics import FlowMetrics, PanelKey
from repro.gsino.phase3 import Phase3Report
from repro.router.iterative_deletion import RouterReport
from repro.sino.panel import SinoSolution

__all__ = ["FlowResult", "run_gsino", "compare_flows"]


@dataclass
class FlowResult:
    """Everything one flow (ID+NO, iSINO or GSINO) produced on one instance.

    Attributes
    ----------
    name:
        Flow name: ``"id_no"``, ``"isino"`` or ``"gsino"``.
    routing:
        The global routing solution.
    panels:
        Per-(region, direction) panel solutions.
    budgets:
        The per-net crosstalk budgets used (identical across flows on the
        same instance and configuration).
    metrics:
        The Table 1–3 quantities.
    congestion:
        Final congestion map (shields included).
    router_report:
        Statistics of the ID run.
    phase3_report:
        Present only for the GSINO flow.
    runtime_seconds:
        Wall-clock time of the flow.  In a ``compare`` run, work shared
        with an earlier flow (the baselines' common routing, the budgets)
        is charged to the flow that materialised it; ``stage_timings``
        breaks the number down.
    cache_stats:
        Solution-cache traffic attributed to this flow (hits/misses while it
        ran, including ``store_hits`` served by a persistent result store
        when the engine's cache is backed by one); ``None`` when the flow
        ran without a cache.
    stage_timings:
        Per-stage wall-clock breakdown (artifact name -> seconds).  Stages
        shared with an earlier flow of the same comparison, or restored
        from a persistent store, show their (near-zero) reuse cost — which
        is what makes stage-sharing speedups visible in ``repro compare``.
        ``None`` for results produced by the legacy reference pipeline.
    """

    name: str
    routing: RoutingSolution
    panels: Dict[PanelKey, SinoSolution]
    budgets: Dict[int, NetBudget]
    metrics: FlowMetrics
    congestion: CongestionMap
    router_report: RouterReport
    phase3_report: Optional[Phase3Report] = None
    runtime_seconds: float = 0.0
    cache_stats: Optional[CacheStats] = None
    stage_timings: Optional[Dict[str, float]] = field(default=None)

    @property
    def num_violations(self) -> int:
        """Number of crosstalk-violating nets (Table 1)."""
        return self.metrics.crosstalk.num_violations

    @property
    def average_wirelength_um(self) -> float:
        """Average wire length per net (Table 2)."""
        return self.metrics.average_wirelength_um

    @property
    def routing_area_um2(self) -> float:
        """Routing area (Table 3)."""
        return self.metrics.area.area


def run_gsino(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    budgets: Optional[Dict[int, NetBudget]] = None,
    engine: Optional[Engine] = None,
) -> FlowResult:
    """Run the complete three-phase GSINO flow on one routing instance.

    ``engine`` supplies the execution backend and (optionally shared)
    solution cache for the per-panel SINO solves of Phases II and III;
    ``None`` solves serially without caching.  Results are bit-identical
    for every engine configuration.  Precomputed ``budgets`` are seeded
    into the stage graph (memoised in memory, never persisted).
    """
    # Imported here: the flow layer sits above gsino and imports this module.
    from repro.flow.flows import BUDGETS, build_context, run_flow

    config = config or GsinoConfig()
    engine = engine or Engine()
    context = build_context(grid, netlist, config, engine)
    seeds = None if budgets is None else {BUDGETS: budgets}
    return run_flow("gsino", context, seeds=seeds)


def compare_flows(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    engine: Optional[Engine] = None,
) -> Dict[str, FlowResult]:
    """Run ID+NO, iSINO and GSINO on the same instance and configuration.

    The three flows are materialised over one stage-graph runner, so every
    shared ancestor — the baselines' common routing run, the budgets all
    three read — is computed exactly once per comparison, and all flows
    share one execution engine (and therefore one solution cache), so a
    panel instance that recurs across flows is solved once.  When no engine
    is supplied a serial engine with a fresh cache is created.

    Backing the engine's cache with a persistent store
    (``SolutionCache(store=ResultStore(dir))``) extends that guarantee
    across *processes* at panel granularity.  Passing the same store to
    :func:`repro.flow.flows.run_compare` instead persists whole stage
    artifacts, so a repeated comparison executes no stage at all; each
    stage's panels are then stored once, inside its artifact, and not as
    per-panel blobs (``repro compare --store DIR`` works this way).
    """
    from repro.flow.flows import build_context, run_compare

    config = config or GsinoConfig()
    engine = engine or Engine(cache=SolutionCache())
    context = build_context(grid, netlist, config, engine)
    return run_compare(context).results
