"""The two baseline flows of the paper's experiments: ID+NO and iSINO.

* **ID+NO** — the ID router minimises wire length and congestion only (no
  shield reservation in Formula 2), then net ordering runs inside each region
  to remove as much capacitive coupling as possible.  No shields are inserted
  and no inductive bound is enforced, which is why Table 1 finds 14–24 % of
  nets violating the RLC crosstalk constraint.
* **iSINO** — the same conventional routing, followed by a full SINO solve
  inside every region.  Crosstalk is fixed, but because the router never knew
  about shields the area overhead is much larger than GSINO's (Table 3).

Both baselines are stage graphs over :mod:`repro.flow` that differ only in
their panel-solver stage; their shared ancestors — the conventional routing
run and the budgets — are materialised once per runner, exactly as in the
paper ("ID-based global router to minimize wire length and congestion only"
for both).  The pre-refactor monoliths live in the test oracle
``tests/oracles/gsino_reference.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.panels import Engine
from repro.grid.nets import Netlist
from repro.grid.regions import RoutingGrid
from repro.gsino.budgeting import NetBudget
from repro.gsino.config import GsinoConfig
from repro.gsino.pipeline import FlowResult


def run_baseline_flows(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    budgets: Optional[Dict[int, NetBudget]] = None,
    engine: Optional[Engine] = None,
) -> Dict[str, FlowResult]:
    """Run ID+NO and iSINO sharing a single conventional routing run.

    Both flows dispatch their per-region solves through ``engine`` (serial,
    uncached when ``None``); each records its own wall-clock runtime, its
    per-stage timing breakdown and its share of the cache traffic.
    """
    # Imported here: the flow layer sits above gsino and imports this package.
    from repro.flow.flows import BUDGETS, build_context, run_flow
    from repro.flow.runner import FlowRunner

    config = config or GsinoConfig()
    engine = engine or Engine()
    context = build_context(grid, netlist, config, engine)
    runner = FlowRunner(context)
    seeds = None if budgets is None else {BUDGETS: budgets}
    return {
        name: run_flow(name, context, runner=runner, seeds=seeds)
        for name in ("id_no", "isino")
    }


def run_id_no(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    engine: Optional[Engine] = None,
) -> FlowResult:
    """Run only the ID+NO baseline."""
    from repro.flow.flows import build_context, run_flow

    context = build_context(grid, netlist, config or GsinoConfig(), engine or Engine())
    return run_flow("id_no", context)


def run_isino(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[GsinoConfig] = None,
    engine: Optional[Engine] = None,
) -> FlowResult:
    """Run only the iSINO baseline."""
    from repro.flow.flows import build_context, run_flow

    context = build_context(grid, netlist, config or GsinoConfig(), engine or Engine())
    return run_flow("isino", context)
