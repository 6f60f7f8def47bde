"""Phase II: a SINO solution inside every routing region.

After Phase I every net has a route tree and a per-segment bound ``Kth``.
Phase II walks every (region, direction) panel, collects the net segments
routed through it, restricts the sensitivity relation to those nets, and
solves the SINO instance under the partitioned bounds (Section 3, Phase II —
the SINO algorithm itself is the referenced He–Lepak heuristic, reproduced in
:mod:`repro.sino`).

The same function also serves the two baseline flows: ID+NO orders nets
without shields (``solver="ordering"``), iSINO runs full SINO on the
baseline routing (``solver="sino"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.panels import Engine
from repro.grid.nets import Netlist
from repro.grid.routes import PanelIndex, RoutingSolution
from repro.gsino.budgeting import NetBudget, bounds_for_nets
from repro.gsino.config import GsinoConfig
from repro.gsino.metrics import PanelKey
from repro.sino.panel import SinoProblem, SinoSolution


@dataclass
class Phase2Result:
    """Per-region SINO (or net-ordering) solutions.

    Attributes
    ----------
    panels:
        Mapping from (region coordinate, direction) to the panel solution.
    problems:
        The SINO problem instance of each panel (Phase III re-solves them
        under modified bounds).

    Both mappings are populated in sorted panel-key order regardless of the
    execution backend, so repeated runs diff cleanly.
    """

    panels: Dict[PanelKey, SinoSolution] = field(default_factory=dict)
    problems: Dict[PanelKey, SinoProblem] = field(default_factory=dict)

    @property
    def total_shields(self) -> int:
        """Total shield tracks over all panels."""
        return sum(solution.num_shields for solution in self.panels.values())

    def num_invalid_panels(self) -> int:
        """Number of panels whose solution still violates a SINO constraint."""
        return sum(1 for solution in self.panels.values() if not solution.is_valid())


#: The budget-independent part of one panel's problem: its sorted segment
#: ids, their sensitivity matrix and the panel's track capacity.
PanelSkeleton = Tuple[Tuple[int, ...], np.ndarray, int]


def _bounds_vector(budgets: Mapping[int, NetBudget], nets: Sequence[int]) -> np.ndarray:
    """Per-segment ``Kth`` bounds; nets without a budget get the panel's largest."""
    bounds = bounds_for_nets(budgets, nets)
    default_kth = max(bounds.values(), default=1.0)
    return np.array([bounds.get(net, default_kth) for net in nets], dtype=np.float64)


def build_panel_problem(
    net_ids,
    netlist: Netlist,
    budgets: Mapping[int, NetBudget],
    capacity: int,
    config: GsinoConfig,
) -> SinoProblem:
    """Construct the SINO instance of one panel.

    The oracle answers the panel's relation as one matrix query; nets
    without a budget get the panel's largest budgeted bound.
    """
    nets = sorted(net_ids)
    return SinoProblem(
        segments=tuple(nets),
        sens=netlist.sensitivity.relation_matrix(nets),
        bounds=_bounds_vector(budgets, nets),
        capacity=capacity,
        keff_model=config.keff_model,
    )


def panel_skeletons(routing: RoutingSolution) -> Dict[PanelKey, PanelSkeleton]:
    """One skeleton per occupied panel of a routing, memoised on the routing.

    Every flow over the routing (ID+NO and iSINO share the baseline one)
    builds its problems from these, so the oracle's ``relation_matrix`` runs
    once per panel per routing.  The matrices are read-only once the first
    :class:`SinoProblem` over them is built, so sharing them is safe.
    """

    def build() -> Dict[PanelKey, PanelSkeleton]:
        relation_matrix = routing.netlist.sensitivity.relation_matrix
        return {
            key: (panel.segments, relation_matrix(panel.segments), panel.capacity)
            for key, panel in PanelIndex.of(routing).panels.items()
        }

    return routing.memo(panel_skeletons, build)


def build_panel_problems(
    routing: RoutingSolution,
    netlist: Netlist,
    budgets: Mapping[int, NetBudget],
    config: GsinoConfig,
) -> Dict[PanelKey, SinoProblem]:
    """Construct the SINO instance of every occupied panel of a routing.

    The problems are the routing's shared :func:`panel_skeletons` plus this
    call's bound vectors; ``netlist`` must be the routing's own.
    """
    if netlist is not routing.netlist:
        raise ValueError("build_panel_problems needs the netlist the routing was built on")
    return {
        key: SinoProblem(
            segments=segments,
            sens=sens,
            bounds=_bounds_vector(budgets, segments),
            capacity=capacity,
            keff_model=config.keff_model,
        )
        for key, (segments, sens, capacity) in panel_skeletons(routing).items()
    }


def run_phase2(
    routing: RoutingSolution,
    netlist: Netlist,
    budgets: Mapping[int, NetBudget],
    config: GsinoConfig,
    solver: str = "sino",
    engine: Optional[Engine] = None,
) -> Phase2Result:
    """Solve every panel of a routing solution.

    Parameters
    ----------
    routing:
        The global routing whose panels are to be solved.
    netlist:
        Netlist supplying the sensitivity relation.
    budgets:
        Per-net crosstalk budgets (segment Kth bounds).
    config:
        Flow configuration (SINO effort, Keff model).
    solver:
        ``"sino"`` for simultaneous shield insertion and net ordering,
        ``"ordering"`` for net ordering only (the ID+NO baseline).
    engine:
        Execution engine the panel solves are dispatched through; ``None``
        solves serially without caching.  Panel keys are processed in sorted
        order and results are bit-identical across backends.
    """
    if solver not in ("sino", "ordering"):
        raise ValueError(f"unknown panel solver {solver!r} (expected 'sino' or 'ordering')")
    engine = engine or Engine()
    problems = build_panel_problems(routing, netlist, budgets, config)
    solutions = engine.solve_panels(
        problems, solver=solver, effort=config.sino_effort, anneal=config.anneal
    )
    result = Phase2Result()
    for key in sorted(problems):
        result.problems[key] = problems[key]
        result.panels[key] = solutions[key]
    return result
