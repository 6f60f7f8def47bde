"""Historic per-call panel membership walks, kept for the panel-index tests.

Before a routing carried a memoised :class:`~repro.grid.routes.PanelIndex`,
every consumer re-walked ``RouteTree.direction_usage``: the congestion map
filled its net sets in a walk of ``routes.items()``, Phase III listed a
net's panels in the order ``direction_usage`` yields them, and the panel
problems were built from the congestion map's sets.  These copies keep
those walks, so the index and the shared problems are checked against code
that does not read them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.grid.nets import Netlist
from repro.grid.regions import HORIZONTAL, VERTICAL
from repro.grid.routes import PanelKey, RoutingSolution
from repro.gsino.budgeting import NetBudget, bounds_for_nets
from repro.gsino.config import GsinoConfig
from repro.sino.panel import SinoProblem


def panel_members_reference(routing: RoutingSolution) -> Dict[PanelKey, List[int]]:
    """Each occupied panel's nets, in the order the historic walk added them."""
    members: Dict[PanelKey, List[int]] = {}
    for net_id, route in routing.routes.items():
        for coord, directions in route.direction_usage(routing.grid).items():
            for direction in directions:
                members.setdefault((coord, direction), []).append(net_id)
    return members


def panel_keys_reference(routing: RoutingSolution, net_id: int) -> List[PanelKey]:
    """The historic ``LocalRefiner.panel_keys_of`` order of one net's panels.

    Within a region, horizontal before vertical: the historic walk iterated
    the set of directions, whose order followed the process's hash seed.
    """
    usage = routing.route(net_id).direction_usage(routing.grid)
    return [
        (coord, direction)
        for coord, directions in usage.items()
        for direction in (HORIZONTAL, VERTICAL)
        if direction in directions
    ]


def scalar_panel_problems(
    routing: RoutingSolution,
    netlist: Netlist,
    budgets: Mapping[int, NetBudget],
    config: GsinoConfig,
) -> Dict[PanelKey, SinoProblem]:
    """``build_panel_problems`` with the relation decided pair by pair."""
    problems: Dict[PanelKey, SinoProblem] = {}
    for (coord, direction), members in panel_members_reference(routing).items():
        nets = sorted(members)
        sensitivity = {
            net: {other for other in nets if netlist.are_sensitive(net, other)}
            for net in nets
        }
        bounds = bounds_for_nets(budgets, nets)
        problems[(coord, direction)] = SinoProblem.build(
            segments=nets,
            sensitivity=sensitivity,
            kth=bounds,
            default_kth=max(bounds.values(), default=1.0),
            capacity=routing.grid.region(coord).capacity(direction),
            keff_model=config.keff_model,
        )
    return problems
