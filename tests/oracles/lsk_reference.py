"""Scalar reference of the per-net LSK evaluation (Equation 1).

This is the historic walk: every call looks the net's source and sink
regions up again and runs one breadth-first search per sink over the route
tree, stopping at the sink.  :func:`repro.gsino.metrics.net_lsk_value`,
which reads the routing's memoised :class:`~repro.gsino.metrics.SinkPathIndex`
(one search per net), must return values equal (``==``) to it; the test
suite asserts it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional

from repro.grid.regions import RegionCoord
from repro.grid.routes import RouteTree, RoutingSolution
from repro.gsino.config import UM_TO_M
from repro.gsino.metrics import PanelKey


def path_between_reference(
    route: RouteTree, start: RegionCoord, goal: RegionCoord
) -> List[RegionCoord]:
    """Tree path from ``start`` to ``goal`` by a search that stops at ``goal``."""
    if start == goal:
        return [start]
    adjacency = route.adjacency()
    if start not in adjacency or goal not in adjacency:
        raise ValueError(f"regions {start} / {goal} are not on the route of net {route.net_id}")
    parents: Dict[RegionCoord, Optional[RegionCoord]] = {start: None}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if current == goal:
            break
        for neighbour in adjacency[current]:
            if neighbour not in parents:
                parents[neighbour] = current
                queue.append(neighbour)
    if goal not in parents:
        raise ValueError(f"regions {start} and {goal} are disconnected on net {route.net_id}")
    path: List[RegionCoord] = [goal]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def net_lsk_value_reference(
    net_id: int,
    routing: RoutingSolution,
    couplings: Mapping[PanelKey, Mapping[int, float]],
    length_scale: float = 1.0,
) -> float:
    """Worst-sink LSK value of one net, walking each source-sink path anew."""
    net = routing.netlist.net(net_id)
    route = routing.route(net_id)
    grid = routing.grid
    source_region = grid.region_of_point(net.source.x, net.source.y).coord
    worst = 0.0
    for sink in net.sinks:
        sink_region = grid.region_of_point(sink.x, sink.y).coord
        path = path_between_reference(route, source_region, sink_region)
        lsk_value = 0.0
        for coord_a, coord_b in zip(path, path[1:]):
            direction = grid.edge_direction(coord_a, coord_b)
            half_length_m = grid.edge_length(coord_a, coord_b) / 2.0 * UM_TO_M * length_scale
            for coord in (coord_a, coord_b):
                coupling = couplings.get((coord, direction), {}).get(net_id, 0.0)
                lsk_value += half_length_m * coupling
        if lsk_value > worst:
            worst = lsk_value
    return worst
