"""Scalar reference of the iterative-deletion router.

This is the historic router: per-net connection graphs over coordinate
tuples, every heap pop re-deriving the edge's direction and length, looking
up its two resources and evaluating Formula 3 once per ``density`` /
``relative_overflow`` read, and every deletability check a one-sided
breadth-first search from the first pin that normalises each visited edge
before comparing it with the skipped one.
:class:`repro.router.iterative_deletion.IterativeDeletionRouter` must return
identical routes — down to the iteration order of each tree's edges — and
identical :class:`RouterReport` counters; the test suite and
``benchmarks/bench_id_router.py`` assert it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.grid.nets import Net, Netlist
from repro.grid.regions import RegionCoord, RoutingGrid
from repro.grid.routes import GridEdge, RouteTree, RoutingSolution, normalize_edge
from repro.grid.steiner import rsmt_length_estimate
from repro.router.iterative_deletion import RouterReport
from repro.router.weights import WeightConfig, edge_weight
from repro.sino.estimate import ShieldEstimator, default_shield_estimator

ResourceKey = Tuple[RegionCoord, str]


@dataclass
class _ReferenceDemand:
    """Running sums of one (region, direction); pressure derived per read."""

    capacity: int
    num_nets: int = 0
    sum_rates: float = 0.0
    sum_rates_sq: float = 0.0

    def shield_estimate(self, coefficients: Optional[Tuple[float, ...]]) -> float:
        if coefficients is None or self.num_nets == 0:
            return 0.0
        n = float(self.num_nets)
        features = (
            self.sum_rates_sq,
            self.sum_rates_sq / n,
            self.sum_rates,
            self.sum_rates / n,
            n,
            1.0,
        )
        value = float(sum(f * c for f, c in zip(features, coefficients)))
        return max(value, 0.0)

    def utilization(self, coefficients: Optional[Tuple[float, ...]]) -> float:
        return self.num_nets + self.shield_estimate(coefficients)

    def density(self, coefficients: Optional[Tuple[float, ...]]) -> float:
        if self.capacity <= 0:
            return 0.0
        return self.utilization(coefficients) / self.capacity

    def relative_overflow(self, coefficients: Optional[Tuple[float, ...]]) -> float:
        if self.capacity <= 0:
            return 0.0
        return max(0.0, self.utilization(coefficients) - self.capacity) / self.capacity


class ConnectionGraph:
    """The mutable connection graph ``G_i`` of one net during deletion."""

    def __init__(self, net_id: int, pin_regions: Iterable[RegionCoord]) -> None:
        self.net_id = net_id
        self.pin_regions: Tuple[RegionCoord, ...] = tuple(dict.fromkeys(pin_regions))
        if not self.pin_regions:
            raise ValueError(f"net {net_id} has no pin regions")
        self._adjacency: Dict[RegionCoord, Set[RegionCoord]] = {}
        self._edges: Set[GridEdge] = set()

    def add_node(self, coord: RegionCoord) -> None:
        self._adjacency.setdefault(coord, set())

    def add_edge(self, coord_a: RegionCoord, coord_b: RegionCoord) -> None:
        self.add_node(coord_a)
        self.add_node(coord_b)
        self._adjacency[coord_a].add(coord_b)
        self._adjacency[coord_b].add(coord_a)
        self._edges.add(normalize_edge(coord_a, coord_b))

    def remove_edge(self, coord_a: RegionCoord, coord_b: RegionCoord) -> None:
        self._edges.remove(normalize_edge(coord_a, coord_b))
        self._adjacency[coord_a].discard(coord_b)
        self._adjacency[coord_b].discard(coord_a)

    def edges(self) -> Set[GridEdge]:
        """Copy of the current edge set."""
        return set(self._edges)

    def has_edge(self, coord_a: RegionCoord, coord_b: RegionCoord) -> bool:
        return normalize_edge(coord_a, coord_b) in self._edges

    def neighbors(self, coord: RegionCoord) -> Set[RegionCoord]:
        return set(self._adjacency.get(coord, set()))


def build_connection_graph(
    net: Net, grid: RoutingGrid, bounding_box_margin: int = 0
) -> ConnectionGraph:
    """The full grid graph of the net's (margin-expanded) pin bounding box."""
    pin_regions = net.pin_regions(grid)
    graph = ConnectionGraph(net_id=net.net_id, pin_regions=pin_regions)
    box = grid.bounding_box_regions(pin_regions, margin=bounding_box_margin)
    box_set = set(box)
    for coord in box:
        graph.add_node(coord)
    for coord in box:
        for neighbour in grid.neighbors(coord):
            if neighbour in box_set and coord < neighbour:
                graph.add_edge(coord, neighbour)
    return graph


def pins_connected_reference(graph: ConnectionGraph, skip_edge: Optional[GridEdge] = None) -> bool:
    """BFS from the first pin that normalises every visited edge; True when it
    reaches every pin without crossing ``skip_edge``."""
    if len(graph.pin_regions) <= 1:
        return True
    start = graph.pin_regions[0]
    targets = set(graph.pin_regions)
    seen: Set[RegionCoord] = {start}
    queue = deque([start])
    found = {start}
    while queue and len(found) < len(targets):
        current = queue.popleft()
        for neighbour in graph.neighbors(current):
            if normalize_edge(current, neighbour) == skip_edge:
                continue
            if neighbour in seen:
                continue
            seen.add(neighbour)
            if neighbour in targets:
                found.add(neighbour)
            queue.append(neighbour)
    return len(found) == len(targets)


def prune_to_tree(graph: ConnectionGraph) -> RouteTree:
    """Prune a final connection graph down to its pin-spanning tree.

    Repeatedly removes degree-one vertices that are not pin regions, then
    drops every component that contains no pin region.  Raises ``ValueError``
    if the pins are not connected (the router guarantees they are).
    """
    if not pins_connected_reference(graph):
        raise ValueError(
            f"net {graph.net_id}: pin regions are disconnected, cannot realise a route tree"
        )
    adjacency: Dict[RegionCoord, Set[RegionCoord]] = {}
    for edge in graph.edges():
        coord_a, coord_b = edge
        adjacency.setdefault(coord_a, set()).add(coord_b)
        adjacency.setdefault(coord_b, set()).add(coord_a)
    for pin in graph.pin_regions:
        adjacency.setdefault(pin, set())

    pins = set(graph.pin_regions)

    # Iteratively strip non-pin leaves.
    leaves: List[RegionCoord] = [
        coord for coord, neighbours in adjacency.items()
        if len(neighbours) <= 1 and coord not in pins
    ]
    while leaves:
        leaf = leaves.pop()
        neighbours = adjacency.pop(leaf, set())
        for neighbour in neighbours:
            adjacency[neighbour].discard(leaf)
            if len(adjacency[neighbour]) <= 1 and neighbour not in pins:
                leaves.append(neighbour)

    # Keep only the component(s) containing pins (after pruning there is one).
    reachable: Set[RegionCoord] = set()
    stack: List[RegionCoord] = [pin for pin in pins if pin in adjacency]
    reachable.update(stack)
    while stack:
        current = stack.pop()
        for neighbour in adjacency.get(current, set()):
            if neighbour not in reachable:
                reachable.add(neighbour)
                stack.append(neighbour)

    edges: Set[GridEdge] = set()
    for coord, neighbours in adjacency.items():
        if coord not in reachable:
            continue
        for neighbour in neighbours:
            if neighbour in reachable:
                edges.add(normalize_edge(coord, neighbour))

    return RouteTree(
        net_id=graph.net_id,
        pin_regions=graph.pin_regions,
        edges=frozenset(edges),
    )


def route_netlist_reference(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[WeightConfig] = None,
    shield_estimator: Optional[ShieldEstimator] = None,
) -> Tuple[RoutingSolution, RouterReport]:
    """Iterative deletion with every weight re-derived from scratch."""
    config = config or WeightConfig()
    coefficients: Optional[Tuple[float, ...]] = None
    if config.reserve_shields:
        estimator = shield_estimator or default_shield_estimator()
        coefficients = tuple(float(c) for c in estimator.coefficients.as_array())

    graphs: Dict[int, ConnectionGraph] = {}
    demand: Dict[ResourceKey, _ReferenceDemand] = {}
    touch_counts: Dict[Tuple[int, ResourceKey], int] = {}
    rsmt_length: Dict[int, float] = {}
    rates: Dict[int, float] = {}
    report = RouterReport(num_nets=netlist.num_nets)

    def resource(key: ResourceKey) -> _ReferenceDemand:
        if key not in demand:
            coord, direction = key
            demand[key] = _ReferenceDemand(capacity=grid.region(coord).capacity(direction))
        return demand[key]

    def edge_resources(edge: GridEdge) -> Tuple[ResourceKey, ResourceKey]:
        coord_a, coord_b = edge
        direction = grid.edge_direction(coord_a, coord_b)
        return (coord_a, direction), (coord_b, direction)

    def weight_of(net_id: int, edge: GridEdge) -> float:
        coord_a, coord_b = edge
        normalized_length = grid.edge_length(coord_a, coord_b) / rsmt_length[net_id]
        key_a, key_b = edge_resources(edge)
        resource_a = resource(key_a)
        resource_b = resource(key_b)
        density = (resource_a.density(coefficients) + resource_b.density(coefficients)) / 2.0
        overflow = (
            resource_a.relative_overflow(coefficients)
            + resource_b.relative_overflow(coefficients)
        ) / 2.0
        return edge_weight(config, normalized_length, density, overflow)

    for net in netlist.nets():
        rate = rates[net.net_id] = netlist.sensitivity_rate(net.net_id)
        graph = build_connection_graph(net, grid, config.bounding_box_margin)
        graphs[net.net_id] = graph
        estimate = rsmt_length_estimate(list(net.pins))
        rsmt_length[net.net_id] = max(estimate, min(grid.region_width, grid.region_height))
        for edge in graph.edges():
            for key in edge_resources(edge):
                previous = touch_counts.get((net.net_id, key), 0)
                touch_counts[(net.net_id, key)] = previous + 1
                if previous == 0:
                    target = resource(key)
                    target.num_nets += 1
                    target.sum_rates += rate
                    target.sum_rates_sq += rate * rate
            report.initial_edges += 1

    counter = itertools.count()
    heap: List[Tuple[float, int, int, GridEdge]] = []
    for net_id, graph in graphs.items():
        for edge in graph.edges():
            heapq.heappush(heap, (-weight_of(net_id, edge), next(counter), net_id, edge))

    while heap:
        negative_weight, _, net_id, edge = heapq.heappop(heap)
        graph = graphs[net_id]
        if not graph.has_edge(*edge):
            continue
        current_weight = weight_of(net_id, edge)
        popped_weight = -negative_weight
        stale_margin = config.weight_tolerance * max(popped_weight, 1.0) + 1e-9
        if current_weight < popped_weight - stale_margin:
            heapq.heappush(heap, (-current_weight, next(counter), net_id, edge))
            report.heap_repushes += 1
            continue
        if not pins_connected_reference(graph, edge):
            report.kept_edges += 1
            continue
        graph.remove_edge(*edge)
        rate = rates[net_id]
        for key in edge_resources(edge):
            remaining = touch_counts[(net_id, key)] - 1
            touch_counts[(net_id, key)] = remaining
            if remaining == 0:
                target = resource(key)
                target.num_nets -= 1
                target.sum_rates -= rate
                target.sum_rates_sq -= rate * rate
        report.deleted_edges += 1

    routes: Dict[int, RouteTree] = {
        net_id: prune_to_tree(graph) for net_id, graph in graphs.items()
    }
    return RoutingSolution(grid, netlist, routes), report
