"""The iterative-deletion (ID) global router.

Every net starts with the complete grid graph of its pin bounding box.  The
router repeatedly removes the edge with the largest Formula 2 weight — over
*all* nets simultaneously, which is what makes the result independent of any
net ordering — provided its removal keeps the net's pin regions connected.
When no removable edge remains, each net's graph has collapsed to a Steiner
tree over its pin regions.

Implementation notes
--------------------
* Edge weights change as edges disappear (deleting an edge can remove a net's
  demand from a region, lowering the density every other net sees there).
  A lazy max-heap handles this: entries are re-validated when popped and
  re-pushed with their current weight when stale.
* The utilisation ``HU = Nns + Nss`` of each (region, direction) is tracked
  incrementally: ``Nns`` as the number of nets still touching the region and
  ``Nss`` through running sums of net sensitivity rates feeding Formula 3.
  A resource's pressure (density and relative overflow) changes only when a
  net enters or leaves it, so it is cached and recomputed there, and each
  grid edge resolves its length and its two resources once per route: a
  heap pop reads the weight's inputs instead of re-deriving them.
* An edge that is found non-removable (its removal would disconnect the
  net's pins) can never become removable again — deletions only remove
  alternative paths — so it is discarded permanently.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.grid.nets import Netlist
from repro.grid.regions import RegionCoord, RoutingGrid
from repro.grid.routes import GridEdge, RouteTree, RoutingSolution
from repro.grid.steiner import rsmt_length_estimate
from repro.router.connection_graph import ConnectionGraph, build_connection_graph
from repro.router.realize import prune_to_tree
from repro.router.weights import WeightConfig, edge_weight
from repro.sino.estimate import ShieldEstimator, default_shield_estimator

#: Key identifying one routing resource: a region coordinate plus a direction.
ResourceKey = Tuple[RegionCoord, str]


@dataclass
class _ResourceDemand:
    """Incrementally maintained utilisation of one (region, direction).

    ``density`` and ``relative_overflow`` are cached: a resource's pressure
    changes only when a net enters or leaves it, so ``add_net`` and
    ``remove_net`` — the only mutators — recompute them, and every edge
    weight reads them without evaluating Formula 3.  ``coefficients`` are
    Formula 3's ``a1 .. a6`` as python floats (``None`` when reservation is
    off), hoisted out of the estimator once per router.
    """

    capacity: int
    coefficients: Optional[Tuple[float, ...]] = None
    num_nets: int = 0
    sum_rates: float = 0.0
    sum_rates_sq: float = 0.0
    density: float = 0.0
    relative_overflow: float = 0.0

    def add_net(self, rate: float) -> None:
        self.num_nets += 1
        self.sum_rates += rate
        self.sum_rates_sq += rate * rate
        self._refresh()

    def remove_net(self, rate: float) -> None:
        self.num_nets -= 1
        self.sum_rates -= rate
        self.sum_rates_sq -= rate * rate
        if self.num_nets < 0:
            raise RuntimeError("resource demand went negative; internal accounting error")
        self._refresh()

    def shield_estimate(self) -> float:
        """Formula 3 evaluated on the running sums (0 when reservation is off)."""
        if self.coefficients is None or self.num_nets == 0:
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
        value = float(sum(f * c for f, c in zip(features, self.coefficients)))
        return max(value, 0.0)

    def utilization(self) -> float:
        """``HU = Nns + Nss``."""
        return self.num_nets + self.shield_estimate()

    def _refresh(self) -> None:
        """Recompute ``HD = HU / HC`` and ``HOFR = max(0, HU - HC) / HC``."""
        if self.capacity <= 0:
            self.density = self.relative_overflow = 0.0
            return
        utilization = self.utilization()
        self.density = utilization / self.capacity
        self.relative_overflow = max(0.0, utilization - self.capacity) / self.capacity


class _EdgeGeometry(NamedTuple):
    """What a grid edge's weight needs, resolved once per route."""

    length: float
    keys: Tuple[ResourceKey, ResourceKey]
    resources: Tuple[_ResourceDemand, _ResourceDemand]


@dataclass
class RouterReport:
    """Statistics of one ID routing run."""

    num_nets: int = 0
    initial_edges: int = 0
    deleted_edges: int = 0
    kept_edges: int = 0
    heap_repushes: int = 0
    runtime_seconds: float = 0.0

    @property
    def final_edges(self) -> int:
        """Edges remaining across all nets when the router stopped."""
        return self.initial_edges - self.deleted_edges


class IterativeDeletionRouter:
    """Routes a netlist on a grid with the iterative-deletion algorithm."""

    def __init__(
        self,
        grid: RoutingGrid,
        netlist: Netlist,
        config: Optional[WeightConfig] = None,
        shield_estimator: Optional[ShieldEstimator] = None,
    ) -> None:
        self.grid = grid
        self.netlist = netlist
        self.config = config or WeightConfig()
        if self.config.reserve_shields:
            self.estimator: Optional[ShieldEstimator] = shield_estimator or default_shield_estimator()
        else:
            self.estimator = None
        # Formula 3's coefficients as python floats: each resource reads them
        # whenever a net enters or leaves it, and the products are the same
        # either way.
        self._coefficients: Optional[Tuple[float, ...]] = (
            None
            if self.estimator is None
            else tuple(float(c) for c in self.estimator.coefficients.as_array())
        )

        self._graphs: Dict[int, ConnectionGraph] = {}
        self._demand: Dict[ResourceKey, _ResourceDemand] = {}
        self._geometry: Dict[GridEdge, _EdgeGeometry] = {}
        self._touch_counts: Dict[Tuple[int, ResourceKey], int] = {}
        self._rsmt_length: Dict[int, float] = {}
        self._sensitivity_rate: Dict[int, float] = {}

    # -- demand bookkeeping ------------------------------------------------------

    def _resource(self, key: ResourceKey) -> _ResourceDemand:
        resource = self._demand.get(key)
        if resource is None:
            coord, direction = key
            capacity = self.grid.region(coord).capacity(direction)
            resource = _ResourceDemand(capacity=capacity, coefficients=self._coefficients)
            self._demand[key] = resource
        return resource

    def _edge_geometry(self, edge: GridEdge) -> _EdgeGeometry:
        geometry = self._geometry.get(edge)
        if geometry is None:
            coord_a, coord_b = edge
            direction = self.grid.edge_direction(coord_a, coord_b)
            key_a, key_b = (coord_a, direction), (coord_b, direction)
            geometry = _EdgeGeometry(
                length=self.grid.edge_length(coord_a, coord_b),
                keys=(key_a, key_b),
                resources=(self._resource(key_a), self._resource(key_b)),
            )
            self._geometry[edge] = geometry
        return geometry

    def _register_edge(self, net_id: int, edge: GridEdge) -> None:
        rate = self._sensitivity_rate[net_id]
        geometry = self._edge_geometry(edge)
        for key, resource in zip(geometry.keys, geometry.resources):
            count_key = (net_id, key)
            previous = self._touch_counts.get(count_key, 0)
            self._touch_counts[count_key] = previous + 1
            if previous == 0:
                resource.add_net(rate)

    def _unregister_edge(self, net_id: int, edge: GridEdge) -> None:
        rate = self._sensitivity_rate[net_id]
        geometry = self._geometry[edge]
        for key, resource in zip(geometry.keys, geometry.resources):
            count_key = (net_id, key)
            remaining = self._touch_counts.get(count_key, 0) - 1
            if remaining < 0:
                raise RuntimeError("edge unregistered more times than registered")
            self._touch_counts[count_key] = remaining
            if remaining == 0:
                resource.remove_net(rate)

    # -- weights -------------------------------------------------------------------

    def _edge_weight(self, net_id: int, edge: GridEdge) -> float:
        length, _keys, (resource_a, resource_b) = self._geometry[edge]
        normalized_length = length / self._rsmt_length[net_id]
        density = (resource_a.density + resource_b.density) / 2.0
        overflow = (resource_a.relative_overflow + resource_b.relative_overflow) / 2.0
        return edge_weight(self.config, normalized_length, density, overflow)

    # -- main entry point --------------------------------------------------------------

    def route(self) -> Tuple[RoutingSolution, RouterReport]:
        """Run iterative deletion and return the solution plus run statistics."""
        start = time.perf_counter()
        report = RouterReport(num_nets=self.netlist.num_nets)

        for net in self.netlist.nets():
            self._sensitivity_rate[net.net_id] = self.netlist.sensitivity_rate(net.net_id)
            graph = build_connection_graph(net, self.grid, self.config.bounding_box_margin)
            self._graphs[net.net_id] = graph
            estimate = rsmt_length_estimate(list(net.pins))
            minimum = min(self.grid.region_width, self.grid.region_height)
            self._rsmt_length[net.net_id] = max(estimate, minimum)
            for edge in graph.edges():
                self._register_edge(net.net_id, edge)
                report.initial_edges += 1

        counter = itertools.count()
        heap: List[Tuple[float, int, int, GridEdge]] = []
        for net_id, graph in self._graphs.items():
            for edge in graph.edges():
                weight = self._edge_weight(net_id, edge)
                heapq.heappush(heap, (-weight, next(counter), net_id, edge))

        tolerance = self.config.weight_tolerance
        while heap:
            negative_weight, _, net_id, edge = heapq.heappop(heap)
            graph = self._graphs[net_id]
            if not graph.has_edge(*edge):
                continue
            current_weight = self._edge_weight(net_id, edge)
            popped_weight = -negative_weight
            stale_margin = tolerance * max(popped_weight, 1.0) + 1e-9
            if current_weight < popped_weight - stale_margin:
                # Weight dropped noticeably since the entry was pushed; re-queue.
                heapq.heappush(heap, (-current_weight, next(counter), net_id, edge))
                report.heap_repushes += 1
                continue
            if not graph.is_deletable(*edge):
                report.kept_edges += 1
                continue
            graph.remove_edge(*edge)
            self._unregister_edge(net_id, edge)
            report.deleted_edges += 1

        routes: Dict[int, RouteTree] = {}
        for net_id, graph in self._graphs.items():
            routes[net_id] = prune_to_tree(graph)

        report.runtime_seconds = time.perf_counter() - start
        solution = RoutingSolution(self.grid, self.netlist, routes)
        return solution, report


def route_netlist(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[WeightConfig] = None,
    shield_estimator: Optional[ShieldEstimator] = None,
) -> Tuple[RoutingSolution, RouterReport]:
    """Convenience wrapper: construct the router and route the netlist."""
    router = IterativeDeletionRouter(grid, netlist, config=config, shield_estimator=shield_estimator)
    return router.route()
