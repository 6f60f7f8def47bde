"""The iterative-deletion (ID) global router.

Every net starts with the complete grid graph of its pin bounding box.  The
router repeatedly removes the edge with the largest Formula 2 weight — over
*all* nets simultaneously, which is what makes the result independent of any
net ordering — provided its removal keeps the net's pin regions connected.
When no removable edge remains, each net's graph has collapsed to a Steiner
tree over its pin regions.

Implementation notes
--------------------
* The loop works on integer ids.  Region ``(ix, iy)`` is
  ``ix * num_rows + iy``; a routing resource (one region in one direction,
  0 horizontal and 1 vertical) is ``region * 2 + direction``; a grid edge is
  named by its lower region the same way, so an edge id is also the id of
  its first resource and the second lies a fixed step further.
* Edge weights change as edges disappear (deleting an edge can remove a net's
  demand from a region, lowering the density every other net sees there).
  A lazy max-heap handles this: entries are re-validated when popped and
  re-pushed with their current weight when stale.
* The utilisation ``HU = Nns + Nss`` of each resource is tracked
  incrementally in flat lists: ``Nns`` as the number of nets still touching
  it and ``Nss`` through running sums of net sensitivity rates feeding
  Formula 3.  A resource's density and relative overflow change only when a
  net enters or leaves it, so they are cached and recomputed there.
* Deletability: the pins are connected before every deletion, so removing
  edge ``(a, b)`` keeps them connected exactly when ``a`` and ``b`` stay
  connected, or the edge is a bridge whose cut-off side holds no pin or
  every pin.  :func:`stays_connected` searches from both ends in alternate
  steps, so a check costs about the smaller side.
* An edge that is found non-removable can never become removable again —
  deletions only remove alternative paths — so it is discarded permanently.
* ``RouteTree.edges`` is a frozenset, and downstream code (panel order,
  per-region lengths, wirelength sums) reads its iteration order, which
  follows how the set was built.  Each net therefore also keeps its live
  edges as a set of coordinate tuples, filled and shrunk in the historic
  add/remove sequence; the initial heap is numbered in the order of a copy
  of that set, and :func:`prune` walks a copy of it.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.grid.nets import Netlist
from repro.grid.regions import HORIZONTAL, VERTICAL, RegionCoord, RoutingGrid
from repro.grid.routes import GridEdge, RouteTree, RoutingSolution, normalize_edge
from repro.grid.steiner import rsmt_length_estimate
from repro.router.weights import WeightConfig, edge_weight
from repro.sino.estimate import ShieldEstimator, default_shield_estimator


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


def stays_connected(
    adjacency: Mapping[int, Set[int]], pins: AbstractSet[int], region_a: int, region_b: int
) -> bool:
    """True when a net's pins stay connected without the edge ``(a, b)``.

    ``adjacency`` no longer holds the edge; the pins must have been
    connected while it was there.  Two breadth-first searches, from ``a``
    and from ``b``, expand one region each in turn.  If they meet, the edge
    lay on a cycle.  If one runs out first, the edge was a bridge and that
    search holds the whole cut-off side: the pins stay connected when it
    holds none of them or all of them.
    """
    if len(pins) < 2:
        return True
    this_seen, that_seen = {region_a}, {region_b}
    this_queue, that_queue = [region_a], [region_b]
    this_head = that_head = 0
    while this_head < len(this_queue):
        for neighbour in adjacency[this_queue[this_head]]:
            if neighbour not in this_seen:
                if neighbour in that_seen:
                    return True
                this_seen.add(neighbour)
                this_queue.append(neighbour)
        this_head += 1
        this_seen, that_seen = that_seen, this_seen
        this_queue, that_queue = that_queue, this_queue
        this_head, that_head = that_head, this_head
    return pins.isdisjoint(this_seen) or pins <= this_seen


def prune(net_id: int, pin_regions: Sequence[RegionCoord], edges: Set[GridEdge]) -> RouteTree:
    """Prune a net's final edges down to its pin-spanning tree.

    Repeatedly removes degree-one vertices that are not pin regions, then
    drops every component that contains no pin region.  Raises
    ``ValueError`` if the pins are not connected (the router keeps them
    connected).  It walks a copy of ``edges`` in the copy's order, and the
    tree's frozenset iterates in the order this walk builds it, which
    downstream sums read (see the module notes).
    """
    adjacency: Dict[RegionCoord, Set[RegionCoord]] = {}
    for coord_a, coord_b in set(edges):
        adjacency.setdefault(coord_a, set()).add(coord_b)
        adjacency.setdefault(coord_b, set()).add(coord_a)
    for pin in pin_regions:
        adjacency.setdefault(pin, set())

    pins = set(pin_regions)

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

    # Keep only the component holding the pins.
    reachable: Set[RegionCoord] = {pin_regions[0]}
    stack: List[RegionCoord] = [pin_regions[0]]
    while stack:
        current = stack.pop()
        for neighbour in adjacency[current]:
            if neighbour not in reachable:
                reachable.add(neighbour)
                stack.append(neighbour)
    if not pins <= reachable:
        raise ValueError(
            f"net {net_id}: pin regions are disconnected, cannot realise a route tree"
        )

    tree: Set[GridEdge] = set()
    for coord, neighbours in adjacency.items():
        if coord not in reachable:
            continue
        for neighbour in neighbours:
            if neighbour in reachable:
                tree.add(normalize_edge(coord, neighbour))

    return RouteTree(net_id=net_id, pin_regions=tuple(pin_regions), edges=frozenset(tree))


def _box_graph(
    rows: int, x0: int, x1: int, y0: int, y1: int
) -> Tuple[List[int], Dict[int, Set[int]], Dict[int, int]]:
    """The full grid graph of the region box ``[x0, x1] x [y0, y1]``.

    Returns its edge ids in the historic insertion order (column by column,
    each region's horizontal edge before its vertical one), its int
    adjacency, and per resource how many of its edges touch it.
    """
    edges: List[int] = []
    adjacency: Dict[int, Set[int]] = {}
    touch: Dict[int, int] = {}
    for ix in range(x0, x1 + 1):
        for iy in range(y0, y1 + 1):
            region = ix * rows + iy
            neighbours = set()
            if ix > x0:
                neighbours.add(region - rows)
            if ix < x1:
                neighbours.add(region + rows)
                edges.append(2 * region)
            if iy > y0:
                neighbours.add(region - 1)
            if iy < y1:
                neighbours.add(region + 1)
                edges.append(2 * region + 1)
            adjacency[region] = neighbours
            horizontal = (ix > x0) + (ix < x1)
            if horizontal:
                touch[2 * region] = horizontal
            vertical = (iy > y0) + (iy < y1)
            if vertical:
                touch[2 * region + 1] = vertical
    return edges, adjacency, touch


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
        # whenever a net enters or leaves it.
        self._coefficients: Optional[Tuple[float, ...]] = (
            None
            if self.estimator is None
            else tuple(float(c) for c in self.estimator.coefficients.as_array())
        )

    def route(self) -> Tuple[RoutingSolution, RouterReport]:
        """Run iterative deletion and return the solution plus run statistics."""
        start = time.perf_counter()
        grid, netlist, config = self.grid, self.netlist, self.config
        cols, rows = grid.num_cols, grid.num_rows
        report = RouterReport(num_nets=netlist.num_nets)

        # Per resource: capacity, nets touching it, rate sums, cached pressure.
        size = 2 * grid.num_regions
        directions = (HORIZONTAL, VERTICAL)
        capacity = [
            grid.region(divmod(resource >> 1, rows)).capacity(directions[resource & 1])
            for resource in range(size)
        ]
        num_nets = [0] * size
        sum_rates = [0.0] * size
        sum_rates_sq = [0.0] * size
        density = [0.0] * size
        overflow = [0.0] * size
        coefficients = self._coefficients

        def refresh(resource: int) -> None:
            """Recompute ``HD = HU / HC`` and ``HOFR = max(0, HU - HC) / HC``."""
            cap = capacity[resource]
            if cap <= 0:
                density[resource] = overflow[resource] = 0.0
                return
            count = num_nets[resource]
            shields = 0.0
            if coefficients is not None and count:
                # Formula 3, term for term in the order of its features.
                n = float(count)
                sq, total = sum_rates_sq[resource], sum_rates[resource]
                c0, c1, c2, c3, c4, c5 = coefficients
                value = sq * c0 + sq / n * c1 + total * c2 + total / n * c3 + n * c4 + c5
                shields = max(value, 0.0)
            utilization = count + shields
            density[resource] = utilization / cap
            overflow[resource] = max(0.0, utilization - cap) / cap

        # The coordinate tuple of every grid edge, and its id back.
        edge_coords: List[Optional[GridEdge]] = [None] * size
        for ix in range(cols):
            for iy in range(rows):
                region = ix * rows + iy
                if ix + 1 < cols:
                    edge_coords[2 * region] = ((ix, iy), (ix + 1, iy))
                if iy + 1 < rows:
                    edge_coords[2 * region + 1] = ((ix, iy), (ix, iy + 1))
        edge_ids = {coords: edge for edge, coords in enumerate(edge_coords) if coords is not None}

        # Per net: the full grid graph of its (margin-expanded) bounding box.
        margin = config.bounding_box_margin
        minimum = min(grid.region_width, grid.region_height)
        net_ids: List[int] = []
        pin_coords: List[Tuple[RegionCoord, ...]] = []
        pin_ids: List[FrozenSet[int]] = []
        rates: List[float] = []
        lengths: List[Tuple[float, float]] = []
        adjacencies: List[Dict[int, Set[int]]] = []
        touches: List[Dict[int, int]] = []
        live: List[Set[GridEdge]] = []
        for net in netlist.nets():
            pins = tuple(net.pin_regions(grid))
            x0 = max(min(ix for ix, _ in pins) - margin, 0)
            x1 = min(max(ix for ix, _ in pins) + margin, cols - 1)
            y0 = max(min(iy for _, iy in pins) - margin, 0)
            y1 = min(max(iy for _, iy in pins) + margin, rows - 1)
            edges, adjacency, touch = _box_graph(rows, x0, x1, y0, y1)
            rate = netlist.sensitivity_rate(net.net_id)
            for resource in touch:
                num_nets[resource] += 1
                sum_rates[resource] += rate
                sum_rates_sq[resource] += rate * rate
            rsmt = max(rsmt_length_estimate(list(net.pins)), minimum)
            net_ids.append(net.net_id)
            pin_coords.append(pins)
            pin_ids.append(frozenset(ix * rows + iy for ix, iy in pins))
            rates.append(rate)
            lengths.append((grid.region_width / rsmt, grid.region_height / rsmt))
            adjacencies.append(adjacency)
            touches.append(touch)
            # Added one by one in the historic order (see the module notes).
            live.append(set(map(edge_coords.__getitem__, edges)))
            report.initial_edges += len(edges)
        for resource in range(size):
            refresh(resource)

        # From an edge id to its second resource: one column or one row on.
        step = (2 * rows, 2)
        counter = itertools.count()
        heap: List[Tuple[float, int, int, int]] = []
        for net, net_edges in enumerate(live):
            length = lengths[net]
            for coords in set(net_edges):
                edge = edge_ids[coords]
                other = edge + step[edge & 1]
                weight = edge_weight(
                    config,
                    length[edge & 1],
                    (density[edge] + density[other]) / 2.0,
                    (overflow[edge] + overflow[other]) / 2.0,
                )
                heap.append((-weight, next(counter), net, edge))
        # The keys are unique, so heapify pops in the order of N pushes.
        heapq.heapify(heap)

        tolerance = config.weight_tolerance
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            negative_weight, _, net, edge = heappop(heap)
            other = edge + step[edge & 1]
            current_weight = edge_weight(
                config,
                lengths[net][edge & 1],
                (density[edge] + density[other]) / 2.0,
                (overflow[edge] + overflow[other]) / 2.0,
            )
            popped_weight = -negative_weight
            stale_margin = tolerance * max(popped_weight, 1.0) + 1e-9
            if current_weight < popped_weight - stale_margin:
                # Weight dropped noticeably since the entry was pushed; re-queue.
                heappush(heap, (-current_weight, next(counter), net, edge))
                report.heap_repushes += 1
                continue
            adjacency = adjacencies[net]
            region_a, region_b = edge >> 1, other >> 1
            adjacency[region_a].discard(region_b)
            adjacency[region_b].discard(region_a)
            if not stays_connected(adjacency, pin_ids[net], region_a, region_b):
                adjacency[region_a].add(region_b)
                adjacency[region_b].add(region_a)
                report.kept_edges += 1
                continue
            live[net].remove(edge_coords[edge])
            touch, rate = touches[net], rates[net]
            for resource in (edge, other):
                remaining = touch[resource] - 1
                touch[resource] = remaining
                if not remaining:
                    num_nets[resource] -= 1
                    sum_rates[resource] -= rate
                    sum_rates_sq[resource] -= rate * rate
                    refresh(resource)
            report.deleted_edges += 1

        routes: Dict[int, RouteTree] = {
            net_id: prune(net_id, pins, edges)
            for net_id, pins, edges in zip(net_ids, pin_coords, live)
        }
        report.runtime_seconds = time.perf_counter() - start
        return RoutingSolution(grid, netlist, routes), report


def route_netlist(
    grid: RoutingGrid,
    netlist: Netlist,
    config: Optional[WeightConfig] = None,
    shield_estimator: Optional[ShieldEstimator] = None,
) -> Tuple[RoutingSolution, RouterReport]:
    """Convenience wrapper: construct the router and route the netlist."""
    router = IterativeDeletionRouter(grid, netlist, config=config, shield_estimator=shield_estimator)
    return router.route()
