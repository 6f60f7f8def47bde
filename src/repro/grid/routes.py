"""Route trees over the region grid and whole-chip routing solutions.

A global route of a net is a tree whose vertices are routing regions and
whose edges connect adjacent regions; it must span every region that contains
a pin of the net.  The physical wire length of a route and the per-region
segment lengths (the ``l_j`` of the LSK model) are both derived from the
region dimensions: an edge between two adjacent regions corresponds to a wire
of one region span, half of which lies in each of the two regions.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    DefaultDict,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.grid.nets import Netlist
from repro.grid.regions import HORIZONTAL, VERTICAL, RegionCoord, RoutingGrid

#: A grid edge between two adjacent regions, stored with sorted endpoints so
#: (a, b) and (b, a) compare equal.
GridEdge = Tuple[RegionCoord, RegionCoord]

#: Key identifying one routing panel: region coordinate plus direction.
PanelKey = Tuple[RegionCoord, str]


def normalize_edge(coord_a: RegionCoord, coord_b: RegionCoord) -> GridEdge:
    """Canonical form of an undirected grid edge."""
    return (coord_a, coord_b) if coord_a <= coord_b else (coord_b, coord_a)


@dataclass
class RouteTree:
    """The global route of one net.

    Attributes
    ----------
    net_id:
        The routed net.
    pin_regions:
        Regions that contain pins of the net (the terminals the tree must span).
    edges:
        Grid edges forming the route.  A single-region net has no edges.
    """

    net_id: int
    pin_regions: Tuple[RegionCoord, ...]
    edges: FrozenSet[GridEdge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.pin_regions:
            raise ValueError(f"route for net {self.net_id} has no pin regions")
        self.edges = frozenset(normalize_edge(a, b) for a, b in self.edges)

    # -- structure ----------------------------------------------------------

    def regions(self) -> Set[RegionCoord]:
        """Every region the route touches (tree vertices plus pin regions)."""
        touched: Set[RegionCoord] = set(self.pin_regions)
        for coord_a, coord_b in self.edges:
            touched.add(coord_a)
            touched.add(coord_b)
        return touched

    def adjacency(self) -> Dict[RegionCoord, List[RegionCoord]]:
        """Adjacency list of the route graph."""
        adjacency: Dict[RegionCoord, List[RegionCoord]] = {coord: [] for coord in self.regions()}
        for coord_a, coord_b in self.edges:
            adjacency[coord_a].append(coord_b)
            adjacency[coord_b].append(coord_a)
        return adjacency

    def is_connected(self) -> bool:
        """True when every pin region is reachable from every other one."""
        if len(self.pin_regions) <= 1 and not self.edges:
            return True
        adjacency = self.adjacency()
        start = self.pin_regions[0]
        seen: Set[RegionCoord] = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbour in adjacency.get(current, []):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return all(coord in seen for coord in self.pin_regions)

    def is_tree(self) -> bool:
        """True when the route is connected and acyclic."""
        if not self.is_connected():
            return False
        vertices = self.regions()
        return len(self.edges) == len(vertices) - 1

    # -- physical metrics ------------------------------------------------------

    def wirelength_um(self, grid: RoutingGrid) -> float:
        """Total physical wire length (um) of the route."""
        return sum(grid.edge_length(a, b) for a, b in self.edges)

    def direction_usage(self, grid: RoutingGrid) -> Dict[RegionCoord, Set[str]]:
        """Which directions (horizontal / vertical) the net uses in each region."""
        usage: Dict[RegionCoord, Set[str]] = {}
        for coord_a, coord_b in self.edges:
            direction = grid.edge_direction(coord_a, coord_b)
            for coord in (coord_a, coord_b):
                usage.setdefault(coord, set()).add(direction)
        return usage

    def region_lengths_um(self, grid: RoutingGrid) -> Dict[RegionCoord, float]:
        """Length of the net inside each region it crosses (``l_j`` of the LSK model).

        Every edge contributes half a region span to each of its two endpoint
        regions.
        """
        lengths: Dict[RegionCoord, float] = {}
        for coord_a, coord_b in self.edges:
            half = grid.edge_length(coord_a, coord_b) / 2.0
            lengths[coord_a] = lengths.get(coord_a, 0.0) + half
            lengths[coord_b] = lengths.get(coord_b, 0.0) + half
        return lengths

    def path_between(self, start: RegionCoord, goal: RegionCoord) -> List[RegionCoord]:
        """Unique tree path between two regions of the route.

        Raises ``ValueError`` if either endpoint is not part of the route or
        the two are disconnected.
        """
        return self.paths_from(start, [goal])[0]

    def paths_from(
        self, start: RegionCoord, goals: Sequence[RegionCoord]
    ) -> List[List[RegionCoord]]:
        """Tree paths from ``start`` to each of ``goals``, from one search.

        Each path equals :meth:`path_between` of its goal: the breadth-first
        parents of a region do not depend on when the search stops.
        """
        adjacency: Optional[Dict[RegionCoord, List[RegionCoord]]] = None
        parents: Dict[RegionCoord, Optional[RegionCoord]] = {start: None}
        paths: List[List[RegionCoord]] = []
        for goal in goals:
            if start == goal:
                paths.append([start])
                continue
            if adjacency is None:
                adjacency = self.adjacency()
                queue = deque([start] if start in adjacency else [])
                while queue:
                    current = queue.popleft()
                    for neighbour in adjacency[current]:
                        if neighbour not in parents:
                            parents[neighbour] = current
                            queue.append(neighbour)
            if start not in adjacency or goal not in adjacency:
                raise ValueError(
                    f"regions {start} / {goal} are not on the route of net {self.net_id}"
                )
            if goal not in parents:
                raise ValueError(
                    f"regions {start} and {goal} are disconnected on the route of net {self.net_id}"
                )
            path: List[RegionCoord] = [goal]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            path.reverse()
            paths.append(path)
        return paths

    def __repr__(self) -> str:
        return f"RouteTree(net={self.net_id}, regions={len(self.regions())}, edges={len(self.edges)})"


class RoutingSolution:
    """A complete global-routing solution: one route tree per net."""

    def __init__(
        self,
        grid: RoutingGrid,
        netlist: Netlist,
        routes: Mapping[int, RouteTree],
    ) -> None:
        missing = [net_id for net_id in netlist.net_ids() if net_id not in routes]
        if missing:
            raise ValueError(f"routing solution is missing routes for nets {missing[:10]}")
        self.grid = grid
        self.netlist = netlist
        self.routes: Dict[int, RouteTree] = dict(routes)
        self._memo: Dict[Hashable, Any] = {}

    # -- per-net access -------------------------------------------------------

    def route(self, net_id: int) -> RouteTree:
        """The route of one net."""
        if net_id not in self.routes:
            raise KeyError(f"no route for net {net_id}")
        return self.routes[net_id]

    def __len__(self) -> int:
        return len(self.routes)

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed once per solution and ``key``.

        For read-only indexes derived from the routes.  Nothing writes
        ``routes`` after construction, so a memoised index never goes stale.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- aggregate metrics -------------------------------------------------------

    def total_wirelength_um(self) -> float:
        """Sum of all route wire lengths (um)."""
        return sum(route.wirelength_um(self.grid) for route in self.routes.values())

    def average_wirelength_um(self) -> float:
        """Average wire length per net (um) — the quantity of Table 2."""
        if not self.routes:
            return 0.0
        return self.total_wirelength_um() / len(self.routes)

    def all_trees_valid(self) -> bool:
        """True when every route is a tree spanning its pin regions."""
        return all(route.is_tree() for route in self.routes.values())

    def nets_in_region(self, coord: RegionCoord, direction: str) -> List[int]:
        """Ids of nets that occupy a track of ``direction`` in a region."""
        if direction not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"unknown direction {direction!r}")
        panel = PanelIndex.of(self).panels.get((coord, direction))
        return [] if panel is None else list(panel.segments)

    def __repr__(self) -> str:
        return (
            f"RoutingSolution(nets={len(self.routes)}, "
            f"avg_wl={self.average_wirelength_um():.1f}um)"
        )


@dataclass(frozen=True)
class PanelMembers:
    """The nets occupying one (region, direction) panel of a routing.

    ``nets`` is in route-insertion order (the order a walk of
    ``routes.items()`` meets them), ``segments`` the same ids sorted.
    """

    nets: Tuple[int, ...]
    segments: Tuple[int, ...]
    capacity: int


class PanelIndex:
    """Which nets occupy which panels of one routing, derived once.

    One pass over every route's :meth:`RouteTree.direction_usage`, in
    ``routes`` order, yields both directions of the relation: per occupied
    panel its :class:`PanelMembers`, per net its panel keys in the order
    ``direction_usage`` yields its regions, horizontal before vertical
    within a region.  Panels are listed in the grid's
    region order, horizontal before vertical (the order of
    :class:`~repro.grid.congestion.CongestionMap` entries); unoccupied
    panels are absent.  Nothing writes a :class:`RoutingSolution`'s routes
    after construction, so the index, memoised on the routing, stays exact.
    """

    def __init__(self, routing: RoutingSolution) -> None:
        grid = routing.grid
        members: DefaultDict[PanelKey, List[int]] = defaultdict(list)
        self.net_keys: Dict[int, Tuple[PanelKey, ...]] = {}
        for net_id, route in routing.routes.items():
            # Directions in a fixed order, not the set's: Phase III breaks
            # density ties by this order, and a set of strings iterates in
            # an order that follows the process's hash seed.
            keys = [
                (coord, direction)
                for coord, directions in route.direction_usage(grid).items()
                for direction in (HORIZONTAL, VERTICAL)
                if direction in directions
            ]
            for key in keys:
                members[key].append(net_id)
            self.net_keys[net_id] = tuple(keys)
        self.panels: Dict[PanelKey, PanelMembers] = {}
        for region in grid.regions():
            for direction in (HORIZONTAL, VERTICAL):
                nets = members.get((region.coord, direction))
                if nets:
                    self.panels[(region.coord, direction)] = PanelMembers(
                        nets=tuple(nets),
                        segments=tuple(sorted(nets)),
                        capacity=region.capacity(direction),
                    )

    @classmethod
    def of(cls, routing: RoutingSolution) -> "PanelIndex":
        """The routing's memoised index."""
        return routing.memo(cls, lambda: cls(routing))
