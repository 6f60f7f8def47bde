"""Per-net connection graphs for the ID router.

The paper defines the net connection graph ``G_i = (V_i, E_i)`` of net
``N_i`` as the grid graph over the regions inside the bounding box of the
net's pins, with an edge between every pair of adjacent regions.  The ID
router deletes edges from these graphs until each becomes a tree.

The implementation keeps its own light-weight adjacency structure because
the router's inner loop (deletability checks and incremental edge removal)
dominates run time.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.grid.nets import Net
from repro.grid.regions import RegionCoord, RoutingGrid
from repro.grid.routes import GridEdge, normalize_edge


class ConnectionGraph:
    """The mutable routing graph of one net during iterative deletion."""

    def __init__(self, net_id: int, pin_regions: Iterable[RegionCoord]) -> None:
        self.net_id = net_id
        self.pin_regions: Tuple[RegionCoord, ...] = tuple(dict.fromkeys(pin_regions))
        if not self.pin_regions:
            raise ValueError(f"net {net_id} has no pin regions")
        self._adjacency: Dict[RegionCoord, Set[RegionCoord]] = {}
        self._edges: Set[GridEdge] = set()

    # -- construction -------------------------------------------------------

    def add_node(self, coord: RegionCoord) -> None:
        """Add a region vertex (idempotent)."""
        self._adjacency.setdefault(coord, set())

    def add_edge(self, coord_a: RegionCoord, coord_b: RegionCoord) -> None:
        """Add an undirected edge between two region vertices."""
        self.add_node(coord_a)
        self.add_node(coord_b)
        self._adjacency[coord_a].add(coord_b)
        self._adjacency[coord_b].add(coord_a)
        self._edges.add(normalize_edge(coord_a, coord_b))

    def remove_edge(self, coord_a: RegionCoord, coord_b: RegionCoord) -> None:
        """Remove an edge (raises KeyError if absent)."""
        edge = normalize_edge(coord_a, coord_b)
        if edge not in self._edges:
            raise KeyError(f"edge {edge} not present in the graph of net {self.net_id}")
        self._edges.remove(edge)
        self._adjacency[coord_a].discard(coord_b)
        self._adjacency[coord_b].discard(coord_a)

    # -- queries ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of region vertices."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of edges currently present."""
        return len(self._edges)

    def edges(self) -> Set[GridEdge]:
        """Copy of the current edge set."""
        return set(self._edges)

    def has_edge(self, coord_a: RegionCoord, coord_b: RegionCoord) -> bool:
        """True when the edge is still present."""
        return normalize_edge(coord_a, coord_b) in self._edges

    def neighbors(self, coord: RegionCoord) -> Set[RegionCoord]:
        """Current neighbours of a vertex."""
        return set(self._adjacency.get(coord, set()))

    def degree(self, coord: RegionCoord) -> int:
        """Current degree of a vertex."""
        return len(self._adjacency.get(coord, set()))

    def is_pin_region(self, coord: RegionCoord) -> bool:
        """True when the region contains a pin of the net."""
        return coord in self.pin_regions

    # -- connectivity --------------------------------------------------------

    def pins_connected(self, skip_edge: Optional[GridEdge] = None) -> bool:
        """True when every pin region is mutually reachable.

        ``skip_edge`` lets the router test deletability ("would the pins stay
        connected if this edge were removed?") without mutating the graph.
        """
        if len(self.pin_regions) <= 1:
            return True
        # Compare endpoints directly: leaving an endpoint of the skipped edge,
        # the other endpoint is blocked; ``None`` blocks nothing.
        skip_a, skip_b = skip_edge if skip_edge is not None else (None, None)
        adjacency = self._adjacency
        start = self.pin_regions[0]
        targets = set(self.pin_regions)
        missing = len(targets) - 1
        seen: Set[RegionCoord] = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            blocked = skip_b if current == skip_a else skip_a if current == skip_b else None
            for neighbour in adjacency.get(current, ()):
                if neighbour in seen or neighbour == blocked:
                    continue
                seen.add(neighbour)
                if neighbour in targets:
                    missing -= 1
                    if not missing:
                        return True
                queue.append(neighbour)
        return False

    def is_deletable(self, coord_a: RegionCoord, coord_b: RegionCoord) -> bool:
        """True when removing the edge keeps all pin regions connected."""
        edge = normalize_edge(coord_a, coord_b)
        if edge not in self._edges:
            return False
        return self.pins_connected(skip_edge=edge)

    def is_forest(self) -> bool:
        """True when the graph is acyclic (the ID stopping condition)."""
        visited: Set[RegionCoord] = set()
        for root in self._adjacency:
            if root in visited:
                continue
            # Iterative DFS with parent tracking to detect cycles.
            stack: List[Tuple[RegionCoord, Optional[RegionCoord]]] = [(root, None)]
            visited.add(root)
            while stack:
                current, parent = stack.pop()
                for neighbour in self._adjacency[current]:
                    if neighbour == parent:
                        continue
                    if neighbour in visited:
                        return False
                    visited.add(neighbour)
                    stack.append((neighbour, current))
        return True


def build_connection_graph(
    net: Net,
    grid: RoutingGrid,
    bounding_box_margin: int = 0,
) -> ConnectionGraph:
    """Build the initial connection graph of a net.

    The graph covers every region inside the pin bounding box (optionally
    expanded by ``bounding_box_margin`` regions on each side) with edges
    between all adjacent region pairs.
    """
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
