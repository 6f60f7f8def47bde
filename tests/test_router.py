"""Tests for the connection graphs, Formula 2 weights and the ID router."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.grid.congestion import CongestionMap
from repro.grid.nets import Net, Netlist, Pin
from repro.grid.regions import RoutingGrid
from repro.router.iterative_deletion import (
    IterativeDeletionRouter,
    prune,
    route_netlist,
    stays_connected,
)
from repro.router.weights import WeightConfig, edge_weight
from tests.conftest import make_random_routing_instance
from tests.oracles.router_reference import (
    ConnectionGraph,
    pins_connected_reference,
    route_netlist_reference,
)


@pytest.fixture
def grid():
    return RoutingGrid(
        num_cols=5,
        num_rows=5,
        chip_width=500.0,
        chip_height=500.0,
        horizontal_capacity=6,
        vertical_capacity=6,
    )


def _box_adjacency(cols, rows):
    """Integer adjacency of the full ``cols`` x ``rows`` grid graph."""
    adjacency = {ix * rows + iy: set() for ix in range(cols) for iy in range(rows)}
    for ix in range(cols):
        for iy in range(rows):
            region = ix * rows + iy
            if ix + 1 < cols:
                adjacency[region].add(region + rows)
                adjacency[region + rows].add(region)
            if iy + 1 < rows:
                adjacency[region].add(region + 1)
                adjacency[region + 1].add(region)
    return adjacency


def _without(adjacency, region_a, region_b):
    adjacency = {region: set(neighbours) for region, neighbours in adjacency.items()}
    adjacency[region_a].discard(region_b)
    adjacency[region_b].discard(region_a)
    return adjacency


class TestConnectionGraph:
    """Each net's connection graph and the deletability rule over it."""

    def test_build_covers_bounding_box(self, grid):
        net = Net(net_id=0, pins=(Pin(50, 50), Pin(250, 150)))
        solution, report = route_netlist(grid, Netlist([net]))
        # Bounding box spans 3 columns x 2 rows of regions: 7 edges, of
        # which the 3-edge tree over the corner pins survives.
        assert report.initial_edges == 7
        assert report.deleted_edges == 4
        assert {(0, 0), (2, 1)} <= solution.route(0).regions()

    def test_margin_expands_box(self, grid):
        netlist = Netlist([Net(net_id=0, pins=(Pin(150, 150), Pin(250, 150)))])
        _, plain = route_netlist(grid, netlist)
        _, expanded = route_netlist(grid, netlist, config=WeightConfig(bounding_box_margin=1))
        # A 4 x 3 box once expanded: 9 horizontal and 8 vertical edges.
        assert (plain.initial_edges, expanded.initial_edges) == (1, 17)

    def test_deletability_and_connectivity(self):
        # Three regions in a row with pins at both ends: both edges are
        # bridges with a pin on each side.
        line = _box_adjacency(3, 1)
        pins = frozenset({0, 2})
        assert not stays_connected(_without(line, 0, 1), pins, 0, 1)
        assert not stays_connected(_without(line, 1, 2), pins, 1, 2)

    def test_deletable_in_a_cycle(self):
        # The 2x2 box is a 4-cycle: every edge is deletable.
        square = _box_adjacency(2, 2)
        pins = frozenset({0, 3})
        for region_a, region_b in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert stays_connected(_without(square, region_a, region_b), pins, region_a, region_b)

    def test_bridge_with_a_pin_free_side(self):
        # A spur (1, 0) - (2, 0) hangs off the pin path (0, 0) - (1, 0):
        # cutting it strands no pin, whichever end runs out first.
        line = _box_adjacency(3, 1)
        assert stays_connected(_without(line, 1, 2), frozenset({0, 1}), 1, 2)
        assert stays_connected(_without(line, 1, 2), frozenset({0, 1}), 2, 1)

    def test_bridge_in_a_pin_free_stray_component(self):
        # The pins sit on 0 - 1; the component 2 - 3 - 4 holds none.
        adjacency = {0: {1}, 1: {0}, 2: {3}, 3: {2, 4}, 4: {3}}
        assert stays_connected(_without(adjacency, 3, 4), frozenset({0, 1}), 3, 4)
        assert stays_connected(_without(adjacency, 2, 3), frozenset({0, 1}), 2, 3)

    def test_single_pin_region_loses_any_edge(self):
        assert stays_connected(_without(_box_adjacency(3, 1), 0, 1), frozenset({0}), 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        cols=st.integers(1, 5),
        rows=st.integers(1, 5),
        data=st.data(),
    )
    def test_agrees_with_one_sided_search(self, cols, rows, data):
        """The two-sided rule equals a BFS from the first pin on random graphs."""
        edges = [
            ((ix, iy), neighbour)
            for ix in range(cols)
            for iy in range(rows)
            for neighbour in ((ix + 1, iy), (ix, iy + 1))
            if neighbour[0] < cols and neighbour[1] < rows
        ]
        if not edges:
            return
        present = data.draw(st.lists(st.sampled_from(edges), min_size=1, unique=True))
        regions = sorted({coord for edge in present for coord in edge})
        pins = data.draw(st.lists(st.sampled_from(regions), min_size=1, max_size=4, unique=True))
        graph = ConnectionGraph(net_id=0, pin_regions=pins)
        adjacency = {}
        for coord_a, coord_b in present:
            graph.add_edge(coord_a, coord_b)
            id_a, id_b = coord_a[0] * rows + coord_a[1], coord_b[0] * rows + coord_b[1]
            adjacency.setdefault(id_a, set()).add(id_b)
            adjacency.setdefault(id_b, set()).add(id_a)
        assume(pins_connected_reference(graph))
        coord_a, coord_b = data.draw(st.sampled_from(present))
        id_a, id_b = coord_a[0] * rows + coord_a[1], coord_b[0] * rows + coord_b[1]
        pin_ids = frozenset(ix * rows + iy for ix, iy in pins)
        assert stays_connected(_without(adjacency, id_a, id_b), pin_ids, id_a, id_b) == (
            pins_connected_reference(graph, (coord_a, coord_b))
        )


class TestPruneToTree:
    def test_prunes_dangling_branches(self):
        edges = {((0, 0), (1, 0)), ((1, 0), (2, 0)), ((1, 0), (1, 1))}  # (1, 1) has no pin
        tree = prune(0, ((0, 0), (2, 0)), edges)
        assert tree.is_tree()
        assert (1, 1) not in tree.regions()

    def test_disconnected_pins_raise(self):
        with pytest.raises(ValueError, match="disconnected"):
            prune(0, ((0, 0), (2, 0)), {((0, 0), (1, 0))})

    def test_single_region_net(self):
        tree = prune(0, ((1, 1),), set())
        assert tree.is_tree()
        assert tree.regions() == {(1, 1)}

    def test_drops_pin_free_stray_component(self):
        # A pin-free 4-cycle has no leaf to strip; only the reachability
        # filter drops it.
        cycle = {((3, 0), (4, 0)), ((4, 0), (4, 1)), ((3, 1), (4, 1)), ((3, 0), (3, 1))}
        tree = prune(0, ((0, 0), (1, 0)), {((0, 0), (1, 0))} | cycle)
        assert tree.edges == frozenset({((0, 0), (1, 0))})


class TestWeights:
    def test_formula2_defaults_match_paper(self):
        config = WeightConfig()
        assert config.alpha == pytest.approx(2.0)
        assert config.beta == pytest.approx(1.0)
        assert config.gamma == pytest.approx(50.0)

    def test_edge_weight_formula(self):
        config = WeightConfig(alpha=2.0, beta=1.0, gamma=50.0)
        weight = edge_weight(config, normalized_length=0.5, density=0.8, relative_overflow=0.1)
        assert weight == pytest.approx(2.0 * 0.5 + 1.0 * 0.8 + 50.0 * 0.1)

    def test_overflow_dominates(self):
        config = WeightConfig()
        congested = edge_weight(config, 0.1, 0.9, 0.2)
        long_but_free = edge_weight(config, 1.0, 0.5, 0.0)
        assert congested > long_but_free

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            WeightConfig(bounding_box_margin=-1)
        with pytest.raises(ValueError):
            WeightConfig(weight_tolerance=-0.1)
        with pytest.raises(ValueError):
            edge_weight(WeightConfig(), -0.1, 0.0, 0.0)


def small_netlist() -> Netlist:
    nets = [
        Net(net_id=0, pins=(Pin(50, 50), Pin(350, 50))),
        Net(net_id=1, pins=(Pin(50, 150), Pin(350, 150))),
        Net(net_id=2, pins=(Pin(150, 50), Pin(150, 350))),
        Net(net_id=3, pins=(Pin(250, 50), Pin(250, 350), Pin(350, 250))),
        Net(net_id=4, pins=(Pin(60, 60), Pin(80, 70))),
    ]
    return Netlist(nets, sensitivity={0: {1, 2}, 3: {2}})


class TestIterativeDeletionRouter:
    def test_routes_every_net_as_a_tree(self, grid):
        solution, report = route_netlist(grid, small_netlist(), config=WeightConfig(reserve_shields=False))
        assert len(solution) == 5
        assert solution.all_trees_valid()
        assert report.num_nets == 5
        assert report.deleted_edges > 0

    def test_trees_span_pin_regions(self, grid):
        solution, _ = route_netlist(grid, small_netlist(), config=WeightConfig(reserve_shields=False))
        for net in small_netlist().nets():
            route = solution.route(net.net_id)
            for coord in net.pin_regions(grid):
                assert coord in route.regions()

    def test_single_region_net_has_no_edges(self, grid):
        solution, _ = route_netlist(grid, small_netlist(), config=WeightConfig(reserve_shields=False))
        assert solution.route(4).edges == frozenset()

    def test_deterministic_given_same_inputs(self, grid):
        first, _ = route_netlist(grid, small_netlist(), config=WeightConfig(reserve_shields=False))
        second, _ = route_netlist(grid, small_netlist(), config=WeightConfig(reserve_shields=False))
        for net_id in range(5):
            assert first.route(net_id).edges == second.route(net_id).edges

    def test_wirelength_close_to_steiner_estimate(self, grid):
        netlist = small_netlist()
        solution, _ = route_netlist(grid, netlist, config=WeightConfig(reserve_shields=False))
        # Each 2-pin net must be routed within ~one region span of its HPWL.
        for net in netlist.nets():
            if net.num_pins != 2:
                continue
            route_length = solution.route(net.net_id).wirelength_um(grid)
            assert route_length <= net.hpwl() + 2 * grid.region_width + 1e-6

    def test_shield_reservation_uses_estimator(self, grid):
        netlist = small_netlist()
        router = IterativeDeletionRouter(grid, netlist, config=WeightConfig(reserve_shields=True))
        assert router.estimator is not None
        solution, _ = router.route()
        assert solution.all_trees_valid()

    def test_no_reservation_has_no_estimator(self, grid):
        router = IterativeDeletionRouter(
            grid, small_netlist(), config=WeightConfig(reserve_shields=False)
        )
        assert router.estimator is None

    def test_congestion_spread_under_capacity_pressure(self):
        """With a tight capacity and gamma >> alpha, the router avoids overflow."""
        grid = RoutingGrid(
            num_cols=4,
            num_rows=4,
            chip_width=400.0,
            chip_height=400.0,
            horizontal_capacity=3,
            vertical_capacity=3,
        )
        # Four nets whose bounding boxes all span rows 1 and 2: only three
        # horizontal tracks exist per region, so the router must split them
        # across the two rows to avoid overflow.
        nets = [
            Net(net_id=i, pins=(Pin(10.0 + 3 * i, 110.0 + i), Pin(390.0 - 2 * i, 290.0 - i)))
            for i in range(4)
        ]
        netlist = Netlist(nets)
        solution, _ = route_netlist(grid, netlist, config=WeightConfig(reserve_shields=False))
        congestion = CongestionMap.from_solution(solution)
        assert congestion.max_density() <= 1.0 + 1e-9
        assert congestion.total_overflow() == pytest.approx(0.0)


def _assert_same_routing(netlist, fast, reference):
    fast_solution, fast_report = fast
    reference_solution, reference_report = reference
    for net_id in netlist.net_ids():
        route, expected = fast_solution.route(net_id), reference_solution.route(net_id)
        # The order too: downstream sums and panel order iterate the edges.
        assert list(route.edges) == list(expected.edges)
        assert route.pin_regions == expected.pin_regions
    counters = ("num_nets", "initial_edges", "deleted_edges", "kept_edges", "heap_repushes")
    assert [getattr(fast_report, name) for name in counters] == [
        getattr(reference_report, name) for name in counters
    ]


class TestRouterMatchesReference:
    """The cached-pressure router reproduces the historic loop exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_cols=st.integers(1, 6),
        num_rows=st.integers(1, 6),
        num_nets=st.integers(1, 14),
        capacity=st.integers(1, 6),
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
        reserve_shields=st.booleans(),
        weight_tolerance=st.sampled_from([0.0, WeightConfig().weight_tolerance]),
        bounding_box_margin=st.sampled_from([0, 1]),
    )
    def test_random_instances(
        self,
        num_cols,
        num_rows,
        num_nets,
        capacity,
        rate,
        seed,
        reserve_shields,
        weight_tolerance,
        bounding_box_margin,
    ):
        grid, netlist = make_random_routing_instance(
            num_cols, num_rows, num_nets, capacity, rate, seed=seed
        )
        config = WeightConfig(
            reserve_shields=reserve_shields,
            weight_tolerance=weight_tolerance,
            bounding_box_margin=bounding_box_margin,
        )
        _assert_same_routing(
            netlist,
            route_netlist(grid, netlist, config=config),
            route_netlist_reference(grid, netlist, config=config),
        )

    @pytest.mark.parametrize("reserve_shields", [False, True])
    @pytest.mark.parametrize("weight_tolerance", [0.0, WeightConfig().weight_tolerance])
    @pytest.mark.parametrize("bounding_box_margin", [0, 1])
    def test_generated_circuit(
        self, small_circuit, reserve_shields, weight_tolerance, bounding_box_margin
    ):
        config = WeightConfig(
            reserve_shields=reserve_shields,
            weight_tolerance=weight_tolerance,
            bounding_box_margin=bounding_box_margin,
        )
        grid, netlist = small_circuit.grid, small_circuit.netlist
        _assert_same_routing(
            netlist,
            route_netlist(grid, netlist, config=config),
            route_netlist_reference(grid, netlist, config=config),
        )
