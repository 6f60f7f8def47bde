"""Tests for the connection graphs, Formula 2 weights and the ID router."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.congestion import CongestionMap
from repro.grid.nets import Net, Netlist, Pin
from repro.grid.regions import RoutingGrid
from repro.router.connection_graph import ConnectionGraph, build_connection_graph
from repro.router.iterative_deletion import IterativeDeletionRouter, route_netlist
from repro.router.realize import prune_to_tree
from repro.router.weights import WeightConfig, edge_weight
from tests.conftest import make_random_routing_instance
from tests.oracles.router_reference import route_netlist_reference


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


class TestConnectionGraph:
    def test_build_covers_bounding_box(self, grid):
        net = Net(net_id=0, pins=(Pin(50, 50), Pin(250, 150)))
        graph = build_connection_graph(net, grid)
        # Bounding box spans 3 columns x 2 rows of regions.
        assert graph.num_nodes == 6
        assert graph.num_edges == 7
        assert graph.is_pin_region((0, 0))
        assert graph.is_pin_region((2, 1))

    def test_margin_expands_box(self, grid):
        net = Net(net_id=0, pins=(Pin(150, 150), Pin(250, 150)))
        plain = build_connection_graph(net, grid)
        expanded = build_connection_graph(net, grid, bounding_box_margin=1)
        assert expanded.num_nodes > plain.num_nodes

    def test_deletability_and_connectivity(self, grid):
        net = Net(net_id=0, pins=(Pin(50, 50), Pin(250, 50)))
        graph = build_connection_graph(net, grid)
        assert graph.pins_connected()
        # Straight-line graph of 3 regions in a row: every edge is a bridge.
        assert not graph.is_deletable((0, 0), (1, 0))
        assert not graph.is_deletable((1, 0), (2, 0))

    def test_deletable_in_a_cycle(self, grid):
        net = Net(net_id=0, pins=(Pin(50, 50), Pin(150, 150)))
        graph = build_connection_graph(net, grid)
        # The 2x2 box is a cycle: every edge is deletable.
        for edge in graph.edges():
            assert graph.is_deletable(*edge)

    def test_remove_edge_updates_structure(self, grid):
        net = Net(net_id=0, pins=(Pin(50, 50), Pin(150, 150)))
        graph = build_connection_graph(net, grid)
        edge = next(iter(graph.edges()))
        graph.remove_edge(*edge)
        assert not graph.has_edge(*edge)
        with pytest.raises(KeyError):
            graph.remove_edge(*edge)

    def test_is_forest_detection(self):
        graph = ConnectionGraph(net_id=1, pin_regions=[(0, 0)])
        graph.add_edge((0, 0), (1, 0))
        graph.add_edge((1, 0), (1, 1))
        assert graph.is_forest()
        graph.add_edge((0, 0), (0, 1))
        graph.add_edge((0, 1), (1, 1))
        assert not graph.is_forest()

    def test_requires_pin_regions(self):
        with pytest.raises(ValueError):
            ConnectionGraph(net_id=0, pin_regions=[])


class TestPruneToTree:
    def test_prunes_dangling_branches(self):
        graph = ConnectionGraph(net_id=0, pin_regions=[(0, 0), (2, 0)])
        graph.add_edge((0, 0), (1, 0))
        graph.add_edge((1, 0), (2, 0))
        graph.add_edge((1, 0), (1, 1))  # dangling, no pin
        tree = prune_to_tree(graph)
        assert tree.is_tree()
        assert (1, 1) not in tree.regions()

    def test_disconnected_pins_raise(self):
        graph = ConnectionGraph(net_id=0, pin_regions=[(0, 0), (2, 0)])
        graph.add_edge((0, 0), (1, 0))
        with pytest.raises(ValueError):
            prune_to_tree(graph)

    def test_single_region_net(self):
        graph = ConnectionGraph(net_id=0, pin_regions=[(1, 1)])
        tree = prune_to_tree(graph)
        assert tree.is_tree()
        assert tree.regions() == {(1, 1)}


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
        assert fast_solution.route(net_id).edges == reference_solution.route(net_id).edges
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
