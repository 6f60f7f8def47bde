"""The per-routing panel index and the panel problems shared through it.

``PanelIndex`` replaces every consumer's own walk of
``RouteTree.direction_usage``; these tests pin it to the historic walks in
``tests/oracles/panel_index_reference.py`` (membership, insertion order,
per-net key order) and check that the flows built on it share what they
should: one set of panel skeletons per routing, so ID+NO and iSINO solve
problems over the same sensitivity matrices.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache import SolutionCache
from repro.engine.panels import Engine
from repro.flow.flows import BUDGETS, PANELS_ID_NO, PANELS_ISINO, ROUTE_BASELINE
from repro.flow.flows import build_context, flow_graph, run_compare
from repro.grid.congestion import CongestionMap
from repro.grid.nets import Net, Netlist, Pin
from repro.grid.regions import RoutingGrid
from repro.grid.routes import PanelIndex, RouteTree, RoutingSolution
from repro.gsino.budgeting import compute_budgets
from repro.gsino.phase1 import run_phase1
from repro.gsino.phase2 import build_panel_problems, run_phase2
from repro.gsino.phase3 import LocalRefiner
from tests.oracles.panel_index_reference import (
    panel_keys_reference,
    panel_members_reference,
    scalar_panel_problems,
)

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@st.composite
def random_routings(draw):
    """A routing of random walks on a small grid, routes in a random order.

    Some nets stay in one region with no edges; walks may revisit regions,
    which the index must handle like any other edge set.
    """
    num_cols = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 4))
    grid = RoutingGrid(
        num_cols=num_cols,
        num_rows=num_rows,
        chip_width=100.0 * num_cols,
        chip_height=70.0 * num_rows,
        horizontal_capacity=3,
        vertical_capacity=2,
    )
    num_nets = draw(st.integers(1, 8))
    nets, routes = [], {}
    for net_id in draw(st.permutations(range(num_nets))):
        start = (draw(st.integers(0, num_cols - 1)), draw(st.integers(0, num_rows - 1)))
        edges, here = set(), start
        for step in draw(st.lists(st.sampled_from(_STEPS), max_size=6)):
            there = (here[0] + step[0], here[1] + step[1])
            if there in grid:
                edges.add((here, there))
                here = there
        x, y = grid.region(start).center
        nets.append(Net(net_id=net_id, pins=(Pin(x, y), Pin(x + 1.0, y + 1.0))))
        routes[net_id] = RouteTree(net_id=net_id, pin_regions=(start,), edges=frozenset(edges))
    return RoutingSolution(grid, Netlist(sorted(nets, key=lambda net: net.net_id)), routes)


class TestPanelIndexMatchesTheHistoricWalks:
    @settings(max_examples=80, deadline=None)
    @given(routing=random_routings())
    def test_membership_order_and_net_keys(self, routing):
        index = PanelIndex.of(routing)
        members = panel_members_reference(routing)
        assert {key: list(panel.nets) for key, panel in index.panels.items()} == members
        for key, panel in index.panels.items():
            assert panel.segments == tuple(sorted(members[key]))
            assert panel.capacity == routing.grid.region(key[0]).capacity(key[1])
        for net_id in routing.routes:
            assert list(index.net_keys[net_id]) == panel_keys_reference(routing, net_id)

        # The congestion map's sets are filled in the historic insertion
        # order, so they iterate identically.
        congestion = CongestionMap.from_solution(routing)
        for coord, direction, usage in congestion.entries():
            walked = set()
            for net_id in members.get((coord, direction), ()):
                walked.add(net_id)
            assert list(usage.nets) == list(walked)
            assert routing.nets_in_region(coord, direction) == sorted(walked)
        # Occupied panels come in the congestion map's entry order.
        occupied = [
            (coord, direction)
            for coord, direction, usage in congestion.entries()
            if usage.nets
        ]
        assert list(index.panels) == occupied

    @settings(max_examples=10, deadline=None)
    @given(routing=random_routings())
    def test_index_is_memoised_without_a_back_reference(self, routing):
        index = PanelIndex.of(routing)
        assert PanelIndex.of(routing) is index
        assert not any(value is routing for value in vars(index).values())


@pytest.fixture(scope="module")
def phase1_instance(small_circuit, small_circuit_config):
    budgets = compute_budgets(small_circuit.netlist, small_circuit_config)
    routing = run_phase1(
        small_circuit.grid, small_circuit.netlist, small_circuit_config, budgets=budgets
    ).routing
    return small_circuit, small_circuit_config, budgets, routing


class TestSharedPanelProblems:
    def test_problems_equal_the_scalar_build(self, phase1_instance):
        circuit, config, budgets, routing = phase1_instance
        problems = build_panel_problems(routing, circuit.netlist, budgets, config)
        assert problems == scalar_panel_problems(routing, circuit.netlist, budgets, config)

    def test_rebuilds_share_the_skeleton_and_keep_their_own_bounds(self, phase1_instance):
        circuit, config, budgets, routing = phase1_instance
        first = build_panel_problems(routing, circuit.netlist, budgets, config)
        halved = {
            net_id: dataclasses.replace(budget, kth=budget.kth / 2.0)
            for net_id, budget in budgets.items()
        }
        second = build_panel_problems(routing, circuit.netlist, halved, config)
        assert list(first) == list(second)
        for key, problem in first.items():
            assert second[key].sens is problem.sens
            assert second[key].segments is problem.segments
            assert (second[key].bounds == problem.bounds / 2.0).all()

    def test_foreign_netlist_is_rejected(self, phase1_instance):
        circuit, config, budgets, routing = phase1_instance
        copy = Netlist(list(circuit.netlist.nets()), sensitivity=circuit.netlist.sensitivity)
        with pytest.raises(ValueError, match="netlist"):
            build_panel_problems(routing, copy, budgets, config)
        with pytest.raises(ValueError, match="netlist"):
            run_phase2(routing, copy, budgets, config)

    def test_refiner_lists_a_nets_panels_in_the_historic_order(self, phase1_instance):
        circuit, config, budgets, routing = phase1_instance
        phase2 = run_phase2(routing, circuit.netlist, budgets, config)
        refiner = LocalRefiner(routing, phase2, budgets, circuit.netlist, config)
        for net_id in circuit.netlist.net_ids():
            assert refiner.panel_keys_of(net_id) == panel_keys_reference(routing, net_id)

    def test_id_no_and_isino_share_the_baseline_matrices(self, small_circuit, small_circuit_config):
        context = build_context(
            small_circuit.grid,
            small_circuit.netlist,
            small_circuit_config,
            Engine(cache=SolutionCache()),
        )
        runner = run_compare(context).runner
        id_no = runner.materialize(flow_graph("id_no"), targets=[PANELS_ID_NO])[PANELS_ID_NO]
        isino = runner.materialize(flow_graph("isino"), targets=[PANELS_ISINO])[PANELS_ISINO]
        values = runner.materialize(flow_graph("isino"), targets=[ROUTE_BASELINE, BUDGETS])
        routing = values[ROUTE_BASELINE].routing
        assert list(id_no.problems) == list(isino.problems)
        for key, problem in id_no.problems.items():
            assert isino.problems[key].sens is problem.sens
        expected = scalar_panel_problems(
            routing, small_circuit.netlist, values[BUDGETS], small_circuit_config
        )
        assert id_no.problems == expected
        assert isino.problems == expected
