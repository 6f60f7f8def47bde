"""Tests for the crosstalk / wire-length / area evaluation metrics."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.nets import Net, Netlist, Pin
from repro.grid.regions import HORIZONTAL, VERTICAL, RoutingGrid
from repro.grid.routes import RouteTree, RoutingSolution
from repro.gsino.config import GsinoConfig
from repro.gsino.metrics import (
    CrosstalkReport,
    SinkPathIndex,
    compute_flow_metrics,
    evaluate_crosstalk,
    net_lsk_value,
    net_noise_voltage,
    panel_coupling_cache,
    shields_by_region,
)
from repro.noise.lsk import LskModel, linear_reference_table
from repro.router.iterative_deletion import route_netlist
from repro.router.weights import WeightConfig
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution
from tests.conftest import make_random_routing_instance
from tests.oracles.lsk_reference import net_lsk_value_reference


@pytest.fixture
def setup():
    """A 2x1 grid with two sensitive nets running in parallel through both regions."""
    grid = RoutingGrid(
        num_cols=2,
        num_rows=1,
        chip_width=2000.0,
        chip_height=1000.0,
        horizontal_capacity=4,
        vertical_capacity=4,
        track_pitch_um=1.0,
    )
    nets = [
        Net(net_id=0, pins=(Pin(100, 500), Pin(1900, 500))),
        Net(net_id=1, pins=(Pin(100, 510), Pin(1900, 510))),
    ]
    netlist = Netlist(nets, sensitivity={0: {1}})
    edges = frozenset({((0, 0), (1, 0))})
    routes = {
        0: RouteTree(0, ((0, 0), (1, 0)), edges),
        1: RouteTree(1, ((0, 0), (1, 0)), edges),
    }
    routing = RoutingSolution(grid, netlist, routes)
    problem = SinoProblem.build([0, 1], {0: {1}}, default_kth=10.0)
    return grid, netlist, routing, problem


class TestNetLskAndNoise:
    def test_adjacent_nets_accumulate_full_coupling(self, setup):
        grid, netlist, routing, problem = setup
        panels = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
        }
        couplings = panel_coupling_cache(panels)
        # K = 1.0 in both regions, net crosses 1000 um per region (half-edge on
        # each side of the single edge): LSK = 1.0 * 1000e-6 + ... = 1e-3.
        lsk = net_lsk_value(0, routing, couplings)
        assert lsk == pytest.approx(1.0e-3)

    def test_shielded_panels_reduce_lsk(self, setup):
        grid, netlist, routing, problem = setup
        bare = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
        }
        shielded = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, SHIELD, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, SHIELD, 1]),
        }
        lsk_bare = net_lsk_value(0, routing, panel_coupling_cache(bare))
        lsk_shielded = net_lsk_value(0, routing, panel_coupling_cache(shielded))
        assert lsk_shielded < lsk_bare

    def test_length_scale_multiplies_lsk(self, setup):
        grid, netlist, routing, problem = setup
        panels = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
        }
        couplings = panel_coupling_cache(panels)
        assert net_lsk_value(0, routing, couplings, length_scale=3.0) == pytest.approx(
            3.0 * net_lsk_value(0, routing, couplings)
        )

    def test_noise_uses_table(self, setup):
        grid, netlist, routing, problem = setup
        panels = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
        }
        model = LskModel(table=linear_reference_table(slope=100.0))
        noise = net_noise_voltage(0, routing, panel_coupling_cache(panels), model)
        assert noise == pytest.approx(100.0 * 1.0e-3)


def _random_couplings(grid, net_ids, seed):
    """Random ``{panel: {net: K}}`` maps, some panels and entries missing."""
    rng = np.random.default_rng(seed)
    couplings = {}
    for coord in (region.coord for region in grid.regions()):
        for direction in (HORIZONTAL, VERTICAL):
            if rng.random() < 0.7:
                couplings[(coord, direction)] = {
                    net_id: float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
                    for net_id in net_ids
                    if rng.random() < 0.6
                }
    return couplings


class TestSinkPathIndexMatchesReference:
    """The memoised sink-path index reproduces the per-call BFS exactly."""

    @settings(max_examples=50, deadline=None)
    @given(
        num_cols=st.integers(1, 6),
        num_rows=st.integers(1, 6),
        num_nets=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        length_scale=st.one_of(st.just(1.0), st.floats(0.05, 20.0)),
    )
    def test_random_routings_and_panels(self, num_cols, num_rows, num_nets, seed, length_scale):
        grid, netlist = make_random_routing_instance(
            num_cols, num_rows, num_nets, capacity=4, sensitivity_rate=0.3, seed=seed
        )
        routing, _ = route_netlist(grid, netlist, config=WeightConfig(reserve_shields=False))
        model = LskModel(table=linear_reference_table(slope=100.0))
        for couplings_seed in (seed, seed + 1):
            couplings = _random_couplings(grid, netlist.net_ids(), couplings_seed)
            report = evaluate_crosstalk(
                routing, {}, model, bound=0.15, length_scale=length_scale, couplings=couplings
            )
            for net_id in netlist.net_ids():
                for scale in (1.0, length_scale):
                    assert net_lsk_value(net_id, routing, couplings, scale) == (
                        net_lsk_value_reference(net_id, routing, couplings, scale)
                    )
                expected = net_lsk_value_reference(net_id, routing, couplings, length_scale)
                assert report.net_noise[net_id] == model.table.noise_for(expected)

    def test_index_is_memoised_per_length_scale(self, setup):
        _grid, _netlist, routing, _problem = setup
        index = SinkPathIndex.of(routing, 2.0)
        assert SinkPathIndex.of(routing, 2.0) is index
        assert SinkPathIndex.of(routing, 1.0) is not index

    def test_memoised_index_does_not_keep_its_routing_alive(self, setup):
        grid, netlist, routing, _problem = setup
        copy = RoutingSolution(grid, netlist, routing.routes)
        net_lsk_value(0, copy, {})
        alive = weakref.ref(copy)
        gc.disable()
        try:
            del copy
            assert alive() is None
        finally:
            gc.enable()

    def test_multi_sink_net_takes_its_worst_sink(self):
        grid = RoutingGrid(
            num_cols=3,
            num_rows=1,
            chip_width=300.0,
            chip_height=100.0,
            horizontal_capacity=4,
            vertical_capacity=4,
        )
        net = Net(net_id=0, pins=(Pin(150, 50), Pin(50, 50), Pin(250, 50)))
        netlist = Netlist([net])
        edges = frozenset({((0, 0), (1, 0)), ((1, 0), (2, 0))})
        routing = RoutingSolution(grid, netlist, {0: RouteTree(0, ((1, 0), (0, 0), (2, 0)), edges)})
        couplings = {((2, 0), HORIZONTAL): {0: 2.0}, ((1, 0), HORIZONTAL): {0: 0.5}}
        value = net_lsk_value(0, routing, couplings)
        assert value == net_lsk_value_reference(0, routing, couplings)
        assert value == pytest.approx(50e-6 * (0.5 + 2.0))


class TestEvaluateCrosstalk:
    def test_violations_detected_against_bound(self, setup):
        grid, netlist, routing, problem = setup
        panels = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
        }
        model = LskModel(table=linear_reference_table(slope=200.0))  # noise = 0.2 V
        report = evaluate_crosstalk(routing, panels, model, bound=0.15)
        assert report.num_nets == 2
        assert set(report.violating_nets) == {0, 1}
        assert report.violation_fraction == pytest.approx(1.0)
        assert report.worst_noise() > 0.15
        assert report.excess_of(0) > 0.0

    def test_no_violations_with_loose_bound(self, setup):
        grid, netlist, routing, problem = setup
        panels = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, SHIELD, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, SHIELD, 1]),
        }
        model = LskModel(table=linear_reference_table(slope=100.0))
        report = evaluate_crosstalk(routing, panels, model, bound=0.15)
        assert report.num_violations == 0
        assert report.violation_fraction == 0.0

    def test_empty_report_defaults(self):
        report = CrosstalkReport(bound=0.15)
        assert report.num_nets == 0
        assert report.worst_noise() == 0.0
        assert report.violation_fraction == 0.0


class TestFlowMetrics:
    def test_compute_flow_metrics_summary(self, setup):
        grid, netlist, routing, problem = setup
        panels = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, SHIELD, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, SHIELD, 1]),
        }
        config = GsinoConfig(lsk_table=linear_reference_table(slope=100.0))
        metrics, congestion = compute_flow_metrics(routing, panels, config)
        summary = metrics.summary()
        assert summary["average_wirelength_um"] == pytest.approx(1000.0)
        assert summary["total_shields"] == pytest.approx(2.0)
        assert summary["num_violations"] == pytest.approx(0.0)
        assert summary["routing_area_um2"] >= grid.chip_width * grid.chip_height

    def test_shields_by_region_extraction(self, setup):
        grid, netlist, routing, problem = setup
        panels = {
            ((0, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, SHIELD, SHIELD, 1]),
            ((1, 0), HORIZONTAL): SinoSolution(problem=problem, layout=[0, 1]),
        }
        shields = shields_by_region(panels)
        assert shields[((0, 0), HORIZONTAL)] == pytest.approx(2.0)
        assert shields[((1, 0), HORIZONTAL)] == pytest.approx(0.0)
