"""Tests for the three GSINO phases and the baseline flows on a small circuit."""

import pytest

from repro.gsino.baselines import run_id_no, run_isino
from repro.gsino.budgeting import compute_budgets
from repro.gsino.metrics import evaluate_crosstalk
from repro.gsino.phase1 import run_phase1
from repro.gsino.phase2 import build_panel_problem, run_phase2
from repro.gsino.config import UM_TO_M
from repro.gsino.phase3 import LocalRefiner, run_phase3
from tests.oracles.lsk_reference import net_lsk_value_reference
from repro.gsino.pipeline import compare_flows


@pytest.fixture(scope="module")
def instance(small_circuit, small_circuit_config):
    """Phase I output shared by the phase tests (module-scoped for speed)."""
    budgets = compute_budgets(small_circuit.netlist, small_circuit_config)
    phase1 = run_phase1(small_circuit.grid, small_circuit.netlist, small_circuit_config, budgets=budgets)
    return small_circuit, small_circuit_config, budgets, phase1


class TestPhase1:
    def test_routing_covers_all_nets_with_trees(self, instance):
        circuit, config, budgets, phase1 = instance
        assert len(phase1.routing) == circuit.netlist.num_nets
        assert phase1.routing.all_trees_valid()

    def test_budgets_are_positive_and_complete(self, instance):
        circuit, config, budgets, phase1 = instance
        assert set(budgets) == set(circuit.netlist.net_ids())
        assert all(budget.kth > 0 for budget in budgets.values())

    def test_router_report_statistics(self, instance):
        _, _, _, phase1 = instance
        assert phase1.router_report.deleted_edges > 0
        assert phase1.router_report.runtime_seconds > 0.0


class TestPhase2:
    def test_every_occupied_panel_gets_a_solution(self, instance):
        circuit, config, budgets, phase1 = instance
        phase2 = run_phase2(phase1.routing, circuit.netlist, budgets, config, solver="sino")
        assert len(phase2.panels) > 0
        assert set(phase2.panels) == set(phase2.problems)
        for key, solution in phase2.panels.items():
            assert sorted(e for e in solution.layout if e is not None) == sorted(
                phase2.problems[key].segments
            )

    def test_sino_panels_are_locally_valid(self, instance):
        circuit, config, budgets, phase1 = instance
        phase2 = run_phase2(phase1.routing, circuit.netlist, budgets, config, solver="sino")
        invalid = phase2.num_invalid_panels()
        assert invalid <= max(1, len(phase2.panels) // 20)

    def test_ordering_solver_inserts_no_shields(self, instance):
        circuit, config, budgets, phase1 = instance
        ordering = run_phase2(phase1.routing, circuit.netlist, budgets, config, solver="ordering")
        assert ordering.total_shields == 0

    def test_unknown_solver_rejected(self, instance):
        circuit, config, budgets, phase1 = instance
        with pytest.raises(ValueError):
            run_phase2(phase1.routing, circuit.netlist, budgets, config, solver="magic")

    def test_build_panel_problem_restricts_sensitivity(self, instance):
        circuit, config, budgets, _ = instance
        nets = circuit.netlist.net_ids()[:6]
        problem = build_panel_problem(nets, circuit.netlist, budgets, capacity=10, config=config)
        assert set(problem.segments) == set(nets)
        for segment in problem.segments:
            assert problem.aggressors_of(segment) <= set(nets)


class TestPhase3:
    def test_phase3_eliminates_all_violations(self, instance):
        circuit, config, budgets, phase1 = instance
        phase2 = run_phase2(phase1.routing, circuit.netlist, budgets, config, solver="sino")
        report = run_phase3(phase1.routing, phase2, budgets, circuit.netlist, config)
        assert report.violations_after == 0
        assert report.unfixable_nets == []
        crosstalk = evaluate_crosstalk(
            phase1.routing,
            phase2.panels,
            config.lsk_model(),
            bound=config.resolved_bound(),
            length_scale=config.length_scale,
        )
        assert crosstalk.num_violations == 0

    def test_refiner_reads_the_routing_index(self, instance):
        circuit, config, budgets, phase1 = instance
        phase2 = run_phase2(phase1.routing, circuit.netlist, budgets, config, solver="sino")
        refiner = LocalRefiner(phase1.routing, phase2, budgets, circuit.netlist, config)
        grid = phase1.routing.grid
        for net_id in circuit.netlist.net_ids():
            assert refiner.net_lsk(net_id) == net_lsk_value_reference(
                net_id, phase1.routing, refiner._couplings, config.length_scale
            )
            lengths = phase1.routing.route(net_id).region_lengths_um(grid)
            for key in refiner.panel_keys_of(net_id):
                expected = lengths.get(key[0], 0.0) * UM_TO_M * config.length_scale
                assert refiner.net_region_length_m(net_id, key) == expected

    def test_pass2_never_increases_shields(self, instance):
        circuit, config, budgets, phase1 = instance
        phase2 = run_phase2(phase1.routing, circuit.netlist, budgets, config, solver="sino")
        report = run_phase3(phase1.routing, phase2, budgets, circuit.netlist, config)
        assert report.shields_after <= report.shields_after_pass1


class TestFlows:
    @pytest.fixture(scope="class")
    def flows(self, small_circuit, small_circuit_config):
        return compare_flows(small_circuit.grid, small_circuit.netlist, small_circuit_config)

    def test_all_three_flows_present(self, flows):
        assert set(flows) == {"id_no", "isino", "gsino"}

    def test_id_no_has_violations_and_no_shields(self, flows):
        id_no = flows["id_no"]
        assert id_no.metrics.total_shields == 0
        assert id_no.num_violations > 0

    def test_gsino_eliminates_violations(self, flows):
        assert flows["gsino"].num_violations == 0
        assert flows["gsino"].phase3_report is not None

    def test_isino_nearly_eliminates_violations(self, flows):
        # iSINO has no Phase III, so a few detoured nets may remain, but the
        # overwhelming majority of the ID+NO violations must be gone.
        assert flows["isino"].num_violations <= max(3, flows["id_no"].num_violations // 4)

    def test_baselines_share_routing(self, flows):
        id_no, isino = flows["id_no"], flows["isino"]
        assert id_no.routing is isino.routing

    def test_area_ordering_matches_paper_shape(self, flows):
        id_no_area = flows["id_no"].metrics.area.area
        isino_area = flows["isino"].metrics.area.area
        gsino_area = flows["gsino"].metrics.area.area
        assert isino_area >= id_no_area
        assert gsino_area <= isino_area + 1e-6

    def test_gsino_uses_fewer_shields_than_isino(self, flows):
        assert flows["gsino"].metrics.total_shields <= flows["isino"].metrics.total_shields

    def test_flow_result_properties(self, flows):
        result = flows["gsino"]
        assert result.average_wirelength_um > 0
        assert result.routing_area_um2 > 0
        assert result.runtime_seconds > 0

    def test_individual_baseline_helpers(self, small_circuit, small_circuit_config):
        id_no = run_id_no(small_circuit.grid, small_circuit.netlist, small_circuit_config)
        isino = run_isino(small_circuit.grid, small_circuit.netlist, small_circuit_config)
        assert id_no.name == "id_no"
        assert isino.name == "isino"
        assert id_no.metrics.total_shields == 0
        assert isino.metrics.total_shields > 0
