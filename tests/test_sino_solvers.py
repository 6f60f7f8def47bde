"""Tests for the greedy / annealing SINO solvers and the NO baseline."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sino.anneal import AnnealConfig, anneal_sino, solution_cost, solve_min_area_sino
from repro.sino.checker import assert_valid, check_solution
from repro.sino.greedy import (
    fix_inductive_violations,
    greedy_order,
    greedy_sino,
    insert_capacitive_shields,
)
from repro.sino.incremental import IncrementalPanelState, Move
from repro.sino.net_ordering import net_ordering_only
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution

from tests.conftest import make_random_sino_problem
from tests.oracles.greedy_reference import (
    fix_inductive_violations_reference,
    greedy_order_reference,
    greedy_sino_reference,
)
from tests.oracles.panel_reference import PanelReference


@st.composite
def sino_problems(draw, max_segments=48):
    """Random panels: any size up to ``max_segments``, rate, bound and capacity."""
    num_segments = draw(st.integers(min_value=0, max_value=max_segments))
    rate = draw(st.floats(min_value=0.0, max_value=1.0))
    kth = draw(st.floats(min_value=0.05, max_value=2.5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    capacity = draw(st.sampled_from([0, max(1, num_segments), num_segments + 4]))
    problem = make_random_sino_problem(num_segments, rate, kth, seed=seed)
    if draw(st.booleans()):
        # Per-segment bounds around the default, so segments differ in slack.
        rng = np.random.default_rng(seed)
        bounds = {segment: kth * float(rng.uniform(0.5, 1.5)) for segment in problem.segments}
        problem = problem.with_bounds(bounds)
    return dataclasses.replace(problem, capacity=capacity)


def _random_layout(problem, seed):
    """A random permutation of the segments with random shields, doubled
    shields and edge shields included."""
    rng = np.random.default_rng(seed)
    layout = [int(segment) for segment in rng.permutation(list(problem.segments))]
    for _ in range(int(rng.integers(0, len(layout) // 2 + 3))):
        layout.insert(int(rng.integers(0, len(layout) + 1)), SHIELD)
    return layout


def _reference_insert_excess(problem, layout, gap):
    candidate = list(layout)
    candidate.insert(gap, SHIELD)
    return PanelReference(problem).total_excess(candidate)


class TestGreedyOrder:
    def test_order_contains_every_segment_once(self, random_sino_problem):
        problem = random_sino_problem(10, 0.4, 1.0, seed=1)
        order = greedy_order(problem)
        assert sorted(order) == sorted(problem.segments)

    def test_empty_problem(self):
        problem = SinoProblem.build(segments=[], sensitivity={}, default_kth=1.0)
        assert greedy_order(problem) == []

    def test_insensitive_segments_need_no_shields(self):
        problem = SinoProblem.build(segments=[0, 1, 2], sensitivity={}, default_kth=10.0)
        solution = greedy_sino(problem)
        assert solution.num_shields == 0
        assert solution.is_valid()

    def test_capacitive_shield_insertion(self):
        problem = SinoProblem.build(
            segments=[0, 1], sensitivity={0: {1}}, default_kth=10.0
        )
        layout = insert_capacitive_shields(problem, [0, 1])
        assert layout == [0, SHIELD, 1]


class TestGreedySino:
    @pytest.mark.parametrize("num_segments,rate,kth", [
        (4, 0.5, 1.0),
        (8, 0.3, 0.8),
        (12, 0.5, 1.0),
        (16, 0.7, 1.5),
        (24, 0.3, 1.0),
    ])
    def test_produces_valid_solutions(self, num_segments, rate, kth):
        problem = make_random_sino_problem(num_segments, rate, kth, seed=num_segments)
        solution = greedy_sino(problem)
        assert solution.is_valid(), check_solution(solution)
        assert sorted(e for e in solution.layout if e is not SHIELD) == sorted(problem.segments)

    def test_tight_bound_needs_more_shields_than_loose(self):
        tight = make_random_sino_problem(10, 0.5, 0.4, seed=3)
        loose = make_random_sino_problem(10, 0.5, 2.5, seed=3)
        assert greedy_sino(tight).num_shields >= greedy_sino(loose).num_shields

    def test_fully_sensitive_pair_with_extreme_bound(self):
        problem = SinoProblem.build(
            segments=[0, 1], sensitivity={0: {1}}, default_kth=0.01
        )
        solution = greedy_sino(problem)
        # A single shield between two nets at distance 2 attenuates far below 0.01? No —
        # 1/(2*4) = 0.125 > 0.01, so more shields are needed; the solver keeps adding
        # within its guard and reports the best it found.
        assert solution.num_shields >= 1

    def test_fix_inductive_respects_guard(self):
        problem = make_random_sino_problem(6, 0.8, 0.05, seed=9)
        start = SinoSolution(problem=problem, layout=list(problem.segments))
        fixed = fix_inductive_violations(start, max_extra_shields=1)
        assert fixed.num_shields <= 1


class TestGreedyMatchesReference:
    """The incremental greedy reproduces the scalar oracle bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(problem=sino_problems())
    def test_greedy_layout_and_order_equal_reference(self, problem):
        assert greedy_order(problem) == greedy_order_reference(problem)
        assert greedy_sino(problem).layout == greedy_sino_reference(problem).layout

    @settings(max_examples=25, deadline=None)
    @given(
        problem=sino_problems(max_segments=16),
        seed=st.integers(0, 2**16),
        guard=st.integers(0, 4),
    )
    def test_fix_inductive_equals_reference_from_any_layout(self, problem, seed, guard):
        start = SinoSolution(problem=problem, layout=_random_layout(problem, seed))
        fast = fix_inductive_violations(start, max_extra_shields=guard)
        reference = fix_inductive_violations_reference(start, max_extra_shields=guard)
        assert fast.layout == reference.layout

    def test_dense_tight_panel_equals_reference(self):
        problem = make_random_sino_problem(48, 0.9, 0.05, seed=5)
        assert greedy_sino(problem).layout == greedy_sino_reference(problem).layout


class TestInsertExcessKernel:
    """``IncrementalPanelState.insert_excess`` against fresh evaluations."""

    @settings(max_examples=40, deadline=None)
    @given(problem=sino_problems(max_segments=24), seed=st.integers(0, 2**16))
    def test_every_gap_equals_total_excess(self, problem, seed):
        layout = _random_layout(problem, seed)
        if seed % 3 == 0:
            layout = [entry for entry in layout if entry is not SHIELD]
        state = IncrementalPanelState(problem, layout, AnnealConfig())
        gaps = list(range(len(layout) + 1))
        expected = [_reference_insert_excess(problem, layout, gap) for gap in gaps]
        assert state.insert_excess(gaps).tolist() == expected

    @settings(max_examples=20, deadline=None)
    @given(problem=sino_problems(max_segments=24), seed=st.integers(0, 2**16))
    def test_after_committed_inserts(self, problem, seed):
        """The kernel reads incrementally maintained matrices, not fresh ones."""
        rng = np.random.default_rng(seed)
        state = IncrementalPanelState(problem, list(problem.segments), AnnealConfig())
        for _ in range(int(rng.integers(1, 5))):
            state.propose(Move.insert(int(rng.integers(0, state.num_tracks + 1))))
            state.commit()
        layout = state.to_layout()
        gaps = list(range(len(layout) + 1))
        expected = [_reference_insert_excess(problem, layout, gap) for gap in gaps]
        assert state.insert_excess(gaps).tolist() == expected

    def test_excess_vector_matches_evaluator(self):
        problem = make_random_sino_problem(14, 0.6, 0.4, seed=2)
        layout = _random_layout(problem, 3)
        state = IncrementalPanelState(problem, layout, AnnealConfig())
        expected = PanelReference(problem).excess_vector(layout)
        assert state.excess_vector().tolist() == expected.tolist()

    def test_empty_panel_and_empty_gap_list(self):
        empty = SinoProblem.build(segments=[], sensitivity={}, default_kth=1.0)
        state = IncrementalPanelState(empty, [SHIELD], AnnealConfig())
        assert state.insert_excess([0, 1]).tolist() == [0.0, 0.0]
        problem = make_random_sino_problem(5, 0.5, 0.3, seed=1)
        state = IncrementalPanelState(problem, list(problem.segments), AnnealConfig())
        assert state.insert_excess([]).size == 0

    def test_chunked_call_equals_unchunked(self, monkeypatch):
        import repro.sino.incremental as incremental

        problem = make_random_sino_problem(40, 0.7, 0.3, seed=4)
        layout = _random_layout(problem, 9)
        state = IncrementalPanelState(problem, layout, AnnealConfig())
        gaps = list(range(len(layout) + 1))
        assert len(gaps) > incremental._INSERT_CHUNK
        chunked = state.insert_excess(gaps).tolist()
        monkeypatch.setattr(incremental, "_INSERT_CHUNK", len(gaps))
        assert state.insert_excess(gaps).tolist() == chunked
        monkeypatch.setattr(incremental, "_INSERT_CHUNK", 3)
        assert state.insert_excess(gaps).tolist() == chunked


class TestNetOrderingBaseline:
    def test_no_shields_ever(self, random_sino_problem):
        problem = random_sino_problem(10, 0.5, 1.0, seed=2)
        solution = net_ordering_only(problem)
        assert solution.num_shields == 0
        assert solution.num_tracks == problem.num_segments

    def test_ordering_reduces_adjacent_sensitive_pairs(self):
        # A path-sensitivity structure can always be ordered conflict-free.
        problem = SinoProblem.build(
            segments=[0, 1, 2, 3],
            sensitivity={0: {1}, 1: {2}, 2: {3}},
            default_kth=10.0,
        )
        solution = net_ordering_only(problem)
        assert solution.capacitive_violation_pairs() == []

    def test_dense_sensitivity_leaves_violations(self):
        problem = make_random_sino_problem(8, 1.0, 10.0, seed=0)
        solution = net_ordering_only(problem)
        # Everything is sensitive to everything: adjacency violations are unavoidable.
        assert len(solution.capacitive_violation_pairs()) == 7


class TestAnnealing:
    def test_anneal_config_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(iterations=0)
        with pytest.raises(ValueError):
            AnnealConfig(initial_temperature=0.0)
        with pytest.raises(ValueError):
            AnnealConfig(initial_temperature=1.0, final_temperature=2.0)

    def test_temperature_schedule_is_decreasing(self):
        config = AnnealConfig(iterations=100)
        temps = [config.temperature_at(i) for i in range(100)]
        assert temps[0] == pytest.approx(config.initial_temperature)
        assert temps[-1] == pytest.approx(config.final_temperature, rel=1e-6)
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_cost_prefers_valid_small_layouts(self):
        problem = make_random_sino_problem(6, 0.5, 1.0, seed=4)
        config = AnnealConfig()
        valid = greedy_sino(problem)
        invalid = SinoSolution(problem=problem, layout=list(problem.segments))
        if not invalid.is_valid():
            assert solution_cost(invalid, config) > solution_cost(valid, config)

    def test_anneal_never_worse_than_greedy(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=7)
        greedy = greedy_sino(problem)
        annealed = anneal_sino(problem, config=AnnealConfig(iterations=600, seed=1))
        assert annealed.is_valid()
        assert annealed.num_shields <= greedy.num_shields

    def test_solve_min_area_dispatch(self):
        problem = make_random_sino_problem(5, 0.4, 1.0, seed=11)
        assert solve_min_area_sino(problem, effort="greedy").is_valid()
        assert solve_min_area_sino(
            problem, effort="anneal", config=AnnealConfig(iterations=200)
        ).is_valid()
        with pytest.raises(ValueError):
            solve_min_area_sino(problem, effort="exhaustive")


class TestChecker:
    def test_check_result_fields(self):
        problem = make_random_sino_problem(6, 0.6, 0.7, seed=5)
        bare = SinoSolution(problem=problem, layout=list(problem.segments))
        result = check_solution(bare)
        assert result.num_tracks == 6
        assert result.num_shields == 0
        assert result.num_violating_segments > 0
        assert result.worst_inductive_excess() >= 0.0

    def test_assert_valid_raises_with_message(self):
        problem = SinoProblem.build(segments=[0, 1], sensitivity={0: {1}}, default_kth=0.1)
        bare = SinoSolution(problem=problem, layout=[0, 1])
        with pytest.raises(AssertionError):
            assert_valid(bare)
        assert_valid(greedy_sino(make_random_sino_problem(5, 0.3, 1.5, seed=8)))

    @settings(max_examples=25, deadline=None)
    @given(
        num_segments=st.integers(min_value=2, max_value=12),
        rate=st.floats(min_value=0.0, max_value=0.8),
        kth=st.floats(min_value=0.5, max_value=3.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_greedy_solutions_are_valid_property(self, num_segments, rate, kth, seed):
        problem = make_random_sino_problem(num_segments, rate, kth, seed=seed)
        solution = greedy_sino(problem)
        result = check_solution(solution)
        assert result.is_valid
