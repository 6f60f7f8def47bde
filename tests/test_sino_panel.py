"""Tests for the SINO problem / solution datatypes and the fresh evaluation."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise.keff import PanelOccupant, panel_couplings
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution


@pytest.fixture
def triangle_problem():
    """Three mutually sensitive segments with a moderate bound."""
    return SinoProblem.build(
        segments=[0, 1, 2],
        sensitivity={0: {1, 2}, 1: {0, 2}, 2: {0, 1}},
        default_kth=1.2,
    )


class TestSinoProblem:
    def test_build_symmetrises_sensitivity(self):
        problem = SinoProblem.build(segments=[0, 1], sensitivity={0: {1}}, default_kth=1.0)
        assert 0 in problem.aggressors_of(1)
        assert 1 in problem.aggressors_of(0)

    def test_build_drops_foreign_segments(self):
        problem = SinoProblem.build(segments=[0, 1], sensitivity={0: {1, 99}}, default_kth=1.0)
        assert problem.aggressors_of(0) == frozenset({1})

    def test_duplicate_segments_rejected(self):
        with pytest.raises(ValueError):
            SinoProblem.build(segments=[0, 0], sensitivity={}, default_kth=1.0)

    def test_bounds_default_and_explicit(self):
        problem = SinoProblem.build(
            segments=[0, 1], sensitivity={}, kth={0: 0.5}, default_kth=2.0
        )
        assert problem.bound_of(0) == pytest.approx(0.5)
        assert problem.bound_of(1) == pytest.approx(2.0)

    def test_sensitivity_rates(self, triangle_problem):
        assert triangle_problem.sensitivity_degree(0) == 2
        assert triangle_problem.sensitivity_rate_of(0) == pytest.approx(1.0)

    def test_with_bounds_creates_modified_copy(self, triangle_problem):
        tightened = triangle_problem.with_bounds({0: 0.3})
        assert tightened.bound_of(0) == pytest.approx(0.3)
        assert triangle_problem.bound_of(0) == pytest.approx(1.2)
        with pytest.raises(ValueError):
            triangle_problem.with_bounds({0: 0.0})

    def test_invalid_defaults(self):
        with pytest.raises(ValueError):
            SinoProblem.build(segments=[0], sensitivity={}, default_kth=0.0)
        with pytest.raises(ValueError):
            SinoProblem.build(segments=[0], sensitivity={}, default_kth=1.0, capacity=-1)


class TestSinoSolution:
    def test_layout_must_contain_all_segments(self, triangle_problem):
        with pytest.raises(ValueError):
            SinoSolution(problem=triangle_problem, layout=[0, 1])
        with pytest.raises(ValueError):
            SinoSolution(problem=triangle_problem, layout=[0, 1, 2, 2])

    def test_counts(self, triangle_problem):
        solution = SinoSolution(problem=triangle_problem, layout=[0, SHIELD, 1, SHIELD, 2])
        assert solution.num_tracks == 5
        assert solution.num_shields == 2
        assert solution.num_segments == 3

    def test_overflow_against_capacity(self):
        problem = SinoProblem.build(segments=[0, 1], sensitivity={}, default_kth=1.0, capacity=2)
        solution = SinoSolution(problem=problem, layout=[0, SHIELD, 1])
        assert solution.overflow == 1
        unlimited = SinoProblem.build(segments=[0, 1], sensitivity={}, default_kth=1.0)
        assert SinoSolution(problem=unlimited, layout=[0, SHIELD, 1]).overflow == 0

    def test_couplings_match_reference_model(self, triangle_problem):
        solution = SinoSolution(problem=triangle_problem, layout=[0, 1, 2])
        expected = panel_couplings(
            [PanelOccupant(track=i, net_id=net) for i, net in enumerate([0, 1, 2])],
            {0: {1, 2}, 1: {0, 2}, 2: {0, 1}},
        )
        couplings = solution.couplings()
        for net_id, value in expected.items():
            assert couplings[net_id] == pytest.approx(value)

    def test_capacitive_and_inductive_violations(self, triangle_problem):
        bare = SinoSolution(problem=triangle_problem, layout=[0, 1, 2])
        assert len(bare.capacitive_violation_pairs()) == 2
        assert 1 in bare.inductive_violations()  # middle net couples to both sides
        assert not bare.is_valid()
        shielded = SinoSolution(problem=triangle_problem, layout=[0, SHIELD, 1, SHIELD, 2])
        assert shielded.capacitive_violation_pairs() == []

    def test_slack(self, triangle_problem):
        solution = SinoSolution(problem=triangle_problem, layout=[0, SHIELD, 1, SHIELD, 2])
        for segment in triangle_problem.segments:
            assert solution.slack_of(segment) == pytest.approx(
                triangle_problem.bound_of(segment) - solution.coupling_of(segment)
            )

    def test_compact_removes_redundant_shields(self, triangle_problem):
        messy = SinoSolution(
            problem=triangle_problem,
            layout=[SHIELD, 0, SHIELD, SHIELD, 1, 2, SHIELD],
        )
        compacted = messy.compact()
        assert compacted.layout == [0, SHIELD, 1, 2]
        # Compaction never changes which segments are present.
        assert sorted(e for e in compacted.layout if e is not SHIELD) == [0, 1, 2]

    def test_copy_is_independent(self, triangle_problem):
        original = SinoSolution(problem=triangle_problem, layout=[0, 1, 2])
        clone = original.copy()
        clone.layout.insert(1, SHIELD)
        assert original.num_shields == 0
        assert clone.num_shields == 1

    def test_position_of(self, triangle_problem):
        solution = SinoSolution(problem=triangle_problem, layout=[2, SHIELD, 0, 1])
        assert solution.position_of(2) == 0
        assert solution.position_of(0) == 2


class TestPanelEvaluator:
    """The problem's fresh layout evaluation against the scalar Keff model."""

    def test_matches_solution_couplings_random(self, random_sino_problem):
        for seed in range(5):
            problem = random_sino_problem(7, 0.5, 1.0, seed=seed)
            rng = np.random.default_rng(seed)
            layout = list(problem.segments)
            rng.shuffle(layout)
            # Sprinkle a few shields.
            for _ in range(2):
                layout.insert(int(rng.integers(0, len(layout) + 1)), SHIELD)
            solution = SinoSolution(problem=problem, layout=layout)
            fast = problem.couplings(layout)
            reference = panel_couplings(
                solution.occupants(),
                {s: set(problem.aggressors_of(s)) for s in problem.segments},
            )
            for segment, value in reference.items():
                assert fast[segment] == pytest.approx(value, abs=1e-12)

    def test_total_excess_and_violations(self):
        problem = SinoProblem.build(
            segments=[0, 1], sensitivity={0: {1}}, default_kth=0.5
        )
        assert problem.total_excess([0, 1]) == pytest.approx(1.0)  # two nets, each 0.5 over
        assert problem.excess_vector([0, 1]).tolist() == pytest.approx([0.5, 0.5])
        assert set(SinoSolution(problem, [0, 1]).inductive_violations()) == {0, 1}
        assert problem.total_excess([0, None, 1]) == pytest.approx(0.0)
        assert problem.capacitive_count([0, 1]) == 1
        assert problem.capacitive_count([0, None, 1]) == 0

    def test_layout_validation(self):
        problem = SinoProblem.build(segments=[0, 1], sensitivity={}, default_kth=1.0)
        with pytest.raises(ValueError):
            problem.couplings([0])
        with pytest.raises(ValueError):
            problem.couplings([0, 1, 7])


_mappings = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.sets(st.integers(min_value=0, max_value=30), max_size=8),
    max_size=12,
)


class TestRelationMatrix:
    """``SinoProblem`` holds one symmetric matrix, whatever the mapping."""

    @given(_mappings, st.lists(st.integers(min_value=0, max_value=30), unique=True, max_size=15))
    @settings(max_examples=150, deadline=None)
    def test_build_symmetrises_and_restricts_any_mapping(self, mapping, segments):
        problem = SinoProblem.build(segments=segments, sensitivity=mapping, default_kth=1.0)
        sens = problem.sens
        assert sens.shape == (len(segments), len(segments))
        assert np.array_equal(sens, sens.T)
        assert not sens.diagonal().any()
        for i, a in enumerate(segments):
            for j, b in enumerate(segments):
                expected = a != b and (b in mapping.get(a, ()) or a in mapping.get(b, ()))
                assert sens[i, j] == expected

    def test_directional_mapping_with_foreign_ids(self):
        problem = SinoProblem.build(
            segments=[5, 2, 9], sensitivity={2: {5, 2, 40}, 40: {9}}, default_kth=1.0
        )
        assert problem.sens.tolist() == [
            [False, True, False],
            [True, False, False],
            [False, False, False],
        ]
        assert problem.aggressors_of(5) == frozenset({2})
        assert problem.aggressors_of(9) == frozenset()

    def test_constructor_rejects_malformed_arrays(self):
        bounds = np.ones(2)
        asymmetric = np.array([[False, True], [False, False]])
        with pytest.raises(ValueError):
            SinoProblem(segments=(0, 1), sens=asymmetric, bounds=bounds)
        with pytest.raises(ValueError):
            SinoProblem(segments=(0, 1), sens=np.eye(2, dtype=bool), bounds=bounds)
        with pytest.raises(ValueError):
            SinoProblem(segments=(0, 1), sens=np.zeros((2, 2), dtype=bool), bounds=np.ones(3))

    def test_equality_pickle_and_shared_matrix(self, triangle_problem):
        copy = pickle.loads(pickle.dumps(triangle_problem))
        assert copy == triangle_problem
        assert copy != triangle_problem.with_bounds({1: 0.7})
        tightened = triangle_problem.with_bounds({1: 0.7})
        assert tightened.sens is triangle_problem.sens
        assert tightened.bounds.tolist() == [1.2, 0.7, 1.2]
        assert triangle_problem.bounds.tolist() == [1.2, 1.2, 1.2]
        with pytest.raises(ValueError):
            triangle_problem.sens[0, 1] = False
        with pytest.raises(ValueError):
            triangle_problem.with_bounds({99: 1.0})
