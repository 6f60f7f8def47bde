"""Tests for the routing grid, nets, sensitivity oracles and Steiner estimates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.grid.nets import Net, Netlist, Pin
from repro.grid.regions import HORIZONTAL, VERTICAL, Region, RoutingGrid
from repro.grid.sensitivity import (
    ExplicitSensitivity,
    RandomPairwiseSensitivity,
)
from repro.grid.steiner import hpwl, prim_steiner_length, rsmt_length_estimate, steiner_ratio


@pytest.fixture
def grid():
    return RoutingGrid(
        num_cols=4,
        num_rows=3,
        chip_width=400.0,
        chip_height=300.0,
        horizontal_capacity=10,
        vertical_capacity=8,
    )


class TestRoutingGrid:
    def test_region_lookup_and_geometry(self, grid):
        region = grid.region((1, 2))
        assert region.width == pytest.approx(100.0)
        assert region.height == pytest.approx(100.0)
        assert region.coord == (1, 2)
        assert region.center == pytest.approx((150.0, 250.0))
        assert grid.num_regions == 12

    def test_region_of_point_and_clamping(self, grid):
        assert grid.region_of_point(0.0, 0.0).coord == (0, 0)
        assert grid.region_of_point(399.9, 299.9).coord == (3, 2)
        assert grid.region_of_point(400.0, 300.0).coord == (3, 2)
        with pytest.raises(ValueError):
            grid.region_of_point(401.0, 10.0)

    def test_unknown_region_raises(self, grid):
        with pytest.raises(KeyError):
            grid.region((9, 9))
        assert (9, 9) not in grid
        assert (1, 1) in grid

    def test_neighbors(self, grid):
        assert set(grid.neighbors((0, 0))) == {(1, 0), (0, 1)}
        assert set(grid.neighbors((1, 1))) == {(0, 1), (2, 1), (1, 0), (1, 2)}

    def test_edge_direction_and_length(self, grid):
        assert grid.edge_direction((0, 0), (1, 0)) == HORIZONTAL
        assert grid.edge_direction((2, 1), (2, 2)) == VERTICAL
        assert grid.edge_length((0, 0), (1, 0)) == pytest.approx(100.0)
        assert grid.edge_length((2, 1), (2, 2)) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            grid.edge_direction((0, 0), (1, 1))

    def test_bounding_box_regions(self, grid):
        box = grid.bounding_box_regions([(0, 0), (2, 1)])
        assert len(box) == 6
        margin = grid.bounding_box_regions([(0, 0), (2, 1)], margin=1)
        assert len(margin) == 12  # clipped to the grid
        with pytest.raises(ValueError):
            grid.bounding_box_regions([])

    def test_manhattan_distance(self, grid):
        assert grid.manhattan_distance_um((0, 0), (2, 1)) == pytest.approx(300.0)

    def test_capacity_and_span_by_direction(self, grid):
        region = grid.region((0, 0))
        assert region.capacity(HORIZONTAL) == 10
        assert region.capacity(VERTICAL) == 8
        assert region.span(HORIZONTAL) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            region.capacity("diagonal")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RoutingGrid(0, 3, 100, 100, 5, 5)
        with pytest.raises(ValueError):
            RoutingGrid(2, 2, -1, 100, 5, 5)
        with pytest.raises(ValueError):
            RoutingGrid(2, 2, 100, 100, 0, 5)
        with pytest.raises(ValueError):
            RoutingGrid(2, 2, 100, 100, 5, 5, track_pitch_um=0.0)

    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region(ix=-1, iy=0, width=1, height=1, horizontal_capacity=1, vertical_capacity=1)
        with pytest.raises(ValueError):
            Region(ix=0, iy=0, width=0, height=1, horizontal_capacity=1, vertical_capacity=1)


class TestPinsAndNets:
    def test_pin_distance(self):
        assert Pin(0, 0).manhattan_distance(Pin(3, 4)) == pytest.approx(7.0)
        with pytest.raises(ValueError):
            Pin(-1.0, 0.0)

    def test_net_requires_two_pins(self):
        with pytest.raises(ValueError):
            Net(net_id=0, pins=(Pin(0, 0),))
        with pytest.raises(ValueError):
            Net(net_id=-1, pins=(Pin(0, 0), Pin(1, 1)))

    def test_net_source_sinks_hpwl(self):
        net = Net(net_id=0, pins=(Pin(0, 0), Pin(10, 5), Pin(4, 20)))
        assert net.source == Pin(0, 0)
        assert len(net.sinks) == 2
        assert net.hpwl() == pytest.approx(30.0)
        assert net.source_sink_distances() == [pytest.approx(15.0), pytest.approx(24.0)]

    def test_net_pin_regions(self, grid):
        net = Net(net_id=0, pins=(Pin(10, 10), Pin(210, 10), Pin(15, 12)))
        regions = net.pin_regions(grid)
        assert regions == [(0, 0), (2, 0)]


class TestNetlist:
    def make_netlist(self):
        nets = [
            Net(net_id=i, pins=(Pin(0, i * 10.0), Pin(50, i * 10.0)))
            for i in range(4)
        ]
        return Netlist(nets, sensitivity={0: {1}, 2: {3}}, name="t")

    def test_lookup_and_iteration(self):
        netlist = self.make_netlist()
        assert netlist.num_nets == 4
        assert len(netlist) == 4
        assert netlist.net(2).net_id == 2
        assert [net.net_id for net in netlist.nets()] == [0, 1, 2, 3]
        assert 3 in netlist and 9 not in netlist
        with pytest.raises(KeyError):
            netlist.net(9)

    def test_duplicate_ids_rejected(self):
        pins = (Pin(0, 0), Pin(1, 1))
        with pytest.raises(ValueError):
            Netlist([Net(0, pins), Net(0, pins)])

    def test_sensitivity_is_symmetric(self):
        netlist = self.make_netlist()
        assert netlist.are_sensitive(0, 1)
        assert netlist.are_sensitive(1, 0)
        assert not netlist.are_sensitive(0, 2)

    def test_sensitivity_rate_definition(self):
        netlist = self.make_netlist()
        assert netlist.sensitivity_rate(0) == pytest.approx(1 / 3)
        assert netlist.average_sensitivity_rate() == pytest.approx(1 / 3)

    def test_relation_matrix(self):
        netlist = self.make_netlist()
        matrix = netlist.sensitivity.relation_matrix([0, 1, 2, 3])
        assert matrix.tolist() == [
            [False, True, False, False],
            [True, False, False, False],
            [False, False, False, True],
            [False, False, True, False],
        ]

    def test_with_sensitivity_replaces_oracle(self):
        netlist = self.make_netlist()
        rewired = netlist.with_sensitivity({0: {3}})
        assert rewired.are_sensitive(0, 3)
        assert not rewired.are_sensitive(0, 1)

    def test_unknown_sensitivity_entry_rejected(self):
        pins = (Pin(0, 0), Pin(1, 1))
        with pytest.raises(ValueError):
            Netlist([Net(0, pins)], sensitivity={5: {0}})

    def test_aggregate_statistics(self):
        netlist = self.make_netlist()
        assert netlist.total_hpwl() == pytest.approx(200.0)
        assert netlist.average_pin_count() == pytest.approx(2.0)


class TestSensitivityOracles:
    def test_explicit_empty(self):
        oracle = ExplicitSensitivity.empty()
        assert not oracle.are_sensitive(0, 1)
        assert oracle.rate_of(0, 100) == 0.0

    def test_random_oracle_is_symmetric_and_deterministic(self):
        oracle = RandomPairwiseSensitivity(rate=0.4, seed=3)
        again = RandomPairwiseSensitivity(rate=0.4, seed=3)
        for a in range(20):
            for b in range(a + 1, 20):
                assert oracle.are_sensitive(a, b) == oracle.are_sensitive(b, a)
                assert oracle.are_sensitive(a, b) == again.are_sensitive(a, b)

    def test_random_oracle_never_self_sensitive(self):
        oracle = RandomPairwiseSensitivity(rate=1.0, seed=0)
        assert not oracle.are_sensitive(7, 7)

    def test_random_oracle_rate_matches_nominal(self):
        oracle = RandomPairwiseSensitivity(rate=0.3, seed=1)
        count = 0
        total = 0
        for a in range(60):
            for b in range(a + 1, 60):
                total += 1
                count += oracle.are_sensitive(a, b)
        assert count / total == pytest.approx(0.3, abs=0.05)
        assert oracle.rate_of(0, 1000) == pytest.approx(0.3)

    def test_random_oracle_rate_validation(self):
        with pytest.raises(ValueError):
            RandomPairwiseSensitivity(rate=1.5)

    def test_local_map_symmetry(self):
        oracle = RandomPairwiseSensitivity(rate=0.5, seed=2)
        matrix = oracle.relation_matrix(list(range(10)))
        assert np.array_equal(matrix, matrix.T)
        assert not matrix.diagonal().any()
        assert matrix.any()

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=-(2**63), max_value=2**63),
        st.integers(min_value=-(2**63), max_value=2**63),
    )
    @example(0.3, 0.3, 5, 5)
    @example(0.3, 0.3, 5, -5)
    @example(0.3, float(np.nextafter(0.3, 1.0)), 5, 5)  # one ulp decides some pair
    @settings(max_examples=60, deadline=None)
    def test_random_token_differs_whenever_rate_or_seed_does(self, rate_a, rate_b, seed_a, seed_b):
        same = (rate_a, seed_a) == (rate_b, seed_b)
        tokens_equal = (
            RandomPairwiseSensitivity(rate_a, seed_a).token()
            == RandomPairwiseSensitivity(rate_b, seed_b).token()
        )
        assert tokens_equal == same

    def test_explicit_token_ignores_order_and_direction(self):
        token = ExplicitSensitivity({1: {2}}).token()
        assert ExplicitSensitivity({2: {1}}).token() == token
        assert ExplicitSensitivity({1: {2}, 2: {1}}).token() == token
        assert ExplicitSensitivity({1: {2, 1}}).token() == token  # self-pairs dropped
        both = ExplicitSensitivity({1: {2}, 3: {4}}).token()
        assert ExplicitSensitivity({4: {3}, 2: {1}}).token() == both
        assert both != token
        assert ExplicitSensitivity({1: {3}}).token() != token
        assert ExplicitSensitivity.empty().token() != token

    def test_oracle_kinds_never_share_a_token(self):
        assert ExplicitSensitivity.empty().token() != RandomPairwiseSensitivity(0.0).token()


#: Net ids reaching past 2**32, where the kernel's ``low << 32`` wraps.
_net_ids = st.lists(st.integers(min_value=0, max_value=2**40), max_size=24)
_rates = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


def _with_duplicates(ids, data):
    """``ids`` plus a few repeated entries, shuffled (unsorted input)."""
    if ids:
        ids = ids + data.draw(st.lists(st.sampled_from(ids), max_size=4))
    return data.draw(st.permutations(ids))


class TestSensitivityKernels:
    """The group query equals the scalar ``are_sensitive`` pair for pair."""

    @staticmethod
    def assert_matches_scalar(oracle, ids):
        matrix = oracle.relation_matrix(ids)
        assert matrix.dtype == np.bool_
        assert matrix.shape == (len(ids), len(ids))
        expected = [[oracle.are_sensitive(a, b) for b in ids] for a in ids]
        assert matrix.tolist() == expected

    @given(_net_ids, _rates, st.integers(min_value=-(2**63), max_value=2**63), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_kernel_matches_scalar(self, ids, rate, seed, data):
        ids = _with_duplicates(ids, data)
        self.assert_matches_scalar(RandomPairwiseSensitivity(rate, seed), ids)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=40),
            st.sets(st.integers(min_value=0, max_value=40), max_size=8),
            max_size=12,
        ),
        st.lists(st.integers(min_value=0, max_value=45), max_size=20),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_explicit_kernel_matches_scalar(self, aggressors, ids, data):
        ids = _with_duplicates(ids, data)
        self.assert_matches_scalar(ExplicitSensitivity(aggressors), ids)

    def test_rate_extremes(self):
        ids = [0, 3, 2**32, 2**32 + 3, 2**40]
        full = RandomPairwiseSensitivity(rate=1.0, seed=9).relation_matrix(ids)
        assert np.array_equal(full, ~np.eye(len(ids), dtype=bool))
        empty = RandomPairwiseSensitivity(rate=0.0, seed=9).relation_matrix(ids)
        assert not empty.any()

    def test_empty_groups(self):
        for oracle in (RandomPairwiseSensitivity(rate=0.5, seed=1), ExplicitSensitivity({4: {5}})):
            assert oracle.relation_matrix([]).shape == (0, 0)
            assert not oracle.relation_matrix([4, 4]).any()


def _old_local_map(oracle, ids):
    """The group query ``local_sensitivity_map`` as it was, for one oracle."""
    ids = list(dict.fromkeys(ids))
    if isinstance(oracle, RandomPairwiseSensitivity):
        column = np.asarray(ids, dtype=np.uint64)
        relation = oracle._relation(column[:, None], column[None, :])
        return {net: set(column[row].tolist()) for net, row in zip(ids, relation)}
    group = set(ids)
    return {net: group & oracle.aggressors_of(net) for net in ids}


def _old_symmetric_closure(segments, sensitivity):
    """The panel problem's old ``_normalise_sensitivity``, inlined."""
    present = set(segments)
    symmetric = {segment: set() for segment in segments}
    for segment in segments:
        for other in sensitivity.get(segment, set()):
            if other in present and other != segment:
                symmetric[segment].add(other)
                symmetric[other].add(segment)
    return {segment: frozenset(others) for segment, others in symmetric.items()}


class TestRelationMatrixMatchesOldRelation:
    """``relation_matrix`` equals the relation the dict-of-sets path built."""

    @staticmethod
    def assert_matches_old(oracle, ids):
        closure = _old_symmetric_closure(ids, _old_local_map(oracle, ids))
        matrix = oracle.relation_matrix(ids)
        expected = [[b in closure[a] for b in ids] for a in ids]
        assert matrix.tolist() == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=2**40), unique=True, max_size=30),
        _rates,
        st.integers(min_value=-(2**63), max_value=2**63),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_oracle(self, ids, rate, seed):
        self.assert_matches_old(RandomPairwiseSensitivity(rate, seed), ids)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=40),
            st.sets(st.integers(min_value=0, max_value=40), max_size=8),
            max_size=12,
        ),
        st.lists(st.integers(min_value=0, max_value=45), unique=True, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_explicit_oracle_from_directional_map(self, aggressors, ids):
        self.assert_matches_old(ExplicitSensitivity(aggressors), ids)

    def test_directional_example(self):
        oracle = ExplicitSensitivity({1: {2}, 3: {1}})
        self.assert_matches_old(oracle, [3, 2, 1, 7])
        assert oracle.relation_matrix([3, 2, 1]).tolist() == [
            [False, False, True],
            [False, False, True],
            [True, True, False],
        ]


class TestSteiner:
    def test_hpwl_simple(self):
        pins = [Pin(0, 0), Pin(10, 0), Pin(0, 5)]
        assert hpwl(pins) == pytest.approx(15.0)
        with pytest.raises(ValueError):
            hpwl([])

    def test_prim_two_pins_is_manhattan(self):
        pins = [Pin(0, 0), Pin(7, 3)]
        assert prim_steiner_length(pins) == pytest.approx(10.0)

    def test_prim_single_pin_zero(self):
        assert prim_steiner_length([Pin(1, 1)]) == 0.0

    def test_rsmt_estimate_small_nets_equal_hpwl(self):
        pins = [Pin(0, 0), Pin(10, 0), Pin(5, 8)]
        assert rsmt_length_estimate(pins) == pytest.approx(hpwl(pins))

    def test_rsmt_estimate_never_below_hpwl(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pins = [Pin(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(6, 2))]
            assert rsmt_length_estimate(pins) >= hpwl(pins) - 1e-9

    def test_rsmt_estimate_never_above_prim(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pins = [Pin(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(7, 2))]
            assert rsmt_length_estimate(pins) <= prim_steiner_length(pins) + 1e-9

    def test_steiner_ratio_at_least_one(self):
        pins = [Pin(0, 0), Pin(10, 10), Pin(20, 0), Pin(10, 25), Pin(3, 17)]
        assert steiner_ratio(pins) >= 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0, 1000)), min_size=2, max_size=8))
    def test_estimate_bounds_property(self, coords):
        pins = [Pin(x, y) for x, y in coords]
        estimate = rsmt_length_estimate(pins)
        assert estimate >= hpwl(pins) - 1e-6
        assert estimate <= prim_steiner_length(pins) + 1e-6
