"""Experiment F1 — Figure 1 behaviour: the iterative-deletion router.

Figure 1 of the paper is the ID algorithm itself.  The behavioural properties
to reproduce are: every net connection graph is reduced to a tree spanning
its pins, and with gamma >> alpha, beta in Formula 2 the final solution has
essentially no overflow.  The benchmark also compares the GSINO weight
configuration (shield reservation on) against the baseline configuration to
show the reservation's effect on the shield-aware utilisation.

``test_router_speedup`` times the router, which runs on integer region ids
with cached resource pressure and a two-sided deletability search, against
the historic router in ``tests/oracles/router_reference.py`` on the ibm01
instance the flow comparison routes: the routes must be identical, down to
the iteration order of each tree's edges, and the router at least
``MIN_ROUTER_SPEEDUP`` faster.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.ibm import generate_circuit
from repro.grid.congestion import CongestionMap
from repro.router.iterative_deletion import route_netlist
from repro.router.weights import WeightConfig

from conftest import BENCH_SCALE, BENCH_SEED
from tests.oracles.router_reference import route_netlist_reference

#: Speedup floor of the router against the historic loop.  Measured
#: 1.5-2.1x at the smoke scale 0.02 on a quiet 2-core machine; half of that
#: would sit below parity, so the floor keeps a fixed margin under the
#: lowest reading instead while still failing a return to the old loop.
MIN_ROUTER_SPEEDUP = 1.2

#: Timed rounds of each side (the best round counts).
ROUTER_ROUNDS = 5

#: Passes in one timed round, each routing the instance with baseline and
#: with reserving weights: a single pass takes tens of milliseconds at the
#: smoke scale, too short a median for the regression gate to tell from
#: runner noise.
ROUTER_PASSES = 8


@pytest.mark.parametrize("reserve_shields", [False, True], ids=["baseline", "reserving"])
def test_id_router_properties(benchmark, reserve_shields):
    """Route a mid-size instance and verify the ID invariants."""
    circuit = generate_circuit("ibm03", sensitivity_rate=0.3, scale=BENCH_SCALE, seed=BENCH_SEED)

    def run():
        return route_netlist(
            circuit.grid,
            circuit.netlist,
            config=WeightConfig(reserve_shields=reserve_shields),
        )

    solution, report = benchmark.pedantic(run, rounds=1, iterations=1)
    congestion = CongestionMap.from_solution(solution)

    benchmark.extra_info["nets"] = circuit.netlist.num_nets
    benchmark.extra_info["deleted_edges"] = report.deleted_edges
    benchmark.extra_info["max_density"] = round(congestion.max_density(), 3)
    benchmark.extra_info["total_overflow"] = congestion.total_overflow()
    benchmark.extra_info["avg_wirelength_um"] = round(solution.average_wirelength_um(), 1)

    # Figure 1 invariant: every connection graph ends as a pin-spanning tree.
    assert solution.all_trees_valid()
    # gamma = 50 makes overflow essentially disappear.
    assert congestion.total_overflow() <= 0.02 * circuit.netlist.num_nets
    # Routed length stays near the profile's published average net length.
    assert solution.average_wirelength_um() == pytest.approx(
        circuit.profile.average_net_length, rel=0.35
    )


def test_router_speedup(benchmark):
    """Wall time of the ID router vs. the historic loop, identical routes."""
    circuit = generate_circuit("ibm01", sensitivity_rate=0.3, scale=BENCH_SCALE, seed=BENCH_SEED)
    configs = [WeightConfig(reserve_shields=False), WeightConfig(reserve_shields=True)]

    def passes(router):
        for _ in range(ROUTER_PASSES):
            results = [router(circuit.grid, circuit.netlist, config=config) for config in configs]
        return results

    fast = benchmark.pedantic(passes, args=(route_netlist,), rounds=ROUTER_ROUNDS, iterations=1)
    fast_seconds = benchmark.stats.stats.min / ROUTER_PASSES

    reference_seconds = float("inf")
    for _ in range(ROUTER_ROUNDS):
        start = time.perf_counter()
        reference = passes(route_netlist_reference)
        reference_seconds = min(reference_seconds, (time.perf_counter() - start) / ROUTER_PASSES)

    for (solution, report), (expected, expected_report) in zip(fast, reference):
        for net_id in circuit.netlist.net_ids():
            route, reference_route = solution.route(net_id), expected.route(net_id)
            assert list(route.edges) == list(reference_route.edges)
            assert route.pin_regions == reference_route.pin_regions
        assert (report.deleted_edges, report.kept_edges, report.heap_repushes) == (
            expected_report.deleted_edges,
            expected_report.kept_edges,
            expected_report.heap_repushes,
        )

    speedup = reference_seconds / fast_seconds
    benchmark.extra_info["nets"] = circuit.netlist.num_nets
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 4)
    benchmark.extra_info["speedup_vs_reference"] = round(speedup, 2)
    assert speedup >= MIN_ROUTER_SPEEDUP, (
        f"ID router only {speedup:.2f}x faster than the reference "
        f"({fast_seconds:.4f}s vs {reference_seconds:.4f}s per pass)"
    )
