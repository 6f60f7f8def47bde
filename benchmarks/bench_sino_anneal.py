"""Experiment A — the annealing chain vs. the historic scalar reference.

The simulated-annealing improver is the hottest path of every Table 1-3 flow
at ``effort="anneal"``.  This benchmark extracts the real panels of the
Table 3 ibm01 instance (the same circuit, scale and seed
``bench_table3_area.py`` uses), anneals every panel with both implementations
at equal iteration count, and checks

* correctness — the one-move chain returns *bit-identical*
  layouts to the scalar reference in ``tests/oracles/anneal_reference.py``
  on every panel (the reference preserves the historic cost profile,
  including its occupant-based compaction), so solution quality is exactly
  "no worse": it is equal, shield for shield;
* performance — the incremental path is at least 3x faster wall-clock on the
  panel suite (the measured margin is comfortably above the asserted floor
  to keep shared CI runners from flaking the build);
* multi-chain search — ``chains > 1`` stays feasible and never uses more
  shields than the single-chain search it embeds as chain 0;
* greedy construction — the default solver, run on the incremental panel
  state, returns the scalar greedy oracle's layouts on every panel and is
  at least ``MIN_GREEDY_SPEEDUP`` faster.  With ``REPRO_BENCH_SCALE=0.15``
  the same test measures the 288 Phase-I panels of ibm01 at that scale.
"""

from __future__ import annotations

import os
import time

from repro.analysis.experiments import ExperimentConfig
from repro.bench.ibm import generate_circuit
from repro.gsino.budgeting import compute_budgets
from repro.gsino.phase1 import run_phase1
from repro.gsino.phase2 import build_panel_problems
from repro.sino.anneal import AnnealConfig, anneal_sino, anneal_sino_multichain
from repro.sino.greedy import greedy_sino

from conftest import BENCH_SCALE, BENCH_SEED
from tests.oracles.anneal_reference import anneal_sino_reference
from tests.oracles.greedy_reference import greedy_sino_reference

#: Speedup floor asserted against the historic annealer (measured ~3.1x on a
#: quiet machine; the default floor leaves headroom for timing noise, and the
#: CI bench-smoke job relaxes it further via ``REPRO_BENCH_MIN_SPEEDUP``
#: because shared runners throttle unpredictably — there the artifact JSON,
#: not the gate, is the signal).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))

#: Speedup floor of the incremental greedy solver against the scalar oracle
#: (measured ~3.8x at the default scale and ~3.0x at the CI smoke scale
#: 0.02 on a quiet 2-core machine; about half the smoke-scale ratio).
MIN_GREEDY_SPEEDUP = 1.5

#: Timed rounds of each greedy side (the best round counts).
GREEDY_ROUNDS = 3

#: Passes over the panels in one timed round of the incremental greedy: a
#: single pass takes tens of milliseconds at the smoke scale, too short a
#: median for the regression gate to tell from runner noise.
GREEDY_PASSES = 10

#: Iteration count shared by both implementations (the solver default).
ITERATIONS = 1500


def _table3_panels():
    """The SINO panel instances of the Table 3 ibm01 row (sorted keys)."""
    config = ExperimentConfig(circuits=("ibm01",), scale=BENCH_SCALE, seed=BENCH_SEED)
    flow_config = config.flow_config()
    circuit = generate_circuit(
        "ibm01", sensitivity_rate=0.5, scale=BENCH_SCALE, seed=BENCH_SEED
    )
    budgets = compute_budgets(circuit.netlist, flow_config)
    phase1 = run_phase1(circuit.grid, circuit.netlist, flow_config, budgets=budgets)
    problems = build_panel_problems(phase1.routing, circuit.netlist, budgets, flow_config)
    return [problem for _key, problem in sorted(problems.items())]


def test_incremental_anneal_speedup(benchmark):
    """Equal-iteration wall-time of the incremental vs. the reference annealer."""
    panels = _table3_panels()
    config = AnnealConfig(iterations=ITERATIONS, seed=BENCH_SEED)

    def run_incremental():
        return [anneal_sino(problem, config=config) for problem in panels]

    incremental = benchmark.pedantic(run_incremental, rounds=1, iterations=1)
    incremental_seconds = benchmark.stats.stats.min

    start = time.perf_counter()
    reference = [anneal_sino_reference(problem, config=config) for problem in panels]
    reference_seconds = time.perf_counter() - start

    # Solution quality is no worse than the historic annealer: it is
    # bit-identical, panel for panel.
    assert all(a.layout == b.layout for a, b in zip(incremental, reference))

    speedup = reference_seconds / incremental_seconds
    benchmark.extra_info["num_panels"] = len(panels)
    benchmark.extra_info["iterations"] = ITERATIONS
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 3)
    benchmark.extra_info["speedup_vs_reference"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP, (
        f"incremental annealer only {speedup:.2f}x faster than the reference "
        f"({incremental_seconds:.2f}s vs {reference_seconds:.2f}s)"
    )


def test_multichain_quality(benchmark):
    """Multi-chain search stays feasible and beats or matches chain 0."""
    panels = _table3_panels()
    dense = sorted(panels, key=lambda problem: -problem.num_segments)[:6]
    single_config = AnnealConfig(iterations=600, seed=BENCH_SEED)
    multi_config = AnnealConfig(iterations=600, seed=BENCH_SEED, chains=4)

    def run_multichain():
        return [anneal_sino_multichain(problem, config=multi_config) for problem in dense]

    multi = benchmark.pedantic(run_multichain, rounds=1, iterations=1)
    single = [anneal_sino(problem, config=single_config) for problem in dense]

    improvements = 0
    for one, many in zip(single, multi):
        assert many.is_valid() or not one.is_valid()
        if one.is_valid():
            # Chain 0 of the multi-chain search *is* the single-chain search,
            # so the best-feasible reduction can never come back worse.
            assert many.num_shields <= one.num_shields
            if many.num_shields < one.num_shields:
                improvements += 1
    benchmark.extra_info["num_panels"] = len(dense)
    benchmark.extra_info["panels_improved_by_extra_chains"] = improvements


def test_greedy_speedup(benchmark):
    """Wall-time of the incremental greedy solver vs. the scalar oracle."""
    panels = _table3_panels()

    def run_greedy():
        for _ in range(GREEDY_PASSES):
            solutions = [greedy_sino(problem) for problem in panels]
        return solutions

    # Both sides take the best of several rounds; the speedup compares the
    # time of one pass over the panels.
    fast = benchmark.pedantic(run_greedy, rounds=GREEDY_ROUNDS, iterations=1)
    fast_seconds = benchmark.stats.stats.min / GREEDY_PASSES

    reference_seconds = float("inf")
    for _ in range(GREEDY_ROUNDS):
        start = time.perf_counter()
        reference = [greedy_sino_reference(problem) for problem in panels]
        reference_seconds = min(reference_seconds, time.perf_counter() - start)

    assert all(a.layout == b.layout for a, b in zip(fast, reference))

    speedup = reference_seconds / fast_seconds
    benchmark.extra_info["num_panels"] = len(panels)
    benchmark.extra_info["max_segments"] = max(problem.num_segments for problem in panels)
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 3)
    benchmark.extra_info["speedup_vs_reference"] = round(speedup, 2)
    assert speedup >= MIN_GREEDY_SPEEDUP, (
        f"incremental greedy only {speedup:.2f}x faster than the reference "
        f"({fast_seconds:.3f}s vs {reference_seconds:.3f}s)"
    )
