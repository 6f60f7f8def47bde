"""Tests for incremental delta-cost evaluation and multi-chain annealing.

The incremental state must be *exactly* the scalar oracle in disguise: the
randomized driver pushes hundreds of mixed moves through a state and checks
the maintained cost, the delta-accumulated cost and the compaction against
fresh scalar evaluations at every step, and the annealer equivalence tests
assert that the rewritten ``anneal_sino`` reproduces the historic
``anneal_sino_reference`` (``tests/oracles/anneal_reference.py``)
seed-for-seed.  The multi-chain tests pin the per-chain seeds and configs,
the clones' shared evaluation memo, backend-independent chain results and
the per-chain trace spans.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.engine.backends import ProcessBackend, SerialBackend
from repro.engine.panels import Engine, PanelTask
from repro.engine.signature import panel_signature
from repro.sino.anneal import (
    ANNEAL_FAST_DIVISOR,
    EFFORT_LEVELS,
    AnnealConfig,
    _chain_config,
    _run_chains,
    _sample_move,
    anneal_sino,
    anneal_sino_multichain,
    derive_chain_seed,
    reduce_best_feasible,
    solution_cost,
    solve_min_area_sino,
)
from repro.obs.trace import Tracer, set_active_tracer
from repro.sino.greedy import greedy_sino
from repro.sino.incremental import IncrementalPanelState, Move
from repro.service.scenarios import generate_scenario, list_scenarios, scenario_kind
from repro.sino.panel import SHIELD, SinoSolution

from tests.conftest import make_random_sino_problem
from tests.oracles.anneal_reference import anneal_sino_reference


def _random_move(layout, rng):
    """One random structural move plus the equivalent list-level edit."""
    num_tracks = len(layout)
    shields = [index for index, entry in enumerate(layout) if entry is SHIELD]
    kind = int(rng.integers(0, 4))
    edited = list(layout)
    if kind == 0 and num_tracks >= 2:
        i, j = (int(v) for v in rng.choice(num_tracks, size=2, replace=False))
        edited[i], edited[j] = edited[j], edited[i]
        return Move.swap(i, j), edited
    if kind == 1 and shields:
        position = int(rng.choice(shields))
        gap = int(rng.integers(0, num_tracks))
        edited.pop(position)
        edited.insert(gap, SHIELD)
        return Move.relocate(position, gap), edited
    if kind == 2 and shields:
        position = int(rng.choice(shields))
        edited.pop(position)
        return Move.delete(position), edited
    gap = int(rng.integers(0, num_tracks + 1))
    edited.insert(gap, SHIELD)
    return Move.insert(gap), edited


class TestIncrementalState:
    def test_initial_cost_matches_solution_cost(self):
        problem = make_random_sino_problem(10, 0.5, 0.9, seed=3)
        config = AnnealConfig()
        solution = greedy_sino(problem)
        state = IncrementalPanelState(problem, solution.layout, config)
        assert state.cost == solution_cost(solution, config)
        assert state.num_shields == solution.num_shields
        assert state.num_tracks == solution.num_tracks
        assert state.to_layout() == solution.layout
        assert state.is_current_valid() == solution.is_valid()

    def test_randomized_moves_match_oracle_at_every_step(self):
        """500+ mixed moves: maintained and delta-accumulated costs track the oracle."""
        rng = np.random.default_rng(2024)
        for trial in range(4):
            problem = make_random_sino_problem(4 + trial * 4, 0.5, 0.9, seed=trial)
            config = AnnealConfig()
            solution = greedy_sino(problem)
            state = IncrementalPanelState(problem, solution.layout, config)
            layout = list(solution.layout)
            accumulated = state.cost
            for _step in range(150):
                move, edited = _random_move(layout, rng)
                delta = state.propose(move)
                fresh = solution_cost(
                    SinoSolution(problem=problem, layout=list(edited)), config
                )
                if rng.random() < 0.7:
                    state.commit()
                    layout = edited
                    accumulated += delta
                    # The maintained cost is the oracle's, bit for bit; the
                    # delta-accumulated running cost tracks it to 1e-9.
                    assert state.cost == fresh
                    assert accumulated == pytest.approx(fresh, abs=1e-9)
                    assert state.to_layout() == layout
                else:
                    state.revert()
                    assert state.to_layout() == layout

    def test_compacted_matches_reference_compact(self):
        rng = np.random.default_rng(77)
        problem = make_random_sino_problem(12, 0.6, 0.8, seed=9)
        config = AnnealConfig()
        solution = greedy_sino(problem)
        state = IncrementalPanelState(problem, solution.layout, config)
        layout = list(solution.layout)
        checked = 0
        for _step in range(120):
            move, edited = _random_move(layout, rng)
            state.propose(move)
            state.commit()
            layout = edited
            if _step % 10 == 0:
                reference = SinoSolution(problem=problem, layout=list(layout)).compact()
                compacted, cost, valid = state.compacted()
                assert compacted.layout == reference.layout
                assert cost == solution_cost(reference, config)
                assert valid == reference.is_valid()
                checked += 1
        assert checked >= 12

    def test_protocol_misuse_raises(self):
        problem = make_random_sino_problem(5, 0.4, 1.0, seed=1)
        state = IncrementalPanelState(problem, greedy_sino(problem).layout, AnnealConfig())
        with pytest.raises(RuntimeError):
            state.commit()
        with pytest.raises(RuntimeError):
            state.revert()
        state.propose(Move.insert(0))
        state.revert()
        with pytest.raises(RuntimeError):
            state.revert()

    def test_delete_requires_a_shield(self):
        problem = make_random_sino_problem(4, 0.0, 5.0, seed=0)
        layout = list(problem.segments)  # no shields at all
        state = IncrementalPanelState(problem, layout, AnnealConfig())
        with pytest.raises(ValueError):
            state.propose(Move.delete(0))

    def test_move_kind_validation(self):
        with pytest.raises(ValueError):
            Move(kind="teleport")


class TestAnnealEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 11])
    def test_incremental_reproduces_reference_seed_for_seed(self, seed):
        problem = make_random_sino_problem(6 + seed, 0.5, 0.9, seed=seed)
        config = AnnealConfig(iterations=500, seed=seed)
        fast = anneal_sino(problem, config=config)
        reference = anneal_sino_reference(problem, config=config)
        assert fast.layout == reference.layout

    def test_chains_one_reproduces_single_chain(self):
        problem = make_random_sino_problem(9, 0.5, 0.9, seed=4)
        config = AnnealConfig(iterations=400, seed=21, chains=1)
        single = anneal_sino(problem, config=config)
        multi = anneal_sino_multichain(problem, config=config)
        dispatched = solve_min_area_sino(problem, effort="anneal", config=config)
        assert multi.layout == single.layout
        assert dispatched.layout == single.layout

    def test_annealed_solution_is_valid_and_never_worse_than_greedy(self):
        problem = make_random_sino_problem(10, 0.5, 0.8, seed=13)
        greedy = greedy_sino(problem)
        annealed = solve_min_area_sino(
            problem, effort="anneal", config=AnnealConfig(iterations=600, seed=2)
        )
        assert annealed.is_valid()
        assert annealed.num_shields <= greedy.num_shields


class TestMultiChain:
    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = [derive_chain_seed(42, chain) for chain in range(6)]
        assert seeds[0] == 42  # chain 0 keeps the configured seed
        assert len(set(seeds)) == len(seeds)
        assert seeds == [derive_chain_seed(42, chain) for chain in range(6)]

    def test_backend_independence(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=6)
        config = AnnealConfig(iterations=300, seed=3, chains=3)
        serial = anneal_sino_multichain(problem, config=config, backend=SerialBackend())
        with ProcessBackend(workers=2) as backend:
            pooled = anneal_sino_multichain(problem, config=config, backend=backend)
        inline = anneal_sino_multichain(problem, config=config)
        assert serial.layout == pooled.layout == inline.layout

    def test_multichain_never_worse_than_chain_zero(self):
        problem = make_random_sino_problem(12, 0.5, 0.8, seed=8)
        single = anneal_sino(problem, config=AnnealConfig(iterations=400, seed=5))
        multi = anneal_sino_multichain(
            problem, config=AnnealConfig(iterations=400, seed=5, chains=4)
        )
        assert multi.is_valid() or not single.is_valid()
        if single.is_valid():
            assert multi.num_shields <= single.num_shields

    def test_reduce_best_feasible_prefers_valid_then_fewest_shields(self):
        problem = make_random_sino_problem(6, 0.5, 1.0, seed=2)
        config = AnnealConfig()
        valid = greedy_sino(problem)
        bare = SinoSolution(problem=problem, layout=list(problem.segments))
        if bare.is_valid():  # degenerate instance: nothing to distinguish
            pytest.skip("random instance has no violations to exercise")
        assert reduce_best_feasible([bare, valid], config) is valid
        assert reduce_best_feasible([valid, bare], config) is valid
        with pytest.raises(ValueError):
            reduce_best_feasible([], config)

    def test_chains_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(chains=0)

    def test_run_chains_matches_across_backends(self):
        problem = make_random_sino_problem(10, 0.5, 0.8, seed=21)
        config = AnnealConfig(iterations=200, seed=11, chains=3)
        inline = _run_chains(problem, None, config, None)
        serial = _run_chains(problem, None, config, SerialBackend())
        # A real process pool: the chains travel as pickled
        # (problem, layout, config, None) tasks and build their own states.
        with ProcessBackend(workers=2) as backend:
            forked = _run_chains(problem, None, config, backend)
        layouts = [solution.layout for solution in inline]
        assert len(layouts) == 3
        assert [solution.layout for solution in serial] == layouts
        assert [solution.layout for solution in forked] == layouts


class TestChainSeedDerivation:
    def test_chain_zero_keeps_the_configured_seed(self):
        assert derive_chain_seed(2002, 0) == 2002
        assert derive_chain_seed(7, 0) == 7

    def test_derived_seeds_are_pinned(self):
        # Pinned values: the derivation feeds the panel cache key through
        # each chain's config, so it must never drift between releases.
        assert derive_chain_seed(2002, 1) == 3291206842
        assert derive_chain_seed(2002, 2) == 1031596892
        assert derive_chain_seed(7, 1) == 369571992

    def test_no_collisions_across_seeds_and_chains(self):
        derived = {derive_chain_seed(seed, chain) for seed in range(40) for chain in range(8)}
        assert len(derived) == 40 * 8


class TestChainConfigDerivation:
    def test_chain_config_swaps_only_the_seed(self):
        template = AnnealConfig(iterations=700, seed=5, chains=1, shield_weight=2.0)
        derived = _chain_config(template, 999)
        assert derived.seed == 999
        for config_field in fields(AnnealConfig):
            if config_field.name == "seed":
                continue
            assert getattr(derived, config_field.name) == getattr(template, config_field.name)

    def test_chain_config_is_identity_for_the_template_seed(self):
        template = AnnealConfig(seed=5)
        assert _chain_config(template, 5) is template

    def test_fanout_validates_once_for_any_chain_count(self, monkeypatch):
        calls = []
        original = AnnealConfig.__post_init__

        def counting(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(AnnealConfig, "__post_init__", counting)
        problem = make_random_sino_problem(7, 0.5, 0.9, seed=3)
        config = AnnealConfig(iterations=120, seed=9, chains=6)
        calls.clear()
        solution = anneal_sino_multichain(problem, config=config)
        # One validation for the chains=1 template; the six per-chain
        # configs are derived by field copy, not reconstruction.
        assert sum(calls) == 1
        assert solution.num_shields >= 0


class TestCloneSharesEvalMemo:
    def test_clone_shares_the_memo_dict(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=13)
        state = IncrementalPanelState(problem, list(greedy_sino(problem).layout), AnnealConfig())
        clone = state.clone()
        assert clone._eval_cache is state._eval_cache

    def test_evaluations_flow_between_clones(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=13)
        state = IncrementalPanelState(problem, list(greedy_sino(problem).layout), AnnealConfig())
        clone = state.clone()
        rng = np.random.default_rng(0)
        move = _sample_move(state, rng)
        state.propose(move)
        state.revert()
        before = len(state._eval_cache)
        clone.propose(move)  # must hit the sibling's cached evaluation
        clone.revert()
        assert len(clone._eval_cache) == before


class TestChainTracing:
    def test_ambient_tracer_records_per_chain_spans_with_counters(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=2)
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            anneal_sino_multichain(
                problem, config=AnnealConfig(iterations=200, seed=2, chains=2)
            )
        finally:
            set_active_tracer(None)
        report = tracer.format_report()
        assert report.count("anneal.chain") == 2
        assert "steps=" in report and "accepts=" in report


class TestEffortLevels:
    def test_effort_levels_constant(self):
        assert EFFORT_LEVELS == ("greedy", "anneal", "anneal-fast")

    def test_anneal_fast_runs_quarter_schedule_and_stays_valid(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=10)
        config = AnnealConfig(iterations=400, seed=1)
        fast = solve_min_area_sino(problem, effort="anneal-fast", config=config)
        quarter = anneal_sino(
            problem,
            config=AnnealConfig(iterations=400 // ANNEAL_FAST_DIVISOR, seed=1),
        )
        assert fast.layout == quarter.layout
        assert fast.is_valid()

    def test_anneal_never_worse_than_greedy(self):
        # Every chain's incumbent starts as the compacted greedy layout, so
        # at any chain count the result is valid with no more shields when
        # greedy is valid; otherwise it is valid or no costlier than greedy.
        panel_scenarios = [name for name, _ in list_scenarios() if scenario_kind(name) == "panels"]
        assert panel_scenarios
        for name in panel_scenarios:
            for task in generate_scenario(name):
                greedy = greedy_sino(task.problem)
                for chains in (1, 3):
                    config = AnnealConfig(iterations=300, seed=task.seed, chains=chains)
                    annealed = solve_min_area_sino(task.problem, effort="anneal", config=config)
                    context = (name, task.seed, chains)
                    if greedy.is_valid():
                        assert annealed.is_valid(), context
                        assert annealed.num_shields <= greedy.num_shields, context
                    elif not annealed.is_valid():
                        cost = solution_cost(annealed, config)
                        assert cost <= solution_cost(greedy, config) + 1e-9, context

    def test_unknown_effort_rejected(self):
        problem = make_random_sino_problem(4, 0.3, 1.0, seed=0)
        with pytest.raises(ValueError):
            solve_min_area_sino(problem, effort="exhaustive")


class TestCacheKeys:
    def test_chains_enter_the_panel_signature(self):
        problem = make_random_sino_problem(6, 0.4, 1.0, seed=5)
        one = panel_signature(problem, "sino", "anneal", anneal=AnnealConfig(chains=1))
        four = panel_signature(problem, "sino", "anneal", anneal=AnnealConfig(chains=4))
        assert one != four

    def test_effort_levels_enter_the_panel_signature(self):
        problem = make_random_sino_problem(6, 0.4, 1.0, seed=5)
        signatures = {
            panel_signature(problem, "sino", effort) for effort in EFFORT_LEVELS
        }
        assert len(signatures) == len(EFFORT_LEVELS)

    def test_panel_task_validates_effort(self):
        problem = make_random_sino_problem(4, 0.3, 1.0, seed=1)
        with pytest.raises(ValueError):
            PanelTask(key=((0, 0), "h"), problem=problem, effort="thorough")

    def test_engine_caches_distinct_chain_counts_separately(self):
        from repro.engine.cache import SolutionCache

        problem = make_random_sino_problem(7, 0.5, 0.9, seed=7)
        engine = Engine(cache=SolutionCache())
        one = engine.solve_panel(
            problem, effort="anneal", anneal=AnnealConfig(iterations=200, chains=1)
        )
        four = engine.solve_panel(
            problem, effort="anneal", anneal=AnnealConfig(iterations=200, chains=4)
        )
        stats = engine.cache_stats()
        assert stats.misses == 2  # no stale hit between chain counts
        again = engine.solve_panel(
            problem, effort="anneal", anneal=AnnealConfig(iterations=200, chains=4)
        )
        assert engine.cache_stats().hits == 1
        assert again.layout == four.layout
        assert one.is_valid() and four.is_valid()
