"""Tests for the execution engine: backends, cache, signatures and sweeps."""

from __future__ import annotations

import os
import signal

import pytest

from repro.analysis.experiments import ExperimentConfig, run_table_suite
from repro.engine.backends import ProcessBackend, SerialBackend, chunk_tasks, create_backend
from repro.engine.cache import CacheStats, SolutionCache
from repro.engine.panels import Engine, PanelTask, solve_panel_task
from repro.engine.signature import panel_signature, problem_token
from repro.engine.sweep import SweepRunner
from repro.gsino.pipeline import compare_flows
from repro.sino.anneal import AnnealConfig


def _double(value: int) -> int:
    return value * 2


class TestBackends:
    def test_create_backend_names(self):
        # One worker count picks the backend: serial for None or 1, else a pool.
        assert create_backend().name == "serial"
        assert create_backend(1).name == "serial"
        backend = create_backend(3)
        assert backend.name == "process" and backend.num_workers == 3

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            create_backend(0)
        with pytest.raises(ValueError):
            ProcessBackend(workers=-1)

    def test_chunk_tasks_partitions_in_order(self):
        assert chunk_tasks([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            chunk_tasks([1], 0)

    @pytest.mark.parametrize("name", ("serial", "process"))
    def test_map_tasks_preserves_order(self, name):
        with create_backend(1 if name == "serial" else 2) as backend:
            tasks = list(range(23))
            assert backend.map_tasks(_double, tasks) == [t * 2 for t in tasks]
            assert backend.map_tasks(_double, []) == []

    def test_pooled_backend_reuses_executor_until_shutdown(self):
        backend = ProcessBackend(workers=2)
        assert backend.map_tasks(_double, [1, 2]) == [2, 4]
        executor = backend._executor
        assert executor is not None
        assert backend.map_tasks(_double, [3]) == [6]
        assert backend._executor is executor  # same pool across batches
        backend.shutdown()
        assert backend._executor is None
        backend.shutdown()  # idempotent
        # Usable again after shutdown (a fresh pool is created lazily).
        assert backend.map_tasks(_double, [5]) == [10]
        backend.shutdown()

    def test_process_pool_recovers_after_a_child_dies(self):
        from concurrent.futures.process import BrokenProcessPool

        # Catch SIGTERM as a `repro serve` worker does: the pool's children
        # must still die when the broken pool terminates them.
        previous = signal.signal(signal.SIGTERM, lambda _signum, _frame: None)
        try:
            with ProcessBackend(workers=2) as backend:
                assert backend.map_tasks(_double, [1, 2, 3]) == [2, 4, 6]
                child = next(iter(backend._executor._processes.values()))
                os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=30)
                assert not child.is_alive()
                with pytest.raises(BrokenProcessPool):
                    backend.map_tasks(_double, [4, 5])
                # The broken pool was dropped; this dispatch forks a fresh one.
                assert backend.map_tasks(_double, list(range(7))) == [t * 2 for t in range(7)]
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_map_tasks_explicit_chunk_size(self):
        backend = SerialBackend()
        assert backend.map_tasks(_double, [1, 2, 3], chunk_size=1) == [2, 4, 6]

    def test_default_chunk_size_scales_with_workers(self):
        backend = ProcessBackend(workers=4)
        assert backend.default_chunk_size(160) == 10
        assert backend.default_chunk_size(1) == 1


class TestSignature:
    def test_signature_is_stable_across_equal_problems(self, random_sino_problem):
        a = random_sino_problem(10, 0.4, 1.5, seed=3)
        b = random_sino_problem(10, 0.4, 1.5, seed=3)
        assert a is not b
        assert problem_token(a) == problem_token(b)
        assert panel_signature(a, "sino", "greedy") == panel_signature(b, "sino", "greedy")

    def test_signature_distinguishes_every_input(self, random_sino_problem):
        problem = random_sino_problem(8, 0.5, 1.2, seed=1)
        base = panel_signature(problem, "sino", "greedy")
        assert panel_signature(problem, "ordering", "greedy") != base
        assert panel_signature(problem, "sino", "anneal") != base
        assert panel_signature(problem, "sino", "greedy", seed=7) != base
        assert (
            panel_signature(problem, "sino", "greedy", anneal=AnnealConfig(iterations=9))
            != base
        )
        other = random_sino_problem(8, 0.5, 1.2, seed=2)
        assert panel_signature(other, "sino", "greedy") != base

    def test_signature_changes_under_mutated_bounds(self, random_sino_problem):
        problem = random_sino_problem(8, 0.5, 1.2, seed=1)
        tightened = problem.with_bounds({0: 0.25})
        assert panel_signature(problem, "sino", "greedy") != panel_signature(
            tightened, "sino", "greedy"
        )
        # Restoring the original bound restores the original signature.
        restored = tightened.with_bounds({0: problem.bound_of(0)})
        assert panel_signature(restored, "sino", "greedy") == panel_signature(
            problem, "sino", "greedy"
        )


class TestSolutionCache:
    def test_hit_returns_layout_bound_to_the_requesting_problem(self, random_sino_problem):
        problem_a = random_sino_problem(6, 0.5, 1.2, seed=4)
        problem_b = random_sino_problem(6, 0.5, 1.2, seed=4)
        cache = SolutionCache()
        key = panel_signature(problem_a, "sino", "greedy")
        solution = solve_panel_task(PanelTask(key=((0, 0), "h"), problem=problem_a))[1]
        cache.put(key, solution)

        hit = cache.get(key, problem_b)
        assert hit is not None
        assert hit.layout == solution.layout
        assert hit.problem is problem_b
        # Mutating the returned layout must not corrupt the cached copy.
        hit.layout.reverse()
        again = cache.get(key, problem_b)
        assert again.layout == solution.layout

    def test_stats_count_hits_and_misses(self, random_sino_problem):
        cache = SolutionCache()
        problem = random_sino_problem(5, 0.4, 1.0, seed=2)
        key = panel_signature(problem, "sino", "greedy")
        assert cache.get(key, problem) is None
        cache.put(key, solve_panel_task(PanelTask(key=((0, 0), "h"), problem=problem))[1])
        assert cache.get(key, problem) is not None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)
        delta = stats - CacheStats(hits=1, misses=0)
        assert (delta.hits, delta.misses) == (0, 1)

    def test_lru_eviction(self, random_sino_problem):
        cache = SolutionCache(max_entries=2)
        problems = [random_sino_problem(4, 0.5, 1.0, seed=s) for s in range(3)]
        keys = [panel_signature(p, "sino", "greedy") for p in problems]
        for key, problem in zip(keys, problems):
            cache.put(key, solve_panel_task(PanelTask(key=((0, 0), "h"), problem=problem))[1])
        assert len(cache) == 2
        assert keys[0] not in cache  # oldest entry evicted
        assert keys[1] in cache and keys[2] in cache
        assert cache.stats().evictions == 1

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            SolutionCache(max_entries=0)

    def test_memory_only_skips_the_tier_and_nests(self, random_sino_problem):
        class SpyTier:
            def __init__(self):
                self.calls = 0
                self.layouts = {}

            def get_layout(self, signature):
                self.calls += 1
                return self.layouts.get(signature)

            def put_layout(self, signature, layout):
                self.calls += 1
                self.layouts[signature] = layout

        tier = SpyTier()
        cache = SolutionCache(store=tier)
        problems = [random_sino_problem(4, 0.5, 1.0, seed=s) for s in range(3)]
        keys = [panel_signature(p, "sino", "greedy") for p in problems]
        solutions = [
            solve_panel_task(PanelTask(key=((0, 0), "h"), problem=p))[1] for p in problems
        ]
        with cache.memory_only():
            with cache.memory_only():
                assert cache.get(keys[0], problems[0]) is None
                cache.put(keys[0], solutions[0])
            # Still inside the outer block: the tier stays off.
            assert cache.get(keys[1], problems[1]) is None
            cache.put(keys[1], solutions[1])
        assert (tier.calls, tier.layouts) == (0, {})
        assert cache.stats().misses == 2  # misses are counted either way
        assert cache.get(keys[0], problems[0]) is not None  # filled in memory

        with pytest.raises(RuntimeError):
            with cache.memory_only():
                raise RuntimeError("stage failed")
        # The tier is back after the exception: a miss reads it, a fill writes it.
        assert cache.get(keys[2], problems[2]) is None
        cache.put(keys[2], solutions[2])
        assert tier.calls == 2 and list(tier.layouts) == [keys[2]]


class TestEngine:
    def test_mutated_bounds_never_get_stale_hits(self, random_sino_problem):
        """Phase III's tightened bounds must re-solve, not reuse, a panel."""
        problem = random_sino_problem(10, 0.6, 1.1, seed=5)
        engine = Engine(cache=SolutionCache())
        first = engine.solve_panel(problem)
        # Tighten one segment's bound far below its current coupling: a stale
        # hit would return `first`, whose coupling violates the new bound.
        tightened = problem.with_bounds({0: 1e-3})
        second = engine.solve_panel(tightened)
        assert engine.cache_stats().misses == 2
        assert second.problem.bound_of(0) == pytest.approx(1e-3)
        # The tightened solve saw the tight bound; the stale layout did not.
        assert second.coupling_of(0) <= first.coupling_of(0) + 1e-12

    def test_solve_panel_cache_roundtrip(self, random_sino_problem):
        problem = random_sino_problem(8, 0.4, 1.3, seed=6)
        engine = Engine(cache=SolutionCache())
        first = engine.solve_panel(problem)
        second = engine.solve_panel(problem)
        assert first.layout == second.layout
        assert engine.cache_stats() == CacheStats(hits=1, misses=1)

    def test_solve_panels_deduplicates_identical_panels(self, random_sino_problem):
        problem = random_sino_problem(7, 0.5, 1.2, seed=8)
        clone = random_sino_problem(7, 0.5, 1.2, seed=8)
        engine = Engine(cache=SolutionCache())
        solutions = engine.solve_panels({((0, 0), "h"): problem, ((3, 1), "v"): clone})
        assert solutions[((0, 0), "h")].layout == solutions[((3, 1), "v")].layout
        # Both lookups miss (the batch is new) but only one distinct instance
        # is ever solved and stored.
        assert engine.cache_stats().misses == 2
        assert len(engine.cache) == 1

    def test_solve_panels_sorted_insertion_order(self, random_sino_problem):
        problems = {
            ((2, 1), "v"): random_sino_problem(5, 0.4, 1.0, seed=1),
            ((0, 3), "h"): random_sino_problem(5, 0.4, 1.0, seed=2),
            ((0, 0), "v"): random_sino_problem(5, 0.4, 1.0, seed=3),
        }
        solutions = Engine().solve_panels(problems)
        assert list(solutions) == sorted(problems)


class TestBackendParity:
    @pytest.mark.parametrize("name", ("process",))
    def test_compare_flows_identical_across_backends(
        self, name, small_circuit, small_circuit_config
    ):
        """serial == process on a seeded ibm01 instance."""
        reference = compare_flows(
            small_circuit.grid,
            small_circuit.netlist,
            small_circuit_config,
            engine=Engine(backend=SerialBackend(), cache=SolutionCache()),
        )
        parallel = compare_flows(
            small_circuit.grid,
            small_circuit.netlist,
            small_circuit_config,
            engine=Engine(backend=create_backend(2), cache=SolutionCache()),
        )
        for flow in ("id_no", "isino", "gsino"):
            ref, par = reference[flow], parallel[flow]
            assert par.metrics.crosstalk.num_violations == ref.metrics.crosstalk.num_violations
            assert par.metrics.average_wirelength_um == ref.metrics.average_wirelength_um
            assert par.metrics.area.area == ref.metrics.area.area
            assert list(par.panels) == list(ref.panels)
            for key, solution in ref.panels.items():
                assert par.panels[key].layout == solution.layout

    def test_uncached_engine_matches_cached(self, small_circuit, small_circuit_config):
        cached = compare_flows(
            small_circuit.grid,
            small_circuit.netlist,
            small_circuit_config,
            engine=Engine(cache=SolutionCache()),
        )
        uncached = compare_flows(
            small_circuit.grid,
            small_circuit.netlist,
            small_circuit_config,
            engine=Engine(cache=None),
        )
        for flow in ("id_no", "isino", "gsino"):
            assert (
                cached[flow].metrics.crosstalk.num_violations
                == uncached[flow].metrics.crosstalk.num_violations
            )
            assert cached[flow].metrics.area.area == uncached[flow].metrics.area.area
            assert cached[flow].cache_stats is not None
            assert uncached[flow].cache_stats is None

    def test_flow_results_record_runtime_and_cache_traffic(
        self, small_circuit, small_circuit_config
    ):
        results = compare_flows(
            small_circuit.grid, small_circuit.netlist, small_circuit_config
        )
        total_lookups = 0
        for flow in ("id_no", "isino", "gsino"):
            assert results[flow].runtime_seconds > 0.0
            assert results[flow].cache_stats is not None
            total_lookups += results[flow].cache_stats.lookups
        assert total_lookups > 0


class TestSweepRunner:
    @staticmethod
    def _sweep_config(workers: int = 1) -> ExperimentConfig:
        return ExperimentConfig(
            circuits=("ibm01", "ibm02"),
            sensitivity_rates=(0.3,),
            scale=0.01,
            seed=3,
            workers=workers,
        )

    def test_points_follow_grid_order(self):
        points = SweepRunner.points(self._sweep_config())
        assert [(p.circuit, p.seed_offset) for p in points] == [("ibm01", 0), ("ibm02", 1)]

    def test_parallel_sweep_matches_serial(self):
        serial = run_table_suite(self._sweep_config(1))
        pooled = run_table_suite(self._sweep_config(2))
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial, pooled):
            assert a.circuit.profile.name == b.circuit.profile.name
            for flow in ("id_no", "isino", "gsino"):
                assert (
                    a.flows[flow].metrics.crosstalk.num_violations
                    == b.flows[flow].metrics.crosstalk.num_violations
                )
                assert a.flows[flow].metrics.area.area == b.flows[flow].metrics.area.area

    def test_summarize_aggregates_per_flow(self):
        comparisons = run_table_suite(self._sweep_config())
        summary = SweepRunner.summarize(comparisons)
        assert set(summary) == {"id_no", "isino", "gsino"}
        for aggregate in summary.values():
            assert aggregate.instances == 2
            assert aggregate.total_runtime_seconds > 0.0
            assert aggregate.mean_wirelength_um > 0.0
        # ID+NO inserts no shields; iSINO must insert at least as many as GSINO overall.
        assert summary["id_no"].total_shields == 0

    def test_experiment_config_validates_backend(self):
        # The worker count is the whole backend choice: 1 is serial, N >= 2 a pool.
        assert ExperimentConfig().workers == 1
        assert ExperimentConfig(workers=2).workers == 2
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(workers=0)
        with pytest.raises(TypeError):
            ExperimentConfig(backend="process")  # the field is gone
