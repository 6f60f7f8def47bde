"""Tests of the best-of-K annealing chain and its shared-memory fan-out.

Covers the four contracts the chain makes at every width:

* the vectorised evaluator scores every move with *exactly* the delta the
  scalar ``propose()`` path computes (property test over random walks);
* ``batch_k=1`` is the scalar reference oracle bit-for-bit;
* the registry quality gate — the K = 8 chain's final cost meets the
  scalar reference oracle on every panel of every registered panel
  scenario, seed for seed;
* multi-chain fan-out over a non-shared-memory backend ships panel states
  through shared memory (zero pickled matrices), with backend-independent
  results and no leaked ``/dev/shm`` segments.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.engine.backends import ProcessBackend, SerialBackend
from repro.obs.trace import Tracer, set_active_tracer
from repro.service.scenarios import generate_scenario, list_scenarios, scenario_kind
from repro.sino.anneal import (
    AnnealConfig,
    _chain_config,
    _run_chains,
    _sample_move,
    anneal_sino,
    anneal_sino_multichain,
    derive_chain_seed,
    solution_cost,
    solve_min_area_sino,
)
from repro.sino.greedy import greedy_sino
from repro.sino.batched import BatchedMoveEvaluator
from repro.sino.incremental import IncrementalPanelState
from repro.sino.panel import SinoProblem
from repro.tech.itrs import ITRS_70NM, ITRS_100NM, ITRS_130NM

from tests.conftest import make_random_sino_problem
from tests.oracles.anneal_reference import anneal_sino_reference

PANEL_SCENARIOS = [name for name, _ in list_scenarios() if scenario_kind(name) == "panels"]


def _scenario_config(task) -> AnnealConfig:
    """The effective schedule of one scenario task (its seed applied)."""
    config = task.anneal or AnnealConfig()
    if config.seed != task.seed and task.seed is not None:
        config = replace(config, seed=task.seed)
    return config


class TestBatchedEvaluatorProperty:
    """Vectorised deltas equal scalar ``propose()`` deltas, exactly."""

    @pytest.mark.parametrize(
        "technology", [ITRS_100NM, ITRS_130NM, ITRS_70NM], ids=lambda t: t.name
    )
    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_batched_deltas_match_scalar_proposals(self, technology, width):
        # Node-scaled bounds mirror how the scenario registry tightens Kth
        # with Vdd; each node exercises a different shield-pressure regime.
        kth = 0.9 * technology.vdd / ITRS_100NM.vdd
        problem = make_random_sino_problem(9, 0.5, kth, seed=29)
        config = AnnealConfig(seed=17)
        layout = list(greedy_sino(problem).layout)
        # Two independent states (separate evaluation memos), walked in
        # lockstep: a shared memo would let cache hits mask a scoring bug.
        scored = IncrementalPanelState(problem, list(layout), config)
        proposed = IncrementalPanelState(problem, list(layout), config)
        evaluator = BatchedMoveEvaluator(scored)
        rng = np.random.default_rng(23)
        total = 0
        while total < 500:
            moves = [_sample_move(proposed, rng) for _ in range(width)]
            batched = evaluator.score(moves)
            scalar = []
            for move in moves:
                scalar.append(proposed.propose(move))
                proposed.revert()
            assert batched == scalar  # exact float equality, not approx
            total += len(moves)
            # Commit the best candidate on both states so the walk visits
            # layouts the greedy seed never produces.
            best = min(range(len(moves)), key=batched.__getitem__)
            if batched[best] < 0.0:
                scored.propose(moves[best])
                scored.commit()
                evaluator.refresh()
                proposed.propose(moves[best])
                proposed.commit()


class TestWidthOneIdentity:
    """``batch_k=1`` is the scalar reference annealer, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 2002])
    def test_batch_k_one_matches_scalar_annealer(self, seed):
        problem = make_random_sino_problem(10, 0.5, 0.85, seed=seed)
        config = AnnealConfig(iterations=600, seed=seed)
        reference = anneal_sino_reference(problem, config=config)
        chain = anneal_sino(problem, config=replace(config, batch_k=1))
        assert reference.layout == chain.layout

    def test_default_width_is_one(self):
        assert AnnealConfig().batch_k == 1

    def test_batch_k_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(batch_k=0)


class TestRegistryQualityGate:
    """The K = 8 chain meets the reference oracle on every registry panel."""

    @pytest.mark.parametrize("name", PANEL_SCENARIOS)
    def test_batched_cost_meets_reference_oracle(self, name):
        assert PANEL_SCENARIOS, "scenario registry lost its panel scenarios"
        for task in generate_scenario(name):
            config = _scenario_config(task)
            reference = solution_cost(anneal_sino_reference(task.problem, config=config), config)
            batched = solution_cost(
                anneal_sino(task.problem, config=replace(config, batch_k=8)),
                config,
            )
            assert batched <= reference + 1e-9, (
                f"{name}/seed={config.seed}: batched cost {batched} worse "
                f"than the reference oracle {reference}"
            )


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
        template = AnnealConfig(iterations=700, seed=5, chains=1, batch_k=4)
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


def _assert_no_panel_payload(value, path="task"):
    """Recursively assert a task carries no matrices and no problem object."""
    assert not isinstance(value, np.ndarray), f"{path} carries an ndarray"
    assert not isinstance(value, SinoProblem), f"{path} carries a SinoProblem"
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _assert_no_panel_payload(item, f"{path}[{index}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_no_panel_payload(item, f"{path}[{key!r}]")
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            _assert_no_panel_payload(getattr(value, name), f"{path}.{name}")


class _PickleScanBackend(SerialBackend):
    """Serial execution behind a process-backend facade.

    ``shares_memory=False`` routes the chain fan-out onto the shared-memory
    export path; every task is scanned for forbidden payloads and pickled
    round-trip before running, which is exactly the proof a real process
    pool needs.
    """

    name = "pickle-scan"

    def __init__(self):
        super().__init__()
        self.payload_bytes = 0
        self.tasks_scanned = 0

    @property
    def shares_memory(self) -> bool:
        return False

    def submit_batch(self, fn, chunks):
        results = []
        for chunk in chunks:
            for task in chunk:
                _assert_no_panel_payload(task)
            blob = pickle.dumps(chunk)
            self.payload_bytes += len(blob)
            self.tasks_scanned += len(chunk)
            results.append([fn(task) for task in pickle.loads(blob)])
        return results


class TestSharedMemoryFanOut:
    def _chain_problem(self):
        return make_random_sino_problem(10, 0.5, 0.8, seed=21)

    def test_non_shared_backend_pickles_no_panel_matrices(self):
        problem = self._chain_problem()
        config = AnnealConfig(iterations=300, seed=4, chains=4, batch_k=8)
        backend = _PickleScanBackend()
        fanned = anneal_sino_multichain(problem, config=config, backend=backend)
        serial = anneal_sino_multichain(problem, config=config)
        assert backend.tasks_scanned == 4
        # A chain task is (handle, config): a few hundred bytes,
        # however large the panel — nothing quadratic crosses the boundary.
        assert backend.payload_bytes < 4 * 4096
        assert fanned.layout == serial.layout

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="platform has no /dev/shm")
    def test_process_backend_matches_serial_and_leaks_no_segments(self):
        problem = self._chain_problem()
        config = AnnealConfig(iterations=300, seed=4, chains=4, batch_k=8)
        before = set(os.listdir("/dev/shm"))
        with ProcessBackend(workers=2) as backend:
            fanned = anneal_sino_multichain(problem, config=config, backend=backend)
        serial = anneal_sino_multichain(problem, config=config)
        assert fanned.layout == serial.layout
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"

    def test_run_chains_matches_across_backends(self):
        problem = self._chain_problem()
        config = AnnealConfig(iterations=200, seed=11, chains=3, batch_k=8)
        inline = _run_chains(problem, None, config, None)
        scanned = _run_chains(problem, None, config, _PickleScanBackend())
        assert [s.layout for s in inline] == [s.layout for s in scanned]


class TestEffortDispatch:
    def test_anneal_effort_runs_the_wide_chain(self):
        problem = make_random_sino_problem(9, 0.5, 0.85, seed=6)
        config = AnnealConfig(iterations=400, seed=6, batch_k=8)
        via_effort = solve_min_area_sino(problem, effort="anneal", config=config)
        direct = anneal_sino(problem, config=config)
        assert via_effort.layout == direct.layout
        assert via_effort.is_valid()


class TestChainTracing:
    def test_ambient_tracer_records_per_chain_spans_with_counters(self):
        problem = make_random_sino_problem(8, 0.5, 0.9, seed=2)
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            anneal_sino_multichain(
                problem, config=AnnealConfig(iterations=200, seed=2, chains=2, batch_k=8)
            )
        finally:
            set_active_tracer(None)
        report = tracer.format_report()
        assert report.count("anneal.chain") == 2
        assert "evals=" in report and "batch_k=" in report
