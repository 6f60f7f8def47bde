"""Simulated-annealing improvement of SINO solutions (min-area search).

The greedy constructor (:mod:`repro.sino.greedy`) produces a feasible layout
quickly but may use more shields than necessary.  Since SINO is NP-hard, the
paper's referenced solver and this reproduction both rely on stochastic
improvement to approach the minimum-area solution.  The annealer perturbs a
layout with four move types — swapping two tracks, relocating a shield,
deleting a shield and inserting a shield — and accepts uphill moves with the
usual Metropolis criterion.

The cost function puts a large weight on constraint violations, a unit weight
per shield track and a medium weight per overflow track, so the search drives
towards *feasible* layouts first and *small* layouts second.

Two implementations share the move semantics and the RNG stream:

* :func:`anneal_sino` — the production path, built on
  :class:`~repro.sino.incremental.IncrementalPanelState`; each proposal is an
  O(affected rows) delta-cost update, and the compaction of accepted layouts
  is guarded by a cheap bound so non-improving moves skip it entirely.
* :func:`anneal_sino_reference` — the historic implementation that deep-copies
  the layout and re-evaluates the full scalar cost per proposal.  It is kept
  as the correctness oracle: both functions return bit-identical layouts for
  every (problem, config) pair, which the test suite asserts seed-for-seed.

Effort levels (``solve_min_area_sino``, ``GsinoConfig.sino_effort``, and the
CLI ``--effort`` / ``--chains`` flags) select how hard each panel is solved:

* ``"greedy"`` — constructive heuristic only,
* ``"anneal"`` — greedy + simulated annealing (``AnnealConfig.chains``
  independent chains when > 1),
* ``"anneal-fast"`` — annealing on a quarter-length schedule,
* ``"anneal-batched"`` — best-of-K batched move evaluation at the same
  total evaluation budget (:func:`repro.sino.batched.anneal_sino_batched`;
  ``AnnealConfig.batch_k`` / ``--batch-k`` pick K),
* ``"portfolio"`` — the greedy solution plus ``chains`` annealing chains,
  reduced to the best feasible candidate.

Multi-chain search derives one seed per chain (chain 0 keeps the configured
seed, so ``chains=1`` reproduces the single-chain results exactly) and can be
dispatched over any :class:`~repro.engine.backends.ExecutionBackend` passed by
the caller; the reduction is deterministic regardless of the backend.  The
greedy construction and the initial array-bundle build are hoisted out of the
per-chain loop: in-process chains clone one shared
:class:`~repro.sino.incremental.IncrementalPanelState` (and share its
evaluation memo), while process backends receive the bundle through
:mod:`repro.sino.shared` shared-memory segments instead of pickled arrays.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import process_registry
from repro.obs.trace import active_tracer, maybe_span
from repro.sino.greedy import greedy_sino
from repro.sino.incremental import IncrementalPanelState, Move
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution

#: Effort levels accepted by :func:`solve_min_area_sino` (and, transitively,
#: ``GsinoConfig.sino_effort``, ``PanelTask.effort`` and the CLI ``--effort``).
EFFORT_LEVELS: Tuple[str, ...] = (
    "greedy",
    "anneal",
    "anneal-fast",
    "anneal-batched",
    "portfolio",
)

#: Schedule-length divisor of the ``"anneal-fast"`` effort level.
ANNEAL_FAST_DIVISOR = 4


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule and cost weights.

    Attributes
    ----------
    iterations:
        Number of proposed moves.
    initial_temperature / final_temperature:
        Geometric cooling endpoints (in cost units).
    capacitive_weight:
        Cost of each adjacent sensitive pair.
    inductive_weight:
        Cost per unit of Kth excess.
    shield_weight:
        Cost per shield track (the area objective).
    overflow_weight:
        Cost per track beyond the region capacity.
    seed:
        Random seed for reproducibility.
    chains:
        Number of independent annealing chains.  Chain 0 uses ``seed``
        itself (so ``chains=1`` is exactly the single-chain search); every
        further chain derives its own seed via :func:`derive_chain_seed`.
        The best feasible chain result wins.
    batch_k:
        Candidates scored per temperature step by the ``"anneal-batched"``
        effort level (:func:`repro.sino.batched.anneal_sino_batched`).
        ``iterations`` still counts total candidate evaluations, so any
        ``batch_k`` does the same amount of evaluation work; ``batch_k=1``
        reproduces :func:`anneal_sino` bit-identically.  Ignored by the
        other effort levels.
    """

    iterations: int = 1500
    initial_temperature: float = 4.0
    final_temperature: float = 0.05
    capacitive_weight: float = 100.0
    inductive_weight: float = 50.0
    shield_weight: float = 1.0
    overflow_weight: float = 5.0
    seed: int = 0
    chains: int = 1
    batch_k: int = 8

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.initial_temperature <= 0.0 or self.final_temperature <= 0.0:
            raise ValueError("temperatures must be positive")
        if self.final_temperature > self.initial_temperature:
            raise ValueError("final_temperature must not exceed initial_temperature")
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        if self.batch_k < 1:
            raise ValueError(f"batch_k must be >= 1, got {self.batch_k}")

    def temperature_at(self, step: int) -> float:
        """Geometric cooling schedule evaluated at a step index."""
        if self.iterations == 1:
            return self.initial_temperature
        ratio = self.final_temperature / self.initial_temperature
        fraction = step / (self.iterations - 1)
        return self.initial_temperature * ratio ** fraction


#: The default schedule and weights, built once at import.  The greedy
#: solver's panel state carries it without reading its cost.
DEFAULT_ANNEAL_CONFIG = AnnealConfig()


def solution_cost(solution: SinoSolution, config: AnnealConfig) -> float:
    """Weighted cost of a layout (lower is better, feasibility dominates)."""
    capacitive = len(solution.capacitive_violation_pairs())
    inductive = sum(solution.inductive_violations().values())
    return (
        config.capacitive_weight * capacitive
        + config.inductive_weight * inductive
        + config.shield_weight * solution.num_shields
        + config.overflow_weight * solution.overflow
    )


def _propose(solution: SinoSolution, rng: np.random.Generator) -> SinoSolution:
    """Return a perturbed copy of ``solution`` using one random move."""
    candidate = solution.copy()
    layout = candidate.layout
    move = rng.random()
    if move < 0.4 and len(layout) >= 2:
        # Swap two tracks.
        i, j = rng.choice(len(layout), size=2, replace=False)
        layout[i], layout[j] = layout[j], layout[i]
    elif move < 0.6 and candidate.num_shields > 0:
        # Relocate one shield to a random gap.
        shield_positions = [index for index, entry in enumerate(layout) if entry is SHIELD]
        position = int(rng.choice(shield_positions))
        layout.pop(position)
        gap = int(rng.integers(0, len(layout) + 1))
        layout.insert(gap, SHIELD)
    elif move < 0.8 and candidate.num_shields > 0:
        # Delete one shield.
        shield_positions = [index for index, entry in enumerate(layout) if entry is SHIELD]
        layout.pop(int(rng.choice(shield_positions)))
    else:
        # Insert a shield at a random gap.
        gap = int(rng.integers(0, len(layout) + 1))
        layout.insert(gap, SHIELD)
    return candidate


def _sample_move(state: IncrementalPanelState, rng: np.random.Generator) -> Move:
    """Draw one random move, consuming the RNG exactly like :func:`_propose`.

    The shield tracks are passed to ``rng.choice`` as the state's sorted
    array rather than a rebuilt list — ``choice`` draws a uniform index
    either way, so the stream and the drawn values are unchanged.
    """
    num_tracks = state.num_tracks
    move = rng.random()
    if move < 0.4 and num_tracks >= 2:
        i, j = rng.choice(num_tracks, size=2, replace=False)
        return Move.swap(int(i), int(j))
    elif move < 0.6 and state.num_shields > 0:
        position = int(rng.choice(state.shield_array()))
        gap = int(rng.integers(0, num_tracks))
        return Move.relocate(position, gap)
    elif move < 0.8 and state.num_shields > 0:
        return Move.delete(int(rng.choice(state.shield_array())))
    else:
        gap = int(rng.integers(0, num_tracks + 1))
        return Move.insert(gap)


def _compact_gain_bound(state: IncrementalPanelState, config: AnnealConfig) -> float:
    """Upper bound on how much cost :meth:`SinoSolution.compact` can recover.

    Compaction only ever removes shields, and removing a shield weakly
    increases every coupling and every adjacency count, so the only cost
    components it can improve are the shield term and the overflow term.
    """
    num_shields = state.num_shields
    return (
        num_shields * config.shield_weight
        + min(num_shields, state.overflow) * config.overflow_weight
    )


def anneal_sino(
    problem: SinoProblem,
    initial: Optional[SinoSolution] = None,
    config: Optional[AnnealConfig] = None,
    state: Optional[IncrementalPanelState] = None,
) -> SinoSolution:
    """Anneal a SINO layout, returning the best feasible layout encountered.

    If no feasible layout is ever seen, the lowest-cost layout is returned
    instead (the caller can check ``is_valid``).

    Every proposal is evaluated as an incremental delta against the current
    layout (:class:`~repro.sino.incremental.IncrementalPanelState`), and an
    accepted layout is only compacted and scored against the incumbent when
    a cheap bound says compaction could actually beat it — both of which
    leave the results bit-identical to :func:`anneal_sino_reference`.

    ``state`` optionally supplies a prebuilt panel state over the initial
    layout (the multi-chain fan-out builds one and clones it per chain); the
    caller guarantees it matches ``initial``.
    """
    config = config or AnnealConfig()
    rng = np.random.default_rng(config.seed)
    current = (initial or greedy_sino(problem)).copy()
    if state is None:
        state = IncrementalPanelState(problem, current.layout, config)
    current_cost = state.cost
    best = current.compact()
    best_cost = solution_cost(best, config)
    best_valid: Optional[SinoSolution] = best if best.is_valid() else None
    # Compaction is a pure function of the layout, and the chain keeps
    # revisiting the same layouts once the temperature drops.
    compact_cache: dict = {}

    registry = process_registry()
    started = time.perf_counter()
    accepts = 0
    with maybe_span(active_tracer(), "anneal.chain", batch_k=1) as span:
        for step in range(config.iterations):
            temperature = config.temperature_at(step)
            delta = state.propose(_sample_move(state, rng))
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                current_cost = state.commit()
                accepts += 1
                # An invalid layout stays invalid under compaction, so unless
                # the bound says the compacted cost could undercut the
                # incumbent there is nothing to learn from compacting (the
                # historic implementation compacted and re-scored after
                # *every* accepted move).
                if state.is_current_valid() or (
                    current_cost - _compact_gain_bound(state, config) < best_cost
                ):
                    key = state.layout_key()
                    cached = compact_cache.get(key)
                    if cached is None:
                        cached = state.compacted()
                        compact_cache[key] = cached
                    compacted, compacted_cost, compacted_valid = cached
                    if compacted_cost < best_cost:
                        best = compacted
                        best_cost = compacted_cost
                    if compacted_valid:
                        if best_valid is None or compacted.num_shields < best_valid.num_shields:
                            best_valid = compacted
            else:
                state.revert()
        if span is not None:
            span.add(steps=config.iterations, evals=config.iterations, accepts=accepts)
    registry.counter("anneal.steps").inc(config.iterations)
    registry.counter("anneal.seconds").inc(time.perf_counter() - started)
    return best_valid if best_valid is not None else best


def _reference_compact(solution: SinoSolution) -> SinoSolution:
    """The historic compaction pass, preserved verbatim for the oracle.

    Identical decisions (and therefore identical layouts) to
    :meth:`SinoSolution.compact`, but evaluated the way the pre-incremental
    code base did — every removal candidate re-counts capacitive violations
    through freshly built occupant records — so the reference annealer keeps
    the historic cost profile the benchmarks measure speedups against.
    """
    evaluator = solution.problem.evaluator()
    layout = list(solution.layout)
    excess = evaluator.total_excess(layout)
    capacitive = len(
        SinoSolution(problem=solution.problem, layout=layout).capacitive_violation_pairs()
    )
    index = len(layout) - 1
    while index >= 0:
        if layout[index] is SHIELD:
            candidate = layout[:index] + layout[index + 1 :]
            candidate_excess = evaluator.total_excess(candidate)
            candidate_capacitive = len(
                SinoSolution(
                    problem=solution.problem, layout=candidate
                ).capacitive_violation_pairs()
            )
            if candidate_excess <= excess + 1e-12 and candidate_capacitive <= capacitive:
                layout = candidate
                excess = candidate_excess
                capacitive = candidate_capacitive
        index -= 1
    return SinoSolution(problem=solution.problem, layout=layout)


def anneal_sino_reference(
    problem: SinoProblem,
    initial: Optional[SinoSolution] = None,
    config: Optional[AnnealConfig] = None,
) -> SinoSolution:
    """The historic full-re-evaluation annealer, kept as the oracle.

    Deep-copies the layout and recomputes the complete scalar cost for every
    proposal, and compacts after every accepted move.  :func:`anneal_sino`
    must return bit-identical layouts for the same inputs; the test suite and
    the ``bench_sino_anneal`` benchmark both assert that equivalence.
    """
    config = config or AnnealConfig()
    rng = np.random.default_rng(config.seed)
    current = (initial or greedy_sino(problem)).copy()
    current_cost = solution_cost(current, config)
    best = _reference_compact(current)
    best_cost = solution_cost(best, config)
    best_valid: Optional[SinoSolution] = best if best.is_valid() else None

    for step in range(config.iterations):
        temperature = config.temperature_at(step)
        candidate = _propose(current, rng)
        candidate_cost = solution_cost(candidate, config)
        delta = candidate_cost - current_cost
        if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
            current = candidate
            current_cost = candidate_cost
            compacted = _reference_compact(current)
            compacted_cost = solution_cost(compacted, config)
            if compacted_cost < best_cost:
                best = compacted
                best_cost = compacted_cost
            if compacted.is_valid():
                if best_valid is None or compacted.num_shields < best_valid.num_shields:
                    best_valid = compacted
    return best_valid if best_valid is not None else best


# -- multi-chain search -------------------------------------------------------


def derive_chain_seed(seed: int, chain: int) -> int:
    """Deterministic per-chain seed; chain 0 keeps the configured seed."""
    if chain == 0:
        return seed
    return int(np.random.SeedSequence((seed, chain)).generate_state(1)[0])


def _anneal_chain(task: Tuple) -> SinoSolution:
    """Run one annealing chain (module-level so process pools can pickle it).

    ``task`` is ``(problem, initial_layout, config, algorithm, state)``;
    ``state`` is a prebuilt (cloned) panel state on the in-process paths and
    ``None`` when the chain must build its own.
    """
    problem, initial_layout, config, algorithm, state = task
    initial = None
    if initial_layout is not None:
        initial = SinoSolution(problem=problem, layout=list(initial_layout))
    if algorithm == "batched":
        from repro.sino.batched import anneal_sino_batched

        return anneal_sino_batched(problem, initial=initial, config=config, state=state)
    return anneal_sino(problem, initial=initial, config=config, state=state)


def _anneal_chain_shm(task: Tuple) -> SinoSolution:
    """Run one chain against a shared-memory panel export (process pools).

    ``task`` is ``(handle, config, algorithm)`` — no arrays and no problem
    object cross the pickle boundary; the worker attaches the exporting
    process's segment (memoised per segment, so chunked chains attach once)
    and rebuilds its private state from it.
    """
    from repro.sino.shared import attach_panel_state

    handle, config, algorithm = task
    state = attach_panel_state(handle, config)
    initial = state.to_solution()
    if algorithm == "batched":
        from repro.sino.batched import anneal_sino_batched

        return anneal_sino_batched(
            state.problem, initial=initial, config=config, state=state
        )
    return anneal_sino(state.problem, initial=initial, config=config, state=state)


def reduce_best_feasible(
    solutions: Sequence[SinoSolution], config: AnnealConfig
) -> SinoSolution:
    """Pick the best candidate: valid beats invalid, then fewest shields.

    Invalid candidates are compared by :func:`solution_cost`; ties keep the
    earliest candidate, so the reduction is deterministic for any execution
    order that preserves the candidate sequence (all backends do).
    """
    if not solutions:
        raise ValueError("at least one candidate solution is required")
    best: Optional[SinoSolution] = None
    best_key: Tuple[int, float] = (2, 0.0)
    for solution in solutions:
        if solution.is_valid():
            key = (0, float(solution.num_shields))
        else:
            key = (1, solution_cost(solution, config))
        if best is None or key < best_key:
            best = solution
            best_key = key
    return best


def _chain_config(template: AnnealConfig, seed: int) -> AnnealConfig:
    """``template`` with only the seed swapped, skipping re-validation.

    ``dataclasses.replace`` re-runs ``__init__`` (and ``__post_init__``
    validation) per call; the fan-out derives one config per chain from an
    already-validated template, so a field-level copy keeps chain setup O(1)
    per chain.
    """
    if seed == template.seed:
        return template
    derived = copy.copy(template)
    object.__setattr__(derived, "seed", seed)
    return derived


def _run_chains(
    problem: SinoProblem,
    initial: Optional[SinoSolution],
    config: AnnealConfig,
    backend: Optional[Any],
    algorithm: str = "incremental",
) -> List[SinoSolution]:
    """Run ``config.chains`` independent chains, optionally over a backend.

    The greedy construction and the initial array-bundle build happen once:
    in-process execution (no backend, or a ``shares_memory`` backend) hands
    each chain a clone of one shared state — the clones share the evaluation
    memo — while process backends receive the bundle through a shared-memory
    segment (:mod:`repro.sino.shared`) so no panel matrices are pickled.
    Results are identical on every path.
    """
    template = config if config.chains == 1 else replace(config, chains=1)
    base = initial if initial is not None else greedy_sino(problem)
    layout = list(base.layout)
    configs = [
        _chain_config(template, derive_chain_seed(config.seed, chain))
        for chain in range(config.chains)
    ]
    in_process = (
        backend is None or len(configs) == 1 or getattr(backend, "shares_memory", True)
    )
    if not in_process:
        results = _run_chains_shared(problem, layout, template, configs, backend, algorithm)
        if results is not None:
            return results
        # Shared memory unavailable (no /dev/shm, exotic platform): fall
        # back to pickling the problem per chain, states rebuilt in-worker.
        tasks = [(problem, layout, chain_config, algorithm, None) for chain_config in configs]
        return backend.map_tasks(_anneal_chain, tasks)
    base_state = IncrementalPanelState(problem, layout, template)
    tasks = [
        (
            problem,
            layout,
            chain_config,
            algorithm,
            base_state if index == 0 else base_state.clone(),
        )
        for index, chain_config in enumerate(configs)
    ]
    if backend is None or len(tasks) == 1:
        return [_anneal_chain(task) for task in tasks]
    return backend.map_tasks(_anneal_chain, tasks)


def _run_chains_shared(
    problem: SinoProblem,
    layout: List[Optional[int]],
    template: AnnealConfig,
    configs: List[AnnealConfig],
    backend: Any,
    algorithm: str,
) -> Optional[List[SinoSolution]]:
    """Fan chains over a process backend via one shared-memory export.

    Returns ``None`` when the export cannot be created, letting the caller
    fall back to the pickling path.  The segment outlives every chain —
    ``map_tasks`` blocks until the batch drains — and is closed and
    unlinked here regardless of chain outcome.
    """
    from repro.sino.shared import SharedPanelExport

    base_state = IncrementalPanelState(problem, layout, template)
    try:
        export = SharedPanelExport(base_state)
    except (OSError, ValueError):
        return None
    try:
        tasks = [(export.handle, chain_config, algorithm) for chain_config in configs]
        return backend.map_tasks(_anneal_chain_shm, tasks)
    finally:
        export.close()
        export.unlink()


def anneal_sino_multichain(
    problem: SinoProblem,
    initial: Optional[SinoSolution] = None,
    config: Optional[AnnealConfig] = None,
    backend: Optional[Any] = None,
    algorithm: str = "incremental",
) -> SinoSolution:
    """Run ``config.chains`` independent annealing chains and reduce.

    ``backend`` is an optional :class:`~repro.engine.backends.ExecutionBackend`
    (duck-typed to avoid a layering cycle — the engine imports this module);
    ``None`` runs the chains inline.  The result is identical for every
    backend, and ``chains=1`` reproduces :func:`anneal_sino` exactly.
    ``algorithm="batched"`` runs each chain through
    :func:`repro.sino.batched.anneal_sino_batched` instead.
    """
    config = config or AnnealConfig()
    return reduce_best_feasible(
        _run_chains(problem, initial, config, backend, algorithm), config
    )


def _fast_schedule(config: Optional[AnnealConfig]) -> AnnealConfig:
    """The ``"anneal-fast"`` schedule: a quarter of the configured moves."""
    config = config or AnnealConfig()
    return replace(config, iterations=max(1, config.iterations // ANNEAL_FAST_DIVISOR))


def solve_min_area_sino(
    problem: SinoProblem,
    effort: str = "greedy",
    config: Optional[AnnealConfig] = None,
    backend: Optional[Any] = None,
) -> SinoSolution:
    """Solve one SINO instance at a chosen effort level.

    ``effort`` is one of :data:`EFFORT_LEVELS`:

    * ``"greedy"`` — constructive heuristic only (fast, used per-region at
      full-chip scale),
    * ``"anneal"`` — greedy construction followed by simulated annealing
      (slower, closer to minimum area; used when fitting Formula 3 and in the
      single-region studies).  ``config.chains > 1`` runs that many
      independent chains and keeps the best feasible result,
    * ``"anneal-fast"`` — annealing on a quarter-length cooling schedule,
      for sweeps that want improvement over greedy without the full budget,
    * ``"anneal-batched"`` — the same evaluation budget as ``"anneal"``,
      scored ``config.batch_k`` candidates at a time
      (:func:`repro.sino.batched.anneal_sino_batched`); quality is asserted
      >= the reference oracle by the test suite,
    * ``"portfolio"`` — the greedy solution plus ``config.chains`` annealing
      chains, reduced with :func:`reduce_best_feasible` (never worse than
      greedy, usually as good as the best chain).

    ``backend`` optionally fans multi-chain efforts over an execution
    backend; results never depend on it.
    """
    if effort == "greedy":
        return greedy_sino(problem)
    if effort in ("anneal", "anneal-fast", "anneal-batched"):
        schedule = _fast_schedule(config) if effort == "anneal-fast" else (config or AnnealConfig())
        algorithm = "batched" if effort == "anneal-batched" else "incremental"
        if schedule.chains > 1:
            return anneal_sino_multichain(
                problem, config=schedule, backend=backend, algorithm=algorithm
            )
        if algorithm == "batched":
            from repro.sino.batched import anneal_sino_batched

            return anneal_sino_batched(problem, config=schedule)
        return anneal_sino(problem, config=schedule)
    if effort == "portfolio":
        schedule = config or AnnealConfig()
        candidates = [greedy_sino(problem)]
        candidates.extend(_run_chains(problem, None, schedule, backend))
        return reduce_best_feasible(candidates, schedule)
    raise ValueError(
        f"unknown SINO effort level {effort!r} (expected one of {EFFORT_LEVELS})"
    )
