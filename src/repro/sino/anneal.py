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

:func:`anneal_sino` is the one annealing chain, built on
:class:`~repro.sino.incremental.IncrementalPanelState`: each step proposes
one move as an O(affected rows) delta-cost update and commits or reverts
it.  It returns bit-identical layouts to the historic full-re-evaluation
annealer kept as the oracle in ``tests/oracles/anneal_reference.py``.
Accepted layouts are compacted only when a cheap bound says compaction
could beat the incumbent, so non-improving moves skip it entirely.

Effort levels (``solve_min_area_sino``, ``GsinoConfig.sino_effort``, and the
CLI ``--effort`` / ``--chains`` flags) select how hard each panel is solved:

* ``"greedy"`` — constructive heuristic only,
* ``"anneal"`` — greedy + simulated annealing (``AnnealConfig.chains``
  independent chains when > 1),
* ``"anneal-fast"`` — annealing on a quarter-length schedule.

Multi-chain search derives one seed per chain (chain 0 keeps the configured
seed, so ``chains=1`` reproduces the single-chain results exactly) and can be
dispatched over any :class:`~repro.engine.backends.ExecutionBackend` passed by
the caller; the reduction is deterministic regardless of the backend.  The
greedy construction is hoisted out of the per-chain loop: in-process chains
clone one shared :class:`~repro.sino.incremental.IncrementalPanelState` (and
share its evaluation memo), while a process pool receives pickled
``(problem, layout, config)`` tasks and build each chain's state in the
worker.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog import EFFORT_LEVELS
from repro.obs.metrics import process_registry
from repro.obs.trace import active_tracer, maybe_span
from repro.sino.greedy import greedy_sino
from repro.sino.incremental import IncrementalPanelState, Move
from repro.sino.panel import SinoProblem, SinoSolution

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

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.initial_temperature <= 0.0 or self.final_temperature <= 0.0:
            raise ValueError("temperatures must be positive")
        if self.final_temperature > self.initial_temperature:
            raise ValueError("final_temperature must not exceed initial_temperature")
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")

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


def _sample_move(state: IncrementalPanelState, rng: np.random.Generator) -> Move:
    """Draw one random move, consuming the RNG exactly like the scalar oracle.

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


# -- the chain ---------------------------------------------------------------


class _BestTracker:
    """Best / best-valid bookkeeping of the chain loop.

    A state is only compacted when it is valid or when the compaction bound
    says it could beat the incumbent (an invalid layout stays invalid under
    compaction, so the skip loses nothing).  Compactions are memoised by
    layout: the chain keeps revisiting the same layouts once the temperature
    drops.
    """

    def __init__(self, config: AnnealConfig, seed_solution: SinoSolution) -> None:
        self._config = config
        self.best = seed_solution.compact()
        self.best_cost = solution_cost(self.best, config)
        self.best_valid: Optional[SinoSolution] = self.best if self.best.is_valid() else None
        self._compact_cache: dict = {}

    def observe(self, state: IncrementalPanelState, cost: float) -> None:
        if not (
            state.is_current_valid()
            or cost - _compact_gain_bound(state, self._config) < self.best_cost
        ):
            return
        key = state.layout_key()
        cached = self._compact_cache.get(key)
        if cached is None:
            cached = state.compacted()
            self._compact_cache[key] = cached
        compacted, compacted_cost, compacted_valid = cached
        if compacted_cost < self.best_cost:
            self.best = compacted
            self.best_cost = compacted_cost
        if compacted_valid:
            if self.best_valid is None or compacted.num_shields < self.best_valid.num_shields:
                self.best_valid = compacted

    @property
    def result(self) -> SinoSolution:
        return self.best_valid if self.best_valid is not None else self.best


def anneal_sino(
    problem: SinoProblem,
    initial: Optional[SinoSolution] = None,
    config: Optional[AnnealConfig] = None,
    state: Optional[IncrementalPanelState] = None,
) -> SinoSolution:
    """Anneal a SINO layout, returning the best feasible layout encountered.

    If no feasible layout is ever seen, the lowest-cost layout is returned
    instead (the caller can check ``is_valid``).

    Each step proposes one move, scores it with ``state.propose`` and puts
    it through the Metropolis test, so the chain is bit-identical seed for
    seed to the historic scalar annealer.

    ``state`` optionally supplies a prebuilt panel state over the initial
    layout (the multi-chain fan-out builds one and clones it per chain); the
    caller guarantees it matches ``initial``.
    """
    config = config or AnnealConfig()
    rng = np.random.default_rng(config.seed)
    current = (initial or greedy_sino(problem)).copy()
    if state is None:
        state = IncrementalPanelState(problem, current.layout, config)
    tracker = _BestTracker(config, current)

    registry = process_registry()
    started = time.perf_counter()
    accepts = 0
    with maybe_span(active_tracer(), "anneal.chain") as span:
        for step in range(config.iterations):
            temperature = config.temperature_at(step)
            delta = state.propose(_sample_move(state, rng))
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                cost = state.commit()
                accepts += 1
                tracker.observe(state, cost)
            else:
                state.revert()
        if span is not None:
            span.add(steps=config.iterations, accepts=accepts)
    registry.counter("anneal.steps").inc(config.iterations)
    registry.counter("anneal.seconds").inc(time.perf_counter() - started)
    return tracker.result


# -- multi-chain search -------------------------------------------------------


def derive_chain_seed(seed: int, chain: int) -> int:
    """Deterministic per-chain seed; chain 0 keeps the configured seed."""
    if chain == 0:
        return seed
    return int(np.random.SeedSequence((seed, chain)).generate_state(1)[0])


def _anneal_chain(task: Tuple) -> SinoSolution:
    """Run one annealing chain (module-level so process pools can pickle it).

    ``task`` is ``(problem, initial_layout, config, state)``; ``state`` is a
    prebuilt (cloned) panel state on the in-process paths and ``None`` when
    the chain must build its own.
    """
    problem, initial_layout, config, state = task
    initial = None
    if initial_layout is not None:
        initial = SinoSolution(problem=problem, layout=list(initial_layout))
    return anneal_sino(problem, initial=initial, config=config, state=state)


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
) -> List[SinoSolution]:
    """Run ``config.chains`` independent chains, optionally over a backend.

    The greedy construction happens once.  In-process execution (no
    backend, one chain, or the serial backend) also builds the panel state
    once and hands each chain a clone of it — the clones share the
    evaluation memo.  A process pool gets picklable
    ``(problem, layout, config, None)`` tasks, and each chain builds its own
    state in its worker.  Results are identical on every path.
    """
    template = config if config.chains == 1 else replace(config, chains=1)
    base = initial if initial is not None else greedy_sino(problem)
    layout = list(base.layout)
    configs = [
        _chain_config(template, derive_chain_seed(config.seed, chain))
        for chain in range(config.chains)
    ]
    if backend is not None and len(configs) > 1 and backend.name != "serial":
        tasks = [(problem, layout, chain_config, None) for chain_config in configs]
        return backend.map_tasks(_anneal_chain, tasks)
    base_state = IncrementalPanelState(problem, layout, template)
    tasks = [
        (problem, layout, chain_config, base_state if index == 0 else base_state.clone())
        for index, chain_config in enumerate(configs)
    ]
    return [_anneal_chain(task) for task in tasks]


def anneal_sino_multichain(
    problem: SinoProblem,
    initial: Optional[SinoSolution] = None,
    config: Optional[AnnealConfig] = None,
    backend: Optional[Any] = None,
) -> SinoSolution:
    """Run ``config.chains`` independent annealing chains and reduce.

    ``backend`` is an optional :class:`~repro.engine.backends.ExecutionBackend`
    (duck-typed to avoid a layering cycle — the engine imports this module);
    ``None`` runs the chains inline.  The result is identical for every
    backend, and ``chains=1`` reproduces :func:`anneal_sino` exactly.
    """
    config = config or AnnealConfig()
    return reduce_best_feasible(_run_chains(problem, initial, config, backend), config)


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
      single-region studies).  ``config.chains > 1`` runs that many independent chains and keeps the
      best feasible result.  Never worse than greedy: the chain's incumbent
      starts as the compacted greedy layout,
    * ``"anneal-fast"`` — annealing on a quarter-length cooling schedule,
      for sweeps that want improvement over greedy without the full budget.

    ``backend`` optionally fans multi-chain efforts over an execution
    backend; results never depend on it.
    """
    if effort == "greedy":
        return greedy_sino(problem)
    if effort in ("anneal", "anneal-fast"):
        schedule = _fast_schedule(config) if effort == "anneal-fast" else (config or AnnealConfig())
        if schedule.chains > 1:
            return anneal_sino_multichain(problem, config=schedule, backend=backend)
        return anneal_sino(problem, config=schedule)
    raise ValueError(
        f"unknown SINO effort level {effort!r} (expected one of {EFFORT_LEVELS})"
    )
