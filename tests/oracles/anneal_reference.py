"""Scalar reference of the simulated-annealing SINO solver.

This is the historic annealer: every proposal deep-copies the layout and
re-evaluates the full scalar cost, and every accepted layout is compacted
through freshly built occupant records.  :func:`repro.sino.anneal.anneal_sino`
must return bit-identical layouts seed for seed; the test suite and
``benchmarks/bench_sino_anneal.py`` assert it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.sino.anneal import AnnealConfig
from repro.sino.greedy import greedy_sino
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution

from tests.oracles.panel_reference import PanelReference


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


def _reference_compact(solution: SinoSolution, reference: PanelReference) -> SinoSolution:
    """The historic compaction pass, preserved verbatim for the oracle.

    Identical decisions (and therefore identical layouts) to
    :meth:`SinoSolution.compact`, but evaluated the way the pre-incremental
    code base did — every removal candidate re-counts capacitive violations
    through freshly built occupant records — so the reference annealer keeps
    the historic cost profile the benchmarks measure speedups against.
    """
    layout = list(solution.layout)
    excess = reference.total_excess(layout)
    capacitive = reference.capacitive(layout)
    index = len(layout) - 1
    while index >= 0:
        if layout[index] is SHIELD:
            candidate = layout[:index] + layout[index + 1 :]
            candidate_excess = reference.total_excess(candidate)
            candidate_capacitive = reference.capacitive(candidate)
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
    proposal, and compacts after every accepted move.
    :func:`repro.sino.anneal.anneal_sino` must return bit-identical
    layouts for the same inputs; the test suite and the
    ``bench_sino_anneal`` benchmark both assert that equivalence.
    """
    config = config or AnnealConfig()
    reference = PanelReference(problem)
    rng = np.random.default_rng(config.seed)
    current = (initial or greedy_sino(problem)).copy()
    current_cost = reference.cost(current, config)
    best = _reference_compact(current, reference)
    best_cost = reference.cost(best, config)
    best_valid: Optional[SinoSolution] = best if reference.is_valid(best) else None

    for step in range(config.iterations):
        temperature = config.temperature_at(step)
        candidate = _propose(current, rng)
        candidate_cost = reference.cost(candidate, config)
        delta = candidate_cost - current_cost
        if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
            current = candidate
            current_cost = candidate_cost
            compacted = _reference_compact(current, reference)
            compacted_cost = reference.cost(compacted, config)
            if compacted_cost < best_cost:
                best = compacted
                best_cost = compacted_cost
            if reference.is_valid(compacted):
                if best_valid is None or compacted.num_shields < best_valid.num_shields:
                    best_valid = compacted
    return best_valid if best_valid is not None else best
