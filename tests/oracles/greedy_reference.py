"""Scalar reference of the greedy SINO solver.

This is the historic greedy construction: every shield-insertion round
copies the layout once per candidate gap and re-evaluates the whole panel
through the historic evaluator (:mod:`tests.oracles.panel_reference`), and
the final compaction is the historic :meth:`SinoSolution.compact`.
:func:`repro.sino.greedy.greedy_sino` must return bit-identical layouts;
the test suite and ``benchmarks/bench_sino_anneal.py`` assert it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sino.greedy import _candidate_gaps, insert_capacitive_shields
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution

from tests.oracles.panel_reference import PanelReference


def greedy_order_reference(problem: SinoProblem) -> List[int]:
    """Most-constrained-first ordering with an explicit max over the pool.

    Works on segment ids and aggressor sets (one per segment, taken from the
    problem up front), independently of the solver's row-index walk.
    """
    aggressors = {segment: problem.aggressors_of(segment) for segment in problem.segments}
    degree = {segment: len(others) for segment, others in aggressors.items()}
    remaining = sorted(problem.segments, key=lambda segment: (-degree[segment], segment))
    if not remaining:
        return []
    order: List[int] = [remaining.pop(0)]
    while remaining:
        last = order[-1]
        compatible = [segment for segment in remaining if segment not in aggressors[last]]
        pool = compatible if compatible else remaining
        chosen = max(pool, key=lambda segment: (degree[segment], -segment))
        remaining.remove(chosen)
        order.append(chosen)
    return order


def best_shield_gap_reference(
    solution: SinoSolution, reference: Optional[PanelReference] = None
) -> Optional[int]:
    """Gap whose shield insertion reduces the total inductive excess most.

    Returns ``None`` when no insertion reduces the excess (within tolerance).
    """
    reference = reference or PanelReference(solution.problem)
    baseline = reference.total_excess(solution.layout)
    if baseline <= 0.0:
        return None
    violating = reference.violating_segments(solution.layout)
    best_gap: Optional[int] = None
    best_excess = baseline
    for gap in _candidate_gaps(solution.layout, violating):
        candidate_layout = list(solution.layout)
        candidate_layout.insert(gap, SHIELD)
        excess = reference.total_excess(candidate_layout)
        if excess < best_excess - 1e-12:
            best_excess = excess
            best_gap = gap
    return best_gap


def fix_inductive_violations_reference(
    solution: SinoSolution, max_extra_shields: Optional[int] = None
) -> SinoSolution:
    """Add the best single shield per round until every inductive bound holds."""
    if max_extra_shields is None:
        max_extra_shields = 2 * solution.num_segments + 2
    current = solution.copy()
    reference = PanelReference(current.problem)
    for _ in range(max_extra_shields):
        if reference.total_excess(current.layout) <= 0.0:
            break
        gap = best_shield_gap_reference(current, reference)
        if gap is None:
            break
        current.layout.insert(gap, SHIELD)
    return current


def greedy_sino_reference(problem: SinoProblem) -> SinoSolution:
    """The full scalar greedy construction for one panel."""
    layout = insert_capacitive_shields(problem, greedy_order_reference(problem))
    solution = fix_inductive_violations_reference(SinoSolution(problem=problem, layout=layout))
    return PanelReference(problem).compact(solution)
