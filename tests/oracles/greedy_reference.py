"""Scalar reference of the greedy SINO solver.

This is the historic greedy construction: every shield-insertion round
copies the layout once per candidate gap and re-evaluates the whole panel
through :meth:`PanelEvaluator.total_excess`, and the final compaction is
:meth:`SinoSolution.compact`.  :func:`repro.sino.greedy.greedy_sino` must
return bit-identical layouts; the test suite and
``benchmarks/bench_sino_anneal.py`` assert it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sino.greedy import _candidate_gaps, insert_capacitive_shields
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution


def greedy_order_reference(problem: SinoProblem) -> List[int]:
    """Most-constrained-first ordering with an explicit max over the pool."""
    remaining = sorted(
        problem.segments,
        key=lambda segment: (-problem.sensitivity_degree(segment), segment),
    )
    if not remaining:
        return []
    order: List[int] = [remaining.pop(0)]
    while remaining:
        last = order[-1]
        compatible = [
            segment for segment in remaining
            if segment not in problem.aggressors_of(last)
        ]
        pool = compatible if compatible else remaining
        chosen = max(pool, key=lambda segment: (problem.sensitivity_degree(segment), -segment))
        remaining.remove(chosen)
        order.append(chosen)
    return order


def best_shield_gap_reference(solution: SinoSolution) -> Optional[int]:
    """Gap whose shield insertion reduces the total inductive excess most.

    Returns ``None`` when no insertion reduces the excess (within tolerance).
    """
    evaluator = solution.problem.evaluator()
    baseline = evaluator.total_excess(solution.layout)
    if baseline <= 0.0:
        return None
    violating = evaluator.violating_segments(solution.layout)
    best_gap: Optional[int] = None
    best_excess = baseline
    for gap in _candidate_gaps(solution.layout, violating):
        candidate_layout = list(solution.layout)
        candidate_layout.insert(gap, SHIELD)
        excess = evaluator.total_excess(candidate_layout)
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
    evaluator = current.problem.evaluator()
    for _ in range(max_extra_shields):
        if evaluator.total_excess(current.layout) <= 0.0:
            break
        gap = best_shield_gap_reference(current)
        if gap is None:
            break
        current.layout.insert(gap, SHIELD)
    return current


def greedy_sino_reference(problem: SinoProblem) -> SinoSolution:
    """The full scalar greedy construction for one panel."""
    layout = insert_capacitive_shields(problem, greedy_order_reference(problem))
    solution = fix_inductive_violations_reference(SinoSolution(problem=problem, layout=layout))
    return solution.compact()
