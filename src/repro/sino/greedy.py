"""Greedy constructive SINO solver.

The construction follows the spirit of the original SINO heuristic (reference
[4] of the paper):

1. order the net segments so mutually sensitive segments are kept apart where
   possible (net ordering),
2. insert a shield between any remaining adjacent sensitive pair (capacitive
   constraint becomes satisfied by construction),
3. while some segment exceeds its inductive bound ``Kth``, insert one more
   shield at the gap that reduces the total excess the most.

Step 3 runs on an :class:`~repro.sino.incremental.IncrementalPanelState`:
each round scores every candidate gap in one vectorised
:meth:`~repro.sino.incremental.IncrementalPanelState.insert_excess` pass and
inserts the winner in place, and the final compaction is the state's
delta-evaluated :meth:`~repro.sino.incremental.IncrementalPanelState.compact`,
also in place: greedy never revisits a layout, so it neither copies the
arrays per round nor memoises evaluations.
Both reproduce the scalar evaluator's values bit for bit, so the layouts are
those of a per-gap full re-evaluation.

The result is feasible whenever a feasible solution exists within the shield
budget guard; it is not necessarily minimum-area, which is what the annealing
improver in :mod:`repro.sino.anneal` is for.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.sino.incremental import IncrementalPanelState
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution


def greedy_order(problem: SinoProblem) -> List[int]:
    """Order the segments so sensitive pairs are separated where possible.

    Strategy: place the most-constrained (highest sensitivity degree) segment
    first, then repeatedly append a segment that is *not* sensitive to the one
    just placed, preferring the most constrained among the candidates so the
    easy segments remain available as separators.  When every remaining
    segment is sensitive to the last one, the most constrained is appended
    anyway (a shield will be inserted later).

    ``remaining`` holds matrix rows, sorted most-constrained first (ties by
    segment id), so the preferred candidate is always the first compatible
    one.
    """
    segments = problem.segments
    sens = problem.sens.tolist()
    degrees = [sum(row) for row in sens]
    remaining = sorted(range(len(segments)), key=lambda row: (-degrees[row], segments[row]))
    if not remaining:
        return []
    order: List[int] = [remaining.pop(0)]
    while remaining:
        aggressors = sens[order[-1]]
        chosen = next(
            (index for index, row in enumerate(remaining) if not aggressors[row]),
            0,
        )
        order.append(remaining.pop(chosen))
    return [segments[row] for row in order]


def insert_capacitive_shields(problem: SinoProblem, order: Sequence[int]) -> List[Optional[int]]:
    """Insert a shield between every adjacent sensitive pair of an ordering."""
    rows = problem.rows()
    layout: List[Optional[int]] = []
    for segment in order:
        if layout:
            last = layout[-1]
            if last is not SHIELD and problem.sens[rows[last], rows[segment]]:
                layout.append(SHIELD)
        layout.append(segment)
    return layout


def _candidate_gaps(layout: List[Optional[int]], violating: List[int]) -> List[int]:
    """Gap indices worth trying for the next shield.

    Only gaps directly adjacent to a violating segment can reduce that
    segment's coupling appreciably (the Keff model is dominated by the nearest
    aggressors), so the search is restricted to those gaps.  Gaps already
    flanked by shields on both sides are skipped.
    """
    violating_set = set(violating)
    gaps: List[int] = []
    seen = set()
    for position, entry in enumerate(layout):
        if entry is SHIELD or entry not in violating_set:
            continue
        for gap in (position, position + 1):
            if gap in seen:
                continue
            left = layout[gap - 1] if gap > 0 else SHIELD
            right = layout[gap] if gap < len(layout) else SHIELD
            if left is SHIELD and right is SHIELD:
                continue
            seen.add(gap)
            gaps.append(gap)
    return gaps


def _panel_state(problem: SinoProblem, layout: Sequence[Optional[int]]) -> IncrementalPanelState:
    """An incremental state over ``layout`` (greedy never reads its cost)."""
    # repro.sino.anneal imports this module for greedy_sino.
    from repro.sino.anneal import DEFAULT_ANNEAL_CONFIG

    return IncrementalPanelState(problem, layout, DEFAULT_ANNEAL_CONFIG)


def _insert_inductive_shields(state: IncrementalPanelState, max_extra_shields: int) -> None:
    """Add shields to ``state`` one at a time until every inductive bound holds.

    Each round inserts the shield at the candidate gap with the smallest total
    excess; a gap must beat the incumbent by more than 1e-12 to win, and the
    first such gap in :func:`_candidate_gaps` order wins ties.  The loop stops
    when no gap reduces the excess or after ``max_extra_shields`` rounds.
    """
    segments = state.problem.segments
    for _ in range(max_extra_shields):
        excess = state.excess_vector()
        best_excess = float(excess.sum())
        if best_excess <= 0.0:
            break
        violating = [segments[i] for i in np.nonzero(excess > 1e-12)[0]]
        gaps = _candidate_gaps(state.to_layout(), violating)
        best_gap: Optional[int] = None
        for gap, candidate in zip(gaps, state.insert_excess(gaps).tolist()):
            if candidate < best_excess - 1e-12:
                best_excess = candidate
                best_gap = gap
        if best_gap is None:
            break
        state.insert_shield(best_gap)


def fix_inductive_violations(solution: SinoSolution, max_extra_shields: Optional[int] = None) -> SinoSolution:
    """Add shields one at a time until every inductive bound holds.

    Parameters
    ----------
    solution:
        Starting layout (already capacitive-crosstalk free).
    max_extra_shields:
        Safety guard on how many shields may be added; defaults to twice the
        number of segments plus two, which is enough to fully isolate every
        segment.

    Returns
    -------
    SinoSolution
        A new solution.  If the guard is reached before feasibility, the best
        layout found is returned and the caller decides what to do with the
        residual violations (Phase III handles that case).
    """
    if max_extra_shields is None:
        max_extra_shields = 2 * solution.num_segments + 2
    state = _panel_state(solution.problem, solution.layout)
    _insert_inductive_shields(state, max_extra_shields)
    return state.to_solution()


def greedy_sino(problem: SinoProblem) -> SinoSolution:
    """Run the full greedy construction for one panel."""
    layout = insert_capacitive_shields(problem, greedy_order(problem))
    state = _panel_state(problem, layout)
    _insert_inductive_shields(state, 2 * problem.num_segments + 2)
    state.compact()
    return state.to_solution()
