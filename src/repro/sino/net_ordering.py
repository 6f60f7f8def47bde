"""Net ordering without shield insertion (the "NO" of the ID+NO baseline).

The first baseline in the paper's experiments is ID+NO: a conventional global
router followed by net ordering within each region "to eliminate as much
capacitive coupling as possible".  No shields are inserted and no inductive
bound is enforced, which is precisely why up to ~24 % of nets end up with RLC
crosstalk violations (Table 1).
"""

from __future__ import annotations

from typing import List

from repro.sino.greedy import greedy_order
from repro.sino.panel import SinoProblem, SinoSolution


def _adjacent_sensitive_pairs(sens: List[List[bool]], order: List[int]) -> int:
    """Number of adjacent sensitive pairs in a pure ordering of matrix rows."""
    return sum(1 for first, second in zip(order, order[1:]) if sens[first][second])


def _improve_by_swaps(problem: SinoProblem, order: List[int], max_passes: int = 4) -> List[int]:
    """Local pairwise-swap improvement of the adjacency count.

    The swap pass runs on matrix rows against the problem's sensitivity
    matrix; the result is mapped back to segment ids.
    """
    sens = problem.sens.tolist()
    rows = problem.rows()
    current = [rows[segment] for segment in order]
    best_cost = _adjacent_sensitive_pairs(sens, current)
    for _ in range(max_passes):
        improved = False
        for i in range(len(current)):
            if best_cost == 0:
                return [problem.segments[row] for row in current]
            for j in range(i + 1, len(current)):
                current[i], current[j] = current[j], current[i]
                cost = _adjacent_sensitive_pairs(sens, current)
                if cost < best_cost:
                    best_cost = cost
                    improved = True
                else:
                    current[i], current[j] = current[j], current[i]
        if not improved:
            break
    return [problem.segments[row] for row in current]


def net_ordering_only(problem: SinoProblem) -> SinoSolution:
    """Order the segments to minimise adjacent sensitive pairs; insert no shields.

    The returned solution may violate the capacitive constraint (when the
    sensitivity graph is too dense to be sequenced conflict-free) and usually
    violates inductive bounds — that is the expected behaviour of the ID+NO
    baseline.
    """
    order = greedy_order(problem)
    order = _improve_by_swaps(problem, order)
    return SinoSolution(problem=problem, layout=list(order))
