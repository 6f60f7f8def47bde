"""Historic fresh evaluation of SINO layouts, kept for the scalar oracles.

Before a :class:`~repro.sino.panel.SinoProblem` held its relation as a
matrix, the solvers evaluated layouts through a per-problem evaluator: a
dense matrix filled pair by pair from the problem's aggressor sets,
``np.isin`` shield adjacency, and capacitive pairs counted from freshly
built occupant records.  The greedy and annealer oracles evaluate through
this copy, so they share no evaluation code with :mod:`repro.sino.panel` or
:mod:`repro.sino.incremental` and keep the historic cost profile the
benchmarks measure speedups against.  Every value equals the production
evaluation bit for bit; the oracle tests assert it through layout equality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.noise.keff import PanelOccupant, capacitive_violations
from repro.sino.anneal import AnnealConfig
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution


class PanelReference:
    """The historic evaluator of one problem's layouts."""

    def __init__(self, problem: SinoProblem) -> None:
        self.problem = problem
        self.segments = problem.segments
        self.aggressors = {segment: problem.aggressors_of(segment) for segment in self.segments}
        self.kth = dict(zip(self.segments, problem.bounds.tolist()))
        self._index = {segment: i for i, segment in enumerate(self.segments)}
        n = len(self.segments)
        self._sensitive = np.zeros((n, n), dtype=bool)
        for segment, others in self.aggressors.items():
            for other in others:
                self._sensitive[self._index[segment], self._index[other]] = True
        self._bounds = np.array([self.kth[segment] for segment in self.segments])

    def layout_arrays(self, layout: Sequence[Optional[int]]) -> Tuple[np.ndarray, np.ndarray]:
        positions = np.empty(len(self.segments))
        positions.fill(np.nan)
        shield_tracks: List[float] = []
        for track, entry in enumerate(layout):
            if entry is None:
                shield_tracks.append(float(track))
            else:
                positions[self._index[entry]] = float(track)
        return positions, np.array(sorted(shield_tracks))

    def coupling_vector(self, layout: Sequence[Optional[int]]) -> np.ndarray:
        positions, shield_tracks = self.layout_arrays(layout)
        n = positions.size
        if n == 0:
            return np.zeros(0)
        distance = np.abs(positions[:, None] - positions[None, :])
        if shield_tracks.size:
            high = np.maximum(positions[:, None], positions[None, :])
            low = np.minimum(positions[:, None], positions[None, :])
            shields_between = (
                np.searchsorted(shield_tracks, high.ravel(), side="left").reshape(n, n)
                - np.searchsorted(shield_tracks, low.ravel(), side="right").reshape(n, n)
            )
            shields_between = np.maximum(shields_between, 0)
            adjacent_shield = np.isin(positions - 1, shield_tracks) | np.isin(
                positions + 1, shield_tracks
            )
        else:
            shields_between = np.zeros((n, n), dtype=int)
            adjacent_shield = np.zeros(n, dtype=bool)
        model = self.problem.keff_model
        with np.errstate(divide="ignore", invalid="ignore"):
            coupling = np.where(
                self._sensitive & (distance > 0),
                1.0
                / np.power(np.maximum(distance, 1.0), model.distance_exponent)
                / np.power(model.shield_attenuation, shields_between),
                0.0,
            )
        totals = coupling.sum(axis=1)
        totals[adjacent_shield] /= model.adjacent_shield_bonus
        return totals

    def excess_vector(self, layout: Sequence[Optional[int]]) -> np.ndarray:
        return np.maximum(self.coupling_vector(layout) - self._bounds, 0.0)

    def total_excess(self, layout: Sequence[Optional[int]]) -> float:
        return float(self.excess_vector(layout).sum())

    def violating_segments(self, layout: Sequence[Optional[int]]) -> List[int]:
        excess = self.excess_vector(layout)
        return [self.segments[i] for i in np.nonzero(excess > 1e-12)[0]]

    def capacitive_count(self, layout: Sequence[Optional[int]]) -> int:
        """Adjacent sensitive pairs, from the matrix (track distance 1)."""
        positions, _ = self.layout_arrays(layout)
        if positions.size < 2:
            return 0
        distance = np.abs(positions[:, None] - positions[None, :])
        return int(np.count_nonzero(self._sensitive & (distance == 1.0))) // 2

    def capacitive(self, layout: Sequence[Optional[int]]) -> int:
        """Adjacent sensitive pairs, from occupant records and a fresh map."""
        sensitivity = {
            segment: set(self.aggressors.get(segment, frozenset())) for segment in self.segments
        }
        occupants = [PanelOccupant(track=track, net_id=entry) for track, entry in enumerate(layout)]
        return len(capacitive_violations(occupants, sensitivity))

    def inductive(self, layout: Sequence[Optional[int]]) -> Dict[int, float]:
        """Segments over their bound, mapped to the excess."""
        violations: Dict[int, float] = {}
        vector = self.coupling_vector(layout)
        for i, segment in enumerate(self.segments):
            coupling = float(vector[i])
            bound = self.kth[segment]
            if coupling > bound + 1e-12:
                violations[segment] = coupling - bound
        return violations

    def cost(self, solution: SinoSolution, config: AnnealConfig) -> float:
        """:func:`repro.sino.anneal.solution_cost`, evaluated the historic way."""
        return (
            config.capacitive_weight * self.capacitive(solution.layout)
            + config.inductive_weight * sum(self.inductive(solution.layout).values())
            + config.shield_weight * solution.num_shields
            + config.overflow_weight * solution.overflow
        )

    def is_valid(self, solution: SinoSolution) -> bool:
        return not self.capacitive(solution.layout) and not self.inductive(solution.layout)

    def compact(self, solution: SinoSolution) -> SinoSolution:
        """The historic :meth:`SinoSolution.compact`: same walk, same criteria."""
        layout = list(solution.layout)
        excess = self.total_excess(layout)
        capacitive = self.capacitive_count(layout)
        index = len(layout) - 1
        while index >= 0:
            if layout[index] is SHIELD:
                candidate = layout[:index] + layout[index + 1 :]
                candidate_excess = self.total_excess(candidate)
                candidate_capacitive = self.capacitive_count(candidate)
                if candidate_excess <= excess + 1e-12 and candidate_capacitive <= capacitive:
                    layout = candidate
                    excess = candidate_excess
                    capacitive = candidate_capacitive
            index -= 1
        return SinoSolution(problem=solution.problem, layout=layout)
