"""Problem and solution datatypes for single-region SINO.

A *panel* is the ordered set of parallel tracks of one routing region in one
direction (horizontal or vertical).  A :class:`SinoProblem` describes what
must be placed in the panel — the net segments crossing the region, which of
them are mutually sensitive and each segment's inductive coupling bound
``Kth`` — and a :class:`SinoSolution` is a concrete track ordering, possibly
with shields inserted between nets.

The problem holds its relation and bounds as arrays in segment order: an
``(n, n)`` boolean sensitivity matrix and an ``(n,)`` bound vector.  Every
solver, the fresh layout evaluation below and the cache signature read those
arrays directly.  The fresh evaluation and the incremental state
(:mod:`repro.sino.incremental`) build their matrices with the same
module-level helpers (:func:`pair_geometry`, :func:`coupling_matrix`,
:func:`adjacent_shield_flags`), so the two agree bit for bit.  The scalar
:func:`repro.noise.keff.panel_couplings` stays the reference the test suite
checks them against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.noise.keff import DEFAULT_KEFF_MODEL, KeffModel, PanelOccupant

#: Layout entry marking a shield track.
SHIELD = None


def pair_geometry(
    positions: np.ndarray, shield_tracks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pairwise track distances and shield counts of a layout.

    ``positions`` holds each segment's track, ``shield_tracks`` the sorted
    shield tracks.  Returns the ``(n, n)`` float distance matrix and the
    ``(n, n)`` int64 count of shields strictly between each pair.
    """
    n = positions.size
    dist = np.abs(positions[:, None] - positions[None, :])
    if not shield_tracks.size:
        return dist, np.zeros((n, n), dtype=np.int64)
    high = np.maximum(positions[:, None], positions[None, :])
    low = np.minimum(positions[:, None], positions[None, :])
    between = (
        np.searchsorted(shield_tracks, high.ravel(), side="left").reshape(n, n)
        - np.searchsorted(shield_tracks, low.ravel(), side="right").reshape(n, n)
    )
    return dist, np.maximum(between, 0)


def coupling_matrix(
    sensitive: np.ndarray, dist: np.ndarray, between: np.ndarray, model: KeffModel
) -> np.ndarray:
    """The Keff coupling of every cell, before the adjacent-shield bonus.

    Works on whole matrices and on row blocks alike.  ``maximum(dist, 1.0)``
    keeps every base positive, so the expression never divides by zero.
    """
    return np.where(
        sensitive & (dist > 0),
        1.0
        / np.power(np.maximum(dist, 1.0), model.distance_exponent)
        / np.power(model.shield_attenuation, between),
        0.0,
    )


def adjacent_shield_flags(positions: np.ndarray, shield_tracks: np.ndarray) -> np.ndarray:
    """Which segments have a shield on a directly neighbouring track.

    One binary search against the sorted shield array: no segment track ever
    coincides with a shield track, so the insertion point of a position has
    the candidate left neighbour right below it and the candidate right
    neighbour right at it.
    """
    if shield_tracks.size == 0 or positions.size == 0:
        return np.zeros(positions.size, dtype=bool)
    insertion = np.searchsorted(shield_tracks, positions)
    adjacent = np.zeros(positions.size, dtype=bool)
    has_left = insertion > 0
    adjacent[has_left] = shield_tracks[insertion[has_left] - 1] == positions[has_left] - 1.0
    has_right = insertion < shield_tracks.size
    adjacent[has_right] |= shield_tracks[insertion[has_right]] == positions[has_right] + 1.0
    return adjacent


@dataclass(frozen=True, eq=False)
class SinoProblem:
    """One region-direction SINO instance.

    Attributes
    ----------
    segments:
        Identifiers of the net segments that must be placed (one track each),
        in the order the arrays below use.
    sens:
        ``(n, n)`` boolean sensitivity matrix over ``segments``: symmetric,
        with a false diagonal.  The paper's sensitivity (aggressor / victim)
        is directional, but both SINO constraints (adjacency, coupling) only
        care about pairs that interact at all, so the solvers work on the
        symmetric closure.
    bounds:
        ``(n,)`` float64 inductive coupling bounds ``Kth`` in segment order,
        all positive.
    capacity:
        Number of tracks physically available in the region (0 = unlimited).
        Exceeding it is allowed — it shows up as overflow / area expansion —
        but solvers prefer solutions that fit.
    keff_model:
        Keff model used to evaluate couplings.

    Both arrays are made read-only at construction; :meth:`with_bounds`
    copies share ``sens``.
    """

    segments: Tuple[int, ...]
    sens: np.ndarray
    bounds: np.ndarray
    capacity: int = 0
    keff_model: KeffModel = DEFAULT_KEFF_MODEL

    def __post_init__(self) -> None:
        n = len(self.segments)
        if len(set(self.segments)) != n:
            raise ValueError("segment ids must be unique within a panel")
        if self.sens.shape != (n, n) or self.sens.dtype != np.bool_:
            raise ValueError(f"sens must be an ({n}, {n}) boolean matrix")
        if not np.array_equal(self.sens, self.sens.T) or self.sens.diagonal().any():
            raise ValueError("sens must be symmetric with a false diagonal")
        if self.bounds.shape != (n,) or self.bounds.dtype != np.float64:
            raise ValueError(f"bounds must be an ({n},) float64 vector")
        if not (self.bounds > 0.0).all():
            raise ValueError(f"Kth bounds must be positive, got {self.bounds.tolist()}")
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")
        self.sens.flags.writeable = False
        self.bounds.flags.writeable = False

    @classmethod
    def build(
        cls,
        segments: Sequence[int],
        sensitivity: Mapping[int, Set[int]],
        kth: Optional[Mapping[int, float]] = None,
        default_kth: float = 1.0,
        capacity: int = 0,
        keff_model: KeffModel = DEFAULT_KEFF_MODEL,
    ) -> "SinoProblem":
        """A problem from a sensitivity mapping (hand-built instances).

        The mapping may be directional and may name ids outside the panel:
        it is restricted to ``segments`` and symmetrised.  Segments missing
        from ``kth`` get ``default_kth``.
        """
        segments = tuple(segments)
        rows = {segment: row for row, segment in enumerate(segments)}
        sens = np.zeros((len(segments), len(segments)), dtype=bool)
        for segment, others in sensitivity.items():
            if segment in rows:
                sens[rows[segment], [rows[other] for other in others if other in rows]] = True
        sens |= sens.T
        np.fill_diagonal(sens, False)
        given = kth or {}
        bounds = np.array(
            [given.get(segment, default_kth) for segment in segments], dtype=np.float64
        )
        return cls(
            segments=segments, sens=sens, bounds=bounds, capacity=capacity, keff_model=keff_model
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SinoProblem):
            return NotImplemented
        return (
            self.segments == other.segments
            and self.capacity == other.capacity
            and self.keff_model == other.keff_model
            and np.array_equal(self.sens, other.sens)
            and np.array_equal(self.bounds, other.bounds)
        )

    # -- queries -------------------------------------------------------------

    @property
    def num_segments(self) -> int:
        """Number of net segments to place."""
        return len(self.segments)

    def rows(self) -> Dict[int, int]:
        """``{segment: row}`` into ``sens`` and ``bounds`` (built per call)."""
        return {segment: row for row, segment in enumerate(self.segments)}

    def bound_of(self, segment: int) -> float:
        """Kth bound of a segment."""
        return float(self.bounds[self.segments.index(segment)])

    def aggressors_of(self, segment: int) -> FrozenSet[int]:
        """Segments the given segment is sensitive to (within this panel)."""
        row = self.sens[self.segments.index(segment)]
        return frozenset(self.segments[other] for other in np.flatnonzero(row).tolist())

    def sensitivity_degree(self, segment: int) -> int:
        """Number of other panel segments a segment is sensitive to."""
        return int(np.count_nonzero(self.sens[self.segments.index(segment)]))

    def sensitivity_rate_of(self, segment: int) -> float:
        """Fraction of the *other* panel segments a segment is sensitive to."""
        if self.num_segments <= 1:
            return 0.0
        return self.sensitivity_degree(segment) / (self.num_segments - 1)

    def with_bounds(self, new_bounds: Mapping[int, float]) -> "SinoProblem":
        """Copy of the problem with some Kth bounds replaced.

        Used by Phase III when it tightens or relaxes individual segments.
        The copy shares ``sens``; only the bound vector is copied.
        """
        bounds = self.bounds.copy()
        for segment, bound in new_bounds.items():
            bounds[self.segments.index(segment)] = bound
        return SinoProblem(
            segments=self.segments,
            sens=self.sens,
            bounds=bounds,
            capacity=self.capacity,
            keff_model=self.keff_model,
        )

    # -- fresh layout evaluation ---------------------------------------------

    def layout_arrays(self, layout: Sequence[Optional[int]]) -> Tuple[np.ndarray, np.ndarray]:
        """Track positions of each segment (in segment order) and of the shields."""
        rows = self.rows()
        positions = np.full(len(self.segments), np.nan)
        shield_tracks: List[float] = []
        for track, entry in enumerate(layout):
            if entry is SHIELD:
                shield_tracks.append(float(track))
            elif entry in rows:
                positions[rows[entry]] = float(track)
            else:
                raise ValueError(f"layout contains unknown segment {entry}")
        if np.any(np.isnan(positions)):
            missing = [self.segments[i] for i in np.nonzero(np.isnan(positions))[0]]
            raise ValueError(f"layout is missing segments {missing}")
        return positions, np.array(shield_tracks, dtype=np.float64)

    def coupling_vector(self, layout: Sequence[Optional[int]]) -> np.ndarray:
        """``K_i`` for every segment of a layout, in segment order."""
        positions, shield_tracks = self.layout_arrays(layout)
        if positions.size == 0:
            return np.zeros(0)
        dist, between = pair_geometry(positions, shield_tracks)
        totals = coupling_matrix(self.sens, dist, between, self.keff_model).sum(axis=1)
        totals[adjacent_shield_flags(positions, shield_tracks)] /= (
            self.keff_model.adjacent_shield_bonus
        )
        return totals

    def couplings(self, layout: Sequence[Optional[int]]) -> Dict[int, float]:
        """``{segment: K_i}`` for a layout."""
        return dict(zip(self.segments, self.coupling_vector(layout).tolist()))

    def excess_vector(self, layout: Sequence[Optional[int]]) -> np.ndarray:
        """Per-segment ``max(0, K_i - Kth_i)`` of a layout."""
        return np.maximum(self.coupling_vector(layout) - self.bounds, 0.0)

    def total_excess(self, layout: Sequence[Optional[int]]) -> float:
        """Sum of all Kth excesses (0 when every inductive bound holds)."""
        return float(self.excess_vector(layout).sum())

    def capacitive_count(self, layout: Sequence[Optional[int]]) -> int:
        """Number of adjacent sensitive segment pairs in a layout.

        Equals ``len(SinoSolution(...).capacitive_violation_pairs())`` — two
        segments are adjacent exactly when their track distance is 1.
        """
        positions, _ = self.layout_arrays(layout)
        if positions.size < 2:
            return 0
        distance = np.abs(positions[:, None] - positions[None, :])
        return int(np.count_nonzero(self.sens & (distance == 1.0))) // 2


@dataclass
class SinoSolution:
    """A concrete track assignment for a :class:`SinoProblem`.

    Attributes
    ----------
    problem:
        The instance this solution answers.
    layout:
        Track contents in physical order; each entry is a segment id or
        ``None`` for a shield.
    """

    problem: SinoProblem
    layout: List[Optional[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        placed = [entry for entry in self.layout if entry is not SHIELD]
        if sorted(placed) != sorted(self.problem.segments):
            raise ValueError(
                "layout must contain every problem segment exactly once "
                f"(expected {sorted(self.problem.segments)}, got {sorted(placed)})"
            )

    # -- structure -------------------------------------------------------------

    @property
    def num_tracks(self) -> int:
        """Total tracks used (segments + shields)."""
        return len(self.layout)

    @property
    def num_shields(self) -> int:
        """Number of shield tracks in the layout."""
        return sum(1 for entry in self.layout if entry is SHIELD)

    @property
    def num_segments(self) -> int:
        """Number of net segments in the layout."""
        return len(self.layout) - self.num_shields

    @property
    def overflow(self) -> int:
        """Tracks used beyond the region capacity (0 when capacity is unlimited)."""
        if self.problem.capacity <= 0:
            return 0
        return max(0, self.num_tracks - self.problem.capacity)

    def occupants(self) -> List[PanelOccupant]:
        """The layout as :class:`PanelOccupant` records (for the Keff model)."""
        return [
            PanelOccupant(track=index, net_id=entry)
            for index, entry in enumerate(self.layout)
        ]

    def position_of(self, segment: int) -> int:
        """Track index of a segment (raises ValueError if absent)."""
        return self.layout.index(segment)

    # -- electrical evaluation ----------------------------------------------------

    def couplings(self) -> Dict[int, float]:
        """Total Keff coupling ``K_i`` of every segment under this layout."""
        return self.problem.couplings(self.layout)

    def coupling_of(self, segment: int) -> float:
        """Total Keff coupling of one segment."""
        return self.couplings().get(segment, 0.0)

    def capacitive_violation_pairs(self) -> List[Tuple[int, int]]:
        """Adjacent sensitive pairs (must be empty in a valid SINO solution)."""
        rows = self.problem.rows()
        sens = self.problem.sens
        pairs: List[Tuple[int, int]] = []
        for first, second in zip(self.layout, self.layout[1:]):
            if first is not SHIELD and second is not SHIELD and sens[rows[first], rows[second]]:
                pairs.append((min(first, second), max(first, second)))
        return pairs

    def inductive_violations(self) -> Dict[int, float]:
        """Segments whose coupling exceeds their bound, mapped to the excess."""
        couplings = self.problem.coupling_vector(self.layout).tolist()
        bounds = self.problem.bounds.tolist()
        return {
            segment: coupling - bound
            for segment, coupling, bound in zip(self.problem.segments, couplings, bounds)
            if coupling > bound + 1e-12
        }

    def slack_of(self, segment: int) -> float:
        """``Kth - K_i``: positive when the segment has inductive headroom."""
        return self.problem.bound_of(segment) - self.coupling_of(segment)

    def is_valid(self) -> bool:
        """True when both SINO constraints hold."""
        return not self.capacitive_violation_pairs() and not self.inductive_violations()

    # -- editing helpers ----------------------------------------------------------

    def copy(self) -> "SinoSolution":
        """Deep-enough copy (layout list is copied, problem is shared)."""
        return SinoSolution(problem=self.problem, layout=list(self.layout))

    def compact(self) -> "SinoSolution":
        """Drop every shield whose removal does not worsen the solution.

        A shield is redundant when removing it neither increases the total
        inductive excess (``K_i`` beyond ``Kth_i``) nor creates a new adjacent
        sensitive pair.  Edge shields and doubled-up shields usually qualify,
        but not always: an edge shield grants its neighbour the
        adjacent-shield reduction of the Keff model, so each removal is
        verified rather than assumed.
        """
        problem = self.problem
        layout = list(self.layout)
        excess = problem.total_excess(layout)
        capacitive = problem.capacitive_count(layout)
        index = len(layout) - 1
        while index >= 0:
            if layout[index] is SHIELD:
                candidate = layout[:index] + layout[index + 1 :]
                candidate_excess = problem.total_excess(candidate)
                candidate_capacitive = problem.capacitive_count(candidate)
                if candidate_excess <= excess + 1e-12 and candidate_capacitive <= capacitive:
                    layout = candidate
                    excess = candidate_excess
                    capacitive = candidate_capacitive
            index -= 1
        return SinoSolution(problem=self.problem, layout=layout)

    def __repr__(self) -> str:
        rendered = ",".join("S" if entry is SHIELD else str(entry) for entry in self.layout)
        return f"SinoSolution([{rendered}], shields={self.num_shields})"
