"""Incremental delta-cost evaluation of SINO layout moves.

The annealer (:mod:`repro.sino.anneal`) proposes thousands of small layout
perturbations per panel.  The historic implementation deep-copied the layout
and recomputed the full O(n^2) coupling matrix for every proposal; this module
keeps the layout as numpy position/shield arrays plus the per-pair coupling
matrix, and updates only the rows a move actually touches:

* swapping two net segments changes two matrix rows,
* swapping a segment with a shield changes the segment's row plus the rows of
  segments strictly between the two tracks,
* inserting or deleting a shield changes exactly the sensitive cells whose
  track pair straddles the affected gap.

Every updated cell is computed with the *same* floating-point expression a
fresh evaluation (:meth:`SinoProblem.coupling_vector`) uses — the
:func:`~repro.sino.panel.coupling_matrix` helper — so the incrementally
maintained cost is bit-identical to
:func:`repro.sino.anneal.solution_cost` on the equivalent layout — not merely
close.  That exactness is what lets the incremental annealer reproduce the
scalar reference annealer seed-for-seed (any rounding drift would eventually
flip a Metropolis accept/reject decision and desynchronise the RNG stream).

The protocol is ``propose(move) -> delta_cost`` followed by either
``commit()`` or ``revert()``; :class:`Move` describes the four annealer move
types (swap / relocate / delete / insert).  :meth:`IncrementalPanelState.compacted`
additionally reproduces :meth:`SinoSolution.compact` — the same right-to-left
removal walk with the same criteria — using an O(1) capacitive pre-reject and
delta excess evaluation per candidate shield, and
:meth:`IncrementalPanelState.insert_excess` scores a shield insert at many
gaps in one vectorised pass (the greedy solver's inner loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.sino.panel import (
    SHIELD,
    SinoProblem,
    SinoSolution,
    adjacent_shield_flags,
    coupling_matrix,
    pair_geometry,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (anneal imports us)
    from repro.sino.anneal import AnnealConfig

#: Move kinds understood by :meth:`IncrementalPanelState.propose`.
MOVE_KINDS: Tuple[str, ...] = ("swap", "relocate", "delete", "insert")

#: Tolerance above a segment's Kth bound before it counts as violating
#: (matches :meth:`SinoSolution.inductive_violations`).
_KTH_TOLERANCE = 1e-12

#: Gaps scored per (G, n, n) pass of :meth:`IncrementalPanelState.insert_excess`,
#: which bounds the pass's peak memory at O(chunk * n^2).
_INSERT_CHUNK = 32


@dataclass(frozen=True)
class Move:
    """One annealer move, described in track coordinates.

    Attributes
    ----------
    kind:
        One of :data:`MOVE_KINDS`.
    track / other:
        Meaning depends on the kind — see the constructors below.
    """

    kind: str
    track: int = 0
    other: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {self.kind!r} (expected one of {MOVE_KINDS})")

    @classmethod
    def swap(cls, track_a: int, track_b: int) -> "Move":
        """Swap the contents of two tracks."""
        return cls(kind="swap", track=track_a, other=track_b)

    @classmethod
    def relocate(cls, shield_track: int, gap: int) -> "Move":
        """Remove the shield at ``shield_track`` and re-insert it at ``gap``.

        ``gap`` indexes the layout *after* the removal, exactly like the
        historic pop-then-insert move.
        """
        return cls(kind="relocate", track=shield_track, other=gap)

    @classmethod
    def delete(cls, shield_track: int) -> "Move":
        """Delete the shield at ``shield_track``."""
        return cls(kind="delete", track=shield_track)

    @classmethod
    def insert(cls, gap: int) -> "Move":
        """Insert a new shield at gap index ``gap`` (0..num_tracks)."""
        return cls(kind="insert", track=gap)


class _Arrays:
    """The mutable array bundle one layout state consists of.

    ``adj`` (which segments touch a shield) and ``cap`` (the number of
    adjacent sensitive pairs) ride along because both admit O(1) maintenance:
    a move only changes them in the immediate neighbourhood of the touched
    tracks.
    """

    __slots__ = ("pos", "shields", "occ", "dist", "sb", "coupling", "adj", "cap")

    def __init__(self, pos, shields, occ, dist, sb, coupling, adj, cap) -> None:
        self.pos = pos  # (n,) float64 — track index of each segment
        self.shields = shields  # (m,) float64 — sorted shield track indices
        self.occ = occ  # (T,) int64 — segment index per track, -1 for shields
        self.dist = dist  # (n, n) float64 — pairwise track distances
        self.sb = sb  # (n, n) int64 — shields strictly between each pair
        self.coupling = coupling  # (n, n) float64 — raw coupling matrix
        self.adj = adj  # (n,) bool — segment has a directly adjacent shield
        self.cap = cap  # int — adjacent sensitive pairs

    def copy(self) -> "_Arrays":
        return _Arrays(
            self.pos.copy(),
            self.shields.copy(),
            self.occ.copy(),
            self.dist.copy(),
            self.sb.copy(),
            self.coupling.copy(),
            self.adj.copy(),
            self.cap,
        )


def _insert_value(array: np.ndarray, index: int, value) -> np.ndarray:
    """``np.insert`` for the 1-D case, without its generic-axis overhead."""
    return np.concatenate((array[:index], np.array([value], dtype=array.dtype), array[index:]))


def _delete_index(array: np.ndarray, index: int) -> np.ndarray:
    """``np.delete`` for the 1-D case, without its generic-axis overhead."""
    return np.concatenate((array[:index], array[index + 1 :]))


class _Evaluation(NamedTuple):
    """Everything one cost evaluation of an array bundle produces."""

    cost: float
    capacitive: int
    valid: bool
    inductive: float
    totals: np.ndarray  # (n,) post-bonus couplings K_i


class IncrementalPanelState:
    """A SINO layout held as arrays, with O(affected rows) move evaluation.

    Parameters
    ----------
    problem:
        The SINO instance the layout answers.
    layout:
        Initial track contents (segment ids and :data:`SHIELD` entries).
    config:
        An :class:`~repro.sino.anneal.AnnealConfig`; only its four cost
        weights are read.

    The state always has a *current* layout; :meth:`propose` additionally
    builds a *pending* layout (current with one move applied) and returns the
    cost delta.  :meth:`commit` adopts the pending layout, :meth:`revert`
    discards it.  A new :meth:`propose` replaces any un-committed pending
    layout.
    """

    def __init__(
        self,
        problem: SinoProblem,
        layout: Sequence[Optional[int]],
        config: "AnnealConfig",
    ) -> None:
        self.problem = problem
        self.config = config
        self._segments = problem.segments
        self._sens = problem.sens
        model = problem.keff_model
        self._atten = model.shield_attenuation
        self._bonus = model.adjacent_shield_bonus
        self._exp = model.distance_exponent
        self._bounds = problem.bounds.tolist()
        self._thresholds = [bound + _KTH_TOLERANCE for bound in self._bounds]
        self._bounds_vector = problem.bounds
        self._threshold_vector = np.array(self._thresholds)
        self._index = problem.rows()
        self._current = self._build_arrays(list(layout))
        self._pending: Optional[_Arrays] = None
        self._pending_move: Optional[Move] = None
        self._has_pending = False
        self._state = self._evaluate(self._current)
        self._pending_state = self._state
        # Candidate evaluations keyed by layout content: the chain keeps
        # re-proposing the same few candidates once the temperature drops,
        # and an evaluation is a pure function of the layout.
        self._eval_cache = {self.layout_key(): self._state}

    # -- construction ---------------------------------------------------------

    def _build_arrays(self, layout: List[Optional[int]]) -> _Arrays:
        positions, shield_tracks = self.problem.layout_arrays(layout)
        occ = np.full(len(layout), -1, dtype=np.int64)
        for track, entry in enumerate(layout):
            if entry is not SHIELD:
                occ[track] = self._index[entry]
        dist, sb = pair_geometry(positions, shield_tracks)
        coupling = coupling_matrix(self._sens, dist, sb, self.problem.keff_model)
        adj = adjacent_shield_flags(positions, shield_tracks)
        cap = int(np.count_nonzero(self._sens & (dist == 1.0))) // 2
        return _Arrays(positions, shield_tracks, occ, dist, sb, coupling, adj, cap)

    def clone(self) -> "IncrementalPanelState":
        """An independent copy of the current layout (pending state dropped)."""
        other = object.__new__(IncrementalPanelState)
        other.problem = self.problem
        other.config = self.config
        other._segments = self._segments
        other._sens = self._sens
        other._atten = self._atten
        other._bonus = self._bonus
        other._exp = self._exp
        other._bounds = self._bounds
        other._thresholds = self._thresholds
        other._bounds_vector = self._bounds_vector
        other._threshold_vector = self._threshold_vector
        other._index = self._index
        other._current = self._current.copy()
        other._pending = None
        other._pending_move = None
        other._has_pending = False
        other._state = self._state
        other._pending_state = self._state
        # Evaluations are pure functions of layout content for a fixed
        # (problem, weights) pair, so the memo is shared — chains started
        # from the same greedy layout reuse each other's evaluations instead
        # of each deep-copying (and re-filling) a private dict.
        other._eval_cache = self._eval_cache
        return other

    # -- queries --------------------------------------------------------------

    @property
    def cost(self) -> float:
        """Cost of the current layout (identical to ``solution_cost``)."""
        return self._state.cost

    @property
    def num_segments(self) -> int:
        """Number of net segments in the layout."""
        return int(self._current.pos.size)

    @property
    def num_shields(self) -> int:
        """Number of shield tracks in the current layout."""
        return int(self._current.shields.size)

    @property
    def num_tracks(self) -> int:
        """Total tracks of the current layout (segments + shields)."""
        return int(self._current.occ.size)

    @property
    def overflow(self) -> int:
        """Tracks used beyond the region capacity (0 when unlimited)."""
        capacity = self.problem.capacity
        if capacity <= 0:
            return 0
        return max(0, self.num_tracks - capacity)

    @property
    def capacitive_count(self) -> int:
        """Adjacent sensitive pairs in the current layout."""
        return self._state.capacitive

    def is_current_valid(self) -> bool:
        """True when the current layout satisfies both SINO constraints."""
        return self._state.valid

    def shield_tracks(self) -> List[int]:
        """Track indices of the current shields, ascending."""
        return [int(track) for track in self._current.shields]

    def shield_array(self) -> np.ndarray:
        """The sorted shield-track array itself (do not mutate)."""
        return self._current.shields

    def layout_key(self) -> bytes:
        """Content key of the current layout (for memoising derived results)."""
        return self._current.occ.tobytes()

    def to_layout(self) -> List[Optional[int]]:
        """The current layout as the solver-facing list representation."""
        return [
            SHIELD if index < 0 else self._segments[index]
            for index in self._current.occ
        ]

    def to_solution(self) -> SinoSolution:
        """The current layout wrapped as a :class:`SinoSolution`."""
        return SinoSolution(problem=self.problem, layout=self.to_layout())

    # -- cost evaluation ------------------------------------------------------

    def _evaluate(self, arrays: _Arrays) -> _Evaluation:
        """Full cost evaluation of an array bundle.

        Mirrors :func:`repro.sino.anneal.solution_cost` operation-for-
        operation so the result is bit-identical to a fresh scalar
        evaluation.
        """
        totals = arrays.coupling.sum(axis=1)
        if arrays.shields.size:
            totals[arrays.adj] /= self._bonus
        return self._assemble(arrays, arrays.cap, totals)

    def _assemble(self, arrays: _Arrays, capacitive: int, totals: np.ndarray) -> _Evaluation:
        """Fold couplings and structure counts into an :class:`_Evaluation`."""
        config = self.config
        inductive = 0
        violating = False
        # Accumulate the (typically few) violating terms in ascending segment
        # order with python floats — the exact summation order and precision
        # of the scalar reference.
        for i in np.nonzero(totals > self._threshold_vector)[0].tolist():
            inductive += float(totals[i]) - self._bounds[i]
            violating = True
        num_shields = int(arrays.shields.size)
        capacity = self.problem.capacity
        overflow = max(0, int(arrays.occ.size) - capacity) if capacity > 0 else 0
        cost = (
            config.capacitive_weight * capacitive
            + config.inductive_weight * inductive
            + config.shield_weight * num_shields
            + config.overflow_weight * overflow
        )
        return _Evaluation(
            cost=cost,
            capacitive=capacitive,
            valid=capacitive == 0 and not violating,
            inductive=inductive,
            totals=totals,
        )

    def _excess_of(self, totals: np.ndarray) -> float:
        """Total Kth excess, identically to :meth:`SinoProblem.total_excess`."""
        return float(np.maximum(totals - self._bounds_vector, 0.0).sum())

    def excess_vector(self) -> np.ndarray:
        """Per-segment ``max(0, K_i - Kth_i)`` of the current layout.

        Identical to :meth:`SinoProblem.excess_vector` on :meth:`to_layout`.
        """
        return np.maximum(self._state.totals - self._bounds_vector, 0.0)

    def insert_excess(self, gaps: Sequence[int]) -> np.ndarray:
        """Total Kth excess of the current layout with a shield inserted at each gap.

        Entry ``k`` equals :meth:`SinoProblem.total_excess` of the layout with
        one shield inserted at gap ``gaps[k]``, bit for bit.  An insert at
        ``g`` moves every pair that straddles the gap one track apart and
        puts one more shield between them, so each candidate coupling matrix
        picks, cell by cell, between the current matrix and one shifted
        matrix built once for all gaps.  Every cell then holds the value a
        fresh evaluation computes, and the row sums, the adjacent-shield
        bonus and the excess sum run the fresh evaluation's reductions over
        contiguous rows.  The gaps are scored :data:`_INSERT_CHUNK` at a time
        in one (G, n, n) numpy pass each.
        """
        arrays = self._current
        pos = arrays.pos
        num_gaps = len(gaps)
        if pos.size == 0:
            return np.zeros(num_gaps)
        # Non-sensitive cells are 0.0 in both matrices, so the straddle mask
        # alone selects the cells an insert changes.
        shifted = np.where(
            self._sens, self._gathered_coupling(arrays.dist + 1.0, arrays.sb + 1), 0.0
        )
        low = np.minimum(pos[:, None], pos[None, :])
        high = np.maximum(pos[:, None], pos[None, :])
        # The segments on tracks g - 1 and g become the new shield's
        # neighbours; padding turns "no segment there" into index -1.
        padded = np.concatenate(([-1], arrays.occ, [-1]))
        gap_array = np.asarray(gaps, dtype=np.int64)
        excess = np.empty(num_gaps)
        for start in range(0, num_gaps, _INSERT_CHUNK):
            chunk = gap_array[start : start + _INSERT_CHUNK]
            edge = chunk[:, None, None]
            straddle = (low < edge) & (edge <= high)
            totals = np.where(straddle, shifted, arrays.coupling).sum(axis=2)
            adjacent = np.repeat(arrays.adj[None, :], chunk.size, axis=0)
            rows = np.arange(chunk.size)
            for neighbour in (padded[chunk], padded[chunk + 1]):
                present = neighbour >= 0
                adjacent[rows[present], neighbour[present]] = True
            totals = np.where(adjacent, totals / self._bonus, totals)
            excess[start : start + chunk.size] = np.maximum(
                totals - self._bounds_vector, 0.0
            ).sum(axis=1)
        return excess

    # -- move application -----------------------------------------------------

    def _recompute_rows(self, arrays: _Arrays, rows: Sequence[int]) -> None:
        """Refresh matrix rows (and mirror columns) from scratch.

        All requested rows are rebuilt in one batch of vectorised (k, n)
        operations; each cell gets the same elementwise expression a fresh
        evaluation would compute.
        """
        pos = arrays.pos
        shields = arrays.shields
        index = np.asarray(rows, dtype=np.int64)
        own = pos[index, None]
        dist_rows = np.abs(pos[None, :] - own)
        if shields.size:
            high = np.maximum(pos[None, :], own)
            low = np.minimum(pos[None, :], own)
            sb_rows = np.maximum(
                np.searchsorted(shields, high, side="left")
                - np.searchsorted(shields, low, side="right"),
                0,
            )
        else:
            sb_rows = np.zeros(dist_rows.shape, dtype=np.int64)
        coupling_rows = coupling_matrix(
            self._sens[index], dist_rows, sb_rows, self.problem.keff_model
        )
        arrays.dist[index, :] = dist_rows
        arrays.dist[:, index] = dist_rows.T
        arrays.sb[index, :] = sb_rows
        arrays.sb[:, index] = sb_rows.T
        arrays.coupling[index, :] = coupling_rows
        arrays.coupling[:, index] = coupling_rows.T

    def _gathered_coupling(self, dist, sb):
        """The coupling expression for gathered sensitive cells (distance >= 1).

        Identical values to :func:`~repro.sino.panel.coupling_matrix` on such cells: the
        sensitivity mask is all-True by construction and ``maximum(d, 1.0)``
        is the identity for ``d >= 1``, so both wrappers can be elided.
        """
        return 1.0 / np.power(dist, self._exp) / np.power(self._atten, sb)

    def _update_cells(self, arrays: _Arrays, straddle: np.ndarray) -> None:
        """Refresh the coupling cells of sensitive straddling pairs.

        Non-sensitive cells hold 0.0 for every distance and shield count, so
        restricting the refresh to ``sensitive & straddle`` leaves the matrix
        bit-identical to a full rebuild.  Straddling pairs are never on
        adjacent tracks — their distance is at least 1 — so the gathered
        expression applies.
        """
        mask = self._sens & straddle
        if not mask.any():
            return
        arrays.coupling[mask] = self._gathered_coupling(arrays.dist[mask], arrays.sb[mask])

    def _refresh_flag(self, arrays: _Arrays, track: int) -> None:
        """Recompute the shield-adjacency flag of the segment at ``track``."""
        occ = arrays.occ
        segment = occ[track]
        if segment < 0:
            return
        arrays.adj[segment] = (track > 0 and occ[track - 1] < 0) or (
            track + 1 < occ.size and occ[track + 1] < 0
        )

    def _cap_pair(self, occ: np.ndarray, track_a: int, track_b: int) -> bool:
        """Whether the occupants of two (adjacent) tracks are a sensitive pair."""
        seg_a = occ[track_a]
        seg_b = occ[track_b]
        return seg_a >= 0 and seg_b >= 0 and bool(self._sens[seg_a, seg_b])

    def _apply_swap(self, arrays: _Arrays, track_a: int, track_b: int) -> None:
        occ_a = int(arrays.occ[track_a])
        occ_b = int(arrays.occ[track_b])
        if occ_a < 0 and occ_b < 0:
            return  # two shields: structurally a no-op
        occ = arrays.occ
        num_tracks = occ.size
        # Only the four adjacencies around the two swapped tracks can change.
        pairs = {
            (track, track + 1)
            for track in (track_a - 1, track_a, track_b - 1, track_b)
            if 0 <= track and track + 1 < num_tracks
        }
        cap_before = sum(self._cap_pair(occ, a, b) for a, b in pairs)
        arrays.occ[track_a], arrays.occ[track_b] = occ_b, occ_a
        arrays.cap += sum(self._cap_pair(occ, a, b) for a, b in pairs) - cap_before
        if occ_a >= 0 and occ_b >= 0:
            arrays.pos[occ_a], arrays.pos[occ_b] = float(track_b), float(track_a)
            self._recompute_rows(arrays, (occ_a, occ_b))
        else:
            # Segment <-> shield: the shield hops between the two tracks,
            # which changes the between-shield counts of every pair with
            # exactly one endpoint strictly inside the interval.
            segment = occ_a if occ_a >= 0 else occ_b
            segment_track = track_a if occ_a >= 0 else track_b
            shield_track = track_b if occ_a >= 0 else track_a
            arrays.pos[segment] = float(shield_track)
            index = int(np.searchsorted(arrays.shields, float(shield_track)))
            arrays.shields[index] = float(segment_track)
            arrays.shields.sort()
            low, high = sorted((segment_track, shield_track))
            between = np.nonzero((arrays.pos > low) & (arrays.pos < high))[0]
            self._recompute_rows(arrays, [segment, *between.tolist()])
        for track in (track_a - 1, track_a, track_a + 1, track_b - 1, track_b, track_b + 1):
            if 0 <= track < num_tracks:
                self._refresh_flag(arrays, track)

    def _apply_insert(self, arrays: _Arrays, gap: int) -> None:
        occ = arrays.occ
        if 0 < gap < occ.size and self._cap_pair(occ, gap - 1, gap):
            arrays.cap -= 1  # the new shield separates a sensitive pair
        above = arrays.pos >= gap
        straddle = above[:, None] != above[None, :]
        arrays.pos[above] += 1.0
        index = int(np.searchsorted(arrays.shields, float(gap)))
        arrays.shields[index:] += 1.0
        arrays.shields = _insert_value(arrays.shields, index, float(gap))
        arrays.occ = occ = _insert_value(occ, gap, -1)
        arrays.dist[straddle] += 1.0
        arrays.sb[straddle] += 1
        self._update_cells(arrays, straddle)
        # The new shield's two neighbours become shield-adjacent; every other
        # flag is unchanged (relative neighbourhoods shift as one block).
        for track in (gap - 1, gap + 1):
            if 0 <= track < occ.size:
                segment = occ[track]
                if segment >= 0:
                    arrays.adj[segment] = True

    def _apply_delete(self, arrays: _Arrays, shield_track: int) -> None:
        occ = arrays.occ
        if (
            shield_track > 0
            and shield_track + 1 < occ.size
            and self._cap_pair(occ, shield_track - 1, shield_track + 1)
        ):
            arrays.cap += 1  # the removal merges a sensitive pair
        index = int(np.searchsorted(arrays.shields, float(shield_track)))
        above = arrays.pos > shield_track
        straddle = above[:, None] != above[None, :]
        arrays.pos[above] -= 1.0
        arrays.shields = _delete_index(arrays.shields, index)
        arrays.shields[index:] -= 1.0
        arrays.occ = _delete_index(occ, shield_track)
        arrays.dist[straddle] -= 1.0
        arrays.sb[straddle] -= 1
        self._update_cells(arrays, straddle)
        # Only the removed shield's two neighbours can lose their flag.
        for track in (shield_track - 1, shield_track):
            if 0 <= track < arrays.occ.size:
                self._refresh_flag(arrays, track)

    # -- the propose / commit / revert protocol -------------------------------

    def _candidate_occ(self, move: Move) -> np.ndarray:
        """The track-contents array ``move`` would produce (occ only)."""
        occ = self._current.occ
        if move.kind == "swap":
            occ = occ.copy()
            occ[move.track], occ[move.other] = occ[move.other], occ[move.track]
            return occ
        if move.kind == "insert":
            return _insert_value(occ, move.track, -1)
        if move.kind == "delete":
            return _delete_index(occ, move.track)
        return _insert_value(_delete_index(occ, move.track), move.other, -1)

    def _apply_move(self, arrays: _Arrays, move: Move) -> None:
        """Apply ``move`` to an array bundle in place."""
        if move.kind == "swap":
            self._apply_swap(arrays, move.track, move.other)
        elif move.kind == "insert":
            self._apply_insert(arrays, move.track)
        elif move.kind == "delete":
            self._apply_delete(arrays, move.track)
        else:  # relocate
            self._apply_delete(arrays, move.track)
            self._apply_insert(arrays, move.other)

    def propose(self, move: Move) -> float:
        """Apply ``move`` to a pending copy of the layout; return the cost delta.

        The pending layout replaces any earlier un-committed proposal.  The
        returned delta is ``pending_cost - current_cost`` with both costs
        bit-identical to fresh scalar evaluations of the two layouts.  When
        the candidate layout was evaluated before, its cached evaluation is
        reused and the array updates are deferred until :meth:`commit`.
        """
        if move.kind in ("delete", "relocate"):
            self._check_shield(move.track)
        key = self._candidate_occ(move).tobytes()
        cached = self._eval_cache.get(key)
        if cached is not None:
            self._pending = None
            self._pending_move = move
            self._has_pending = True
            self._pending_state = cached
            return cached.cost - self._state.cost
        arrays = self._current.copy()
        self._apply_move(arrays, move)
        self._pending = arrays
        self._pending_move = None
        self._has_pending = True
        self._pending_state = self._evaluate(arrays)
        self._eval_cache[key] = self._pending_state
        return self._pending_state.cost - self._state.cost

    def insert_shield(self, gap: int) -> None:
        """Insert a shield at ``gap`` into the current layout, in place.

        The layout and cost equal ``propose(Move.insert(gap))`` followed by
        :meth:`commit`, without copying the arrays or memoising the
        evaluation; for callers that never revisit a layout.  Drops any
        pending proposal.
        """
        self._drop_pending()
        self._apply_insert(self._current, gap)
        self._state = self._evaluate(self._current)

    def _check_shield(self, track: int) -> None:
        if track < 0 or track >= self.num_tracks or self._current.occ[track] >= 0:
            raise ValueError(f"track {track} does not hold a shield")

    def commit(self) -> float:
        """Adopt the pending layout; returns the new current cost."""
        if not self._has_pending:
            raise RuntimeError("commit() without a pending propose()")
        if self._pending is not None:
            self._current = self._pending
        else:
            # Cache-hit proposal: materialise the deferred array updates now.
            self._apply_move(self._current, self._pending_move)
        self._state = self._pending_state
        self._drop_pending()
        return self._state.cost

    def revert(self) -> None:
        """Discard the pending layout."""
        if not self._has_pending:
            raise RuntimeError("revert() without a pending propose()")
        self._drop_pending()

    def _drop_pending(self) -> None:
        """Discard the pending layout, if there is one."""
        self._pending = None
        self._pending_move = None
        self._has_pending = False

    # -- compaction -----------------------------------------------------------

    def compacted(self) -> Tuple[SinoSolution, float, bool]:
        """``(solution, cost, validity)`` of the compacted current layout.

        Produces exactly the layout :meth:`SinoSolution.compact` would — the
        same right-to-left walk with the same removal criteria — but each
        candidate is screened with an O(1) capacitive check (removing a
        shield merges its two neighbours and can never *reduce* adjacency)
        and, when couplings do change, evaluated as a delta update instead of
        a from-scratch panel evaluation.  The compacted layout's cost and
        validity fall out of the final state for free.
        """
        scratch = self.clone()
        scratch.compact()
        return scratch.to_solution(), scratch._state.cost, scratch._state.valid

    def compact(self) -> None:
        """Compact the current layout in place (the walk of :meth:`compacted`).

        Drops any pending proposal.
        """
        self._drop_pending()
        excess = self._excess_of(self._state.totals)
        for track in reversed(self.shield_tracks()):
            excess = self._compact_try_delete(track, excess)

    def _compact_try_delete(self, track: int, excess: float) -> float:
        """Remove the shield at ``track`` if the compaction criteria allow it.

        Returns the (possibly updated) running total excess.  Decisions are
        bit-identical to the reference walk in :meth:`SinoSolution.compact`:
        the capacitive count may not grow and the total excess may not grow
        beyond the 1e-12 tolerance.
        """
        arrays = self._current
        occ = arrays.occ
        num_tracks = occ.size
        # Removing a shield creates exactly one new adjacency (its two
        # neighbours); every other pair keeps its relative order.  If that
        # pair is sensitive the capacitive count grows and the reference walk
        # rejects, so nothing else needs computing.
        left = int(occ[track - 1]) if track > 0 else -1
        right = int(occ[track + 1]) if track + 1 < num_tracks else -1
        if left >= 0 and right >= 0 and bool(self._sens[left, right]):
            return excess

        pos = arrays.pos
        above = pos > track
        straddle = above[:, None] != above[None, :]
        mask = self._sens & straddle
        coupling_changes = bool(mask.any())
        # Only the removed shield's two neighbours can lose their adjacency
        # flag; work out those flips without touching the arrays.
        flips: List[Tuple[int, bool]] = []
        if left >= 0:
            flag = (track - 2 >= 0 and occ[track - 2] < 0) or (
                track + 1 < num_tracks and occ[track + 1] < 0
            )
            if flag != bool(arrays.adj[left]):
                flips.append((left, flag))
        if right >= 0:
            flag = (track - 1 >= 0 and occ[track - 1] < 0) or (
                track + 2 < num_tracks and occ[track + 2] < 0
            )
            if flag != bool(arrays.adj[right]):
                flips.append((right, flag))

        state = self._state
        if not coupling_changes and all(
            float(state.totals[segment]) == 0.0 for segment, _ in flips
        ):
            # No coupling value can change (adjacency only flips on segments
            # with zero total coupling), so the removal is free and the
            # reference walk always accepts it.
            totals = state.totals
            for segment, flag in flips:
                arrays.adj[segment] = flag
        else:
            new_adjacent = arrays.adj.copy()
            for segment, flag in flips:
                new_adjacent[segment] = flag
            coupling = arrays.coupling.copy()
            if coupling_changes:
                coupling[mask] = self._gathered_coupling(
                    arrays.dist[mask] - 1.0, arrays.sb[mask] - 1
                )
            totals = coupling.sum(axis=1)
            totals[new_adjacent] /= self._bonus
            candidate_excess = self._excess_of(totals)
            if candidate_excess > excess + 1e-12:
                return excess
            excess = candidate_excess
            arrays.coupling = coupling
            arrays.adj = new_adjacent

        # Commit the removal in place.
        index = int(np.searchsorted(arrays.shields, float(track)))
        arrays.shields = _delete_index(arrays.shields, index)
        arrays.shields[index:] -= 1.0
        pos[above] -= 1.0
        arrays.occ = _delete_index(occ, track)
        arrays.dist[straddle] -= 1.0
        arrays.sb[straddle] -= 1
        self._state = self._assemble(arrays, state.capacitive, totals)
        return excess
