"""Batched best-of-K move evaluation for the SINO annealer.

A one-move annealing step pays a ``propose``/``commit`` round trip per
candidate: array copies, bookkeeping and interpreter dispatch for a handful
of changed matrix cells.  :class:`BatchedMoveEvaluator` amortises that
overhead over ``K`` candidates at a time.  It scores K candidate moves
against the shared position/shield/occupancy/dist/shields-between/coupling
arrays of one :class:`~repro.sino.incremental.IncrementalPanelState` in a
single stacked numpy pass — candidate geometry as ``(K, n)`` / ``(K, n, n)``
arrays, cumulative shield counts for the between-shield matrix, and
transcendental recomputes restricted to the cells whose ``(distance,
shields-between)`` pair actually changed (the exact per-move budget the
scalar path pays).  :func:`repro.sino.anneal.anneal_sino` uses it for chains
wider than one move and for its endgame.

Every scored delta is *exactly* the delta ``propose()`` would return: cells
with an unchanged ``(distance, shields-between)`` pair hold bitwise-equal
coupling values (the matrix cell is a pure elementwise function of that
pair), changed cells are recomputed with the same floating-point expression,
and row sums re-reduce full contiguous rows exactly like the scalar
evaluation does.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sino.incremental import IncrementalPanelState, Move, _Evaluation


class BatchedMoveEvaluator:
    """Vectorised delta-cost scoring of K candidate moves at once.

    Wraps one :class:`IncrementalPanelState`; :meth:`score` returns one
    delta per move and memoises every evaluation in the state's cache, so a
    follow-up ``state.propose(winner)`` is a guaranteed cache hit.  Call
    :meth:`refresh` after each ``commit()`` so the cached current-layout
    geometry tracks the state.
    """

    def __init__(self, state: IncrementalPanelState) -> None:
        self.state = state
        self._sens = state._sens
        self._atten = state._atten
        self._bonus = state._bonus
        self._exp = state._exp
        self._n = state.num_segments
        self.refresh()

    def refresh(self) -> None:
        """Re-derive the integer geometry of the state's current layout."""
        current = self.state._current
        self._pos = current.pos.astype(np.int64)
        self._shields = current.shields.astype(np.int64)
        self._dist = current.dist.astype(np.int64)
        self._sb = current.sb
        self._coupling = current.coupling
        # Pre-bonus row sums: rows untouched by a candidate keep these
        # bitwise (same contiguous data, same pairwise reduction).
        self._raw_totals = current.coupling.sum(axis=1)

    # -- candidate geometry ---------------------------------------------------

    def _candidate_positions(self, move: Move) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, shields)`` of the layout ``move`` would produce.

        Integer arrays; ``shields`` stays sorted.  Only reached on cache
        misses (a shield-shield swap leaves the occupancy unchanged and is
        always served from the memo).
        """
        pos = self._pos
        shields = self._shields
        if move.kind == "swap":
            occ = self.state._current.occ
            occ_a = int(occ[move.track])
            occ_b = int(occ[move.other])
            if occ_a < 0 and occ_b < 0:
                return pos, shields
            if occ_a >= 0 and occ_b >= 0:
                swapped = pos.copy()
                swapped[occ_a] = move.other
                swapped[occ_b] = move.track
                return swapped, shields
            segment = occ_a if occ_a >= 0 else occ_b
            segment_track = move.track if occ_a >= 0 else move.other
            shield_track = move.other if occ_a >= 0 else move.track
            moved = pos.copy()
            moved[segment] = shield_track
            hopped = shields.copy()
            hopped[int(np.searchsorted(shields, shield_track))] = segment_track
            hopped.sort()
            return moved, hopped
        if move.kind == "insert":
            return self._insert_shield(pos, shields, move.track)
        if move.kind == "delete":
            return self._delete_shield(pos, shields, move.track)
        # relocate: delete then insert, with the gap indexing the layout
        # after the removal (exactly like Move.relocate documents).
        pos, shields = self._delete_shield(pos, shields, move.track)
        return self._insert_shield(pos, shields, move.other)

    @staticmethod
    def _insert_shield(
        pos: np.ndarray, shields: np.ndarray, gap: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        shifted = shields + (shields >= gap)
        index = int(np.searchsorted(shields, gap))
        inserted = np.concatenate(
            (shifted[:index], np.array([gap], dtype=np.int64), shifted[index:])
        )
        return pos + (pos >= gap), inserted

    @staticmethod
    def _delete_shield(
        pos: np.ndarray, shields: np.ndarray, track: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        index = int(np.searchsorted(shields, track))
        removed = np.concatenate((shields[:index], shields[index + 1 :] - 1))
        return pos - (pos > track), removed

    # -- scoring --------------------------------------------------------------

    def score(self, moves: Sequence[Move]) -> List[float]:
        """Delta cost of every move against the current layout.

        Each returned value equals ``state.propose(move)`` for that move
        bit-for-bit; every evaluated candidate is written into the state's
        evaluation memo.
        """
        state = self.state
        current_cost = state._state.cost
        deltas = [0.0] * len(moves)
        pending: List[Tuple[int, bytes, np.ndarray, np.ndarray]] = []
        seen: Dict[bytes, int] = {}
        for slot, move in enumerate(moves):
            if move.kind in ("delete", "relocate"):
                state._check_shield(move.track)
            key = state._candidate_occ(move).tobytes()
            cached = state._eval_cache.get(key)
            if cached is not None:
                deltas[slot] = cached.cost - current_cost
                continue
            duplicate = seen.get(key)
            if duplicate is not None:
                # Same candidate layout drawn twice in one batch: score it
                # once, copy the delta after the vectorised pass.
                pending.append((slot, key, *pending[duplicate][2:]))
                continue
            seen[key] = len(pending)
            pending.append((slot, key, *self._candidate_positions(move)))
        if pending:
            self._score_pending(pending, deltas, current_cost)
        return deltas

    def _score_pending(
        self,
        pending: List[Tuple[int, bytes, np.ndarray, np.ndarray]],
        deltas: List[float],
        current_cost: float,
    ) -> None:
        """Evaluate the cache-missing candidates in one stacked pass."""
        state = self.state
        n = self._n
        count = len(pending)
        pos_stack = np.stack([entry[2] for entry in pending])  # (M, n)
        shield_counts = np.array([entry[3].size for entry in pending])
        # Cumulative shield counts per candidate: cum[k, t] = number of
        # shields on tracks < t.  Padded two past the longest candidate so
        # the adjacency gathers below never index out of range.
        width = n + int(shield_counts.max(initial=0)) + 2
        cum = np.zeros((count, width), dtype=np.int64)
        for index, entry in enumerate(pending):
            if entry[3].size:
                cum[index, entry[3] + 1] = 1
        np.cumsum(cum, axis=1, out=cum)

        high = np.maximum(pos_stack[:, :, None], pos_stack[:, None, :])
        low = np.minimum(pos_stack[:, :, None], pos_stack[:, None, :])
        dist = high - low
        rows3 = np.arange(count)[:, None, None]
        # Between-shield counts via the cumulative array: shields strictly
        # inside (low, high) are those < high minus those <= low, and no
        # segment track ever coincides with a shield track.
        between = cum[rows3, high] - cum[rows3, low + 1]
        np.maximum(between, 0, out=between)

        # Coupling cells are pure elementwise functions of (dist, between)
        # on sensitive pairs, so only the cells where that pair changed can
        # differ from the current matrix — everything else is bitwise equal.
        changed = (dist != self._dist[None, :, :]) | (between != self._sb[None, :, :])
        changed &= self._sens[None, :, :]
        row_candidate, row_segment = np.nonzero(changed.any(axis=2))
        row_buffer = self._coupling[row_segment]  # gathered copies
        cell_rows, cell_cols = np.nonzero(changed[row_candidate, row_segment])
        dist_cells = dist[row_candidate[cell_rows], row_segment[cell_rows], cell_cols]
        between_cells = between[row_candidate[cell_rows], row_segment[cell_rows], cell_cols]
        # Same expression as IncrementalPanelState._gathered_coupling —
        # sensitive pairs always sit on distinct tracks, so dist >= 1.
        row_buffer[cell_rows, cell_cols] = (
            1.0
            / np.power(dist_cells.astype(np.float64), self._exp)
            / np.power(self._atten, between_cells)
        )
        totals = np.repeat(self._raw_totals[None, :], count, axis=0)
        totals[row_candidate, row_segment] = row_buffer.sum(axis=1)

        # Shield adjacency per candidate segment, from the same cumulative
        # counts: a shield sits on track t iff cum[t + 1] - cum[t] == 1.
        rows2 = np.arange(count)[:, None]
        left = (pos_stack >= 1) & (cum[rows2, pos_stack] > cum[rows2, np.maximum(pos_stack - 1, 0)])
        right = cum[rows2, pos_stack + 2] > cum[rows2, pos_stack + 1]
        adjacent = (left | right) & (shield_counts > 0)[:, None]
        totals[adjacent] /= self._bonus

        capacitive = (self._sens[None, :, :] & (dist == 1)).sum(axis=(1, 2)) // 2

        config = state.config
        capacity = state.problem.capacity
        thresholds = state._threshold_vector
        bounds = state._bounds
        for index, (slot, key, _, shields) in enumerate(pending):
            cached = state._eval_cache.get(key)
            if cached is not None:  # an in-batch duplicate scored this pass
                deltas[slot] = cached.cost - current_cost
                continue
            candidate_totals = totals[index]
            inductive = 0
            violating = False
            for i in np.nonzero(candidate_totals > thresholds)[0].tolist():
                inductive += float(candidate_totals[i]) - bounds[i]
                violating = True
            cap = int(capacitive[index])
            num_shields = int(shields.size)
            overflow = max(0, n + num_shields - capacity) if capacity > 0 else 0
            cost = (
                config.capacitive_weight * cap
                + config.inductive_weight * inductive
                + config.shield_weight * num_shields
                + config.overflow_weight * overflow
            )
            state._eval_cache[key] = _Evaluation(
                cost=cost,
                capacitive=cap,
                valid=cap == 0 and not violating,
                inductive=inductive,
                totals=candidate_totals,
            )
            deltas[slot] = cost - current_cost


__all__ = ["BatchedMoveEvaluator"]
