"""Sensitivity relations between signal nets.

Two nets are *sensitive* to each other when a switching event on one can make
the other malfunction; the *sensitivity rate* of a net is the fraction of
other signal nets it is sensitive to.  The paper's experiments draw this
relation at random at a fixed rate (30 % or 50 %) because the real relation
"depends on logic and physical implementation".

Every oracle answers two queries — one pair (:meth:`are_sensitive`) and the
whole relation over a group of nets as a boolean matrix
(:meth:`relation_matrix`, which Phase II passes straight into each panel's
:class:`~repro.sino.panel.SinoProblem`) — and identifies itself with a
:meth:`token`, the string the flow layer's instance signature folds in
instead of walking every net pair.  Two implementations are provided, each
with one relation kernel:

* :class:`ExplicitSensitivity` — backed by symmetrised aggressor sets; the
  group query fills the matrix from the sets and the token hashes the sorted
  pair list (tests, small examples and hand-built cases);
* :class:`RandomPairwiseSensitivity` — a SplitMix64 hash of the net-id pair
  and the seed decides sensitivity, so arbitrarily large netlists cost O(1)
  memory and the token is the O(1) ``(rate, seed)`` pair.  The group query
  evaluates the hash over the whole id array in one numpy ``uint64`` pass;
  the scalar :meth:`~RandomPairwiseSensitivity.are_sensitive` computes the
  same bits one pair at a time and is the reference the kernel is tested
  against (used by the IBM-style benchmark generator).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set

import numpy as np


class SensitivityOracle(ABC):
    """Query interface for the pairwise sensitivity relation."""

    @abstractmethod
    def are_sensitive(self, net_a: int, net_b: int) -> bool:
        """True when the two nets are sensitive to each other."""

    @abstractmethod
    def rate_of(self, net_id: int, num_nets: int) -> float:
        """Sensitivity rate of a net given the total number of signal nets."""

    @abstractmethod
    def relation_matrix(self, net_ids: Sequence[int]) -> np.ndarray:
        """The relation over a group of nets as an ``(n, n)`` boolean matrix.

        Entry ``[i, j]`` is ``are_sensitive(net_ids[i], net_ids[j])``, so the
        matrix is symmetric with a false diagonal for distinct ids.
        """

    @abstractmethod
    def token(self) -> str:
        """Exact identity of the relation: equal tokens, equal relations.

        The flow layer hashes this into the instance signature, so it must
        change whenever any pair's answer can change.
        """


class ExplicitSensitivity(SensitivityOracle):
    """Sensitivity stored as explicit aggressor sets (symmetrised)."""

    def __init__(self, aggressors: Mapping[int, Set[int]]) -> None:
        symmetric: Dict[int, Set[int]] = {}
        for net_id, others in aggressors.items():
            for other in others:
                if other == net_id:
                    continue
                symmetric.setdefault(net_id, set()).add(other)
                symmetric.setdefault(other, set()).add(net_id)
        self._aggressors: Dict[int, FrozenSet[int]] = {
            net_id: frozenset(others) for net_id, others in symmetric.items()
        }

    @classmethod
    def empty(cls) -> "ExplicitSensitivity":
        """An oracle under which no two nets are sensitive."""
        return cls({})

    def aggressors_of(self, net_id: int) -> FrozenSet[int]:
        """The full aggressor set of a net."""
        return self._aggressors.get(net_id, frozenset())

    def are_sensitive(self, net_a: int, net_b: int) -> bool:
        if net_a == net_b:
            return False
        return net_b in self._aggressors.get(net_a, frozenset())

    def rate_of(self, net_id: int, num_nets: int) -> float:
        if num_nets <= 1:
            return 0.0
        return len(self._aggressors.get(net_id, frozenset())) / (num_nets - 1)

    def relation_matrix(self, net_ids: Sequence[int]) -> np.ndarray:
        rows: Dict[int, List[int]] = {}
        for row, net_id in enumerate(net_ids):
            rows.setdefault(net_id, []).append(row)
        matrix = np.zeros((len(net_ids), len(net_ids)), dtype=bool)
        for net_id, own in rows.items():
            others = [col for other in self.aggressors_of(net_id) for col in rows.get(other, ())]
            if others:
                matrix[np.ix_(own, others)] = True
        return matrix

    def token(self) -> str:
        pairs = sorted(
            (net_id, other)
            for net_id, others in self._aggressors.items()
            for other in others
            if net_id < other
        )
        text = ";".join(f"{a}-{b}" for a, b in pairs)
        return "explicit:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_TWO_64 = float(1 << 64)


def _splitmix64(value: int) -> int:
    """SplitMix64 finaliser on one Python integer (wrapped mod 2**64)."""
    value = (value + _GOLDEN) & _MASK
    value = ((value ^ (value >> 30)) * _MIX_1) & _MASK
    value = ((value ^ (value >> 27)) * _MIX_2) & _MASK
    return (value ^ (value >> 31)) & _MASK


def _splitmix64_array(values: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` over a ``uint64`` array.

    numpy's unsigned array arithmetic wraps mod 2**64, which is exactly the
    scalar code's ``& _MASK``.
    """
    values = values + np.uint64(_GOLDEN)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(_MIX_1)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(_MIX_2)
    return values ^ (values >> np.uint64(31))


class RandomPairwiseSensitivity(SensitivityOracle):
    """Random sensitivity at a nominal rate, decided by a deterministic hash.

    Each unordered pair of net ids maps, together with the seed, through a
    64-bit mixing function to a uniform value in [0, 1); the pair is sensitive
    when that value falls below ``rate``.  The relation is therefore symmetric,
    reproducible, and needs no storage — exactly what the paper's "a signal
    net is sensitive to random 30 % of other signal nets" assumption requires
    at benchmark scale.  The group queries take non-negative net ids.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sensitivity rate must lie in [0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        self._seed_key = _splitmix64(self.seed)

    def are_sensitive(self, net_a: int, net_b: int) -> bool:
        if net_a == net_b:
            return False
        low, high = (net_a, net_b) if net_a < net_b else (net_b, net_a)
        return _splitmix64((low << 32) ^ high ^ self._seed_key) / _TWO_64 < self.rate

    def _relation(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The relation kernel: ``are_sensitive`` broadcast over two id arrays."""
        low = np.minimum(rows, cols)
        high = np.maximum(rows, cols)
        mixed = _splitmix64_array((low << np.uint64(32)) ^ high ^ np.uint64(self._seed_key))
        return (mixed.astype(np.float64) / _TWO_64 < self.rate) & (rows != cols)

    def relation_matrix(self, net_ids: Sequence[int]) -> np.ndarray:
        column = np.asarray(net_ids, dtype=np.uint64)
        return self._relation(column[:, None], column[None, :])

    def rate_of(self, net_id: int, num_nets: int) -> float:
        # The expected rate equals the nominal rate; using the expectation
        # keeps full-chip budgeting O(1) per net.
        return self.rate

    def token(self) -> str:
        return f"splitmix64:rate={self.rate.hex()}:seed={self.seed}"
