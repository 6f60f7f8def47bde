"""Content-addressed cache of SINO panel solutions.

Identical panel instances recur constantly in this system: ID+NO and iSINO
share one baseline routing (same panels, different solver), Phase III
re-solves Phase II panels under mutated bounds and then *reverts* rejected
candidates, sweeps re-run overlapping instances, and GSINO's reserved routing
frequently reproduces baseline panels wherever congestion did not force a
detour.  The cache keys solutions by the content signature of
(:mod:`repro.engine.signature`) so each distinct instance is solved exactly
once per process.

Only the track *layout* is stored — not the solution object.  On a hit the
layout is re-bound to the caller's own :class:`SinoProblem`, which keeps the
cache small, prevents flows from aliasing each other's mutable solution
objects, and re-validates the layout against the requesting problem.

The cache optionally fronts a persistent second tier (any object with
``get_layout(signature) -> layout|None`` and ``put_layout(signature,
layout)`` — in practice :class:`repro.service.store.ResultStore`): a memory
miss falls through to the tier, tier hits are promoted back into memory, and
fills are written through, so repeated processes warm-start from disk.
Inside :meth:`SolutionCache.memory_only` the tier is skipped: the flow
runner uses it while a stage runs whose artifact it persists, since that
artifact already holds every layout the stage produces.  The protocol is
duck-typed here so the engine layer never imports the service layer above
it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Tuple

from repro.sino.panel import SinoProblem, SinoSolution


class LayoutStore(Protocol):
    """Persistent-tier protocol (implemented by ``repro.service.store``)."""

    def get_layout(self, signature: str) -> Optional[Tuple[Optional[int], ...]]:
        """The stored layout for a signature, or ``None`` on a miss."""

    def put_layout(self, signature: str, layout: Tuple[Optional[int], ...]) -> None:
        """Persist one layout under its signature."""


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`SolutionCache`.

    Snapshots subtract (``after - before``) so callers can attribute cache
    traffic to one flow or phase even when the cache is shared.

    ``hits`` counts in-memory hits, ``store_hits`` counts lookups served by
    the persistent tier (both avoid a solve); ``misses`` counts lookups that
    fell through every tier and forced a solve.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    store_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (memory hits + persistent-tier hits + misses)."""
        return self.hits + self.store_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served by any tier (0 when never used)."""
        if not self.lookups:
            return 0.0
        return (self.hits + self.store_hits) / self.lookups

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            store_hits=self.store_hits - other.store_hits,
        )

    def __str__(self) -> str:
        text = f"{self.hits + self.store_hits}/{self.lookups} ({self.hit_rate:.0%})"
        if self.store_hits:
            text += f" [{self.store_hits} from disk]"
        return text


class SolutionCache:
    """Thread-safe LRU mapping from panel signatures to solved layouts.

    Parameters
    ----------
    max_entries:
        Optional capacity; the least recently used layout is evicted when it
        is exceeded.  ``None`` (the default) never evicts — panel layouts are
        tiny (a tuple of ints per panel), so an unbounded cache is fine for
        every workload short of an unattended sweep service.
    store:
        Optional persistent second tier (:class:`LayoutStore` protocol, e.g.
        :class:`repro.service.store.ResultStore`).  Memory misses fall
        through to it, tier hits are promoted into memory, and fills are
        written through — so a fresh process with the same store starts
        warm — except inside :meth:`memory_only`.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        store: Optional[LayoutStore] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        self._layouts: "OrderedDict[str, Tuple[Optional[int], ...]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._store_hits = 0
        # Depth of open memory_only() blocks; the tier is skipped while > 0.
        self._memory_only = 0

    def __len__(self) -> int:
        return len(self._layouts)

    def __contains__(self, key: str) -> bool:
        return key in self._layouts

    def get(self, key: str, problem: SinoProblem) -> Optional[SinoSolution]:
        """The cached solution for ``key`` re-bound to ``problem``, or None.

        A memory miss falls through to the persistent tier when one is
        attached (outside :meth:`memory_only`); a tier hit is promoted into
        memory.  The lookup counts towards the hit/miss statistics either
        way.
        """
        with self._lock:
            layout = self._layouts.get(key)
            if layout is not None:
                self._hits += 1
                self._layouts.move_to_end(key)
                return SinoSolution(problem=problem, layout=list(layout))
            store = None if self._memory_only else self.store
        if store is not None:
            stored = store.get_layout(key)
            if stored is not None:
                layout = tuple(stored)
                try:
                    # Re-binding validates the layout against the problem; a
                    # blob that survived the store's own checks can still be
                    # poisoned (e.g. an edited segment id).
                    solution = SinoSolution(problem=problem, layout=list(layout))
                except ValueError:
                    drop = getattr(store, "drop_layout", None)
                    if drop is not None:
                        drop(key)  # never promoted, never served again
                else:
                    with self._lock:
                        self._store_hits += 1
                        self._insert(key, layout)
                    return solution
        with self._lock:
            self._misses += 1
        return None

    def _insert(self, key: str, layout: Tuple[Optional[int], ...]) -> None:
        """Insert into the memory tier, evicting LRU entries (lock held)."""
        self._layouts[key] = layout
        self._layouts.move_to_end(key)
        if self.max_entries is not None:
            while len(self._layouts) > self.max_entries:
                self._layouts.popitem(last=False)
                self._evictions += 1

    def put(self, key: str, solution: SinoSolution) -> None:
        """Store a solved layout under its signature (written through
        outside :meth:`memory_only`)."""
        layout = tuple(solution.layout)
        with self._lock:
            self._insert(key, layout)
            store = None if self._memory_only else self.store
        if store is not None:
            store.put_layout(key, layout)

    @contextmanager
    def memory_only(self) -> Iterator[None]:
        """Skip the persistent tier for the duration of the block.

        Lookups and fills touch the memory tier only; misses are still
        counted.  Blocks nest, and the tier is back once the outermost one
        exits, by exception too.
        """
        with self._lock:
            self._memory_only += 1
        try:
            yield
        finally:
            with self._lock:
                self._memory_only -= 1

    def stats(self) -> CacheStats:
        """Current counters as an immutable snapshot."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                store_hits=self._store_hits,
            )

    def clear(self) -> None:
        """Drop every cached layout (counters are kept)."""
        with self._lock:
            self._layouts.clear()

    def __repr__(self) -> str:
        return (
            f"SolutionCache(entries={len(self._layouts)}, "
            f"stats={self.stats()})"
        )
