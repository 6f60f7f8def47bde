"""Backpressure policy for the gateway tier: plain, socket-free classes.

The HTTP server in :mod:`repro.service.gateway.server` is a thin shell
around two decisions, each made by a class in this module so tier-1
tests can cover the policy math without opening a socket:

* :class:`TokenBucket` / :class:`TokenBucketTable` — *may this client
  submit right now?*  Classic token bucket: ``rate`` tokens/second refill
  up to a ``burst`` cap; an empty bucket answers with the exact number of
  seconds until the next token, which the server surfaces as
  ``Retry-After``.
* :class:`AdmissionQueue` — *is there room to hold the submission until
  the server's group commit writes it?*  A bounded FIFO; ``offer`` never
  blocks, it just says no when full (the server turns that into a 429).

The buckets take explicit ``now`` timestamps instead of reading the
clock, which makes refill math deterministic under test.  None of the
classes lock: the gateway drives them from a single asyncio event loop.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional


class TokenBucket:
    """Token bucket with ``rate`` tokens/second refill and a ``burst`` cap.

    ``acquire`` returns ``0.0`` when a token was taken, else the number of
    seconds until enough tokens will have accrued (and takes nothing).
    """

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"token bucket rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"token bucket burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated_at: Optional[float] = None

    def acquire(self, now: float, cost: float = 1.0) -> float:
        """Try to take ``cost`` tokens at monotonic time ``now``.

        Returns 0.0 on success, otherwise the seconds until the bucket
        will hold ``cost`` tokens (a ``Retry-After`` hint); the caller's
        budget is untouched on rejection.
        """
        if self.updated_at is not None:
            elapsed = max(0.0, now - self.updated_at)
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate


class TokenBucketTable:
    """Per-client token buckets, bounded by LRU eviction.

    Clients are keyed by whatever string the server chooses (the
    ``X-Repro-Client`` header, falling back to peer IP).  At most
    ``max_clients`` buckets are kept; the least-recently-seen client is
    evicted first, which resets its budget — acceptable, because an
    evicted client is by definition one that has not submitted recently.
    """

    def __init__(self, rate: float, burst: float, max_clients: int = 1024) -> None:
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_clients = max_clients
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    def acquire(self, client: str, now: float, cost: float = 1.0) -> float:
        """Token-bucket ``acquire`` against ``client``'s bucket (created on first use)."""
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            self._buckets[client] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client)
        return bucket.acquire(now, cost)

    def __len__(self) -> int:
        return len(self._buckets)


class AdmissionQueue:
    """Bounded FIFO between the HTTP handlers and the spool writer.

    ``offer`` is non-blocking: it returns False when the queue is at
    capacity, and the server answers 429 (queue full).  ``take`` pops in
    arrival order, so admitted submissions reach the spool in the order
    their clients were told "accepted".
    """

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ValueError(f"admission queue depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.accepted = 0
        self.rejected = 0
        self._items: List[Any] = []

    @property
    def capacity(self) -> int:
        return self.max_depth

    def offer(self, item: Any) -> bool:
        """Append ``item`` if there is room; False (and nothing queued) otherwise."""
        if len(self._items) >= self.max_depth:
            self.rejected += 1
            return False
        self._items.append(item)
        self.accepted += 1
        return True

    def take(self, limit: Optional[int] = None) -> List[Any]:
        """Pop up to ``limit`` items (all, when None) in FIFO order."""
        if limit is None or limit >= len(self._items):
            items, self._items = self._items, []
            return items
        items = self._items[:limit]
        del self._items[:limit]
        return items

    def __len__(self) -> int:
        return len(self._items)
