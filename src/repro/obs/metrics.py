"""Process-local counters, gauges and solve-latency histograms.

A :class:`MetricsRegistry` is a cheap, dependency-free bag of named
instruments owned by one cluster worker or gateway:

* :class:`Counter` — monotonically increasing totals (jobs released,
  leases reclaimed);
* :class:`Gauge` — last-written values (spool queue depth, cache hit
  totals);
* :class:`Histogram` — bucketed distributions with sum/count and
  bucket-interpolated percentile estimation (solve latency).

Instruments are created on first use (``registry.counter("lease.reclaimed")``)
so emitting code never pre-declares anything.  At heartbeat boundaries the
owning process serialises ``registry.snapshot()`` into the event log as a
``metrics`` event; ``repro metrics`` then merges the *latest snapshot per
writer generation* from the log (:func:`fleet_metrics_from_events`; the
generation is the emitting event log's start nonce, so a restarted writer
sums with — never shadows — its predecessor), which is how per-process
registries compose into a cluster view without shared memory.  Histogram
snapshots carry raw bucket counts, so merged percentiles stay well-defined.

Thread-safe throughout (one lock per registry); all operations are O(1)
per observation.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency bucket upper bounds, in seconds.  Chosen for panel-solve
#: latencies: sub-millisecond cache hits up through multi-minute cold flows.
_BUCKET_EDGES = "0.001 0.005 0.01 0.05 0.1 0.25 0.5 1.0 2.5 5.0 10.0 30.0 60.0 300.0"
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(float(edge) for edge in _BUCKET_EDGES.split())


class Counter:
    """Monotonically increasing total."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Bucketed distribution with interpolated percentiles.

    ``bounds`` are inclusive upper edges; observations above the last bound
    land in a final overflow bucket.  Percentiles assume a uniform spread
    within each bucket (linear interpolation between bucket edges), which
    is exact enough for latency reporting without storing samples.
    """

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty bucket bounds")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        self.bucket_counts[index] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` (0..1) of the distribution."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        return _bucket_percentile(self.bounds, self.bucket_counts, self.count, fraction)

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "sum": round(self.total, 6),
            "count": self.count,
        }


def _bucket_percentile(
    bounds: Sequence[float], bucket_counts: Sequence[int], count: int, fraction: float
) -> float:
    """Linear-interpolated percentile over bucket counts (shared with merges)."""
    rank = fraction * count
    cumulative = 0.0
    for index, bucket_count in enumerate(bucket_counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else bounds[-1]
            within = (rank - cumulative) / bucket_count if bucket_count else 0.0
            return lower + (upper - lower) * min(1.0, max(0.0, within))
        cumulative += bucket_count
    return float(bounds[-1])


class MetricsRegistry:
    """Named instruments of one process, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, bounds)
            return instrument

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every instrument serialised by name (the ``metrics`` event payload)."""
        with self._lock:
            snapshot: Dict[str, Dict[str, object]] = {}
            for name, counter in self._counters.items():
                snapshot[name] = counter.to_dict()
            for name, gauge in self._gauges.items():
                snapshot[name] = gauge.to_dict()
            for name, histogram in self._histograms.items():
                snapshot[name] = histogram.to_dict()
            return dict(sorted(snapshot.items()))


#: Lazily created default registry shared by solver hot paths (see
#: :func:`process_registry`).
_PROCESS_REGISTRY: Optional[MetricsRegistry] = None
_PROCESS_REGISTRY_LOCK = threading.Lock()


def _forget_process_registry() -> None:
    """A forked child starts counting from zero, not from its parent's copy."""
    global _PROCESS_REGISTRY, _PROCESS_REGISTRY_LOCK
    _PROCESS_REGISTRY = None
    _PROCESS_REGISTRY_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_process_registry)


def process_registry() -> MetricsRegistry:
    """The process-wide default registry.

    Deep call sites with no registry parameter (the anneal chain loop)
    record here; owners of an event log (cluster workers) fold the snapshot
    into their own ``metrics`` events so the counters reach the fleet view.
    Each worker process — including pool workers — gets its own instance on
    first use.
    """
    global _PROCESS_REGISTRY
    if _PROCESS_REGISTRY is None:
        with _PROCESS_REGISTRY_LOCK:
            if _PROCESS_REGISTRY is None:
                _PROCESS_REGISTRY = MetricsRegistry()
    return _PROCESS_REGISTRY


def snapshot_delta(
    snapshot: Dict[str, Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
) -> Dict[str, Dict[str, object]]:
    """What ``snapshot`` recorded since ``baseline`` (an earlier snapshot of
    the same registry).

    Counters and histograms report only the growth since the baseline;
    gauges are last-written values and pass through unchanged.
    """
    delta: Dict[str, Dict[str, object]] = {}
    for name, record in snapshot.items():
        before = baseline.get(name)
        kind = record.get("type")
        if before is None or before.get("type") != kind or kind == "gauge":
            delta[name] = record
        elif kind == "counter":
            delta[name] = {**record, "value": float(record["value"]) - float(before["value"])}
        elif kind == "histogram":
            delta[name] = {
                **record,
                "bucket_counts": [
                    now - then
                    for now, then in zip(record["bucket_counts"], before["bucket_counts"])
                ],
                "sum": round(float(record["sum"]) - float(before["sum"]), 6),
                "count": int(record["count"]) - int(before["count"]),
            }
    return delta


def merge_snapshots(
    snapshots: Iterable[Dict[str, Dict[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Combine per-writer snapshots into one cluster-wide view.

    Counters and histograms sum (totals across processes); gauges sum too —
    every gauge we emit (queue depth, cache hits) is a per-process share of
    a fleet total, so summing is the meaningful merge.  Histograms must
    share bucket bounds to merge; mismatched bounds keep the first.
    """
    merged: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        for name, record in snapshot.items():
            kind = record.get("type")
            if name not in merged:
                merged[name] = {
                    key: (list(v) if isinstance(v, list) else v) for key, v in record.items()
                }
                continue
            target = merged[name]
            if kind != target.get("type"):
                continue
            if kind in ("counter", "gauge"):
                target["value"] = float(target.get("value", 0.0)) + float(record.get("value", 0.0))
            elif kind == "histogram":
                if list(record.get("bounds", [])) != list(target.get("bounds", [])):
                    continue
                counts = list(target.get("bucket_counts", []))
                for index, value in enumerate(record.get("bucket_counts", [])):
                    counts[index] += int(value)
                target["bucket_counts"] = counts
                target["sum"] = round(
                    float(target.get("sum", 0.0)) + float(record.get("sum", 0.0)), 6
                )
                target["count"] = int(target.get("count", 0)) + int(record.get("count", 0))
    return dict(sorted(merged.items()))


def fleet_metrics_from_events(
    records: Iterable[Dict[str, object]],
) -> Tuple[Dict[str, Dict[str, object]], List[str]]:
    """The fleet view from ``metrics`` event records: merged snapshot + writers.

    A registry snapshot is cumulative over its *process generation*, so the
    merge keeps the latest snapshot per ``(writer, nonce)`` — the nonce is
    the emitting :class:`~repro.obs.events.EventLog`'s start nonce — and
    sums across generations.  Keying by writer alone would silently drop a
    restarted process's pre-restart counters whenever the writer label is
    reused; records predating the nonce field key on ``(writer, "")`` and
    keep the old latest-per-writer behaviour.
    """
    latest: Dict[Tuple[str, str], Dict[str, Dict[str, object]]] = {}
    writers: List[str] = []
    for record in records:
        snapshot = record.get("metrics")
        if not isinstance(snapshot, dict):
            continue
        writer = str(record.get("writer"))
        nonce = record.get("nonce")
        latest[(writer, nonce if isinstance(nonce, str) else "")] = snapshot
        if writer not in writers:
            writers.append(writer)
    return merge_snapshots(latest.values()), sorted(writers)


def snapshot_percentile(record: Dict[str, object], fraction: float) -> Optional[float]:
    """Percentile from a serialised histogram record, or ``None`` if empty."""
    if record.get("type") != "histogram" or not int(record.get("count", 0)):
        return None
    bounds = [float(b) for b in record.get("bounds", [])]
    counts = [int(c) for c in record.get("bucket_counts", [])]
    if not bounds or len(counts) != len(bounds) + 1:
        return None
    return _bucket_percentile(bounds, counts, int(record["count"]), fraction)


def nearest_rank(values: Iterable[float], fraction: float) -> Optional[float]:
    """The nearest-rank percentile: the ``ceil(fraction * n)``-th smallest of
    ``n`` samples (rank clamped to ``1..n``), or ``None`` for no samples.

    The product is rounded to 9 places first, so float noise such as
    ``0.07 * 100 == 7.000000000000001`` cannot push the rank up by one.
    """
    ordered = sorted(values)
    if not ordered:
        return None
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def format_metrics(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Human-readable rendering of a (possibly merged) snapshot."""
    if not snapshot:
        return "metrics: none recorded"
    lines = ["metrics:"]
    for name, record in snapshot.items():
        kind = record.get("type")
        if kind == "histogram":
            count = int(record.get("count", 0))
            total = float(record.get("sum", 0.0))
            mean = total / count if count else 0.0
            p50 = snapshot_percentile(record, 0.50)
            p90 = snapshot_percentile(record, 0.90)
            p99 = snapshot_percentile(record, 0.99)
            detail = f"count={count} mean={mean:.4f}s"
            if p50 is not None and p90 is not None and p99 is not None:
                detail += f" p50={p50:.4f}s p90={p90:.4f}s p99={p99:.4f}s"
            lines.append(f"  {name} (histogram) {detail}")
        else:
            value = float(record.get("value", 0.0))
            rendered = str(int(value)) if value.is_integer() else f"{value:.4f}"
            lines.append(f"  {name} ({kind}) {rendered}")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "process_registry",
    "snapshot_delta",
    "merge_snapshots",
    "nearest_rank",
    "fleet_metrics_from_events",
    "snapshot_percentile",
    "format_metrics",
]
