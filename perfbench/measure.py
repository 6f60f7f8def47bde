"""Summary statistics and process measurements shared by every workload."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


@dataclass
class Tally:
    """Operations attempted, and the checks each one failed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample (0.0 for an empty one)."""
    data = list(values)
    return statistics.median(data) if data else 0.0


def tail_percentile(values: Iterable[float]) -> Optional[Tuple[int, float, int]]:
    """The highest whole percentile with ``TAIL_MIN_BEYOND`` samples above it.

    Returns ``(percent, value, samples)``, or ``None`` when even the median
    leaves fewer samples than that beyond it.  "Beyond" counts the samples
    ranked after the percentile's nearest-rank position.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percent in range(99, 49, -1):
        rank = max(1, math.ceil(percent / 100.0 * count))
        if count - rank >= TAIL_MIN_BEYOND:
            return percent, ordered[rank - 1], count
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def schedule_lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each request left relative to its due time (never negative)."""
    return [max(0.0, actual - planned) for planned, actual in zip(due, sent)]


def reset_peak_rss() -> None:
    """Reset this process's peak-RSS watermark (Linux; a no-op elsewhere)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size of a process in MiB (``VmHWM``).

    Falls back to ``ru_maxrss`` of this process when ``/proc`` is missing.
    """
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid != "self":
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
