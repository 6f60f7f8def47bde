"""The ``repro watch`` data layer — stdlib-only, fully testable without Textual.

Everything the dashboard renders comes through one :class:`WatchPoller`:
each ``poll()`` folds the current fleet health, job table and new event
records into a :class:`WatchFrame`, and keeps a bounded history of queue
depth and claim throughput for the sparkline columns.  The
Textual layer (:mod:`repro.watch.app`) is a thin view over these frames;
keeping the model here means every dashboard behaviour — including the
cancel/requeue keyboard actions — has plain synchronous tests that run
in the core (textual-less) install.

The job table and the operator actions go through the spool's own
helpers (:mod:`repro.service.spool`, imported on first use): the table is
:func:`~repro.service.spool.load_jobs`, ``cancel`` is
:func:`~repro.service.spool.request_cancel` (the same marker file ``repro
cancel`` writes), and ``requeue`` flips a failed or cancelled spool record
back to ``queued`` and appends a ``requeued`` event so the audit trail and
status replay both see it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.obs.events import EventCursor, EventLog, format_event, iter_events
from repro.obs.health import FleetHealth, collect_fleet_health

#: Sparkline glyphs, lowest to highest (space = zero / no sample).
SPARK_GLYPHS = " ▁▂▃▄▅▆▇█"

#: Points of history kept for the sparkline columns.
HISTORY_POINTS = 30

#: Events kept in the live tail.
TAIL_EVENTS = 200


def sparkline(values: List[float], width: int = HISTORY_POINTS) -> str:
    """Render ``values`` (newest last) as a fixed-width unicode sparkline."""
    window = values[-width:]
    if not window:
        return " " * width
    peak = max(window)
    glyphs = []
    for value in window:
        if peak <= 0:
            glyphs.append(SPARK_GLYPHS[0])
            continue
        index = int(round((value / peak) * (len(SPARK_GLYPHS) - 1)))
        glyphs.append(SPARK_GLYPHS[max(0, min(index, len(SPARK_GLYPHS) - 1))])
    return "".join(glyphs).rjust(width)


@dataclass
class WatchFrame:
    """One refresh of everything the dashboard shows."""

    health: FleetHealth
    jobs: List[Dict[str, object]] = field(default_factory=list)
    tail: List[Dict[str, object]] = field(default_factory=list)
    queue_history: List[float] = field(default_factory=list)
    claim_history: List[float] = field(default_factory=list)

    def queue_sparkline(self, width: int = HISTORY_POINTS) -> str:
        return sparkline(self.queue_history, width)

    def claim_sparkline(self, width: int = HISTORY_POINTS) -> str:
        return sparkline(self.claim_history, width)


class WatchPoller:
    """Incremental fleet model: call :meth:`poll` once per refresh tick."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._cursor = EventCursor(self.root)
        self._tail: Deque[Dict[str, object]] = deque(maxlen=TAIL_EVENTS)
        self._queue_history: Deque[float] = deque(maxlen=HISTORY_POINTS)
        self._claim_history: Deque[float] = deque(maxlen=HISTORY_POINTS)
        self._claims_seen = 0

    def poll(self) -> WatchFrame:
        """Fold new events + current health/jobs into the next frame."""
        self._tail.extend(self._cursor.poll())
        health = collect_fleet_health(self.root)
        queue = health.queue
        self._queue_history.append(float(queue.queued))
        self._claim_history.append(float(max(0, queue.claims - self._claims_seen)))
        self._claims_seen = queue.claims
        return WatchFrame(
            health=health,
            jobs=read_job_table(self.root),
            tail=list(self._tail),
            queue_history=list(self._queue_history),
            claim_history=list(self._claim_history),
        )


def read_job_table(root: Union[str, Path]) -> List[Dict[str, object]]:
    """Every spool job record, newest submissions last."""
    from repro.service.spool import load_jobs

    jobs = sorted(load_jobs(root), key=lambda job: job.created_at)
    return [job.to_dict() for job in jobs]


def job_audit(root: Union[str, Path], job_id: str) -> List[str]:
    """The formatted claim/release/reclaim audit trail of one job."""
    return [format_event(record) for record in iter_events(root, job_id=job_id)]


def cancel_job(root: Union[str, Path], job_id: str) -> bool:
    """Request cancellation (same marker ``repro cancel`` writes)."""
    from repro.service.spool import request_cancel

    return request_cancel(root, job_id)


def requeue_job(root: Union[str, Path], job_id: str) -> bool:
    """Flip a failed/cancelled spool record back to ``queued``.

    Returns False when the job does not exist or is not in a terminal
    state an operator can sensibly retry.  Appends a ``requeued`` event so
    the audit trail and ``job_statuses_from_events`` replay both agree.
    """
    from repro.service.spool import cancel_path, job_path, load_job, write_job_record

    path = job_path(root, job_id)
    job = load_job(path)
    if job is None or job.status not in ("failed", "cancelled"):
        return False
    job.status = "queued"
    job.attempts = 0
    job.cancel_requested = False
    job.error = None
    write_job_record(path, job)
    # A lingering cancel marker would re-cancel the job instantly.
    try:
        cancel_path(root, job_id).unlink()
    except OSError:
        pass
    EventLog(root, writer="watch").emit("requeued", job=job_id)
    return True


def format_lease(lease: Optional[str]) -> str:
    """Tabular rendering of a worker's current lease."""
    return lease if lease else "-"


def frame_summary(frame: WatchFrame) -> Tuple[str, int, int]:
    """``(verdict, live_workers, total_jobs)`` headline for the dashboard."""
    live = sum(1 for worker in frame.health.workers.values() if worker.state != "stopped")
    return frame.health.verdict, live, len(frame.jobs)


__all__ = [
    "HISTORY_POINTS",
    "SPARK_GLYPHS",
    "TAIL_EVENTS",
    "WatchFrame",
    "WatchPoller",
    "cancel_job",
    "format_lease",
    "frame_summary",
    "job_audit",
    "read_job_table",
    "requeue_job",
    "sparkline",
]
