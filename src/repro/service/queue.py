"""Job records of the service layer.

A :class:`Job` is one unit of service work — a named scenario instantiation
(the scenario registry turns it into concrete panel tasks at execution time,
so job records stay small, picklable and JSON-serialisable for the disk
spool).  Its lifecycle is ``queued → running → done`` / ``failed`` /
``cancelled``; the spool files and worker leases of
:mod:`repro.service.cluster` carry it between those states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Every status a job can be in.  Terminal statuses are ``done``, ``failed``
#: and ``cancelled``.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Statuses a job never leaves.
TERMINAL_STATUSES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One schedulable unit of service work.

    Attributes
    ----------
    job_id:
        Unique identifier (the spool filename stem).
    scenario:
        Name of a registered scenario (see :mod:`repro.service.scenarios`).
    params:
        Scenario parameter overrides (seed, panel count, effort, ...).
    priority:
        Higher runs first; equal priorities run in submission order.
    status:
        One of :data:`JOB_STATUSES`.
    attempts:
        How many executions have started (retries increment it).
    max_attempts:
        Executions allowed before the job is marked ``failed``.
    error:
        Message of the last failure, if any.
    result:
        Summary of a finished execution (panel counts, shields, cache
        traffic); populated by the scheduler.
    cancel_requested:
        Cooperative-cancellation flag the scheduler checks between batches.
    created_at:
        Submission timestamp; end-to-end latency is measured from it.
    executions:
        Audit trail of claims: one ``{"worker", "attempt", "claimed_at"[,
        "finished_at"]}`` entry per execution start.  A cleanly-served job
        has exactly one entry — the exactly-once evidence the cluster CI
        job checks — while a job reclaimed from a dead worker shows the
        lost attempt as an entry with no ``finished_at``.
    """

    job_id: str
    scenario: str
    params: Dict[str, object] = field(default_factory=dict)
    priority: int = 0
    status: str = "queued"
    attempts: int = 0
    max_attempts: int = 2
    error: Optional[str] = None
    result: Optional[Dict[str, object]] = None
    cancel_requested: bool = False
    created_at: float = field(default_factory=time.time)
    executions: List[Dict[str, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.status not in JOB_STATUSES:
            raise ValueError(f"unknown job status {self.status!r} (expected one of {JOB_STATUSES})")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {self.max_attempts}")

    @property
    def is_terminal(self) -> bool:
        """True once the job can no longer change status."""
        return self.status in TERMINAL_STATUSES

    def record_claim(self, worker_id: str) -> None:
        """Append one execution entry (call right after ``attempts`` bumps)."""
        self.executions.append(
            {"worker": worker_id, "attempt": self.attempts, "claimed_at": round(time.time(), 6)}
        )

    def finish_execution(self) -> None:
        """Stamp the end of the latest execution, however it ended."""
        if self.executions and "finished_at" not in self.executions[-1]:
            self.executions[-1]["finished_at"] = round(time.time(), 6)

    def latency_seconds(self) -> Optional[float]:
        """Submit-to-finish latency, once the final execution is stamped."""
        if not self.is_terminal:
            return None
        for entry in reversed(self.executions):
            finished = entry.get("finished_at")
            if isinstance(finished, (int, float)):
                return max(0.0, float(finished) - self.created_at)
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable record (the disk-spool format)."""
        return {
            "job_id": self.job_id,
            "scenario": self.scenario,
            "params": dict(self.params),
            "priority": self.priority,
            "status": self.status,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "result": self.result,
            # Persisted so a cancel that landed mid-run survives a worker
            # crash: the lease reclaim resolves the job to ``cancelled``.
            "cancel_requested": self.cancel_requested,
            "created_at": self.created_at,
            "executions": [dict(entry) for entry in self.executions],
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Job":
        """Rebuild a job from its spool record."""
        return cls(
            job_id=str(record["job_id"]),
            scenario=str(record["scenario"]),
            params=dict(record.get("params") or {}),
            priority=int(record.get("priority", 0)),
            status=str(record.get("status", "queued")),
            attempts=int(record.get("attempts", 0)),
            max_attempts=int(record.get("max_attempts", 2)),
            error=record.get("error"),  # type: ignore[arg-type]
            result=record.get("result"),  # type: ignore[arg-type]
            cancel_requested=bool(record.get("cancel_requested", False)),
            created_at=float(record.get("created_at", 0.0)),
            executions=[dict(entry) for entry in record.get("executions") or []],
        )
