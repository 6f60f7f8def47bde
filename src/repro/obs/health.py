"""Fleet health: typed per-worker verdicts and one queue record from one read.

``status --cluster`` reports raw facts (heartbeat ages, lease files);
this module folds those facts plus the event log into *verdicts* an
operator (or the ``repro watch`` dashboard, or an alerting gateway) can
act on without re-deriving thresholds: every worker gets one of five
states, the spool queue gets its depth, claim-latency percentiles and
reclaim count, and the fleet gets the worst-worker rollup.

Worker state machine — driven entirely by the heartbeat, with the same
staleness bound reclaim uses (``heartbeat_is_fresh``), so health can never
call a worker dead that reclaim would still respect::

    stopped   heartbeat marked stopped=True (clean shutdown)
    ok        age <= 0.5 * bound
    lagging   age <= bound          (still alive for reclaim purposes)
    stalled   age <= 3 * bound      (reclaimable; process may be wedged)
    dead      age >  3 * bound      (long gone; leases already stolen)

where ``bound = max(WORKER_STALE_SECONDS, 3 * poll_interval)``, per
worker.  The ``lagging``/``stalled`` split matters operationally: a
lagging worker still holds its leases (peers must not steal), a stalled
one is already being reclaimed from.

Queue statistics replay the event log once: claim latency is
``claimed.ts - submitted.ts`` per job, the reclaim count comes from the
``reclaimed`` records, and the queue trend compares submissions against
claims over the newest half of the window (``rising`` / ``falling`` /
``flat``).

Stdlib-only, read-only; service-layer imports happen lazily inside
:func:`collect_fleet_health`, same as :mod:`repro.obs.snapshot`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.events import iter_events
from repro.obs.metrics import nearest_rank

#: Worker states, best to worst (the fleet verdict is the worst present).
STATE_OK = "ok"
STATE_LAGGING = "lagging"
STATE_STALLED = "stalled"
STATE_DEAD = "dead"
STATE_STOPPED = "stopped"

#: Severity order of the rollup; ``stopped`` is informational, not ill.
_SEVERITY = (STATE_OK, STATE_STOPPED, STATE_LAGGING, STATE_STALLED, STATE_DEAD)


@dataclass
class WorkerHealth:
    """One worker's verdict plus the facts that produced it."""

    worker_id: str
    state: str
    heartbeat_age: float = 0.0
    jobs_done: int = 0
    jobs_failed: int = 0
    jobs_reclaimed: int = 0
    throughput_jobs_per_s: float = 0.0
    lease: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "state": self.state,
            "heartbeat_age": round(self.heartbeat_age, 3),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_reclaimed": self.jobs_reclaimed,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "lease": self.lease,
        }


@dataclass
class QueueHealth:
    """The spool queue's depth and claim statistics from the event log."""

    queued: int = 0
    leased: int = 0
    submitted: int = 0
    claims: int = 0
    releases: int = 0
    reclaims: int = 0
    claim_latency_p50: Optional[float] = None
    claim_latency_p95: Optional[float] = None
    queue_trend: str = "flat"

    def to_dict(self) -> Dict[str, object]:
        return {
            "queued": self.queued,
            "leased": self.leased,
            "submitted": self.submitted,
            "claims": self.claims,
            "releases": self.releases,
            "reclaims": self.reclaims,
            "claim_latency_p50": self.claim_latency_p50,
            "claim_latency_p95": self.claim_latency_p95,
            "queue_trend": self.queue_trend,
        }


@dataclass
class FleetHealth:
    """The whole fleet: per-worker verdicts, the queue record, one rollup."""

    verdict: str = "idle"
    workers: Dict[str, WorkerHealth] = field(default_factory=dict)
    queue: QueueHealth = field(default_factory=QueueHealth)

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "workers": {wid: worker.to_dict() for wid, worker in sorted(self.workers.items())},
            "queue": self.queue.to_dict(),
        }


def classify_worker(heartbeat: Dict[str, object], now: Optional[float] = None) -> Tuple[str, float]:
    """``(state, heartbeat_age)`` of one worker heartbeat; see the module doc."""
    if now is None:
        now = time.time()
    age = max(0.0, now - float(heartbeat.get("updated_at", 0.0)))
    if heartbeat.get("stopped"):
        return STATE_STOPPED, age
    # The same bound reclaim's heartbeat_is_fresh uses, looked up lazily to
    # keep this module importable below the service layer.
    from repro.service.spool import WORKER_STALE_SECONDS, liveness_bound

    bound = liveness_bound(heartbeat, WORKER_STALE_SECONDS)
    if age <= 0.5 * bound:
        return STATE_OK, age
    if age <= bound:
        return STATE_LAGGING, age
    if age <= 3.0 * bound:
        return STATE_STALLED, age
    return STATE_DEAD, age


def collect_fleet_health(root: Union[str, Path], now: Optional[float] = None) -> FleetHealth:
    """Fold heartbeats + the event log into one :class:`FleetHealth`.

    Pure reads; meaningful on any root (an event-less, worker-less root
    yields the ``idle`` verdict with empty tables).
    """
    # Lazy imports — the service layer imports repro.obs for its emitters.
    from repro.service.spool import read_worker_heartbeats

    root = Path(root)
    if now is None:
        now = time.time()
    health = FleetHealth()

    for worker_id, heartbeat in read_worker_heartbeats(root).items():
        state, age = classify_worker(heartbeat, now)
        started = float(heartbeat.get("started_at", now))
        updated = float(heartbeat.get("updated_at", now))
        uptime = max(1e-9, updated - started)
        lease = heartbeat.get("lease")
        health.workers[worker_id] = WorkerHealth(
            worker_id=worker_id,
            state=state,
            heartbeat_age=age,
            jobs_done=int(heartbeat.get("jobs_done", 0)),
            jobs_failed=int(heartbeat.get("jobs_failed", 0)),
            jobs_reclaimed=int(heartbeat.get("jobs_reclaimed", 0)),
            throughput_jobs_per_s=round(int(heartbeat.get("jobs_done", 0)) / uptime, 4),
            lease=lease if isinstance(lease, str) else None,
        )

    # One replay of the event log feeds every queue statistic.
    queue = health.queue
    submitted_ts: Dict[str, float] = {}
    latencies: List[float] = []
    flow: List[Tuple[float, int]] = []  # (ts, +1 submit / -1 claim)
    outstanding: set = set()  # jobs submitted, not yet terminal
    leased_jobs: set = set()
    for record in iter_events(root):
        kind = record.get("event")
        job = record.get("job")
        if kind not in ("submitted", "claimed", "released", "reclaimed"):
            continue
        if not isinstance(job, str):
            continue
        ts = float(record.get("ts", 0.0))
        if kind == "submitted":
            queue.submitted += 1
            submitted_ts[job] = ts
            outstanding.add(job)
            flow.append((ts, 1))
        elif kind == "claimed":
            queue.claims += 1
            if job in submitted_ts:
                latencies.append(ts - submitted_ts[job])
            leased_jobs.add(job)
            flow.append((ts, -1))
        elif kind == "reclaimed":
            queue.reclaims += 1
            leased_jobs.discard(job)
            if record.get("status") == "queued":
                flow.append((ts, 1))
        else:  # released
            queue.releases += 1
            leased_jobs.discard(job)
            if record.get("status") == "queued":  # retry requeue: back in line
                flow.append((ts, 1))
            else:
                outstanding.discard(job)

    queue.leased = len(outstanding & leased_jobs)
    queue.queued = len(outstanding) - queue.leased
    if latencies:
        queue.claim_latency_p50 = round(nearest_rank(latencies, 0.50), 6)
        queue.claim_latency_p95 = round(nearest_rank(latencies, 0.95), 6)
    if flow:
        # Trend = net queue movement over the newest half of the window.
        flow.sort(key=lambda entry: entry[0])
        net = sum(delta for _ts, delta in flow[len(flow) // 2 :])
        queue.queue_trend = "rising" if net > 0 else ("falling" if net < 0 else "flat")

    live = [w for w in health.workers.values() if w.state != STATE_STOPPED]
    if live:
        health.verdict = max(
            (worker.state for worker in live), key=_SEVERITY.index
        )
    elif health.workers:
        health.verdict = STATE_STOPPED
    return health


def format_health(health: FleetHealth) -> str:
    """Human-readable rendering (the ``repro status --health`` section)."""
    lines = [f"health: {health.verdict}"]
    for worker_id, worker in sorted(health.workers.items()):
        lease = worker.lease or "-"
        lines.append(
            f"  {worker_id:24s} {worker.state:8s} hb={worker.heartbeat_age:.1f}s "
            f"done={worker.jobs_done} failed={worker.jobs_failed} "
            f"reclaimed={worker.jobs_reclaimed} "
            f"throughput={worker.throughput_jobs_per_s:.2f} jobs/s lease={lease}"
        )
    queue = health.queue
    if queue.submitted or queue.claims or queue.releases or queue.reclaims:
        latency = ""
        if queue.claim_latency_p50 is not None and queue.claim_latency_p95 is not None:
            latency = (
                f" claim_p50={queue.claim_latency_p50:.3f}s"
                f" claim_p95={queue.claim_latency_p95:.3f}s"
            )
        lines.append(
            f"  queue: queued={queue.queued} leased={queue.leased} "
            f"claims={queue.claims} reclaims={queue.reclaims} "
            f"trend={queue.queue_trend}{latency}"
        )
    if len(lines) == 1:
        lines.append("  (no workers or events recorded)")
    return "\n".join(lines)


__all__ = [
    "STATE_OK",
    "STATE_LAGGING",
    "STATE_STALLED",
    "STATE_DEAD",
    "STATE_STOPPED",
    "WorkerHealth",
    "QueueHealth",
    "FleetHealth",
    "classify_worker",
    "collect_fleet_health",
    "format_health",
]
