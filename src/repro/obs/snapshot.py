"""Typed status snapshots of a service root.

``repro status``, ``status --cluster`` and ``status --json`` used to render
three hand-built dicts; this module gives them one shared, typed structure:
:class:`ServiceSnapshot` (the whole root), :class:`ClusterSnapshot` /
:class:`WorkerSnapshot` / :class:`LeaseSnapshot`, :class:`GatewaySnapshot`
and :class:`StoreSnapshot`.  ``service_status`` in
:mod:`repro.service.spool` is a thin wrapper over
:meth:`ServiceSnapshot.collect(...).to_dict()`, so every consumer (CLI
renderers, tests, scripts parsing ``status --json``) reads one shape.

Job status can be derived two ways:

* **from the spool** (authoritative): read every ``jobs/*.json`` record —
  what :meth:`ServiceSnapshot.collect` does;
* **from the event log** (cheap): replay submitted/claimed/released/
  reclaimed events into per-job statuses (:func:`job_statuses_from_events`)
  — no spool scan at all.  On a settled root the two agree, which the
  obs test-suite asserts; live readers like ``repro events --follow`` and
  loadgen use the log, while ``status`` keeps the spool as truth.

Imports from the service layer happen lazily inside functions: the service
modules import :mod:`repro.obs` for emitters, and this module is the one
place obs looks back, so the cycle is broken at call time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.obs.events import events_dir, iter_events

if TYPE_CHECKING:  # health imports this module at runtime; we only need types
    from repro.obs.health import FleetHealth

#: Event types that change a job's status, in replay order.
_STATUS_EVENTS = ("submitted", "claimed", "released", "reclaimed", "requeued")


@dataclass
class WorkerSnapshot:
    """One cluster worker's liveness and throughput."""

    worker_id: str
    alive: bool = False
    heartbeat_age: float = 0.0
    throughput_jobs_per_s: float = 0.0
    heartbeat: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "alive": self.alive,
            "heartbeat_age": self.heartbeat_age,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "heartbeat": self.heartbeat,
        }


@dataclass
class LeaseSnapshot:
    """One active lease (a job claimed by a worker)."""

    job_id: str
    worker_id: str
    age_seconds: float = 0.0
    expires_in: float = 0.0
    attempts: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "worker_id": self.worker_id,
            "age_seconds": self.age_seconds,
            "expires_in": self.expires_in,
            "attempts": self.attempts,
        }


@dataclass
class ClusterSnapshot:
    """Fleet view: workers keyed by id plus active leases."""

    workers: Dict[str, WorkerSnapshot] = field(default_factory=dict)
    leases: List[LeaseSnapshot] = field(default_factory=list)

    @property
    def alive_workers(self) -> List[WorkerSnapshot]:
        return [worker for worker in self.workers.values() if worker.alive]

    def to_dict(self) -> Dict[str, object]:
        return {
            "workers": {wid: worker.to_dict() for wid, worker in self.workers.items()},
            "leases": [lease.to_dict() for lease in self.leases],
        }


@dataclass
class GatewaySnapshot:
    """Liveness of the root's HTTP gateway (``gateway.json`` heartbeat)."""

    alive: bool = False
    heartbeat_age: Optional[float] = None
    heartbeat: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "alive": self.alive,
            "heartbeat_age": self.heartbeat_age,
            "heartbeat": self.heartbeat,
        }


@dataclass
class StoreSnapshot:
    """Persistent result-store footprint (blob files on disk)."""

    entries: int = 0
    bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"entries": self.entries, "bytes": self.bytes}


@dataclass
class ServiceSnapshot:
    """Everything ``repro status`` shows, as one typed object.

    ``health`` is the opt-in fleet-health section (``collect(...,
    with_health=True)``); it stays ``None`` — and *absent* from
    ``to_dict`` — by default, so the historical ``service_status`` JSON
    shape is preserved for every pre-health consumer.  ``gateway``
    follows the same rule: present only on roots where a gateway has
    ever written its ``gateway.json`` heartbeat.
    """

    root: str
    job_counts: Dict[str, int] = field(default_factory=dict)
    job_records: List[Dict[str, object]] = field(default_factory=list)
    cache_totals: Dict[str, int] = field(default_factory=dict)
    store: Optional[StoreSnapshot] = None
    cluster: Optional[ClusterSnapshot] = None
    health: Optional["FleetHealth"] = None
    gateway: Optional[GatewaySnapshot] = None

    def to_dict(self) -> Dict[str, object]:
        """The ``service_status`` JSON shape."""
        payload: Dict[str, object] = {
            "root": self.root,
            "jobs": {"counts": self.job_counts, "records": self.job_records},
            "cache_totals": self.cache_totals,
            "store": self.store.to_dict() if self.store is not None else None,
            "cluster": self.cluster.to_dict() if self.cluster is not None else None,
        }
        if self.health is not None:
            payload["health"] = self.health.to_dict()
        if self.gateway is not None:
            payload["gateway"] = self.gateway.to_dict()
        return payload

    @classmethod
    def collect(cls, root: Union[str, Path], with_health: bool = False) -> "ServiceSnapshot":
        """Snapshot a root from disk (spool-authoritative; pure reads).

        Safe to call while workers are serving, and meaningful when none is.
        Jobs claimed under leases are reported as ``running`` and the
        ``cluster`` section carries per-worker liveness, throughput and the
        active leases.  ``with_health=True`` adds the
        fleet-health fold (one extra pass over the event log).
        """
        # Lazy import: the service layer imports repro.obs for its emitters.
        from repro.service.spool import load_jobs, load_leased_jobs
        from repro.service.store import blob_disk_usage

        root = Path(root)
        jobs = load_jobs(root)
        # A job caught in the release-crash window exists both as a terminal
        # spool record and a stale lease; the spool record is authoritative,
        # so leased records never shadow (or double-count) a spool id.
        known = {job.job_id for job in jobs}
        jobs += [job for job in load_leased_jobs(root) if job.job_id not in known]
        counts: Dict[str, int] = {}
        cache_totals = {"hits": 0, "misses": 0, "store_hits": 0}
        for job in jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
            cache = (job.result or {}).get("cache") if isinstance(job.result, dict) else None
            if isinstance(cache, dict):
                for key in cache_totals:
                    cache_totals[key] += int(cache.get(key, 0))

        # Plain directory stats, NOT ResultStore: opening the store can
        # rewrite its metadata (and clear blobs on a version mismatch), and
        # a status command from an older checkout must never touch a live
        # worker's cache.
        store: Optional[StoreSnapshot] = None
        if (root / "store").exists():
            entries, total = blob_disk_usage(root / "store" / "blobs")
            store = StoreSnapshot(entries=entries, bytes=total)

        health = None
        if with_health:
            from repro.obs.health import collect_fleet_health

            health = collect_fleet_health(root)
        return cls(
            root=str(root),
            job_counts=counts,
            job_records=[job.to_dict() for job in jobs],
            cache_totals=cache_totals,
            store=store,
            cluster=collect_cluster(root),
            health=health,
            gateway=collect_gateway(root),
        )


def collect_gateway(root: Union[str, Path]) -> Optional[GatewaySnapshot]:
    """Gateway snapshot, or ``None`` on roots no gateway ever served.

    Gateway heartbeats carry ``poll_interval`` (the heartbeat cadence), which
    the ``heartbeat_is_fresh`` liveness rule scales its threshold by;
    the gateway's staleness bound is ``STALE_HEARTBEAT_SECONDS``.
    """
    # Lazy import — see module docstring.
    from repro.service.spool import (
        STALE_HEARTBEAT_SECONDS,
        heartbeat_is_fresh,
        read_gateway_heartbeat,
    )

    heartbeat = read_gateway_heartbeat(root)
    if heartbeat is None:
        return None
    return GatewaySnapshot(
        alive=heartbeat_is_fresh(heartbeat, STALE_HEARTBEAT_SECONDS),
        heartbeat_age=max(0.0, time.time() - float(heartbeat.get("updated_at", 0.0))),
        heartbeat=heartbeat,
    )


def collect_cluster(root: Union[str, Path]) -> Optional[ClusterSnapshot]:
    """Fleet snapshot, or ``None`` on non-cluster roots."""
    root = Path(root)
    if not (root / "workers").exists() and not (root / "leases").exists():
        return None
    # Lazy import — see module docstring.
    from repro.service.spool import active_leases, read_worker_heartbeats, worker_is_alive

    snapshot = ClusterSnapshot()
    now = time.time()
    for worker_id, heartbeat in read_worker_heartbeats(root).items():
        updated = float(heartbeat.get("updated_at", now))
        started = float(heartbeat.get("started_at", now))
        uptime = max(1e-9, updated - started)
        snapshot.workers[worker_id] = WorkerSnapshot(
            worker_id=worker_id,
            alive=worker_is_alive(heartbeat),
            heartbeat_age=max(0.0, now - float(heartbeat.get("updated_at", 0.0))),
            throughput_jobs_per_s=round(int(heartbeat.get("jobs_done", 0)) / uptime, 4),
            heartbeat=heartbeat,
        )
    for lease in active_leases(root):
        snapshot.leases.append(
            LeaseSnapshot(
                job_id=str(lease.get("job_id", "")),
                worker_id=str(lease.get("worker_id", "")),
                age_seconds=float(lease.get("age_seconds", 0.0)),
                expires_in=float(lease.get("expires_in", 0.0)),
                attempts=int(lease.get("attempts", 0)),
            )
        )
    return snapshot


def job_statuses_from_events(root: Union[str, Path]) -> Optional[Dict[str, str]]:
    """Per-job status replayed from the event log alone (no spool reads).

    Returns ``None`` when the root has no event log (pre-obs roots — callers
    fall back to a spool scan).  Replay rules: ``submitted`` → queued,
    ``claimed`` → running, ``requeued`` (an operator putting a terminal job
    back in line, e.g. from ``repro watch``) → queued,
    ``released``/``reclaimed`` → the status carried by the event (terminal
    statuses stick; a ``released`` back to ``queued`` — a retry — puts the
    job back in line).
    """
    if not events_dir(root).exists():
        return None
    statuses: Dict[str, str] = {}
    for record in iter_events(root):
        event = record.get("event")
        if event not in _STATUS_EVENTS:
            continue
        job_id = record.get("job")
        if not isinstance(job_id, str):
            continue
        if event == "submitted":
            statuses[job_id] = "queued"
        elif event == "claimed":
            statuses[job_id] = "running"
        elif event == "requeued":
            statuses[job_id] = "queued"
        else:  # released / reclaimed carry the resulting status
            status = record.get("status")
            if isinstance(status, str):
                statuses[job_id] = status
    return statuses


def job_counts_from_events(root: Union[str, Path]) -> Optional[Dict[str, int]]:
    """Job counts per status from the log (matches the spool once settled)."""
    statuses = job_statuses_from_events(root)
    if statuses is None:
        return None
    counts: Dict[str, int] = {}
    for status in statuses.values():
        counts[status] = counts.get(status, 0) + 1
    return counts


__all__ = [
    "WorkerSnapshot",
    "LeaseSnapshot",
    "ClusterSnapshot",
    "GatewaySnapshot",
    "StoreSnapshot",
    "ServiceSnapshot",
    "collect_cluster",
    "collect_gateway",
    "job_statuses_from_events",
    "job_counts_from_events",
]
