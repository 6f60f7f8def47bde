"""The file-based job spool and its client helpers.

One directory is the whole service state, so ``repro submit`` / ``status`` /
``cancel`` / ``gc`` work from any process with no network stack::

    <root>/
        store/                # ResultStore (persistent solution tier)
        jobs/<job_id>.json    # one Job record each (atomic writes)
        jobs/<job_id>.cancel  # cancellation marker dropped by `repro cancel`

On a sharded root (``repro serve --shards N``, see
:mod:`repro.service.sharding`) the spool splits into hash-assigned shard
directories — ``jobs/s00/<job_id>.json`` etc., recorded by a
``shards.json`` marker — and all spool paths below go through the root's
:class:`~repro.service.sharding.SpoolLayout`.  A flat root is simply the
1-shard layout.

Submitters drop ``queued`` job records into ``jobs/``.  The only consumer is
the lease-claiming :class:`~repro.service.cluster.ClusterWorker`: ``repro
serve`` runs one in-process, ``repro serve --workers K`` supervises K of
them.  A worker that dies mid-job leaves its lease behind; any worker
reclaims it once the lease TTL has passed and the owner's heartbeat is
stale (attempt count preserved), so at-least-once execution holds across
crashes — and is harmless, because results are content-addressed and
idempotent.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.events import EventLog, event_log_for
from repro.obs.snapshot import ServiceSnapshot
from repro.service.queue import Job
from repro.service.scenarios import scenario_spec
from repro.service.sharding import SpoolLayout, read_layout
from repro.service.store import atomic_write_text, evict_lru_blobs

#: Heartbeats older than this are reported as a dead/stale process.
STALE_HEARTBEAT_SECONDS = 10.0


def heartbeat_is_fresh(heartbeat: Dict[str, object]) -> bool:
    """Whether a ``gateway.json`` heartbeat indicates a live gateway.

    A ``stopped`` heartbeat is never fresh, and a slow-polling process
    heartbeats rarely, so the age threshold scales with its poll interval.
    """
    if heartbeat.get("stopped"):
        return False
    age = time.time() - float(heartbeat.get("updated_at", 0.0))
    return age < max(STALE_HEARTBEAT_SECONDS, 3.0 * float(heartbeat.get("poll_interval", 0.0)))


def _jobs_dir(root: Path) -> Path:
    """Base spool directory (shard subdirectories live under it when sharded)."""
    return root / "jobs"


def _round_latency(latency: Optional[float]) -> Optional[float]:
    """Round a submit-to-finish latency for event emission (``None`` passes)."""
    return None if latency is None else round(latency, 6)


def _write_job(layout: SpoolLayout, job: Job) -> None:
    atomic_write_text(layout.job_path(job.job_id), json.dumps(job.to_dict(), indent=2) + "\n")


def _spool_record_paths(layout: SpoolLayout, pattern: str = "*.json") -> List[Path]:
    """Matching spool files across every shard, sorted by file name."""
    paths: List[Path] = []
    for directory in layout.jobs_dirs():
        if directory.exists():
            paths.extend(directory.glob(pattern))
    return sorted(paths, key=lambda path: path.name)


def _load_jobs(root: Path) -> List[Job]:
    jobs = []
    for path in _spool_record_paths(read_layout(root)):
        try:
            jobs.append(Job.from_dict(json.loads(path.read_text(encoding="utf-8"))))
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            continue  # half-written or foreign file; the owner will rewrite it
    return jobs


# -- client-side helpers (used by the CLI verbs) ---------------------------------------


@dataclass
class SubmitRequest:
    """One validated-on-submit job submission (the unit `submit_jobs` batches)."""

    scenario: str
    params: Optional[Dict[str, object]] = None
    priority: int = 0
    max_attempts: int = 2
    job_id: Optional[str] = None


def submit_jobs(
    root: Union[str, Path],
    requests: List[SubmitRequest],
    events: Optional[EventLog] = None,
) -> List[Job]:
    """Validate and drop a batch of job records into the spool.

    The batched entry point behind both ``submit_job`` and the gateway's
    micro-batcher: the spool layout is read once, shard directories are
    created once each, and one event-log handle emits every ``submitted``
    event — so a burst of N submissions does not pay N times the
    per-submission setup cost on the atomic-rename hot path.

    The whole batch is validated (scenario, params, duplicate job ids —
    against the spool *and* within the batch) before any record is
    written; a bad request therefore rejects the batch with nothing
    half-submitted.  Pass ``events`` to attribute the ``submitted``
    events to a specific writer (the gateway does); the default is this
    process's shared client log.
    """
    root = Path(root)
    layout = read_layout(root)
    jobs: List[Job] = []
    seen_ids: set = set()
    for request in requests:
        params = dict(request.params or {})
        scenario_spec(request.scenario).with_params(params)  # fail fast, before any write
        job = Job(
            job_id=request.job_id or f"{request.scenario}-{uuid.uuid4().hex[:8]}",
            scenario=request.scenario,
            params=params,
            priority=request.priority,
            max_attempts=request.max_attempts,
        )
        if job.job_id in seen_ids or layout.job_path(job.job_id).exists():
            raise ValueError(f"job id {job.job_id!r} already exists in {root}")
        seen_ids.add(job.job_id)
        jobs.append(job)
    log = events if events is not None else event_log_for(root)
    made_dirs: set = set()
    for job in jobs:
        record = layout.job_path(job.job_id)
        if record.parent not in made_dirs:
            record.parent.mkdir(parents=True, exist_ok=True)
            made_dirs.add(record.parent)
        _write_job(layout, job)
        log.emit(
            "submitted",
            job=job.job_id,
            scenario=job.scenario,
            priority=job.priority,
            shard=layout.shard_tag(job.job_id),
        )
    return jobs


def submit_job(
    root: Union[str, Path],
    scenario: str,
    params: Optional[Dict[str, object]] = None,
    priority: int = 0,
    max_attempts: int = 2,
    job_id: Optional[str] = None,
) -> Job:
    """Validate and drop one job record into the spool; returns the job."""
    request = SubmitRequest(
        scenario=scenario,
        params=params,
        priority=priority,
        max_attempts=max_attempts,
        job_id=job_id,
    )
    return submit_jobs(root, [request])[0]


def request_cancel(root: Union[str, Path], job_id: str) -> bool:
    """Drop a cancellation marker; True when the job can still be cancelled.

    Missing and already-finished jobs return False without writing a marker
    — reporting success for a job nothing can cancel would mislead the
    operator and leave a stray marker in the spool.  A record that cannot
    be parsed (caught mid-rewrite) is assumed active.  A job absent from
    ``jobs/`` but held under a cluster worker's lease is running — the
    marker is written and the leaseholder honours it at its next batch
    boundary.
    """
    root = Path(root)
    layout = read_layout(root)
    path = layout.job_path(job_id)
    try:
        job = Job.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except FileNotFoundError:
        # Claimed by a cluster worker?  The record then lives in a lease.
        if not layout.lease_files(job_id):
            return False
        job = None
    except (OSError, json.JSONDecodeError, KeyError, ValueError):
        job = None
    if job is not None and job.is_terminal:
        return False
    marker = layout.cancel_path(job_id)
    marker.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(marker, "")
    event_log_for(root).emit("cancel-requested", job=job_id, shard=layout.shard_tag(job_id))
    return True


def wait_for_job(
    root: Union[str, Path], job_id: str, timeout: float = 60.0, interval: float = 0.2
) -> Job:
    """Poll the spool until the job reaches a terminal status.

    Raises ``TimeoutError`` when the deadline passes first (the job record's
    last observed state is attached to the message).
    """
    root = Path(root)
    deadline = time.monotonic() + timeout
    job: Optional[Job] = None
    while True:
        # Re-resolve the layout each poll: a `serve --shards N` migration
        # may legitimately move the record mid-wait.
        path = read_layout(root).job_path(job_id)
        try:
            job = Job.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            job = None  # missing or mid-rewrite; retry
        if job is not None and job.is_terminal:
            return job
        remaining = deadline - time.monotonic()
        # The read comes first and the loop exits *after* a final read, so a
        # job finishing during the last sleep is still reported as finished.
        if remaining <= 0:
            break
        time.sleep(min(interval, remaining))
    state = "missing" if job is None else job.status
    raise TimeoutError(f"job {job_id!r} still {state} after {timeout:.1f}s")


def _load_leased_jobs(root: Path) -> List[Job]:
    """Jobs currently held under cluster worker leases (all ``running``)."""
    jobs: List[Job] = []
    for path, _worker_id, _shard in read_layout(root).iter_lease_files():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            record = payload.get("job", payload) if isinstance(payload, dict) else None
            jobs.append(Job.from_dict(record))
        except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError):
            continue  # mid-claim or mid-rewrite; the next status call sees it
    return jobs


def service_status(root: Union[str, Path], with_health: bool = False) -> Dict[str, object]:
    """Snapshot of the whole service directory (jobs, workers, store, cache).

    Pure reads — safe to call while workers are serving, and meaningful when
    none is (job records speak for themselves).  Jobs claimed under leases
    are reported as ``running``, and once any worker has served the root a
    ``cluster`` section carries per-worker liveness, throughput and the
    active leases.

    Thin wrapper over :class:`repro.obs.snapshot.ServiceSnapshot` — the one
    typed structure behind ``status``, ``status --cluster`` and ``status
    --json``; the returned dict shape is the snapshot's ``to_dict``.
    ``with_health=True``
    additionally folds the fleet health model in (a ``health`` key appears
    in the returned dict only when requested).
    """
    return ServiceSnapshot.collect(root, with_health=with_health).to_dict()


def _sweep_dead_workers(root: Path) -> int:
    """Remove heartbeats + empty lease dirs of workers that are gone.

    Every worker process leaves a uuid-suffixed heartbeat and lease
    directory behind; on a long-lived root these grow with restart churn,
    and the reclaim scan and ``status --cluster`` pay for all of them
    forever.  Only workers that are *not* alive are swept, and only once
    their lease directory is empty — pending leases keep both so reclaim
    still sees the owner's staleness.  Returns heartbeats removed.
    """
    # Imported lazily: the cluster module builds on this one.
    from repro.service.cluster import worker_is_alive

    removed = 0
    layout = read_layout(root)
    workers_dir = root / "workers"
    for heartbeat_path in sorted(workers_dir.glob("*.json")) if workers_dir.exists() else []:
        try:
            heartbeat = json.loads(heartbeat_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(heartbeat, dict) or worker_is_alive(heartbeat):
            continue
        # A worker holds one lease directory per shard; the heartbeat may
        # only go once every one of them is empty (or already gone) — a
        # pending lease in *any* shard still needs the owner's staleness.
        blocked = False
        for lease_dir in layout.worker_lease_dirs(heartbeat_path.stem):
            if not lease_dir.exists():
                continue
            try:
                lease_dir.rmdir()  # only ever removes an *empty* directory
            except OSError:
                blocked = True
                break  # stale leases pending reclaim; keep the heartbeat
        if blocked:
            continue
        try:
            heartbeat_path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def gc_service(
    root: Union[str, Path],
    max_bytes: Optional[int] = None,
    purge_jobs: bool = False,
) -> Dict[str, int]:
    """Evict the store down to ``max_bytes`` and optionally purge old jobs.

    ``purge_jobs`` removes the records of terminal jobs (their results are
    gone from ``repro status`` afterwards — the solved layouts themselves
    stay in the store).  Dead cluster workers' heartbeats and empty lease
    directories are always swept (live workers and pending leases are
    untouchable).  Returns ``{"evicted_blobs", "purged_jobs",
    "purged_workers"}``.

    Eviction works on the blob files directly (:func:`evict_lru_blobs`)
    rather than opening a :class:`ResultStore` — opening rewrites metadata
    and clears the blobs wholesale on a version mismatch, which a
    maintenance command run from a different checkout must never do to a
    live worker's cache.
    """
    root = Path(root)
    layout = read_layout(root)
    evicted = 0
    if max_bytes is not None and (root / "store").exists():
        evicted, _total = evict_lru_blobs(root / "store" / "blobs", max_bytes)
    purged = 0
    if purge_jobs and _jobs_dir(root).exists():
        for job in _load_jobs(root):
            if job.is_terminal:
                try:
                    layout.job_path(job.job_id).unlink()
                    purged += 1
                except OSError:
                    pass
        # Orphaned cancel markers (their job finished before the cancel was
        # seen, or was purged above) would instantly cancel a future
        # resubmission reusing the id; sweep them with the records — across
        # *every* shard, since a marker lives beside its job's record.  A
        # marker whose job is claimed under a cluster lease is *pending*,
        # not orphaned — the leaseholder honours it at its next batch
        # boundary, so it must survive the sweep.
        for marker in _spool_record_paths(layout, "*.cancel"):
            if layout.job_path(marker.stem).exists():
                continue
            if layout.lease_files(marker.stem):
                continue
            try:
                marker.unlink()
            except OSError:
                pass
    purged_workers = _sweep_dead_workers(root)
    result = {"evicted_blobs": evicted, "purged_jobs": purged, "purged_workers": purged_workers}
    event_log_for(root).emit("gc", **result)
    return result
