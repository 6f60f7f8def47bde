"""The file-based job spool and its client helpers.

One directory is the whole service state, so ``repro submit`` / ``status`` /
``cancel`` / ``gc`` work from any process with no network stack::

    <root>/
        store/                # ResultStore (persistent solution tier)
        jobs/<job_id>.json    # one Job record each (atomic writes)
        jobs/<job_id>.cancel  # cancellation marker dropped by `repro cancel`
        leases/<worker>/<job_id>.json  # records claimed by a cluster worker
        workers/doorbell      # FIFO that wakes idle workers after a submit

Every spool path is computed by the helpers below; nothing else assumes
where a job record, cancel marker, lease file or the doorbell lives.

Submitters drop ``queued`` job records into ``jobs/`` and then ring the
doorbell.  The only consumer is the lease-claiming
:class:`~repro.service.cluster.ClusterWorker`: ``repro serve`` runs one
in-process, ``repro serve --workers K`` supervises K of them.  The
doorbell only says "look now"; the spool stays the one source of truth,
so a missed ring costs an idle worker at most one poll interval.

A worker that dies mid-job leaves its lease behind; any worker reclaims it
once the lease TTL has passed and the owner's heartbeat is stale (attempt
count preserved), so at-least-once execution holds across crashes — and
is harmless, because results are content-addressed and idempotent.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.events import EventLog, event_log_for
from repro.obs.snapshot import ServiceSnapshot
from repro.service.queue import Job
from repro.service.scenarios import scenario_spec
from repro.service.store import atomic_write_text, evict_lru_blobs

#: Gateway heartbeats older than this are reported as a dead/stale process.
STALE_HEARTBEAT_SECONDS = 10.0

#: Worker heartbeats older than this are stale: tighter than the gateway's
#: bound, because crashed workers should be detected — and their leases
#: reclaimed — promptly.
WORKER_STALE_SECONDS = 5.0

#: Doorbell errors a submitter ignores: no worker holds the FIFO open
#: (ENXIO), the pipe is full so a ring is already pending (EAGAIN), or no
#: worker has created it yet (ENOENT).
_QUIET_DOORBELL_ERRORS = (errno.ENXIO, errno.EAGAIN, errno.ENOENT)


def heartbeat_is_fresh(heartbeat: Dict[str, object], stale_seconds: float) -> bool:
    """Whether a heartbeat indicates a live process: the one liveness rule.

    A ``stopped`` heartbeat is never fresh.  Otherwise the heartbeat is
    fresh while younger than ``stale_seconds`` -- the gateway passes
    :data:`STALE_HEARTBEAT_SECONDS`, workers :data:`WORKER_STALE_SECONDS`
    -- or, for a slow-polling process that heartbeats rarely, three poll
    intervals.
    """
    if heartbeat.get("stopped"):
        return False
    age = time.time() - float(heartbeat.get("updated_at", 0.0))
    return age < max(stale_seconds, 3.0 * float(heartbeat.get("poll_interval", 0.0)))


def _jobs_dir(root: Union[str, Path]) -> Path:
    return Path(root) / "jobs"


def job_path(root: Union[str, Path], job_id: str) -> Path:
    """Spool record of one job (queued or terminal)."""
    return _jobs_dir(root) / f"{job_id}.json"


def cancel_path(root: Union[str, Path], job_id: str) -> Path:
    """Cancellation marker of one job; it lives beside the job's record."""
    return _jobs_dir(root) / f"{job_id}.cancel"


def leases_dir(root: Union[str, Path]) -> Path:
    """Parent of every worker's lease directory."""
    return Path(root) / "leases"


def lease_files(root: Union[str, Path], job_id: str) -> List[Path]:
    """Every worker's lease file for one job (at most one, normally)."""
    directory = leases_dir(root)
    if not directory.exists():
        return []
    return sorted(directory.glob(f"*/{job_id}.json"))


def iter_lease_files(root: Union[str, Path]) -> Iterator[Tuple[Path, str]]:
    """Yield ``(path, worker_id)`` for every lease file, in path order."""
    directory = leases_dir(root)
    if not directory.exists():
        return
    for path in sorted(directory.glob("*/*.json")):
        if path.is_file():
            yield path, path.parent.name


def doorbell_path(root: Union[str, Path]) -> Path:
    """The FIFO idle workers wait on; submitters write one byte to it."""
    return Path(root) / "workers" / "doorbell"


def ring_doorbell(root: Union[str, Path]) -> None:
    """Wake idle workers after a submit, without ever blocking or failing.

    One non-blocking write of one byte.  A missing FIFO, a FIFO no worker
    holds open, and a full pipe are all ignored: the records are already
    in the spool, and workers fall back to polling it.  A path that is not
    a FIFO is left untouched (the workers report it as
    ``doorbell-unavailable``).
    """
    try:
        fd = os.open(doorbell_path(root), os.O_WRONLY | os.O_NONBLOCK)
        try:
            if stat.S_ISFIFO(os.fstat(fd).st_mode):
                os.write(fd, b"\0")
        finally:
            os.close(fd)
    except OSError as error:
        if error.errno not in _QUIET_DOORBELL_ERRORS:
            raise


def refuse_sharded_root(root: Union[str, Path]) -> None:
    """Raise :class:`RuntimeError` if ``root`` holds a sharded spool.

    The previous release stamped ``shards.json`` =
    ``{"layout_version": 1, "shards": 1}`` on every root it served, flat
    ones included; such a root is flat and is served as it is.  A marker
    with more shards, another version or an unreadable count means the
    jobs sit in per-shard directories this release never reads.  Called
    once where a root is opened, never per job.
    """
    path = Path(root) / "shards.json"
    try:
        marker = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return
    except (OSError, ValueError):
        marker = None
    if isinstance(marker, dict) and marker.get("layout_version") == 1 and marker.get("shards") == 1:
        return
    raise RuntimeError(
        f"{root} holds a sharded spool ({path.name} = {marker!r}), which this "
        f"release cannot serve; drain it with the previous release and delete "
        f"{path.name}, or migrate it back to one shard with the previous "
        f"release's `repro serve --root {root} --shards 1`"
    )


def _round_latency(latency: Optional[float]) -> Optional[float]:
    """Round a submit-to-finish latency for event emission (``None`` passes)."""
    return None if latency is None else round(latency, 6)


def _spool_record_paths(root: Path, pattern: str = "*.json") -> List[Path]:
    """Matching spool files, sorted by file name."""
    directory = _jobs_dir(root)
    return sorted(directory.glob(pattern)) if directory.exists() else []


def _load_jobs(root: Path) -> List[Job]:
    jobs = []
    for path in _spool_record_paths(root):
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

    The one write path behind ``submit_job``, both loadgens and the
    gateway's group commit: the root is checked once, the spool directory
    is created once, one event-log handle emits every ``submitted`` event,
    and one doorbell ring wakes idle workers once the records have landed
    -- so a burst of N submissions does not pay N times the per-submission
    setup cost on the atomic-rename hot path.

    The whole batch is validated (scenario, params, duplicate job ids —
    against the spool *and* within the batch) before any record is
    written; a bad request therefore rejects the batch with nothing
    half-submitted.  Pass ``events`` to attribute the ``submitted``
    events to a specific writer (the gateway does); the default is this
    process's shared client log.
    """
    root = Path(root)
    refuse_sharded_root(root)
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
        if job.job_id in seen_ids or job_path(root, job.job_id).exists():
            raise ValueError(f"job id {job.job_id!r} already exists in {root}")
        seen_ids.add(job.job_id)
        jobs.append(job)
    log = events if events is not None else event_log_for(root)
    _jobs_dir(root).mkdir(parents=True, exist_ok=True)
    for job in jobs:
        atomic_write_text(job_path(root, job.job_id), json.dumps(job.to_dict(), indent=2) + "\n")
        log.emit("submitted", job=job.job_id, scenario=job.scenario, priority=job.priority)
    ring_doorbell(root)
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
    try:
        job = Job.from_dict(json.loads(job_path(root, job_id).read_text(encoding="utf-8")))
    except FileNotFoundError:
        # Claimed by a cluster worker?  The record then lives in a lease.
        if not lease_files(root, job_id):
            return False
        job = None
    except (OSError, json.JSONDecodeError, KeyError, ValueError):
        job = None
    if job is not None and job.is_terminal:
        return False
    marker = cancel_path(root, job_id)
    marker.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(marker, "")
    event_log_for(root).emit("cancel-requested", job=job_id)
    return True


def wait_for_job(
    root: Union[str, Path], job_id: str, timeout: float = 60.0, interval: float = 0.2
) -> Job:
    """Poll the spool until the job reaches a terminal status.

    Raises ``TimeoutError`` when the deadline passes first (the job record's
    last observed state is attached to the message).
    """
    path = job_path(root, job_id)
    deadline = time.monotonic() + timeout
    job: Optional[Job] = None
    while True:
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
    for path, _worker_id in iter_lease_files(root):
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
    removed = 0
    workers_dir = root / "workers"
    for heartbeat_path in sorted(workers_dir.glob("*.json")) if workers_dir.exists() else []:
        try:
            heartbeat = json.loads(heartbeat_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(heartbeat, dict) or heartbeat_is_fresh(heartbeat, WORKER_STALE_SECONDS):
            continue
        lease_dir = leases_dir(root) / heartbeat_path.stem
        if lease_dir.exists():
            try:
                lease_dir.rmdir()  # only ever removes an *empty* directory
            except OSError:
                continue  # stale leases pending reclaim; keep the heartbeat
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
    evicted = 0
    if max_bytes is not None and (root / "store").exists():
        evicted, _total = evict_lru_blobs(root / "store" / "blobs", max_bytes)
    purged = 0
    if purge_jobs and _jobs_dir(root).exists():
        for job in _load_jobs(root):
            if job.is_terminal:
                try:
                    job_path(root, job.job_id).unlink()
                    purged += 1
                except OSError:
                    pass
        # Orphaned cancel markers (their job finished before the cancel was
        # seen, or was purged above) would instantly cancel a future
        # resubmission reusing the id; sweep them with the records.  A
        # marker whose job is claimed under a cluster lease is *pending*,
        # not orphaned — the leaseholder honours it at its next batch
        # boundary, so it must survive the sweep.
        for marker in _spool_record_paths(root, "*.cancel"):
            if job_path(root, marker.stem).exists():
                continue
            if lease_files(root, marker.stem):
                continue
            try:
                marker.unlink()
            except OSError:
                pass
    purged_workers = _sweep_dead_workers(root)
    result = {"evicted_blobs": evicted, "purged_jobs": purged, "purged_workers": purged_workers}
    event_log_for(root).emit("gc", **result)
    return result
