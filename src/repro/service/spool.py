"""The file spool: job records, their paths and readers, and the client verbs.

One directory is the whole service state, so ``repro submit`` / ``status`` /
``cancel`` / ``gc`` work from any process with no network stack::

    <root>/
        store/                # ResultStore (persistent solution tier)
        jobs/<job_id>.json    # one Job record each (atomic writes)
        jobs/<job_id>.cancel  # cancellation marker dropped by `repro cancel`
        leases/<worker>/<job_id>.json  # records claimed by a cluster worker
        workers/<worker>.json # per-worker heartbeats
        workers/doorbell      # FIFO that wakes idle workers after a submit
        gateway.json          # the HTTP gateway's heartbeat

Every spool path is computed by the helpers below, and every spool file is
read by one parser per kind: :func:`read_job_record` (a job record is a
JSON object whose ``job_id`` is its file stem; anything else under
``jobs/`` is a foreign file, never counted, claimed or purged),
:func:`read_lease`, :func:`read_worker_heartbeats` and
:func:`read_gateway_heartbeat`.  Status, gc, the worker's scan, ``repro
watch``, the gateway and the loadgen check all go through them.

A :class:`Job` is one unit of service work: a named scenario instantiation
(the scenario registry turns it into concrete panel tasks at execution
time, so records stay small and JSON-serialisable).  Its lifecycle is
``queued → running → done`` / ``failed`` / ``cancelled``.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.events import EventLog, event_log_for
from repro.obs.snapshot import ServiceSnapshot
from repro.service.scenarios import scenario_spec
from repro.service.store import atomic_write_text, evict_lru_blobs

#: Every status a job can be in.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Statuses a job never leaves.
TERMINAL_STATUSES = ("done", "failed", "cancelled")

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

#: What reading any spool file can raise: gone or unreadable (OSError), not
#: JSON (ValueError), or JSON that is not a usable record (KeyError,
#: TypeError, ValueError).  Every reader below catches exactly these.
_READ_ERRORS = (OSError, ValueError, KeyError, TypeError)


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


# -- liveness --------------------------------------------------------------------------


def liveness_bound(heartbeat: Dict[str, object], stale_seconds: float) -> float:
    """Seconds a heartbeat stays fresh: ``stale_seconds``, or three poll
    intervals for a slow-polling process that heartbeats rarely."""
    return max(stale_seconds, 3.0 * float(heartbeat.get("poll_interval", 0.0)))


def heartbeat_is_fresh(heartbeat: Dict[str, object], stale_seconds: float) -> bool:
    """Whether a heartbeat indicates a live process: the one liveness rule.

    A ``stopped`` heartbeat is never fresh.  Otherwise the heartbeat is
    fresh while younger than :func:`liveness_bound` -- the gateway passes
    :data:`STALE_HEARTBEAT_SECONDS`, workers :data:`WORKER_STALE_SECONDS`.
    """
    if heartbeat.get("stopped"):
        return False
    age = time.time() - float(heartbeat.get("updated_at", 0.0))
    return age < liveness_bound(heartbeat, stale_seconds)


def worker_is_alive(heartbeat: Dict[str, object]) -> bool:
    """:func:`heartbeat_is_fresh` at the worker bound."""
    return heartbeat_is_fresh(heartbeat, WORKER_STALE_SECONDS)


# -- paths -----------------------------------------------------------------------------


def jobs_dir(root: Union[str, Path]) -> Path:
    """The flat directory of job records and cancel markers."""
    return Path(root) / "jobs"


def job_path(root: Union[str, Path], job_id: str) -> Path:
    """Spool record of one job (queued or terminal)."""
    return jobs_dir(root) / f"{job_id}.json"


def cancel_path(root: Union[str, Path], job_id: str) -> Path:
    """Cancellation marker of one job; it lives beside the job's record."""
    return jobs_dir(root) / f"{job_id}.cancel"


def leases_dir(root: Union[str, Path]) -> Path:
    """Parent of every worker's lease directory."""
    return Path(root) / "leases"


def lease_files(root: Union[str, Path], job_id: str) -> List[Path]:
    """Every worker's lease file for one job (at most one, normally)."""
    return sorted(leases_dir(root).glob(f"*/{job_id}.json"))


def iter_lease_files(root: Union[str, Path]) -> Iterator[Tuple[Path, str]]:
    """Yield ``(path, worker_id)`` for every lease file, in path order."""
    for path in sorted(leases_dir(root).glob("*/*.json")):
        if path.is_file():
            yield path, path.parent.name


def workers_dir(root: Union[str, Path]) -> Path:
    """Worker heartbeats and the doorbell."""
    return Path(root) / "workers"


def worker_heartbeat_path(root: Union[str, Path], worker_id: str) -> Path:
    """One worker's heartbeat file."""
    return workers_dir(root) / f"{worker_id}.json"


def doorbell_path(root: Union[str, Path]) -> Path:
    """The FIFO idle workers wait on; submitters write one byte to it."""
    return workers_dir(root) / "doorbell"


def gateway_heartbeat_path(root: Union[str, Path]) -> Path:
    """The HTTP gateway's heartbeat file."""
    return Path(root) / "gateway.json"


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


# -- readers and writers: one parser per spool file kind --------------------------------


def _read_json(path: Path) -> object:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_object(path: Path) -> Optional[Dict[str, object]]:
    """The JSON object at ``path``; ``None`` when gone, unreadable or not an object."""
    try:
        payload = _read_json(path)
    except _READ_ERRORS:
        return None
    return payload if isinstance(payload, dict) else None


def _spool_files(root: Union[str, Path], pattern: str = "*.json") -> List[Path]:
    """Matching files under ``jobs/``, sorted by file name."""
    return sorted(jobs_dir(root).glob(pattern))


def read_job_record(path: Path) -> Optional[Dict[str, object]]:
    """The job record stored at ``path``; ``None`` for a foreign file.

    A job record is a JSON object whose ``job_id`` equals the file stem.
    Any other JSON (say, a copy of a record under another name) is
    foreign: no reader counts, claims or purges it.  Raises one of
    :data:`_READ_ERRORS` when the file is gone or not JSON.
    """
    record = _read_json(path)
    if isinstance(record, dict) and record.get("job_id") == path.stem:
        return record
    return None


def load_job(path: Path) -> Optional[Job]:
    """The :class:`Job` at ``path``; ``None`` when missing, unreadable or foreign."""
    try:
        record = read_job_record(path)
        return None if record is None else Job.from_dict(record)
    except _READ_ERRORS:
        return None


def load_jobs(root: Union[str, Path]) -> List[Job]:
    """Every job record under ``jobs/``, in file-name order."""
    jobs = [load_job(path) for path in _spool_files(root)]
    return [job for job in jobs if job is not None]


def write_job_record(path: Path, job: Job) -> None:
    """Atomically write ``job``'s record (a spool path, or a lease it is released from)."""
    atomic_write_text(path, json.dumps(job.to_dict(), indent=2) + "\n")


def scan_spool_records(
    root: Union[str, Path], terminal_memo: Dict[str, int]
) -> Tuple[List[Dict[str, object]], int, int]:
    """One memoized pass over ``jobs/*.json``; the cluster's spool scanner.

    Returns ``(active_records, terminal_count, unreadable_count)`` where
    ``active_records`` are the parsed non-terminal records.  Terminal
    records are remembered in ``terminal_memo`` (job id → mtime_ns, pruned
    of vanished ids, updated in place), so repeated scans — the worker's
    claim loop and the supervisor's monitor tick share this helper — parse
    only *new* work, never spool history; a purged-and-resubmitted id gets
    a fresh mtime and is re-read.  Foreign files are ignored.
    """
    active: List[Dict[str, object]] = []
    terminal = 0
    unreadable = 0
    paths = _spool_files(root)
    stems = {path.stem for path in paths}
    for vanished in set(terminal_memo) - stems:
        del terminal_memo[vanished]
    for path in paths:
        try:
            mtime = path.stat().st_mtime_ns
        except OSError:
            continue  # claimed or purged mid-scan; a lease scan sees a claim
        if terminal_memo.get(path.stem) == mtime:
            terminal += 1
            continue
        try:
            record = read_job_record(path)
        except _READ_ERRORS:
            unreadable += 1  # half-written; the next scan sees it whole
            continue
        if record is None:
            continue
        if record.get("status") in TERMINAL_STATUSES:
            terminal += 1
            terminal_memo[path.stem] = mtime
        else:
            terminal_memo.pop(path.stem, None)  # active again (id reuse)
            active.append(record)
    return active, terminal, unreadable


def read_lease(path: Path) -> Tuple[Dict[str, object], Optional[Job]]:
    """A lease file's wrapper and the job it holds.

    A lease is ``{"worker_id", "claimed_at", "expires_at", "lease_ttl",
    "job"}``.  Caught in the claim window (renamed, not yet rewritten) or
    after a release that died before its rename, it holds a plain job
    record instead, returned with an empty wrapper.  The job is ``None``
    when the file is gone or holds no usable record.
    """
    payload = _read_object(path) or {}
    wrapper = payload if "job" in payload else {}
    record = payload["job"] if wrapper else payload
    try:
        return wrapper, Job.from_dict(record)  # type: ignore[arg-type]
    except _READ_ERRORS:
        return wrapper, None


def load_leased_jobs(root: Union[str, Path]) -> List[Job]:
    """Jobs currently held under cluster worker leases (all ``running``)."""
    jobs = [read_lease(path)[1] for path, _worker_id in iter_lease_files(root)]
    return [job for job in jobs if job is not None]


def active_leases(root: Union[str, Path]) -> List[Dict[str, object]]:
    """Snapshot of every live lease (for ``status --cluster``); pure reads."""
    now = time.time()
    leases: List[Dict[str, object]] = []
    for path, worker_id in iter_lease_files(root):
        try:
            mtime = path.stat().st_mtime
        except OSError:
            continue
        wrapper, job = read_lease(path)
        if job is None:
            continue
        ttl = wrapper.get("lease_ttl")
        leases.append(
            {
                "job_id": path.stem,
                "worker_id": worker_id,
                "age_seconds": max(0.0, now - mtime),
                "expires_in": (mtime + float(ttl) - now if ttl is not None else None),
                "attempts": job.attempts,
            }
        )
    return leases


def read_worker_heartbeats(root: Union[str, Path]) -> Dict[str, Dict[str, object]]:
    """Every worker heartbeat under ``root``, keyed by worker id."""
    heartbeats: Dict[str, Dict[str, object]] = {}
    for path in sorted(workers_dir(root).glob("*.json")):
        heartbeat = _read_object(path)
        if heartbeat is not None:  # else mid-rewrite; the next read sees it
            heartbeats[path.stem] = heartbeat
    return heartbeats


def read_gateway_heartbeat(root: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The gateway's heartbeat, or ``None`` when absent or unreadable."""
    return _read_object(gateway_heartbeat_path(root))


# -- client verbs ----------------------------------------------------------------------


@dataclass
class SubmitRequest:
    """One validated-on-submit job submission (the unit `submit_jobs` batches)."""

    scenario: str
    params: Optional[Dict[str, object]] = None
    priority: int = 0
    max_attempts: int = 2
    job_id: Optional[str] = None


def burst_requests(
    scenario: str,
    jobs: int,
    params: Optional[Dict[str, object]] = None,
    priority: int = 0,
    max_attempts: int = 2,
    id_prefix: Optional[str] = None,
) -> List[SubmitRequest]:
    """The ``jobs`` submissions of one load burst, seeds striped.

    When the scenario has a ``seed`` parameter, job ``i`` gets seed
    ``base + i`` (``base`` is the caller's seed, else the scenario's), so
    the burst is cache-cold by construction.  A scenario this build does
    not know is submitted unstriped: the spool or the gateway rejects it.
    ``id_prefix`` names the jobs ``<prefix>-000``, ``<prefix>-001``, ...;
    without it the submit path generates ids.
    """
    params = dict(params or {})
    try:
        spec = scenario_spec(scenario)
    except KeyError:
        spec = None
    stride_seeds = hasattr(spec, "seed")
    base_seed = int(params.get("seed", getattr(spec, "seed", 0))) if stride_seeds else 0
    requests = []
    for index in range(jobs):
        job_params = dict(params)
        if stride_seeds:
            job_params["seed"] = base_seed + index
        requests.append(
            SubmitRequest(
                scenario=scenario,
                params=job_params,
                priority=priority,
                max_attempts=max_attempts,
                job_id=None if id_prefix is None else f"{id_prefix}-{index:03d}",
            )
        )
    return requests


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
    jobs_dir(root).mkdir(parents=True, exist_ok=True)
    for job in jobs:
        write_job_record(job_path(root, job.job_id), job)
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
    request = SubmitRequest(scenario, params, priority, max_attempts, job_id)
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
    path = job_path(root, job_id)
    job = load_job(path)
    if job is None and not path.exists() and not lease_files(root, job_id):
        return False
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
    while True:
        job = load_job(path)  # None while missing or mid-rewrite; retry
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
    ``with_health=True`` additionally folds the fleet health model in (a
    ``health`` key appears in the returned dict only when requested).
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
    for worker_id, heartbeat in read_worker_heartbeats(root).items():
        if worker_is_alive(heartbeat):
            continue
        lease_dir = leases_dir(root) / worker_id
        if lease_dir.exists():
            try:
                lease_dir.rmdir()  # only ever removes an *empty* directory
            except OSError:
                continue  # stale leases pending reclaim; keep the heartbeat
        try:
            worker_heartbeat_path(root, worker_id).unlink()
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
    if purge_jobs:
        for job in load_jobs(root):
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
        for marker in _spool_files(root, "*.cancel"):
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
