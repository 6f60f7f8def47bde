"""The spool consumer: lease-claiming workers over the shared file spool.

This module turns the on-disk spool of :mod:`repro.service.spool` into
shared cluster state — N cooperating worker processes, no new dependencies,
no network — by writing two directories next to ``jobs/``::

    <root>/
        jobs/<job_id>.json                  # queued + terminal records (unchanged)
        leases/<worker_id>/<job_id>.json    # claimed (running) records
        workers/<worker_id>.json            # per-worker heartbeats
        workers/doorbell                    # FIFO rung by every submit

Their paths, and the one parser per file kind that every reader uses, live
in :mod:`repro.service.spool`; this module claims, leases, heartbeats and
reclaims.

**Claiming is an atomic rename.**  A worker claims a queued job by renaming
``jobs/<id>.json`` into its own lease directory.  The filesystem serialises
renames of one source path, so exactly one of N racing workers wins (the
losers see ``ENOENT`` and move to the next candidate) — that rename *is*
the deterministic tie-break; no double execution is possible.  The winner
then rewrites the lease as a record carrying its worker id, the incremented
attempt count and an expiry, and appends an entry to the job's
``executions`` history (the exactly-once audit trail the cluster-smoke CI
job greps).

**Liveness is heartbeat + lease expiry.**  Every worker heartbeats
``workers/<worker_id>.json`` and refreshes its active lease (rewriting it
bumps the file mtime, the authoritative lease clock) at every batch
boundary *and* from a background pulse thread, so even a single batch
longer than the lease TTL cannot get a live worker's job reclaimed.  A
lease is *reclaimable* only when both signals agree the owner is gone:
the lease mtime is older than its TTL **and** the owner's heartbeat is
stale.  Reclaiming is again an atomic rename (lease → a
reclaimer-private temp), so concurrent reclaimers cannot duplicate a job;
the winner re-queues the record into ``jobs/`` with its attempt count
preserved — or fails it when the retry budget is spent — and any surviving
peer picks it up.  See DESIGN.md §"Cluster layer" for the full lease
state machine.

**Idle workers wait on a doorbell.**  Every submit writes one byte to the
``workers/doorbell`` FIFO after its records land; an idle worker
``select``s on the FIFO with its poll interval as the timeout, so a new
job is claimed as soon as it is submitted, and the poll remains the
fallback for a missed ring or a worker that cannot open the FIFO.

``repro serve`` runs one :class:`ClusterWorker` in-process through
:func:`serve_worker`; N=1 needs no special case, because a lone worker
follows the same claim and reclaim rules as a fleet member.
:class:`ClusterSupervisor` runs the local fleet behind ``repro serve
--workers K``: it forks K children over one root, each running that same
:func:`serve_worker` (no second interpreter, no second import of the CLI),
restarts and logs workers that die, and exits once the spool has been idle
long enough — or, when every worker is dead and its restart budget is
spent, gives up.
:func:`run_loadgen` (the ``repro loadgen`` verb) submits a seed-striped
burst of scenario jobs and reports aggregate latency percentiles and
throughput — the measurement harness of
``benchmarks/bench_cluster_throughput.py``.
"""

from __future__ import annotations

import errno
import json
import os
import select
import signal
import stat
import sys
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, NoReturn, Optional, Set, Tuple, Union

from repro.obs.events import EventCursor, EventLog
from repro.obs.metrics import (
    MetricsRegistry,
    fleet_metrics_from_events,
    nearest_rank,
    process_registry,
    snapshot_delta,
)
from repro.service.spool import (
    TERMINAL_STATUSES,
    Job,
    active_leases,
    burst_requests,
    cancel_path,
    doorbell_path,
    iter_lease_files,
    job_path,
    jobs_dir,
    leases_dir,
    load_job,
    read_lease,
    read_worker_heartbeats,
    refuse_sharded_root,
    scan_spool_records,
    submit_jobs,
    worker_heartbeat_path,
    worker_is_alive,
    workers_dir,
    write_job_record,
)
from repro.service.store import ResultStore, atomic_write_text

#: Default seconds a lease stays valid without a refresh.
DEFAULT_LEASE_TTL = 30.0


def _round_latency(latency: Optional[float]) -> Optional[float]:
    """Round a submit-to-finish latency for event emission (``None`` passes)."""
    return None if latency is None else round(latency, 6)


@dataclass(frozen=True)
class WorkerIdentity:
    """Identity of one cluster worker process.

    The ``worker_id`` names the worker's lease directory and heartbeat
    file; it embeds the pid for operators and a random suffix so a
    restarted worker (same label, new process) can never be confused with
    its predecessor's stale lease directory or heartbeat.
    """

    worker_id: str
    pid: int
    started_at: float

    @classmethod
    def create(cls, label: str = "worker") -> "WorkerIdentity":
        pid = os.getpid()
        return cls(
            worker_id=f"{label}-{pid}-{uuid.uuid4().hex[:6]}",
            pid=pid,
            started_at=time.time(),
        )


class LeaseManager:
    """Atomic lease-based job claiming over one spool directory.

    All mutual exclusion is the filesystem's: claims and reclaims are
    single ``os.rename`` calls, of which exactly one of any set of racers
    succeeds.  The lease file's mtime is the authoritative lease clock
    (refreshing a lease rewrites it); the JSON body carries the worker id,
    attempt count and an informational expiry for ``status --cluster``.
    """

    def __init__(
        self,
        root: Union[str, Path],
        identity: WorkerIdentity,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        events: Optional[EventLog] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.root = Path(root)
        self.identity = identity
        self.lease_ttl = lease_ttl
        self.events = events
        self.my_dir = leases_dir(self.root) / identity.worker_id
        self.my_dir.mkdir(parents=True, exist_ok=True)

    # -- paths --------------------------------------------------------------------

    def lease_path(self, job_id: str) -> Path:
        return self.my_dir / f"{job_id}.json"

    # -- claim / refresh / release --------------------------------------------------

    def claim(self, job_id: str) -> Optional[Job]:
        """Try to claim a queued job; ``None`` when another worker won.

        The rename is the claim: after it succeeds this worker owns the
        record exclusively, so the subsequent read-modify-write (status →
        ``running``, attempts incremented, execution entry appended) is
        race-free.  A record that turns out to be unusable (unparsable,
        not queued) is put back where it was found.
        """
        source = job_path(self.root, job_id)
        lease = self.lease_path(job_id)
        try:
            os.rename(source, lease)
        except OSError:
            return None  # a peer claimed it first (or it was never there)
        job = load_job(lease)
        if job is None or job.status != "queued":
            # Not claimable after all — return the file unharmed.
            try:
                os.rename(lease, source)
            except OSError:
                pass
            return None
        job.status = "running"
        job.attempts += 1
        job.record_claim(self.identity.worker_id)
        self.write_lease(job)
        if self.events is not None:
            self.events.emit(
                "claimed",
                job=job.job_id,
                worker=self.identity.worker_id,
                attempt=job.attempts,
            )
        return job

    def write_lease(self, job: Job) -> None:
        """(Re)write the lease record; the fresh mtime restarts the TTL."""
        payload = {
            "worker_id": self.identity.worker_id,
            "claimed_at": time.time(),
            "expires_at": time.time() + self.lease_ttl,
            "lease_ttl": self.lease_ttl,
            "job": job.to_dict(),
        }
        atomic_write_text(self.lease_path(job.job_id), json.dumps(payload, indent=2) + "\n")

    def refresh_lease(self, job: Job) -> bool:
        """Rewrite the lease only while this worker still owns it.

        A refresh must never *recreate* a lease file that a reclaimer
        renamed away — that would resurrect ownership this worker already
        lost and let its eventual release clobber the reclaim's record.
        Returns False when the lease is gone (the job is disowned).
        """
        if not self.lease_path(job.job_id).exists():
            return False
        self.write_lease(job)
        return True

    def release(self, job: Job, traceback_text: Optional[str] = None) -> bool:
        """Move the job's post-execution record back into the spool.

        The record (terminal, or ``queued`` again for a retryable failure)
        is first written *into the lease file* — which this worker owns —
        and the lease is then renamed onto the spool path, so the release
        itself is atomic: a reclaimer that stole the lease meanwhile makes
        the rename fail (``ENOENT``) and the outcome is discarded.  A
        crash between the write and the rename leaves the lease holding a
        plain record, which :meth:`reclaim_expired` restores faithfully
        (terminal records unchanged, others re-queued).

        Ownership guard: a lease already gone (reclaimed while this worker
        was stalled) refuses the release outright.  In the residual
        microseconds-wide window where a reclaim lands between that check
        and the write, the rename moves this worker's *finished* record
        over the reclaim's requeue — the job ends terminal with a real
        computed result instead of being pointlessly executed a third
        time; content-addressed idempotent results make either order
        safe.  Returns whether the record reached the spool.

        ``traceback_text`` is the full traceback of an execution that raised;
        it rides the ``released`` event only, while the record keeps the
        one-line ``error`` that ``repro status`` prints.
        """
        lease = self.lease_path(job.job_id)
        if not lease.exists():
            return False  # reclaimed out from under us; the spool moved on
        write_job_record(lease, job)
        try:
            os.rename(lease, job_path(self.root, job.job_id))
        except OSError:
            return False  # stolen between the write and the rename
        if self.events is not None:
            self.events.emit(
                "released",
                job=job.job_id,
                worker=self.identity.worker_id,
                status=job.status,
                latency=_round_latency(job.latency_seconds()),
                traceback=traceback_text,
            )
        return True

    # -- reclaim --------------------------------------------------------------------

    def reclaim_expired(self, max_scan: Optional[int] = None) -> int:
        """Requeue expired leases of dead peers; returns how many.

        A lease is reclaimed only when its mtime-based TTL has passed
        *and* the owning worker's heartbeat is stale or stopped — a slow
        worker with a fresh heartbeat keeps its leases however old they
        are.  The reclaim itself is an atomic rename into this worker's
        directory (suffix ``.reclaim``, invisible to lease scans), so
        concurrent reclaimers of one lease cannot both requeue it.
        """
        now = time.time()
        heartbeats = read_worker_heartbeats(self.root)
        reclaimed = 0
        scanned = 0
        for lease_path, owner in self._foreign_leases():
            if max_scan is not None and scanned >= max_scan:
                break
            scanned += 1
            try:
                mtime = lease_path.stat().st_mtime
            except OSError:
                continue  # released or reclaimed meanwhile
            if now < mtime + self.lease_ttl:
                # Cheap floor before any JSON parse: with this manager's
                # own TTL as the bound, a freshly refreshed lease (the
                # overwhelmingly common case on every poll cycle) costs one
                # stat, never a read.  A peer with a *shorter* TTL is
                # reclaimed a little later than its own bound — safe,
                # merely conservative — and supervised fleets share one
                # TTL, making the floor exact.
                continue
            ttl = self._lease_ttl_of(lease_path)
            if now < mtime + ttl:
                continue  # still within its TTL
            owner_heartbeat = heartbeats.get(owner)
            if owner_heartbeat is not None and worker_is_alive(owner_heartbeat):
                continue  # owner is alive, merely slow; never steal
            if self._reclaim_one(lease_path):
                reclaimed += 1
        return reclaimed

    def _foreign_leases(self) -> List[Tuple[Path, str]]:
        """(lease path, owner worker id) of every other worker's lease."""
        return [
            (path, owner)
            for path, owner in iter_lease_files(self.root)
            if owner != self.identity.worker_id
        ]

    def _lease_ttl_of(self, lease_path: Path) -> float:
        """TTL recorded in the lease, falling back to this manager's own.

        A lease caught in the claim window (renamed, not yet rewritten)
        still holds the plain job record; its mtime is the rename-fresh
        submit-time stamp only until the owner's first
        :meth:`write_lease`, and the heartbeat condition protects it
        meanwhile.
        """
        ttl = read_lease(lease_path)[0].get("lease_ttl")
        return float(ttl) if isinstance(ttl, (int, float)) else self.lease_ttl

    def _reclaim_one(self, lease_path: Path) -> bool:
        """Atomically steal one expired lease and resolve its job."""
        # The `.reclaim` suffix keeps the stolen file out of `*.json` scans.
        stolen = self.my_dir / f"{lease_path.stem}.{os.getpid()}.reclaim"
        try:
            os.rename(lease_path, stolen)
        except OSError:
            return False  # another reclaimer (or the owner's release) won
        wrapper, job = read_lease(stolen)
        worker = wrapper.get("worker_id")
        resolved = False
        if job is not None and not job_path(self.root, job.job_id).exists():
            # (A spool record already present means the owner's release
            # raced the reclaim — or the id was purged and reused — and the
            # spool is authoritative; the stale lease is simply dropped.)
            if job.is_terminal:
                # A claim() that renamed an already-terminal record and died
                # before renaming it back: restore it untouched — terminal
                # is terminal, the finished result must never be re-queued.
                pass
            elif job.cancel_requested:
                job.status = "cancelled"
            elif job.attempts >= job.max_attempts:
                job.status = "failed"
                job.error = job.error or (
                    f"worker {worker or 'unknown'} died during attempt "
                    f"{job.attempts}/{job.max_attempts}"
                )
            else:
                job.status = "queued"  # attempts preserved: the budget binds
            write_job_record(job_path(self.root, job.job_id), job)
            resolved = True
            if self.events is not None:
                self.events.emit(
                    "reclaimed",
                    job=job.job_id,
                    worker=worker,
                    by=self.identity.worker_id,
                    status=job.status,
                )
        try:
            stolen.unlink()
        except OSError:
            pass
        return resolved


@dataclass
class WorkerConfig:
    """Everything one cluster worker process needs.

    ``backend_workers`` configures the *engine* inside the worker (how one
    job's panel batches are dispatched): 1 runs them serially, N >= 2 over
    a pool of N processes.  Cluster parallelism comes from running several
    workers, each of which usually runs serially.
    """

    root: Union[str, Path]
    label: str = "worker"
    backend_workers: int = 1
    poll_interval: float = 0.2
    lease_ttl: float = DEFAULT_LEASE_TTL
    store_max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend_workers < 1:
            raise ValueError(f"backend_workers must be positive, got {self.backend_workers}")
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {self.poll_interval}")
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")
        self.root = Path(self.root)


class ClusterWorker:
    """One lease-claiming worker process over a shared spool.

    There is no in-memory queue to drain: every cycle re-scans the spool for
    ``queued`` records (priority order, deterministic ties) and races its
    peers, if any, for the first claimable one.
    Execution reuses the scheduler's batch loop, with the between-batch
    hook refreshing the lease and heartbeat and honouring cancel markers —
    so a long job neither loses its lease nor goes deaf to ``repro
    cancel``.
    """

    def __init__(self, config: WorkerConfig, identity: Optional[WorkerIdentity] = None) -> None:
        # Only a worker solves: the supervisor and the spool loadgen import
        # this module without loading numpy and the solver stack.
        from repro.engine.backends import create_backend
        from repro.engine.cache import SolutionCache
        from repro.engine.panels import Engine
        from repro.service.scheduler import Scheduler

        self.config = config
        root = Path(config.root)
        refuse_sharded_root(root)
        jobs_dir(root).mkdir(parents=True, exist_ok=True)
        workers_dir(root).mkdir(parents=True, exist_ok=True)
        self.identity = identity or WorkerIdentity.create(config.label)
        self.events = EventLog(root, writer=self.identity.worker_id)
        self.metrics = MetricsRegistry()
        self.lease = LeaseManager(
            root, self.identity, lease_ttl=config.lease_ttl, events=self.events
        )
        self.store = ResultStore(root / "store", max_bytes=config.store_max_bytes)
        self.engine = Engine(
            backend=create_backend(config.backend_workers),
            cache=SolutionCache(store=self.store),
        )
        self.scheduler = Scheduler(
            engine=self.engine,
            on_batch=self._on_batch,
            metrics=self.metrics,
            events=self.events,
        )
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.jobs_reclaimed = 0
        # The process registry as it stood before this worker served; its
        # metrics events report only what grew since (see run()).
        self._registry_baseline = process_registry().snapshot()
        self._current: Optional[Job] = None
        self._last_heartbeat = 0.0
        self._stop_requested = False
        # Serialises every lease write and the current-job handoff between
        # the execution thread and the background pulse thread (two threads
        # writing one lease would also collide on the pid-named temp file).
        self._pulse_lock = threading.Lock()
        self._pulse_stop = threading.Event()
        self._pulse_thread: Optional[threading.Thread] = None
        # Whether the last _run_claimed still owned its lease at release:
        # a disowned outcome is discarded and must not consume --max-jobs.
        self._last_owned = True
        # Terminal spool records already seen, keyed by record mtime, so an
        # idle worker's candidate scan never re-parses spool history; a
        # rewritten file (id reuse after a purge) no longer matches its
        # mtime and is re-read.
        self._known_terminal: Dict[str, int] = {}

    # -- spool scanning -------------------------------------------------------------

    def _queued_candidates(self) -> List[str]:
        """Claimable job ids, best first: priority desc, then submit order.

        Every worker scans the spool in the same deterministic order, so
        racers converge on the same head-of-line job and the claim rename
        picks the single winner; losers fall through to the next
        candidate.  The memoized scan never re-reads terminal history (see
        :func:`scan_spool_records`).
        """
        records, _terminal, _unreadable = scan_spool_records(self.config.root, self._known_terminal)
        candidates = sorted(
            (
                -int(record.get("priority", 0)),
                float(record.get("created_at", 0.0)),
                str(record["job_id"]),
            )
            for record in records
            if record.get("status") == "queued"
        )
        return [job_id for _priority, _created, job_id in candidates]

    def _claim_next(self) -> Optional[Job]:
        """Race for the best claim; ``None`` when nothing is claimable."""
        candidates = self._queued_candidates()
        for job_id in candidates:
            job = self.lease.claim(job_id)
            if job is not None:
                return job
        self.metrics.gauge("spool.queued").set(len(candidates))
        return None

    # -- execution ------------------------------------------------------------------

    def _on_batch(self, job: Job) -> None:
        """Between-batch pulse: keep the lease and heartbeat alive, see cancels."""
        marker = cancel_path(self.config.root, job.job_id)
        if marker.exists():
            # Raise the flag only; the marker itself is consumed by the
            # ownership-gated sweep at the end of _run_claimed, so a worker
            # that turns out to be disowned never eats a marker that
            # targets the requeued job.
            job.cancel_requested = True
        with self._pulse_lock:
            if not self.lease.refresh_lease(job):
                # Disowned: a reclaimer decided this worker was dead while a
                # batch ran long.  Stop burning work on a job a peer now
                # owns; release() will refuse the spool write for the same
                # reason, so the outcome is simply discarded.
                job.cancel_requested = True
        self._heartbeat()

    def _pulse(self) -> None:
        """Background refresher: lease + heartbeat stay fresh *within* a batch.

        The between-batch hook alone would let a single batch longer than
        the lease TTL (or the heartbeat staleness bound) get a perfectly
        live worker's job reclaimed and double-executed; this thread closes
        that window.  A worker that truly dies stops pulsing, which is
        exactly the signal reclaim needs.
        """
        interval = max(0.05, min(1.0, self.config.lease_ttl / 3.0, self.config.poll_interval))
        while not self._pulse_stop.wait(interval):
            with self._pulse_lock:
                if self._current is not None:
                    # refresh, never recreate: a reclaimed lease stays lost.
                    self.lease.refresh_lease(self._current)
            self._heartbeat()

    def _run_claimed(self, job: Job) -> Job:
        """Execute one claimed job and write its outcome back to the spool."""
        with self._pulse_lock:
            self._current = job
        marker = cancel_path(self.config.root, job.job_id)
        if marker.exists():
            # Cancelled while queued; the claim just makes it terminal.
            # (Flag only — the marker is consumed by the ownership-gated
            # sweep below, never by a worker that lost its lease.)
            job.cancel_requested = True
        trace: Optional[str] = None
        try:
            if job.cancel_requested:
                status = "cancelled"
                result = None
            else:
                outcome = self.scheduler.execute_job(job)
                status = "cancelled" if job.cancel_requested else "done"
                result = outcome.to_dict()
        except Exception as error:  # noqa: BLE001 — any job error means retry/fail
            job.error = "".join(traceback.format_exception_only(type(error), error)).strip()
            trace = traceback.format_exc()
            status = "failed" if job.attempts >= job.max_attempts else "queued"
            result = None
        # Terminal mutations and the pulse handoff happen under the lock,
        # so the background refresher can never write a half-updated lease
        # or resurrect a lease after release.
        with self._pulse_lock:
            job.status = status
            if result is not None:
                job.result = result
            job.finish_execution()
            self._current = None
            owned = self.lease.release(job, traceback_text=trace)
        self._last_owned = owned
        if owned:
            if job.status == "done":
                self.jobs_done += 1
            elif job.status == "failed":
                self.jobs_failed += 1
            elif job.status == "cancelled":
                self.jobs_cancelled += 1
        if owned and job.is_terminal:
            # A cancel that landed during the final batch arrived too late;
            # its marker is dead and must not ambush a future reuse of the
            # job id.  Gated on ownership: a disowned worker's job was
            # requeued by a reclaim, and a marker present now targets that
            # requeued job — pending, not stale, and not ours to consume.
            try:
                marker.unlink()
            except OSError:
                pass
        self._heartbeat(force=True)
        return job

    # -- heartbeat ------------------------------------------------------------------

    def _heartbeat(self, stopped: bool = False, force: bool = False) -> None:
        """Write the worker's liveness file (throttled to one per poll)."""
        now = time.time()
        if not force and now - self._last_heartbeat < min(1.0, self.config.poll_interval):
            return
        self._last_heartbeat = now
        # Snapshot once: the pulse thread heartbeats concurrently with the
        # execution thread's job handoff, and a double read of _current
        # could see it become None between the check and the use.
        current = self._current
        stats = self.engine.cache_stats()
        payload = {
            "worker_id": self.identity.worker_id,
            "pid": self.identity.pid,
            "started_at": self.identity.started_at,
            "updated_at": now,
            "poll_interval": self.config.poll_interval,
            "lease_ttl": self.config.lease_ttl,
            "stopped": stopped,
            "backend": self.engine.backend.name,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "jobs_reclaimed": self.jobs_reclaimed,
            "lease": None if current is None else current.job_id,
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "store_hits": stats.store_hits,
            },
        }
        atomic_write_text(
            worker_heartbeat_path(self.config.root, self.identity.worker_id),
            json.dumps(payload, indent=2) + "\n",
        )
        if force:
            # Metrics snapshots ride the *forced* heartbeats only (startup,
            # job completions, shutdown), so an idle worker appends nothing.
            self.metrics.gauge("cache.hits").set(stats.hits)
            self.metrics.gauge("cache.misses").set(stats.misses)
            self.metrics.gauge("cache.store_hits").set(stats.store_hits)
            self.store.persist_stats()
            # The solver hot paths (the anneal chain loop)
            # record into the process-wide default registry; fold in what
            # they recorded since this worker started serving, so work
            # the process did before is not reported as the worker's, with
            # the worker's own instruments winning any name collision.
            snapshot = snapshot_delta(process_registry().snapshot(), self._registry_baseline)
            snapshot.update(self.metrics.snapshot())
            # The nonce keys this process generation: aggregation sums
            # snapshots across generations of a reused writer label instead
            # of keeping only the latest (see fleet_metrics_from_events).
            self.events.emit(
                "metrics",
                worker=self.identity.worker_id,
                nonce=self.events.nonce,
                metrics=snapshot,
            )

    # -- main loop ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the loop to exit at the next between-jobs boundary."""
        self._stop_requested = True

    def step(self) -> Optional[Job]:
        """One reclaim-claim-execute cycle; returns the job run, if any."""
        reclaimed = self.lease.reclaim_expired()
        if reclaimed:
            self.metrics.counter("lease.reclaimed").inc(reclaimed)
        self.jobs_reclaimed += reclaimed
        job = self._claim_next()
        if job is None:
            self._heartbeat()
            return None
        return self._run_claimed(job)

    def _spool_has_queued_work(self) -> bool:
        candidates = self._queued_candidates()
        self.metrics.gauge("spool.queued").set(len(candidates))
        return bool(candidates)

    def _open_doorbell(self) -> Optional[int]:
        """Open (creating if needed) the doorbell FIFO; ``None`` means poll.

        ``O_RDWR`` makes this worker a writer of its own FIFO too, so the
        FIFO never reads EOF and ``select`` wakes only on a ring.  A worker
        that cannot create or open it says so once, in a
        ``doorbell-unavailable`` event, and falls back to polling.
        """
        path = doorbell_path(self.config.root)
        try:
            try:
                os.mkfifo(path)
            except FileExistsError:
                pass  # made by a peer or an earlier run
            fd = os.open(path, os.O_RDWR | os.O_NONBLOCK)
            if not stat.S_ISFIFO(os.fstat(fd).st_mode):
                os.close(fd)
                raise FileExistsError(errno.EEXIST, "exists and is not a FIFO", str(path))
        except OSError as error:
            self.events.emit(
                "doorbell-unavailable", worker=self.identity.worker_id, error=str(error)
            )
            return None
        return fd

    def _wait_for_work(self, doorbell: Optional[int]) -> None:
        """Idle until the doorbell rings or one poll interval passes.

        A ring is drained whole, so any number of submissions since the
        last wait cost one spool scan; the spool, not the ring, says what
        is claimable.
        """
        if doorbell is None:
            time.sleep(self.config.poll_interval)
        elif select.select([doorbell], [], [], self.config.poll_interval)[0]:
            try:
                while os.read(doorbell, 4096):
                    pass
            except BlockingIOError:
                pass  # drained
            self.metrics.counter("worker.wake.doorbell").inc()
            return
        self.metrics.counter("worker.wake.poll").inc()

    def run(self, max_jobs: Optional[int] = None, idle_exit: Optional[float] = None) -> int:
        """Serve until ``max_jobs`` terminal outcomes or idle too long.

        Retries released back to the spool do not count as finished work;
        the idle deadline re-checks the spool one final time before exiting,
        so a submission landing during the last wait is served, not
        stranded.
        """
        previous_sigterm = _stop_on_sigterm(self.request_stop)
        self._registry_baseline = process_registry().snapshot()
        self.events.emit(
            "worker-started",
            worker=self.identity.worker_id,
            pid=self.identity.pid,
        )
        self._heartbeat(force=True)
        self._pulse_stop.clear()
        self._pulse_thread = threading.Thread(
            target=self._pulse, name=f"pulse-{self.identity.worker_id}", daemon=True
        )
        self._pulse_thread.start()
        doorbell = self._open_doorbell()
        finished = 0
        idle_since: Optional[float] = None
        try:
            while not self._stop_requested:
                job = self.step()
                if job is not None:
                    if job.is_terminal and self._last_owned:
                        finished += 1
                        if max_jobs is not None and finished >= max_jobs:
                            break
                    idle_since = None
                    continue
                now = time.time()
                if idle_since is None:
                    idle_since = now
                if idle_exit is not None and now - idle_since >= idle_exit:
                    if self._spool_has_queued_work():
                        idle_since = None  # a submission landed during the last wait
                        continue
                    break
                self._wait_for_work(doorbell)
        finally:
            if doorbell is not None:
                os.close(doorbell)
            self._pulse_stop.set()
            self._pulse_thread.join(timeout=5.0)
            self.engine.shutdown()
            self._heartbeat(stopped=True, force=True)
            self.events.emit("worker-stopped", worker=self.identity.worker_id, jobs=finished)
            _restore_sigterm(previous_sigterm)
        return finished


def _stop_on_sigterm(request_stop: Callable[[], None]) -> object:
    """Route SIGTERM to ``request_stop``; returns the handler it replaced.

    A worker exits cleanly on the supervisor's shutdown signal, and a
    supervisor must unwind through its ``finally`` so ``stop()`` reaps the
    fleet — the default disposition would kill the process and orphan every
    worker.  Only possible from the main thread; runs driven from other
    threads skip it and get ``None``.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    try:
        return signal.signal(signal.SIGTERM, lambda _signum, _frame: request_stop())
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        return None


def _restore_sigterm(previous: object) -> None:
    """Put back what :func:`_stop_on_sigterm` replaced, so an in-process
    ``run`` leaves its caller's SIGTERM handling as it found it."""
    if previous is not None:
        signal.signal(signal.SIGTERM, previous)


def serve_worker(
    config: WorkerConfig, max_jobs: Optional[int] = None, idle_exit: Optional[float] = None
) -> None:
    """Run one worker to its exit, printing its ``serving`` and ``finished`` lines.

    The one worker entry: ``repro serve`` calls it in-process, and every
    supervised worker runs it in a child forked by :func:`fork_worker`.
    """
    worker = ClusterWorker(config)
    print(f"worker {worker.identity.worker_id} serving {config.root}", flush=True)
    finished = worker.run(max_jobs=max_jobs, idle_exit=idle_exit)
    print(
        f"worker {worker.identity.worker_id} finished {finished} job(s), "
        f"reclaimed {worker.jobs_reclaimed} lease(s); cache {worker.engine.cache_stats()}",
        flush=True,
    )


class ForkedWorker:
    """Handle on one forked worker: its pid, reaped through ``waitpid``.

    ``returncode`` follows ``subprocess.Popen``: ``None`` while the child
    runs, then its exit code, or minus the signal number that killed it.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        """Reap the child if it has exited; its ``returncode`` either way."""
        if self.returncode is None:
            self._reap(os.WNOHANG)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        """Reap the child, waiting at most ``timeout`` seconds when given.

        Returns the ``returncode``, which is still ``None`` when the
        child outlived the timeout.
        """
        if timeout is None:
            if self.returncode is None:
                self._reap(0)
            return self.returncode
        deadline = time.monotonic() + timeout
        while self.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.returncode

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def _reap(self, options: int) -> None:
        try:
            pid, status = os.waitpid(self.pid, options)
        except ChildProcessError:
            pid, status = self.pid, 0  # reaped elsewhere; its status is lost
        if pid == self.pid:
            self.returncode = os.waitstatus_to_exitcode(status)

    def _signal(self, signum: int) -> None:
        # Never signal a reaped pid: the kernel may have handed it on.
        if self.returncode is None:
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass


#: Signals a forked worker takes back from its parent's handlers.
_CHILD_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def fork_worker(config: WorkerConfig) -> ForkedWorker:
    """Fork a child that runs :func:`serve_worker`; the parent gets its handle.

    The child shares the parent's imports, so it loads only the solver
    stack its worker builds.  ``SIGTERM`` and ``SIGINT`` stay blocked
    across the fork, so a signal aimed at the new child is held until it
    has reset both to a fresh interpreter's handlers (and acts on it then).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _CHILD_SIGNALS)
    try:
        pid = os.fork()
        if pid == 0:
            _worker_child(config, mask)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return ForkedWorker(pid)


def _worker_child(config: WorkerConfig, mask: Set[signal.Signals]) -> NoReturn:
    """The forked child's whole life: serve, then ``os._exit``.

    It never returns into the caller's stack (which may be a test runner):
    a ``SystemExit`` leaves with its code, any other exception with 1
    after its traceback.
    """
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        serve_worker(config)
        code = 0
    except SystemExit as request:
        if request.code is None or isinstance(request.code, int):
            code = request.code or 0
        else:
            print(request.code, file=sys.stderr)
    except BaseException:  # noqa: BLE001 — the child reports and exits, never unwinds
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


@dataclass
class ClusterConfig:
    """Everything ``repro serve --workers K`` needs to run a local fleet.

    ``worker`` is the one definition of the worker settings: every slot
    forks a copy of it, labelled ``w<slot>``, and the supervisor reads its
    ``root`` and ``poll_interval`` too.
    """

    worker: WorkerConfig
    workers: int = 2
    #: Worker restarts the supervisor will perform before giving up on a
    #: slot that keeps dying (per run, across all slots).
    max_restarts: int = 10

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")

    @property
    def root(self) -> Path:
        """The spool root every worker of the fleet serves."""
        return Path(self.worker.root)


class ClusterSupervisor:
    """Fork, monitor and restart a local fleet of worker processes.

    Each worker is a child forked from the supervisor (:func:`fork_worker`)
    that runs :func:`serve_worker`, so a fleet scales across cores and a
    crash takes down one worker, never the cluster: every death found while
    the fleet runs is logged as a ``worker-exited`` event (slot, pid and
    exit status, negative for a signal), the slot is refilled (bounded by
    ``max_restarts``) and surviving peers reclaim the dead worker's leases
    meanwhile.  Once every worker is dead with the budget spent, :meth:`run`
    returns with ``gave_up`` set.

    The supervisor loads no solver stack and starts no thread before it
    forks: a child duplicates only the forking thread, and each child
    imports the solvers its own worker needs.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        refuse_sharded_root(config.root)
        jobs_dir(config.root).mkdir(parents=True, exist_ok=True)
        self.restarts = 0
        self.gave_up = False
        self.events = EventLog(
            config.root, writer=f"supervisor-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self._stopping = False
        self._terminated = False
        self._procs: Dict[int, ForkedWorker] = {}
        # Terminal records already counted, keyed by mtime (the workers'
        # scheme): the ~10 Hz monitor loop must not re-parse a reused
        # root's entire history every tick.
        self._terminal_seen: Dict[str, int] = {}

    def request_stop(self) -> None:
        """Ask a running :meth:`run` loop to shut the fleet down and exit."""
        self._terminated = True

    def _fork(self, slot: int) -> ForkedWorker:
        """Fork the worker of ``slot`` from the fleet's worker template."""
        return fork_worker(replace(self.config.worker, label=f"w{slot}"))

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Fork the fleet (idempotent: only empty slots are filled)."""
        self._stopping = False
        for slot in range(self.config.workers):
            if slot not in self._procs or self._procs[slot].poll() is not None:
                self._procs[slot] = self._fork(slot)

    def poll(self) -> int:
        """Log and restart dead workers; returns the number currently alive.

        A death is logged once: its slot is refilled, or emptied when the
        restart budget is spent.  Exits while stopping are the fleet's own.
        """
        alive = 0
        for slot, proc in list(self._procs.items()):
            status = proc.poll()
            if status is None:
                alive += 1
                continue
            if self._stopping:
                continue
            self.events.emit("worker-exited", slot=slot, pid=proc.pid, status=status)
            if self.restarts >= self.config.max_restarts:
                del self._procs[slot]
                continue
            self.restarts += 1
            self._procs[slot] = self._fork(slot)
            alive += 1
        return alive

    def worker_pids(self) -> List[int]:
        """Pids of the currently-running worker processes."""
        return [proc.pid for proc in self._procs.values() if proc.poll() is None]

    def wait_alive(self, timeout: float = 30.0) -> bool:
        """Block until every worker slot has a fresh heartbeat on disk."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            heartbeats = read_worker_heartbeats(self.config.root).values()
            fresh = sum(1 for heartbeat in heartbeats if worker_is_alive(heartbeat))
            if fresh >= self.config.workers:
                return True
            time.sleep(0.05)
        return False

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate the fleet: SIGTERM, bounded wait, SIGKILL stragglers."""
        self._stopping = True
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self._procs.values():
            if proc.wait(timeout=max(0.1, deadline - time.monotonic())) is None:
                proc.kill()
                proc.wait()

    # -- spool accounting -----------------------------------------------------------

    def _spool_counts(self) -> Tuple[int, int]:
        """(terminal records, active records) — active = queued + leased.

        The spool is scanned *before* the leases, matching the claim
        rename's direction (``jobs/`` → ``leases/``): a record renamed
        mid-scan leaves the source after we read it, or reaches the
        destination before we read that — either way at least one scan
        sees it, so a just-claimed job can never look like an idle spool.
        Terminal records are remembered by mtime and never re-parsed, so
        the monitor tick stays proportional to new work, not history.
        """
        records, terminal, unreadable = scan_spool_records(self.config.root, self._terminal_seen)
        # Unreadable records are mid-write: assume active until readable.
        active = len(records) + unreadable + len(active_leases(self.config.root))
        return terminal, active

    def run(self, max_jobs: Optional[int] = None, idle_exit: Optional[float] = None) -> int:
        """Serve until ``max_jobs`` jobs *newly* reach terminal, or idle too long.

        Terminal records already in the spool when the run starts (a reused
        root's history) are excluded from both the ``max_jobs`` budget and
        the returned count, matching a lone worker's finished-this-run
        semantics.  ``idle_exit=None`` with ``max_jobs=None`` supervises
        forever (until SIGINT/SIGTERM reaches the supervisor process).
        A run that ends because every worker died with the restart budget
        spent sets ``gave_up``.
        """
        self.gave_up = False
        baseline = self._spool_counts()[0]
        previous_sigterm = _stop_on_sigterm(self.request_stop)
        self.start()
        idle_since: Optional[float] = None
        try:
            while not self._terminated:
                alive = self.poll()
                if alive == 0 and self.restarts >= self.config.max_restarts:
                    # Every worker is dead and the restart budget is spent
                    # (a crash-looping fleet, e.g. a broken backend).
                    # Hanging here would serve nobody; give up, and let the
                    # operator read the workers' exit output and events.
                    self.gave_up = True
                    break
                terminal, active = self._spool_counts()
                if max_jobs is not None and terminal - baseline >= max_jobs:
                    break
                if active:
                    idle_since = None
                else:
                    now = time.time()
                    if idle_since is None:
                        idle_since = now
                    if idle_exit is not None and now - idle_since >= idle_exit:
                        # Same final re-check as the workers' own loop: a
                        # burst landing during the last sleep keeps us up.
                        if self._spool_counts()[1]:
                            idle_since = None
                            continue
                        break
                time.sleep(self.config.worker.poll_interval)
        finally:
            self.stop()
            _restore_sigterm(previous_sigterm)
        return max(0, self._spool_counts()[0] - baseline)


# -- load generation -------------------------------------------------------------------


@dataclass
class LoadgenReport:
    """Aggregate outcome of one submitted burst (JSON-safe via ``to_dict``).

    The counts and latencies are derived from the root's *event log* (see
    :func:`run_loadgen`); ``spool_check`` carries the spool-derived
    cross-check when the burst ran with ``verify=True``.
    """

    scenario: str
    submitted: int
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    timed_out: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    spool_check: Optional[Dict[str, object]] = None
    #: Mean annealing step rate over the fleet's ``metrics`` events
    #: (``anneal.steps`` / ``anneal.seconds``); ``None`` when the burst ran
    #: no annealing work (or the workers emitted no metrics yet).
    anneal_steps_per_s: Optional[float] = None

    @property
    def throughput(self) -> float:
        """Terminal jobs per wall-clock second."""
        finished = self.done + self.failed + self.cancelled
        return finished / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank latency percentile over the finished jobs."""
        return nearest_rank(self.latencies, fraction)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "scenario": self.scenario,
            "submitted": self.submitted,
            "done": self.done,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timed_out": self.timed_out,
            "wall_seconds": round(self.wall_seconds, 3),
            "throughput_jobs_per_s": round(self.throughput, 3),
            "latency_p50": self.latency_percentile(0.50),
            "latency_p90": self.latency_percentile(0.90),
            "latency_p99": self.latency_percentile(0.99),
            "latency_max": max(self.latencies) if self.latencies else None,
            "anneal_steps_per_s": (
                None if self.anneal_steps_per_s is None else round(self.anneal_steps_per_s, 1)
            ),
        }
        if self.spool_check is not None:
            payload["spool_check"] = self.spool_check
        return payload


def run_loadgen(
    root: Union[str, Path],
    scenario: str = "smoke",
    jobs: int = 12,
    params: Optional[Dict[str, object]] = None,
    priority: int = 0,
    max_attempts: int = 2,
    timeout: float = 300.0,
    poll: float = 0.1,
    wait: bool = True,
    verify: bool = False,
) -> LoadgenReport:
    """Submit a burst of scenario jobs and (optionally) wait them out.

    The burst is :func:`~repro.service.spool.burst_requests` (seeds
    striped, so it is cache-cold by construction — the workload the
    throughput benchmark needs), written with one ``submit_jobs`` call.

    The wait loop tails the root's **event log**: every serving process
    emits a terminal ``released`` (or ``reclaimed``) event carrying the
    job's submit-to-finish latency, so the hot path reads appended bytes
    only — zero per-tick spool scans, however many jobs are pending.
    ``verify=True`` re-derives the counts and percentiles from the spool
    records once the burst settles (``spool_check`` on the report; the CLI
    prints both) to prove the two sources agree.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    requests = burst_requests(
        scenario, jobs, params, priority, max_attempts, id_prefix=f"load-{uuid.uuid4().hex[:6]}"
    )
    report = LoadgenReport(scenario=scenario, submitted=jobs)
    root = Path(root)
    # Open the cursor before submitting so no terminal event can be missed;
    # the first poll() drains (and discards) whatever history the log holds.
    cursor = EventCursor(root)
    cursor.poll()
    start = time.perf_counter()
    submitted = submit_jobs(root, requests)
    if not wait:
        report.wall_seconds = time.perf_counter() - start
        return report
    pending = {job.job_id: job for job in submitted}
    metrics_records: List[Dict[str, object]] = []
    deadline = time.monotonic() + timeout
    while pending and time.monotonic() < deadline:
        for record in cursor.poll():
            if record.get("event") == "metrics":
                metrics_records.append(record)
                continue
            if record.get("event") not in ("released", "reclaimed"):
                continue
            job_id = record.get("job")
            status = record.get("status")
            if not isinstance(job_id, str) or job_id not in pending:
                continue
            if status not in TERMINAL_STATUSES:
                continue  # a retry went back to queued; keep waiting
            job = pending.pop(job_id)
            if status == "done":
                report.done += 1
            elif status == "failed":
                report.failed += 1
            else:
                report.cancelled += 1
            latency = record.get("latency")
            if not isinstance(latency, (int, float)):
                # Events of jobs that died without a finished_at stamp (a
                # reclaimed-to-terminal job) carry no latency; the event
                # timestamp bounds it.
                latency = max(0.0, float(record.get("ts", 0.0)) - job.created_at)
            report.latencies.append(float(latency))
        if pending:
            time.sleep(poll)
    report.timed_out = len(pending)
    report.wall_seconds = time.perf_counter() - start
    # The last metrics snapshot rides the forced heartbeat *after* the final
    # release event, so drain the cursor once more before aggregating.
    for record in cursor.poll():
        if record.get("event") == "metrics":
            metrics_records.append(record)
    merged, _ = fleet_metrics_from_events(metrics_records)
    steps = float(merged.get("anneal.steps", {}).get("value", 0.0))
    seconds = float(merged.get("anneal.seconds", {}).get("value", 0.0))
    if seconds > 0.0:
        report.anneal_steps_per_s = steps / seconds
    if verify:
        report.spool_check = _loadgen_spool_check(root, submitted)
    return report


def _loadgen_spool_check(root: Path, submitted: List[Job]) -> Dict[str, object]:
    """Spool-derived counts + percentiles of one burst (the parity check).

    This is the pre-event-log measurement path — one job-record read per
    submitted job — kept off the hot loop and behind ``verify`` so loadgen
    normally never scans the spool at all.
    """
    counts = {"done": 0, "failed": 0, "cancelled": 0}
    latencies: List[float] = []
    for job in submitted:
        settled = load_job(job_path(root, job.job_id))
        if settled is None:
            continue  # still leased or never finished; not a settled job
        if settled.status in counts:
            counts[settled.status] += 1
        latency = settled.latency_seconds()
        if latency is not None:
            latencies.append(latency)
    return {
        **counts,
        "latency_p50": nearest_rank(latencies, 0.50),
        "latency_p90": nearest_rank(latencies, 0.90),
        "latency_p99": nearest_rank(latencies, 0.99),
    }


def format_loadgen_report(report: LoadgenReport) -> List[str]:
    """The ``repro loadgen`` output lines (greppable by the CI smoke jobs)."""
    lines = [f"loadgen: {report.submitted} job(s) submitted (scenario={report.scenario})"]
    lines.append(
        f"loadgen: {report.done} done, {report.failed} failed, "
        f"{report.cancelled} cancelled"
        + (f", {report.timed_out} timed out" if report.timed_out else "")
        + f" in {report.wall_seconds:.2f}s"
    )
    if report.latencies:
        p50 = report.latency_percentile(0.50)
        p90 = report.latency_percentile(0.90)
        p99 = report.latency_percentile(0.99)
        lines.append(
            f"loadgen: throughput {report.throughput:.2f} jobs/s; "
            f"latency p50={p50:.2f}s p90={p90:.2f}s p99={p99:.2f}s "
            f"max={max(report.latencies):.2f}s"
        )
    if report.anneal_steps_per_s is not None:
        lines.append(f"loadgen: mean anneal step rate {report.anneal_steps_per_s:.0f} steps/s")
    if report.spool_check is not None:
        check = report.spool_check
        lines.append(
            f"loadgen verify[events]: {report.done} done, {report.failed} failed, "
            f"{report.cancelled} cancelled; p50={_fmt_latency(report.latency_percentile(0.50))} "
            f"p90={_fmt_latency(report.latency_percentile(0.90))} "
            f"p99={_fmt_latency(report.latency_percentile(0.99))}"
        )
        lines.append(
            f"loadgen verify[spool]:  {check['done']} done, {check['failed']} failed, "
            f"{check['cancelled']} cancelled; p50={_fmt_latency(check['latency_p50'])} "
            f"p90={_fmt_latency(check['latency_p90'])} p99={_fmt_latency(check['latency_p99'])}"
        )
        agree = (report.done, report.failed, report.cancelled) == (
            check["done"],
            check["failed"],
            check["cancelled"],
        )
        lines.append(f"loadgen verify: {'parity OK' if agree else 'PARITY MISMATCH'}")
    return lines


def _fmt_latency(value: Optional[object]) -> str:
    """Render one latency figure for the verify lines (``-`` when absent)."""
    return f"{value:.2f}s" if isinstance(value, (int, float)) else "-"


__all__ = [
    "DEFAULT_LEASE_TTL",
    "WorkerIdentity",
    "LeaseManager",
    "WorkerConfig",
    "ClusterWorker",
    "serve_worker",
    "ForkedWorker",
    "fork_worker",
    "ClusterConfig",
    "ClusterSupervisor",
    "LoadgenReport",
    "run_loadgen",
    "format_loadgen_report",
]
