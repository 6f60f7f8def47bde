"""The flat spool's on-disk formats, pinned key for key.

One flat burst -- submit, a worker claim and release, a cancel and a gc --
is driven through the CLI verbs and the cluster worker, and every file and
event it leaves is compared with the key set *and key order* this release
writes: a job record, a lease file, a worker heartbeat and each event type.
Readers of older roots, ``status --json`` consumers and CI greps all rely
on these shapes, so a refactor of the spool code must leave them alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.obs.events import iter_events
from repro.service.cluster import ClusterWorker, LeaseManager, WorkerConfig, WorkerIdentity

JOB_KEYS = [
    "job_id",
    "scenario",
    "params",
    "priority",
    "status",
    "attempts",
    "max_attempts",
    "error",
    "result",
    "cancel_requested",
    "created_at",
    "executions",
]
EXECUTION_KEYS = ["worker", "attempt", "claimed_at", "finished_at"]
LEASE_KEYS = ["worker_id", "claimed_at", "expires_at", "lease_ttl", "job"]
HEARTBEAT_KEYS = [
    "worker_id",
    "pid",
    "started_at",
    "updated_at",
    "poll_interval",
    "lease_ttl",
    "stopped",
    "backend",
    "jobs_done",
    "jobs_failed",
    "jobs_cancelled",
    "jobs_reclaimed",
    "lease",
    "cache",
]
HEARTBEAT_CACHE_KEYS = ["hits", "misses", "store_hits"]
EVENT_HEAD = ["v", "seq", "ts", "writer", "event"]
#: Keys after the common head, per event type the burst emits.
EVENT_KEYS = {
    "submitted": ["job", "scenario", "priority"],
    "claimed": ["job", "worker", "attempt"],
    "released": ["job", "worker", "status", "latency"],
    "cancel-requested": ["job"],
    "worker-started": ["worker", "pid"],
    "metrics": ["worker", "nonce", "metrics"],
    "worker-stopped": ["worker", "jobs"],
    "gc": ["evicted_blobs", "purged_jobs", "purged_workers"],
}


def _submit(root: Path, capsys) -> str:
    assert main(["submit", "--root", str(root), "--scenario", "smoke"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("submitted ")
    return line.split()[1]


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_flat_burst_keeps_every_record_shape(tmp_path, capsys):
    root = tmp_path / "svc"
    first = _submit(root, capsys)
    second = _submit(root, capsys)
    assert list(_read(root / "jobs" / f"{first}.json")) == JOB_KEYS

    # A claim and a release by hand, so the lease file can be read mid-run.
    manager = LeaseManager(root, WorkerIdentity.create("pin"))
    job = manager.claim(first)
    assert job is not None
    lease = _read(manager.lease_path(first))
    assert list(lease) == LEASE_KEYS
    assert list(lease["job"]) == JOB_KEYS
    job.status = "done"
    job.finish_execution()
    assert manager.release(job)

    assert main(["cancel", "--root", str(root), second]) == 0
    worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.01))
    assert worker.run(max_jobs=1, idle_exit=0.05) == 1

    for job_id, status in ((first, "done"), (second, "cancelled")):
        record = _read(root / "jobs" / f"{job_id}.json")
        assert list(record) == JOB_KEYS
        assert record["status"] == status
        (execution,) = record["executions"]
        assert list(execution) == EXECUTION_KEYS
    heartbeat = _read(root / "workers" / f"{worker.identity.worker_id}.json")
    assert list(heartbeat) == HEARTBEAT_KEYS
    assert list(heartbeat["cache"]) == HEARTBEAT_CACHE_KEYS

    assert main(["gc", "--root", str(root), "--purge-jobs"]) == 0
    assert sorted(path.name for path in (root / "jobs").iterdir()) == []

    seen = set()
    for record in iter_events(root):
        kind = record["event"]
        seen.add(kind)
        assert list(record) == EVENT_HEAD + EVENT_KEYS[kind], kind
    assert seen == set(EVENT_KEYS)
