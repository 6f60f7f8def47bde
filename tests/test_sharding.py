"""Sharded spool layout: assignment stability, migration, stealing, store gc.

Covers the sharding layer end to end — the stable hash assignment (pinned
values so a dependency bump can never silently re-route a live spool), the
``SpoolLayout`` path arithmetic, the one-shot flat↔sharded migration, the
cluster workers' home-shard-first/steal-in-rotation scan, the per-shard
observability surface and the result store's per-bucket gc accounting.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import _render_cluster, main
from repro.obs.events import read_events
from repro.service import (
    MAX_SHARDS,
    ClusterWorker,
    LeaseManager,
    ResultStore,
    WorkerConfig,
    WorkerIdentity,
    adopt_stray_records,
    ensure_layout,
    gc_service,
    read_layout,
    request_cancel,
    service_status,
    shard_index,
    submit_job,
)
from repro.service.cluster import _striped_job_id
from repro.service.sharding import (
    SHARD_MARKER_NAME,
    SpoolLayout,
    shard_dir_name,
    write_shard_marker,
)
from repro.service.store import bucket_disk_usage, scan_bucket_blobs


def _ids_for_shard(shard: int, shards: int, count: int, prefix: str = "job") -> list:
    """Deterministic job ids that hash to one shard under an N-way layout."""
    ids = []
    index = 0
    while len(ids) < count:
        candidate = f"{prefix}-{index:04d}"
        if shard_index(candidate, shards) == shard:
            ids.append(candidate)
        index += 1
    return ids


def _finish_job(layout: SpoolLayout, job_id: str, status: str = "done") -> None:
    """Rewrite a spool record into a terminal status (simulating a serve)."""
    path = layout.job_path(job_id)
    record = json.loads(path.read_text(encoding="utf-8"))
    record["status"] = status
    path.write_text(json.dumps(record), encoding="utf-8")


# -- assignment --------------------------------------------------------------------


class TestShardAssignment:
    # Pinned against the blake2b scheme: a hash change would re-route every
    # record of every live sharded spool, so these values must never move.
    PINNED = {
        "smoke-00000000": [0, 1, 2, 1, 1],
        "load-abc123-000": [0, 0, 0, 0, 0],
        "dense-bus-1": [0, 0, 1, 2, 6],
        "a": [0, 1, 2, 3, 7],
        "job": [0, 0, 2, 0, 4],
    }
    COUNTS = (1, 2, 3, 4, 8)

    def test_pinned_assignments(self):
        for job_id, expected in self.PINNED.items():
            assert [shard_index(job_id, n) for n in self.COUNTS] == expected

    def test_assignment_is_stable_across_processes(self):
        """A fresh interpreter (fresh hash salt) maps ids identically."""
        script = (
            "from repro.service.sharding import shard_index\n"
            "import json, sys\n"
            "ids = json.loads(sys.argv[1])\n"
            "print(json.dumps({i: [shard_index(i, n) for n in (1, 2, 3, 4, 8)]"
            " for i in ids}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(list(self.PINNED))],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert json.loads(out.stdout) == self.PINNED

    def test_every_id_lands_in_range_and_flat_is_zero(self):
        for index in range(200):
            job_id = f"prop-{index:05d}"
            assert shard_index(job_id, 1) == 0
            for shards in (2, 4, 8, MAX_SHARDS):
                assert 0 <= shard_index(job_id, shards) < shards

    def test_assignment_spreads_over_all_shards(self):
        seen = {shard_index(f"spread-{i}", 8) for i in range(200)}
        assert seen == set(range(8))

    def test_shard_dir_names(self):
        assert shard_dir_name(0) == "s00"
        assert shard_dir_name(63) == "s63"


# -- layout + marker ---------------------------------------------------------------


class TestSpoolLayout:
    def test_flat_layout_reproduces_legacy_paths(self, tmp_path):
        layout = SpoolLayout(root=tmp_path, shards=1)
        assert not layout.sharded
        assert layout.job_path("j1") == tmp_path / "jobs" / "j1.json"
        assert layout.cancel_path("j1") == tmp_path / "jobs" / "j1.cancel"
        assert layout.lease_path("w0", "j1") == tmp_path / "leases" / "w0" / "j1.json"
        assert layout.shard_tag("j1") is None

    def test_sharded_paths_nest_by_hash(self, tmp_path):
        layout = SpoolLayout(root=tmp_path, shards=4)
        job_id = "smoke-00000000"  # pinned: shard 1 of 4
        assert layout.job_path(job_id) == tmp_path / "jobs" / "s01" / f"{job_id}.json"
        assert layout.lease_path("w0", job_id).parent == tmp_path / "leases" / "s01" / "w0"
        assert layout.shard_tag(job_id) == "s01"
        assert layout.shard_names() == ["s00", "s01", "s02", "s03"]

    def test_shard_count_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            SpoolLayout(root=tmp_path, shards=0)
        with pytest.raises(ValueError):
            SpoolLayout(root=tmp_path, shards=MAX_SHARDS + 1)

    def test_marker_round_trip(self, tmp_path):
        write_shard_marker(tmp_path, 6)
        layout = read_layout(tmp_path)
        assert layout.shards == 6

    def test_missing_or_corrupt_marker_reads_flat(self, tmp_path):
        assert read_layout(tmp_path).shards == 1
        (tmp_path / SHARD_MARKER_NAME).write_text("{not json", encoding="utf-8")
        assert read_layout(tmp_path).shards == 1

    def test_unknown_layout_version_is_a_hard_error(self, tmp_path):
        (tmp_path / SHARD_MARKER_NAME).write_text(
            json.dumps({"layout_version": 99, "shards": 4}), encoding="utf-8"
        )
        with pytest.raises(RuntimeError, match="layout version"):
            read_layout(tmp_path)

    def test_nonsense_shard_count_is_a_hard_error(self, tmp_path):
        (tmp_path / SHARD_MARKER_NAME).write_text(
            json.dumps({"layout_version": 1, "shards": "many"}), encoding="utf-8"
        )
        with pytest.raises(RuntimeError, match="corrupt shard marker"):
            read_layout(tmp_path)

    def test_ensure_layout_stamps_marker_without_migrating(self, tmp_path):
        layout = ensure_layout(tmp_path / "svc", shards=3)
        assert layout.shards == 3
        assert read_layout(tmp_path / "svc").shards == 3
        # Reopening without a count keeps the recorded layout.
        assert ensure_layout(tmp_path / "svc").shards == 3


# -- migration ---------------------------------------------------------------------


class TestMigration:
    def test_flat_to_sharded_moves_records_byte_for_byte(self, tmp_path):
        root = tmp_path / "svc"
        jobs = [submit_job(root, "smoke", params={"seed": i}) for i in range(6)]
        originals = {
            job.job_id: (root / "jobs" / f"{job.job_id}.json").read_bytes() for job in jobs
        }
        marker_id = jobs[0].job_id
        (root / "jobs" / f"{marker_id}.cancel").write_text("", encoding="utf-8")
        layout = ensure_layout(root, shards=4)
        assert layout.sharded
        for job_id, payload in originals.items():
            target = layout.job_path(job_id)
            assert target.parent.name == shard_dir_name(shard_index(job_id, 4))
            assert target.read_bytes() == payload  # rename, never re-serialised
        assert layout.cancel_path(marker_id).exists()
        assert not (root / "jobs" / f"{marker_id}.json").exists()

    def test_resharding_n_to_m_rebuckets_everything(self, tmp_path):
        root = tmp_path / "svc"
        ensure_layout(root, shards=4)
        jobs = [
            submit_job(root, "smoke", params={"seed": i}, job_id=f"re-{i:03d}")
            for i in range(8)
        ]
        payloads = {job.job_id: read_layout(root).job_path(job.job_id).read_bytes() for job in jobs}
        layout = ensure_layout(root, shards=3)
        assert layout.shards == 3
        for job_id, payload in payloads.items():
            assert layout.job_path(job_id).read_bytes() == payload
        # The old 4-shard directory of a now-unused index is pruned.
        assert not (root / "jobs" / "s03").exists()

    def test_migration_moves_lease_files_and_reclaim_temps(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        manager = LeaseManager(root, WorkerIdentity.create("w"), lease_ttl=5.0)
        claimed = manager.claim(job.job_id)
        assert claimed is not None
        lease_payload = manager.lease_path(job.job_id).read_bytes()
        # A stranded reclaim temp must ride along: it may be the only copy.
        temp = manager.my_dir / f"{job.job_id}.json.reclaim"
        temp.write_bytes(lease_payload)
        layout = ensure_layout(root, shards=4)
        shard = shard_dir_name(layout.shard_of(job.job_id))
        worker_id = manager.identity.worker_id
        moved = root / "leases" / shard / worker_id / f"{job.job_id}.json"
        assert moved.read_bytes() == lease_payload
        assert (moved.parent / f"{job.job_id}.json.reclaim").exists()
        assert not (root / "leases" / worker_id).exists()  # old dir pruned

    def test_migration_refuses_a_live_fleet(self, tmp_path):
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        (root / "workers").mkdir(exist_ok=True)
        (root / "workers" / "w-live.json").write_text(
            json.dumps(
                {
                    "worker_id": "w-live",
                    "pid": 999999,
                    "updated_at": time.time(),
                    "poll_interval": 0.1,
                    "stopped": False,
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(RuntimeError, match="live processes"):
            ensure_layout(root, shards=4)
        # A stale (dead) heartbeat no longer blocks the migration.
        beat = json.loads((root / "workers" / "w-live.json").read_text())
        beat["updated_at"] = time.time() - 3600
        (root / "workers" / "w-live.json").write_text(json.dumps(beat), encoding="utf-8")
        assert ensure_layout(root, shards=4).sharded

    def test_migration_emits_resharded_event(self, tmp_path):
        root = tmp_path / "svc"
        for i in range(5):
            submit_job(root, "smoke", params={"seed": i})
        ensure_layout(root, shards=2)
        events = read_events(root, event="resharded")
        assert len(events) == 1
        assert events[0]["previous"] == 1
        assert events[0]["shards"] == 2
        assert events[0]["moved"] >= 1


# -- stray adoption (submit racing the migration) ----------------------------------


class TestStrayAdoption:
    def test_adopt_moves_flat_records_and_markers_into_their_shard(self, tmp_path):
        root = tmp_path / "svc"
        layout = ensure_layout(root, shards=4)
        job_id = _ids_for_shard(2, 4, 1, prefix="stray")[0]
        submit_job(root, "smoke", job_id=job_id)
        # Simulate a submitter whose layout read predated the shard marker:
        # its record and cancel marker land on the flat paths.
        flat = SpoolLayout(root)
        os.rename(layout.job_path(job_id), flat.job_path(job_id))
        flat.cancel_path(job_id).write_text("", encoding="utf-8")
        assert adopt_stray_records(layout) == 2
        assert layout.job_path(job_id).exists()
        assert layout.cancel_path(job_id).exists()
        assert not flat.job_path(job_id).exists()
        assert not flat.cancel_path(job_id).exists()
        events = read_events(root, event="adopted")
        assert len(events) == 1
        assert events[0]["moved"] == 2
        assert adopt_stray_records(layout) == 0  # idempotent once clean

    def test_adopt_is_a_noop_on_flat_roots(self, tmp_path):
        root = tmp_path / "svc"
        layout = ensure_layout(root)
        submit_job(root, "smoke", job_id="flat-0001")
        assert adopt_stray_records(layout) == 0
        assert layout.job_path("flat-0001").exists()
        assert read_events(root, event="adopted") == []

    def test_worker_adopts_and_drains_a_stray_record(self, tmp_path):
        root = tmp_path / "svc"
        layout = ensure_layout(root, shards=2)
        job_id = _ids_for_shard(1, 2, 1, prefix="stray")[0]
        submit_job(root, "smoke", job_id=job_id)
        os.rename(layout.job_path(job_id), SpoolLayout(root).job_path(job_id))
        worker = ClusterWorker(WorkerConfig(root=root, home_shard=0, poll_interval=0.02))
        job = worker.step()
        assert job is not None
        assert job.job_id == job_id
        record = json.loads(layout.job_path(job_id).read_text(encoding="utf-8"))
        assert record["status"] == "done"
        claims = read_events(root, event="claimed")
        assert [claim["job"] for claim in claims] == [job_id]
        assert claims[0]["shard"] == "s01"
        assert claims[0]["steal"] is True  # adopted into s01, stolen by the s00 home


# -- sharded service end-to-end ----------------------------------------------------


class TestShardedService:
    def test_daemon_serves_a_migrated_root(self, tmp_path):
        root = tmp_path / "svc"
        for i in range(5):
            submit_job(root, "smoke", params={"seed": i}, job_id=f"smoke-{i:08d}")
        ensure_layout(root, shards=4)  # what `serve --shards 4` does first
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.01))
        assert worker.run(max_jobs=5, idle_exit=0.2) == 5
        report = service_status(root)
        assert report["jobs"]["counts"] == {"done": 5}
        claimed = read_events(root, event="claimed")
        assert {event["job"] for event in claimed} == {f"smoke-{i:08d}" for i in range(5)}
        assert all(str(event.get("shard", "")).startswith("s") for event in claimed)

    def test_cancel_lands_in_the_jobs_shard(self, tmp_path):
        root = tmp_path / "svc"
        ensure_layout(root, shards=4)
        job = submit_job(root, "smoke", job_id="cancel-me")
        layout = read_layout(root)
        assert request_cancel(root, job.job_id) is True
        assert layout.cancel_path(job.job_id).exists()
        events = read_events(root, event="cancel-requested")
        assert events[-1]["shard"] == layout.shard_tag(job.job_id)

    def test_gc_purge_sweeps_orphan_markers_in_every_shard(self, tmp_path):
        """The fix pin: orphaned cancel markers are swept shard by shard."""
        root = tmp_path / "svc"
        layout = ensure_layout(root, shards=4)
        first, second = _ids_for_shard(0, 4, 1)[0], _ids_for_shard(2, 4, 1)[0]
        for job_id in (first, second):
            submit_job(root, "smoke", job_id=job_id)
            _finish_job(layout, job_id)
            layout.cancel_path(job_id).write_text("", encoding="utf-8")
        # A marker of a *leased* job is pending, not orphaned: it survives.
        pending = _ids_for_shard(1, 4, 1, prefix="pend")[0]
        submit_job(root, "smoke", job_id=pending)
        manager = LeaseManager(root, WorkerIdentity.create("w"), lease_ttl=30.0)
        assert manager.claim(pending) is not None
        layout.cancel_path(pending).write_text("", encoding="utf-8")
        report = gc_service(root, purge_jobs=True)
        assert report["purged_jobs"] == 2
        assert not layout.cancel_path(first).exists()
        assert not layout.cancel_path(second).exists()
        assert layout.cancel_path(pending).exists()

    def test_gc_sweeps_dead_worker_lease_dirs_across_shards(self, tmp_path):
        root = tmp_path / "svc"
        layout = ensure_layout(root, shards=3)
        (root / "workers").mkdir(exist_ok=True)
        (root / "workers" / "w-dead.json").write_text(
            json.dumps(
                {
                    "worker_id": "w-dead",
                    "pid": 999999,
                    "updated_at": time.time() - 3600,
                    "poll_interval": 0.1,
                    "stopped": False,
                }
            ),
            encoding="utf-8",
        )
        for directory in layout.worker_lease_dirs("w-dead"):
            directory.mkdir(parents=True, exist_ok=True)
        assert gc_service(root)["purged_workers"] == 1
        assert not (root / "workers" / "w-dead.json").exists()
        assert all(not d.exists() for d in layout.worker_lease_dirs("w-dead"))

    def test_gc_keeps_dead_worker_with_a_pending_lease_in_any_shard(self, tmp_path):
        root = tmp_path / "svc"
        layout = ensure_layout(root, shards=3)
        job = submit_job(root, "smoke", job_id=_ids_for_shard(2, 3, 1)[0])
        manager = LeaseManager(root, WorkerIdentity.create("w"), lease_ttl=30.0)
        assert manager.claim(job.job_id) is not None
        worker_id = manager.identity.worker_id
        beat_path = root / "workers" / f"{worker_id}.json"
        beat_path.parent.mkdir(parents=True, exist_ok=True)
        beat_path.write_text(
            json.dumps(
                {
                    "worker_id": worker_id,
                    "pid": 999999,
                    "updated_at": time.time() - 3600,
                    "poll_interval": 0.1,
                    "stopped": False,
                }
            ),
            encoding="utf-8",
        )
        assert gc_service(root)["purged_workers"] == 0
        assert beat_path.exists()  # the pending lease still needs its owner


# -- work stealing -----------------------------------------------------------------


class TestWorkStealing:
    def test_scan_order_starts_at_home_and_rotates(self, tmp_path):
        root = tmp_path / "svc"
        ensure_layout(root, shards=4)
        worker = ClusterWorker(WorkerConfig(root=root, home_shard=2, poll_interval=0.02))
        assert worker._shard_scan_order() == [2, 3, 0, 1]

    def test_home_shard_wraps_modulo_shard_count(self, tmp_path):
        root = tmp_path / "svc"
        ensure_layout(root, shards=4)
        worker = ClusterWorker(WorkerConfig(root=root, home_shard=6, poll_interval=0.02))
        assert worker.home_shard == 2

    def test_negative_home_shard_is_rejected(self):
        with pytest.raises(ValueError):
            WorkerConfig(root="ignored", home_shard=-1)

    def test_home_shard_drains_before_stealing(self, tmp_path):
        root = tmp_path / "svc"
        ensure_layout(root, shards=2)
        home_ids = _ids_for_shard(0, 2, 2, prefix="home")
        away_ids = _ids_for_shard(1, 2, 2, prefix="away")
        for job_id in away_ids + home_ids:  # submit foreign work *first*
            submit_job(root, "smoke", job_id=job_id)
        worker = ClusterWorker(WorkerConfig(root=root, home_shard=0, poll_interval=0.02))
        order = []
        for _ in range(4):
            claimed = worker._claim_next()
            assert claimed is not None
            order.append(claimed.job_id)
        assert order[:2] == sorted(home_ids)  # home first, despite arriving later
        assert sorted(order[2:]) == sorted(away_ids)
        claims = read_events(root, event="claimed")
        stolen = {event["job"] for event in claims if event.get("steal")}
        assert stolen == set(away_ids)
        assert all(not event.get("steal") for event in claims if event["job"] in home_ids)

    def test_two_workers_steal_race_is_exactly_once(self, tmp_path):
        """Two workers homed on the same shard racing steals: one winner each."""
        root = tmp_path / "svc"
        ensure_layout(root, shards=2)
        job_ids = _ids_for_shard(1, 2, 4, prefix="steal")  # all away from home 0
        for job_id in job_ids:
            submit_job(root, "smoke", job_id=job_id)
        workers = [
            ClusterWorker(WorkerConfig(root=root, home_shard=0, poll_interval=0.02))
            for _ in range(2)
        ]
        done = []
        errors = []

        def drain(worker):
            try:
                while True:
                    job = worker.step()
                    if job is None:
                        break
                    done.append(job.job_id)
            except Exception as error:  # pragma: no cover — the assertion target
                errors.append(error)

        threads = [threading.Thread(target=drain, args=(w,)) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert sorted(done) == sorted(job_ids)  # each job served exactly once
        layout = read_layout(root)
        for job_id in job_ids:
            record = json.loads(layout.job_path(job_id).read_text(encoding="utf-8"))
            assert record["status"] == "done"
            assert len(record["executions"]) == 1, f"{job_id} double-executed"
            assert record["executions"][0]["shard"] == "s01"
        claims = read_events(root, event="claimed")
        assert len(claims) == len(job_ids)
        assert all(event.get("steal") for event in claims)

    def test_flat_root_claims_carry_no_shard_or_steal_tags(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02))
        assert worker.step().status == "done"
        (claim,) = read_events(root, event="claimed")
        assert "shard" not in claim and "steal" not in claim
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert "shard" not in record["executions"][0]


# -- loadgen striping --------------------------------------------------------------


class TestLoadgenStriping:
    def test_flat_ids_are_the_plain_burst_ids(self, tmp_path):
        layout = SpoolLayout(root=tmp_path, shards=1)
        assert _striped_job_id(layout, "abc", 7) == "load-abc-007"

    def test_striped_ids_cover_shards_round_robin(self, tmp_path):
        layout = SpoolLayout(root=tmp_path, shards=4)
        for index in range(12):
            job_id = _striped_job_id(layout, "abc", index)
            assert layout.shard_of(job_id) == index % 4
            assert job_id.startswith(f"load-abc-{index:03d}")


# -- per-shard observability -------------------------------------------------------


class TestShardObservability:
    def test_status_reports_per_shard_depths(self, tmp_path):
        root = tmp_path / "svc"
        layout = ensure_layout(root, shards=2)
        queued = _ids_for_shard(0, 2, 2, prefix="q")
        leased = _ids_for_shard(1, 2, 1, prefix="l")[0]
        for job_id in queued + [leased]:
            submit_job(root, "smoke", job_id=job_id)
        manager = LeaseManager(root, WorkerIdentity.create("w"), lease_ttl=30.0)
        assert manager.claim(leased) is not None
        cluster = service_status(root)["cluster"]
        assert cluster["shards"] == {
            "s00": {"queued": 2, "leased": 0},
            "s01": {"queued": 0, "leased": 1},
        }
        (lease,) = cluster["leases"]
        assert lease["shard"] == "s01"
        rendered = _render_cluster(cluster)
        assert "shard s00: queued=2 leased=0" in rendered
        assert "shard s01: queued=0 leased=1" in rendered
        assert f"{leased} held by {manager.identity.worker_id} in s01" in rendered

    def test_flat_status_keeps_the_legacy_shape(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        manager = LeaseManager(root, WorkerIdentity.create("w"), lease_ttl=30.0)
        assert manager.claim(job.job_id) is not None
        cluster = service_status(root)["cluster"]
        assert "shards" not in cluster
        assert all("shard" not in lease for lease in cluster["leases"])

    def test_events_cli_filters_by_shard(self, tmp_path, capsys):
        root = tmp_path / "svc"
        ensure_layout(root, shards=2)
        for job_id in _ids_for_shard(0, 2, 2, prefix="f0") + _ids_for_shard(1, 2, 1, prefix="f1"):
            submit_job(root, "smoke", job_id=job_id)
        assert main(["events", "--root", str(root), "--shard", "s01", "--json"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines and all(record["shard"] == "s01" for record in lines)
        assert {record["event"] for record in lines} == {"submitted"}

    def test_worker_heartbeat_reports_home_shard(self, tmp_path):
        root = tmp_path / "svc"
        ensure_layout(root, shards=4)
        submit_job(root, "smoke", job_id=_ids_for_shard(3, 4, 1)[0])
        worker = ClusterWorker(WorkerConfig(root=root, home_shard=3, poll_interval=0.02))
        assert worker.run(max_jobs=1, idle_exit=0.1) == 1
        beat = json.loads(
            (root / "workers" / f"{worker.identity.worker_id}.json").read_text()
        )
        assert beat["home_shard"] == "s03"
        (started,) = read_events(root, event="worker-started")
        assert started["home_shard"] == "s03"


# -- store: per-bucket gc accounting -----------------------------------------------


class TestBucketedStoreGc:
    def _fill(self, store, prefixes, per_bucket=3, mtime_base=1000):
        signatures = []
        clock = mtime_base
        for prefix in prefixes:
            for index in range(per_bucket):
                signature = f"{prefix}{index:x}" + "e" * (64 - len(prefix) - 1)
                store.put_layout(signature, tuple(range(16)))
                os.utime(store._blob_path(signature), (clock, clock))
                signatures.append(signature)
                clock += 1
        return signatures

    def test_capped_store_accounts_per_bucket(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_bytes=10**9)
        self._fill(store, ["aa", "bb"])
        assert set(store._bucket_bytes) == {"aa", "bb"}
        for bucket, size in store._bucket_bytes.items():
            assert size == bucket_disk_usage(tmp_path / "store" / "blobs" / bucket)[1]

    def test_gc_stats_only_the_buckets_it_may_evict_from(self, tmp_path, monkeypatch):
        from repro.service import store as store_module

        store = ResultStore(tmp_path / "store", max_bytes=10**9)
        self._fill(store, ["aa", "bb", "cc", "dd"])
        total = store.total_bytes()
        scanned = []
        real = scan_bucket_blobs
        monkeypatch.setattr(
            store_module,
            "scan_bucket_blobs",
            lambda directory: (scanned.append(directory.name), real(directory))[1],
        )
        evicted = store.gc(total - 8)  # just over: one bucket covers the overflow
        assert evicted >= 1
        assert len(scanned) == 1  # three of four buckets were never statted
        assert store.total_bytes() <= total - 8

    def test_gc_accounting_resyncs_to_exact_after_eviction(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_bytes=10**9)
        self._fill(store, ["aa", "bb"])
        store.gc(store.total_bytes() // 2)
        blobs = tmp_path / "store" / "blobs"
        for bucket, size in store._bucket_bytes.items():
            assert size == bucket_disk_usage(blobs / bucket)[1]
        assert store._approx_bytes == sum(store._bucket_bytes.values())

    def test_write_cap_bounds_the_store_across_buckets(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_bytes=600)
        for index in range(24):
            signature = f"{index % 8:02x}" + "f" * 62
            store.put_layout(signature, (index,))
        assert store.total_bytes() <= 600
        assert store.stats().evictions >= 1
        # Whatever survived the churn still round-trips.
        survivors = store.signatures()
        assert survivors
        assert store.get_layout(survivors[0]) is not None

    def test_disk_usage_resyncs_drift_from_concurrent_deletes(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_bytes=10**9)
        signatures = self._fill(store, ["aa", "bb"], per_bucket=2)
        store._blob_path(signatures[0]).unlink()  # a concurrent gc got it
        entries, total = store.disk_usage()
        assert entries == 3
        assert store._approx_bytes == total
        assert set(store._bucket_bytes) == {"aa", "bb"}

    def test_gc_trusts_the_account_when_under_cap(self, tmp_path, monkeypatch):
        from repro.service import store as store_module

        store = ResultStore(tmp_path / "store", max_bytes=10**9)
        self._fill(store, ["aa", "bb"])
        monkeypatch.setattr(
            store_module,
            "scan_bucket_blobs",
            lambda directory: pytest.fail("under-cap gc must not stat any bucket"),
        )
        assert store.gc() == 0  # account says we fit: zero filesystem scans

    def test_uncapped_store_keeps_exact_global_lru(self, tmp_path):
        """No account to consult: explicit-cap gc stays strict oldest-first."""
        store = ResultStore(tmp_path / "store")
        assert store._bucket_bytes is None
        signatures = self._fill(store, ["aa", "bb"], per_bucket=2)
        blob_size = store.total_bytes() // 4
        assert store.gc(max_bytes=2 * blob_size) == 2
        assert store.signatures() == sorted(signatures[2:])  # the two oldest went
