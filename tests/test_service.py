"""Tests for the repro.service layer (store, jobs, scheduler, spool, cluster).

The warm-start tests enforce the subsystem's headline guarantee: a second
run over the same workload with the persistent store enabled performs
*zero* redundant panel solves — in-process with a fresh cache, across
worker restarts, and across real CLI processes.  The cluster tests at the
bottom enforce the multi-worker guarantees: exactly-one claim winner under
contention, lease-expiry reclaim from dead workers only, and supervisor
restart of crashed fleet members.  The flat-spool tests pin the record
paths and shapes and the refusal of roots an earlier release sharded; the
last class covers the store's per-bucket gc accounting.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro.engine.signature as signature_module
import repro.service.cluster as cluster_module
from repro.engine.cache import CacheStats, SolutionCache
from repro.engine.panels import Engine
from repro.engine.signature import SIGNATURE_VERSION, panel_signature
from repro.gsino.config import GsinoConfig
from repro.gsino.pipeline import compare_flows
from repro.obs.events import event_log_for, read_events
from repro.obs.metrics import process_registry
from repro.service.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    ClusterWorker,
    LeaseManager,
    WorkerConfig,
    WorkerIdentity,
    fork_worker,
    run_loadgen,
)
from repro.service.gateway.server import GatewayConfig, GatewayRunner
from repro.service.scenarios import SCENARIO_NAMES, generate_scenario, scenario_spec
from repro.service.scheduler import Scheduler, batch_compatible
from repro.service.spool import (
    STALE_HEARTBEAT_SECONDS,
    WORKER_STALE_SECONDS,
    Job,
    SubmitRequest,
    active_leases,
    cancel_path,
    doorbell_path,
    gc_service,
    heartbeat_is_fresh,
    job_path,
    read_worker_heartbeats,
    request_cancel,
    service_status,
    submit_job,
    submit_jobs,
    wait_for_job,
    worker_is_alive,
)
from repro.service.store import (
    FORMAT_VERSION,
    ResultStore,
    bucket_disk_usage,
    evict_scanned_blobs,
    scan_blobs,
    scan_bucket_blobs,
)
from repro.sino.anneal import AnnealConfig, anneal_sino


def _smoke_tasks():
    return generate_scenario("smoke")


def _lone_worker(root: Path, **overrides) -> ClusterWorker:
    """The single worker `repro serve` runs without --workers."""
    config = dict(root=root, poll_interval=0.01)
    config.update(overrides)
    return ClusterWorker(WorkerConfig(**config))


# -- ResultStore ---------------------------------------------------------------------


class TestResultStore:
    def test_round_trip_and_stats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        layout = (0, None, 1, None, 2)
        assert store.get_layout("ab" + "0" * 62) is None
        store.put_layout("ab" + "0" * 62, layout)
        assert store.get_layout("ab" + "0" * 62) == layout
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert len(store) == 1
        assert store.total_bytes() > 0

    def test_reopen_preserves_blobs(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).put_layout("cd" + "1" * 62, (3, None, 4))
        reopened = ResultStore(root)
        assert reopened.get_layout("cd" + "1" * 62) == (3, None, 4)

    def test_double_write_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_layout("ee" + "2" * 62, (1, 2))
        store.put_layout("ee" + "2" * 62, (1, 2))
        assert len(store) == 1

    def test_write_recreates_a_removed_bucket(self, tmp_path):
        import shutil

        store = ResultStore(tmp_path / "store")
        store.put_layout("bb" + "5" * 62, (1, None, 2))
        shutil.rmtree(store._blob_path("bb" + "5" * 62).parent)
        store.put_layout("bb" + "6" * 62, (3, None, 4))
        assert store.get_layout("bb" + "6" * 62) == (3, None, 4)

    def test_second_write_to_a_bucket_makes_no_directory(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        calls = []
        original = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        store.put_layout("cc" + "7" * 62, (1, 2))
        assert len(calls) == 1
        store.put_layout("cc" + "8" * 62, (2, 1))
        assert len(calls) == 1
        assert store.get_layout("cc" + "8" * 62) == (2, 1)

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",
            json.dumps(
                {"signature": "wrong", "signature_version": SIGNATURE_VERSION, "layout": [1]}
            ),
            json.dumps({"signature_version": SIGNATURE_VERSION, "layout": [1]}),
            json.dumps({"signature": None, "layout": "nope"}),
            json.dumps([1, 2, 3]),
        ],
    )
    def test_corrupted_blob_is_dropped_not_served(self, tmp_path, payload):
        store = ResultStore(tmp_path / "store")
        signature = "ff" + "3" * 62
        store.put_layout(signature, (5, None))
        store._blob_path(signature).write_text(payload)
        assert store.get_layout(signature) is None
        assert store.stats().corrupt_dropped == 1
        assert signature not in store  # the bad blob is gone from disk

    def test_bad_layout_entries_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        signature = "aa" + "4" * 62
        path = store._blob_path(signature)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "signature": signature,
                    "signature_version": SIGNATURE_VERSION,
                    "layout": [1, "shield", 2],
                }
            )
        )
        assert store.get_layout(signature) is None
        assert store.stats().corrupt_dropped == 1

    def test_signature_version_mismatch_clears_store(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put_layout("bb" + "5" * 62, (7,))
        meta = json.loads((root / "store.json").read_text())
        assert meta == {
            "format_version": FORMAT_VERSION,
            "signature_version": SIGNATURE_VERSION,
        }
        meta["signature_version"] = SIGNATURE_VERSION - 1
        (root / "store.json").write_text(json.dumps(meta))
        reopened = ResultStore(root)
        assert len(reopened) == 0
        assert reopened.stats().evictions == 1
        # The metadata was rewritten to the current versions.
        assert json.loads((root / "store.json").read_text())["signature_version"] == (
            SIGNATURE_VERSION
        )

    def test_lru_eviction_by_size(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        signatures = [f"{i:02d}" + "6" * 62 for i in range(4)]
        for index, signature in enumerate(signatures):
            store.put_layout(signature, tuple(range(8)))
            os.utime(store._blob_path(signature), (1000 + index, 1000 + index))
        blob_size = store.total_bytes() // 4
        evicted = store.gc(max_bytes=2 * blob_size)
        assert evicted == 2
        assert store.signatures() == sorted(signatures[2:])  # the two oldest went

    def test_hit_refreshes_lru_clock(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        signatures = [f"{i:02d}" + "7" * 62 for i in range(3)]
        for index, signature in enumerate(signatures):
            store.put_layout(signature, (index,))
            os.utime(store._blob_path(signature), (2000 + index, 2000 + index))
        assert store.get_layout(signatures[0]) is not None  # oldest becomes newest
        blob_size = store.total_bytes() // 3
        store.gc(max_bytes=2 * blob_size)
        assert signatures[0] in store
        assert signatures[1] not in store

    def test_write_cap_triggers_eviction(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_bytes=1)
        store.put_layout("cc" + "8" * 62, (1, 2, 3))
        store.put_layout("dd" + "8" * 62, (4, 5, 6))
        assert len(store) <= 1
        assert store.stats().evictions >= 1


# -- two-tier SolutionCache ----------------------------------------------------------


class TestTieredCache:
    def test_store_hit_promotes_and_counts(self, tmp_path, random_sino_problem):
        problem = random_sino_problem(5, 0.4, 2.0, seed=3)
        store = ResultStore(tmp_path / "store")
        first = SolutionCache(store=store)
        engine = Engine(cache=first)
        solution = engine.solve_panel(problem)
        assert first.stats() == CacheStats(misses=1)

        second = SolutionCache(store=store)  # fresh process, same store
        warm = Engine(cache=second)
        served = warm.solve_panel(problem)
        assert served.layout == solution.layout
        assert second.stats() == CacheStats(store_hits=1)
        # Promoted into memory: the next lookup never touches the disk.
        warm.solve_panel(problem)
        assert second.stats() == CacheStats(hits=1, store_hits=1)

    def test_poisoned_blob_becomes_a_miss_and_is_dropped(
        self, tmp_path, random_sino_problem
    ):
        """A blob valid in shape but wrong in content must never crash a hit."""
        problem = random_sino_problem(5, 0.4, 2.0, seed=3)
        store = ResultStore(tmp_path / "store")
        engine = Engine(cache=SolutionCache(store=store))
        engine.solve_panel(problem)
        signature = store.signatures()[0]
        blob_path = store._blob_path(signature)
        payload = json.loads(blob_path.read_text())
        payload["layout"] = [97, 98, 99]  # valid ints, wrong segments
        blob_path.write_text(json.dumps(payload))

        warm = Engine(cache=SolutionCache(store=store))
        solution = warm.solve_panel(problem)  # re-solves instead of crashing
        assert sorted(s for s in solution.layout if s is not None) == sorted(
            problem.segments
        )
        stats = warm.cache.stats()
        assert stats.misses == 1 and stats.store_hits == 0
        assert store.stats().corrupt_dropped == 1
        # The solve's write-through replaced the poisoned blob with a good one.
        fresh = SolutionCache(store=store)
        assert Engine(cache=fresh).solve_panel(problem).layout == solution.layout
        assert fresh.stats().store_hits == 1

    def test_v4_pair_list_layout_misses_once_then_resolves(self, tmp_path, random_sino_problem):
        """A layout stored under a version-4 key is never restored.

        Version 4 spelled the relation and bounds out as sorted pair and
        bound lists; the key is rebuilt here with that exact layout, and a
        wrong layout is stored under it so a stale hit would show.
        """
        problem = random_sino_problem(9, 0.5, 0.85, seed=6)
        pairs = sorted(
            (problem.segments[i], problem.segments[j])
            for i, j in zip(*problem.sens.nonzero())
            if problem.segments[i] < problem.segments[j]
        )
        model = problem.keff_model
        v4_token = "|".join(
            (
                "v4",
                "segments=" + ",".join(str(segment) for segment in problem.segments),
                "sensitivity=" + ";".join(f"{a}-{b}" for a, b in pairs),
                "kth="
                + ";".join(
                    f"{segment}:{problem.bound_of(segment).hex()}"
                    for segment in sorted(problem.segments)
                ),
                f"default_kth={(0.85).hex()}",  # the bound the problem was built with
                f"capacity={problem.capacity}",
                "keff="
                + ",".join(
                    value.hex()
                    for value in (
                        model.shield_attenuation,
                        model.adjacent_shield_bonus,
                        model.distance_exponent,
                    )
                ),
                "solver=sino",
                "effort=greedy",
                "seed=-",
                "anneal=-",
            )
        )
        v4_key = hashlib.sha256(v4_token.encode("utf-8")).hexdigest()
        assert v4_key != panel_signature(problem, "sino", "greedy")
        store = ResultStore(tmp_path / "store")
        stale = [None, *problem.segments]
        store.put_layout(v4_key, tuple(stale))

        cold = SolutionCache(store=store)
        solved = Engine(cache=cold).solve_panel(problem)
        assert cold.stats() == CacheStats(misses=1)
        assert solved.layout != stale
        warm = SolutionCache(store=store)
        served = Engine(cache=warm).solve_panel(problem)
        assert warm.stats() == CacheStats(store_hits=1)
        assert served.layout == solved.layout

    def test_v5_anneal_layout_misses_once_then_resolves(
        self, tmp_path, monkeypatch, random_sino_problem
    ):
        """A layout stored under the version-5 key of a schedule is never restored.

        Version 5 ended the anneal token with the chain width; the key is
        rebuilt here with that field, and a wrong layout is stored under it
        so a stale hit would show.
        """
        problem = random_sino_problem(9, 0.5, 0.85, seed=6)
        anneal = AnnealConfig(iterations=300, seed=6)
        current_token = signature_module._anneal_token
        with monkeypatch.context() as patch:
            patch.setattr(signature_module, "SIGNATURE_VERSION", 5)
            patch.setattr(
                signature_module, "_anneal_token", lambda config: current_token(config) + ",1"
            )
            v5_key = panel_signature(problem, "sino", "anneal", anneal=anneal)
        assert v5_key != panel_signature(problem, "sino", "anneal", anneal=anneal)
        store = ResultStore(tmp_path / "store")
        stale = [None, *problem.segments]
        store.put_layout(v5_key, tuple(stale))

        cold = SolutionCache(store=store)
        solved = Engine(cache=cold).solve_panel(problem, effort="anneal", anneal=anneal)
        assert cold.stats() == CacheStats(misses=1)
        assert solved.layout != stale
        assert solved.layout == anneal_sino(problem, config=anneal).layout
        warm = SolutionCache(store=store)
        served = Engine(cache=warm).solve_panel(problem, effort="anneal", anneal=anneal)
        assert warm.stats() == CacheStats(store_hits=1)
        assert served.layout == solved.layout

    def test_cache_stats_tiers(self):
        stats = CacheStats(hits=2, misses=1, store_hits=3)
        assert stats.lookups == 6
        assert stats.hit_rate == pytest.approx(5 / 6)
        delta = stats - CacheStats(hits=1, store_hits=1)
        assert delta == CacheStats(hits=1, misses=1, store_hits=2)
        assert "from disk" in str(stats)
        assert "from disk" not in str(CacheStats(hits=2, misses=1))


# -- queue ---------------------------------------------------------------------------


class TestJob:
    def test_job_record_round_trip(self):
        job = Job(job_id="j", scenario="smoke", params={"seed": 4}, priority=3)
        assert Job.from_dict(job.to_dict()) == job
        job.cancel_requested = True  # mid-run cancels survive the spool
        assert Job.from_dict(job.to_dict()).cancel_requested is True


# -- scenarios -----------------------------------------------------------------------


class TestScenarios:
    def test_registry_lists_builtins(self):
        assert "smoke" in SCENARIO_NAMES and "dense-bus" in SCENARIO_NAMES

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_scenario_generates_deterministically(self, name):
        from repro.service.scenarios import scenario_kind

        if scenario_kind(name) == "flow":
            # Flow scenarios run through the stage-graph runner, never the
            # panel-task generator (covered in tests/test_flow.py).
            with pytest.raises(ValueError, match="flow scenario"):
                generate_scenario(name)
            return
        first = generate_scenario(name)
        second = generate_scenario(name)
        assert [task.signature() for task in first] == [task.signature() for task in second]
        assert len(first) == scenario_spec(name).panels
        assert len({task.key for task in first}) == len(first)

    def test_param_overrides_change_signatures(self):
        base = generate_scenario("smoke")
        reseeded = generate_scenario("smoke", {"seed": 99})
        assert {t.signature() for t in base}.isdisjoint(t.signature() for t in reseeded)
        assert len(generate_scenario("smoke", {"panels": 5})) == 5

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            generate_scenario("smoke", {"frobnicate": 1})
        with pytest.raises(KeyError, match="unknown scenario"):
            generate_scenario("no-such-scenario")

    def test_mistyped_parameter_values_rejected(self):
        """Bad values must fail at submit validation, not inside a worker."""
        with pytest.raises(ValueError, match="must be an integer"):
            scenario_spec("smoke").with_params({"seed": "abc"})
        with pytest.raises(ValueError, match="must be an integer"):
            scenario_spec("smoke").with_params({"panels": 2.5})
        with pytest.raises(ValueError, match="must be a number"):
            scenario_spec("smoke").with_params({"sensitivity_rate": "high"})
        with pytest.raises(ValueError, match="must be a string"):
            scenario_spec("smoke").with_params({"effort": 3})
        with pytest.raises(ValueError, match="does not accept"):
            scenario_spec("smoke").with_params({"panels": True})
        # Well-typed overrides still work, ints upgrading float fields.
        assert scenario_spec("smoke").with_params({"sensitivity_rate": 1}).sensitivity_rate == 1.0

    def test_technology_scales_bounds(self):
        tight = generate_scenario("node-70nm")[0].problem
        loose = generate_scenario("node-130nm", {"seed": scenario_spec("node-70nm").seed})[0]
        # Same seed, same structure; only the Vdd-proportional bound scale differs.
        ratio = loose.problem.bounds / tight.bounds
        assert ratio.tolist() == pytest.approx([1.2 / 0.9] * tight.num_segments)


# -- scheduler -----------------------------------------------------------------------


class TestScheduler:
    def test_executes_job_and_records_outcome(self):
        scheduler = Scheduler(engine=Engine(cache=SolutionCache()))
        result = scheduler.execute_job(Job(job_id="j", scenario="smoke")).to_dict()
        assert result["panels"] == len(_smoke_tasks())
        assert result["valid_panels"] == result["panels"]
        assert result["cache"]["misses"] == result["panels"]

    def test_batches_group_by_solver_and_effort(self):
        tasks = generate_scenario("smoke") + generate_scenario(
            "ordering-baseline", {"panels": 2}
        )
        batches = batch_compatible(tasks)
        assert [len(batch) for batch in batches] == [3, 2]
        assert {(t.solver, t.effort) for t in batches[0]} == {("sino", "greedy")}
        assert {(t.solver, t.effort) for t in batches[1]} == {("ordering", "greedy")}

    def test_batch_size_bounds_homogeneous_jobs(self):
        """A one-effort job must still get multiple batch boundaries."""
        tasks = generate_scenario("mixed-width")  # 10 panels, one (solver, effort)
        batches = batch_compatible(tasks, max_size=4)
        assert [len(batch) for batch in batches] == [4, 4, 2]
        assert [task for batch in batches for task in batch] == tasks
        with pytest.raises(ValueError, match="max_size"):
            batch_compatible(tasks, max_size=0)

    def test_long_job_heartbeats_between_batches(self, tmp_path):
        """_on_batch fires once per sub-batch, not once per job."""
        root = tmp_path / "svc"
        submit_job(root, "mixed-width")  # 10 homogeneous panels
        worker = _lone_worker(root)
        worker.scheduler.batch_size = 4
        pulses = []
        worker.scheduler.on_batch = lambda job: pulses.append(job.job_id)
        worker.run(max_jobs=1, idle_exit=0.05)
        assert len(pulses) == 3

    def test_failure_retries_then_succeeds(self, tmp_path, monkeypatch):
        import repro.service.scheduler as scheduler_module

        calls = {"count": 0}
        real = scheduler_module.generate_scenario

        def flaky(name, params=None):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient failure")
            return real(name, params)

        monkeypatch.setattr(scheduler_module, "generate_scenario", flaky)
        root = tmp_path / "svc"
        submit_job(root, "smoke", max_attempts=2)
        worker = _lone_worker(root)
        first = worker.step()
        assert first.status == "queued" and "transient failure" in first.error
        second = worker.step()
        assert second.status == "done" and second.attempts == 2

    def test_failure_exhausts_attempts(self, tmp_path, monkeypatch):
        import repro.service.scheduler as scheduler_module

        def always_broken(name, params=None):
            raise RuntimeError("permanently broken")

        monkeypatch.setattr(scheduler_module, "generate_scenario", always_broken)
        root = tmp_path / "svc"
        job = submit_job(root, "smoke", max_attempts=2)
        worker = _lone_worker(root)
        # The retry released back to the spool is not finished work.
        assert worker.run(max_jobs=1, idle_exit=0.05) == 1
        failed = wait_for_job(root, job.job_id, timeout=5.0)
        assert len(failed.executions) == 2  # both attempts were claimed and ran
        assert failed.status == "failed" and failed.attempts == 2
        assert "permanently broken" in failed.error
        assert worker.jobs_failed == 1

    def test_cancellation_between_batches(self):
        job = Job(job_id="j", scenario="smoke", cancel_requested=True)
        outcome = Scheduler().execute_job(job)
        assert outcome.batches == 0  # no batch was dispatched
        assert outcome.panels == 0


# -- serve (one worker) + spool ------------------------------------------------------------------


class TestDaemon:
    """`repro serve` without --workers: one lease-claiming worker."""

    def test_submit_run_status_roundtrip(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke", priority=1)
        worker = _lone_worker(root)
        assert worker.run(max_jobs=1, idle_exit=0.05) == 1
        finished = wait_for_job(root, job.job_id, timeout=5.0)
        assert finished.status == "done"
        report = service_status(root)
        assert report["jobs"]["counts"] == {"done": 1}
        assert report["store"]["entries"] == len(_smoke_tasks())
        assert report["cache_totals"]["misses"] == len(_smoke_tasks())
        info = report["cluster"]["workers"][worker.identity.worker_id]
        assert info["heartbeat"]["jobs_done"] == 1
        assert info["heartbeat"]["pid"] == os.getpid()
        # A cleanly exited worker must not read as alive, however fresh the
        # final heartbeat is.
        assert info["alive"] is False

    def test_submit_validates_scenario_before_writing(self, tmp_path):
        root = tmp_path / "svc"
        with pytest.raises(KeyError):
            submit_job(root, "no-such-scenario")
        with pytest.raises(ValueError):
            submit_job(root, "smoke", params={"bogus": 1})
        assert not (root / "jobs").exists() or not list((root / "jobs").glob("*.json"))

    def test_chain_width_param_is_rejected_before_writing(self, tmp_path):
        # The annealer has one move per step; a width override names no field.
        root = tmp_path / "svc"
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            submit_job(root, "dense-bus", params={"batch_k": 8})
        assert not (root / "jobs").exists() or not list((root / "jobs").glob("*.json"))

    def test_cancel_of_finished_job_is_refused(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        assert wait_for_job(root, job.job_id, timeout=5.0).status == "done"
        assert request_cancel(root, job.job_id) is False
        assert not (root / "jobs" / f"{job.job_id}.cancel").exists()

    def test_cancel_marker_cancels_queued_job(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        assert request_cancel(root, job.job_id) is True
        assert request_cancel(root, "missing-job") is False
        worker = _lone_worker(root)
        # The cancel-before-run job counts toward --max-jobs: a worker
        # bounded to one job must exit immediately; hitting the idle-exit
        # backstop instead (returning 0) is the regression this guards.
        assert worker.run(max_jobs=1, idle_exit=5.0) == 1
        assert wait_for_job(root, job.job_id, timeout=5.0).status == "cancelled"
        assert worker.jobs_cancelled == 1
        assert not (root / "jobs" / f"{job.job_id}.cancel").exists()

    def test_running_record_persisted_before_execution(self, tmp_path, monkeypatch):
        """max_attempts must bind across crashes: the claim is durable."""
        import repro.service.scheduler as scheduler_module

        root = tmp_path / "svc"
        submit_job(root, "smoke")
        observed = {}
        real = scheduler_module.generate_scenario

        def probing(name, params=None):
            (lease,) = (root / "leases").glob("*/*.json")
            observed.update(json.loads(lease.read_text())["job"])
            return real(name, params)

        monkeypatch.setattr(scheduler_module, "generate_scenario", probing)
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        # While the job executed, its lease record already said so.
        assert observed["status"] == "running"
        assert observed["attempts"] == 1

    def test_cancel_marker_honoured_mid_job(self, tmp_path, monkeypatch):
        """A cancel arriving while the job runs lands at the next batch."""
        import repro.service.scheduler as scheduler_module

        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        real = scheduler_module.generate_scenario

        def cancelling(name, params=None):
            request_cancel(root, job.job_id)  # arrives mid-execution
            return real(name, params)

        monkeypatch.setattr(scheduler_module, "generate_scenario", cancelling)
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        finished = wait_for_job(root, job.job_id, timeout=5.0)
        assert finished.status == "cancelled"
        assert finished.result["batches"] == 0

    def test_status_is_a_pure_read(self, tmp_path):
        """`repro status` must never rewrite or clear a live store."""
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        store_meta = root / "store" / "store.json"
        # Simulate a store written by a *newer* signature scheme.
        meta = json.loads(store_meta.read_text())
        meta["signature_version"] = SIGNATURE_VERSION + 1
        store_meta.write_text(json.dumps(meta))
        before = sorted((root / "store" / "blobs").glob("*/*.json"))
        report = service_status(root)
        assert report["store"]["entries"] == len(before) > 0
        assert sorted((root / "store" / "blobs").glob("*/*.json")) == before
        assert json.loads(store_meta.read_text())["signature_version"] == (
            SIGNATURE_VERSION + 1
        )  # metadata untouched

    def test_crashed_running_job_is_requeued(self, tmp_path):
        """A restarted worker reclaims the lease a crashed one left behind."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        dead = _manager(root, "dead", ttl=1.0)
        assert dead.claim(job.job_id) is not None  # died before any heartbeat
        old = time.time() - 60
        os.utime(dead.lease_path(job.job_id), (old, old))
        worker = _lone_worker(root)
        assert worker.run(max_jobs=1, idle_exit=0.05) == 1
        finished = wait_for_job(root, job.job_id, timeout=5.0)
        assert finished.status == "done"
        assert finished.attempts == 2
        assert worker.jobs_reclaimed == 1

    def test_mid_run_cancel_survives_daemon_crash(self, tmp_path):
        """A cancel raised right before a worker crash still kills the retry."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        dead = _manager(root, "dead", ttl=1.0)
        claimed = dead.claim(job.job_id)
        # The crashed worker had raised and persisted the cancel flag.
        claimed.cancel_requested = True
        dead.write_lease(claimed)
        _write_stale_heartbeat(root, dead.identity.worker_id)
        old = time.time() - 60
        os.utime(dead.lease_path(job.job_id), (old, old))
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        finished = wait_for_job(root, job.job_id, timeout=5.0)
        assert finished.status == "cancelled"
        assert finished.result is None  # nothing ran after the crash

    def test_poison_job_fails_after_attempts_exhausted(self, tmp_path):
        """A job that crashes its worker cannot crash-loop forever."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke", max_attempts=2)
        dead = _manager(root, "dead", ttl=1.0)
        claimed = dead.claim(job.job_id)
        claimed.attempts = 2  # every allowed attempt already died
        dead.write_lease(claimed)
        _write_stale_heartbeat(root, dead.identity.worker_id)
        old = time.time() - 60
        os.utime(dead.lease_path(job.job_id), (old, old))
        worker = _lone_worker(root)
        assert worker.run(max_jobs=1, idle_exit=0.05) == 0  # nothing left to run
        failed = wait_for_job(root, job.job_id, timeout=5.0)
        assert failed.status == "failed"
        assert "died during attempt 2/2" in failed.error
        assert worker.jobs_reclaimed == 1

    def test_running_job_of_live_sibling_daemon_is_not_stolen(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        sibling = _manager(root, "sibling", ttl=1.0)
        sibling.claim(job.job_id)
        old = time.time() - 60
        os.utime(sibling.lease_path(job.job_id), (old, old))
        # A *fresh* heartbeat: the sibling is alive, merely slow.
        (root / "workers").mkdir(exist_ok=True)
        _worker_heartbeat_path(root, sibling.identity.worker_id).write_text(
            json.dumps({"updated_at": time.time(), "poll_interval": 0.1, "stopped": False})
        )
        worker = _lone_worker(root)
        assert worker.run(max_jobs=1, idle_exit=0.05) == 0
        assert worker.jobs_reclaimed == 0
        assert sibling.lease_path(job.job_id).exists()  # left alone

    def test_stale_sibling_heartbeat_allows_recovery(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        sibling = _manager(root, "sibling", ttl=1.0)
        sibling.claim(job.job_id)
        old = time.time() - 60
        os.utime(sibling.lease_path(job.job_id), (old, old))
        _write_stale_heartbeat(root, sibling.identity.worker_id)
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        assert wait_for_job(root, job.job_id, timeout=5.0).status == "done"

    def test_job_id_reuse_after_purge_is_executed(self, tmp_path):
        root = tmp_path / "svc"
        submit_job(root, "smoke", job_id="nightly")
        worker = _lone_worker(root)
        assert worker.step().status == "done"
        gc_service(root, purge_jobs=True)
        # Same id, fresh record: the still-running worker must notice the
        # rewritten file rather than skipping the id from memory forever.
        submit_job(root, "smoke", job_id="nightly", params={"seed": 9})
        rerun = worker.step()
        assert rerun.job_id == "nightly" and rerun.status == "done"

    def test_gc_purges_jobs_and_evicts_store(self, tmp_path):
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        report = gc_service(root, max_bytes=1, purge_jobs=True)
        assert report["purged_jobs"] == 1
        assert report["evicted_blobs"] == len(_smoke_tasks())
        assert service_status(root)["jobs"]["counts"] == {}

    def test_gc_never_opens_the_store(self, tmp_path):
        """`repro gc` from a foreign checkout must not version-clear blobs."""
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        meta_path = root / "store" / "store.json"
        meta = json.loads(meta_path.read_text())
        meta["signature_version"] = SIGNATURE_VERSION + 1  # a newer worker's store
        meta_path.write_text(json.dumps(meta))
        before = sorted((root / "store" / "blobs").glob("*/*.json"))
        report = gc_service(root, purge_jobs=True)  # no size cap: no eviction
        assert report["evicted_blobs"] == 0
        assert sorted((root / "store" / "blobs").glob("*/*.json")) == before
        assert json.loads(meta_path.read_text()) == meta  # metadata untouched


# -- warm start across processes (the acceptance criterion) --------------------------


class TestWarmStart:
    def test_daemon_restart_serves_from_store(self, tmp_path):
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        job = submit_job(root, "smoke")
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        finished = wait_for_job(root, job.job_id, timeout=5.0)
        cache = finished.result["cache"]
        assert cache["misses"] == 0
        assert cache["store_hits"] == len(_smoke_tasks())

    def test_compare_flows_second_run_solves_nothing(self, tmp_path, small_circuit):
        """A repeated comparison with the store performs zero redundant solves."""
        config = GsinoConfig(length_scale=1.0 / (0.015**0.5))
        store_root = tmp_path / "store"

        cold_engine = Engine(cache=SolutionCache(store=ResultStore(store_root)))
        cold = compare_flows(
            small_circuit.grid, small_circuit.netlist, config, engine=cold_engine
        )
        cold_stats = cold_engine.cache_stats()
        assert cold_stats.misses > 0 and cold_stats.store_hits == 0

        # Fresh engine + fresh memory cache on the same store = a new process.
        warm_engine = Engine(cache=SolutionCache(store=ResultStore(store_root)))
        warm = compare_flows(
            small_circuit.grid, small_circuit.netlist, config, engine=warm_engine
        )
        warm_stats = warm_engine.cache_stats()
        assert warm_stats.misses == 0, "second run must not solve any panel"
        assert warm_stats.store_hits > 0
        for flow in ("id_no", "isino", "gsino"):
            assert warm[flow].metrics.crosstalk.num_violations == (
                cold[flow].metrics.crosstalk.num_violations
            )
            assert warm[flow].panels.keys() == cold[flow].panels.keys()
            for key in warm[flow].panels:
                assert warm[flow].panels[key].layout == cold[flow].panels[key].layout

    def test_cli_cross_process_warm_start(self, tmp_path):
        """Two real `repro compare --store` processes: the second is all disk hits."""
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "compare",
            "--circuit",
            "ibm01",
            "--rate",
            "0.3",
            "--scale",
            "0.01",
            "--seed",
            "3",
            "--store",
            str(tmp_path / "store"),
        ]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        first = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
        assert "cold solves" in first.stdout
        second = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
        assert "zero redundant solves" in second.stdout
        assert "0 misses" in second.stdout

    def test_sweep_runner_targets_service_store(self, tmp_path):
        """run_table_suite warm-starts across processes via store_path."""
        from repro.analysis.experiments import ExperimentConfig, run_table_suite

        config = ExperimentConfig(
            circuits=("ibm01",),
            sensitivity_rates=(0.3,),
            scale=0.01,
            seed=3,
            store_path=tmp_path / "store",
        )
        run_table_suite(config)
        warm = run_table_suite(config)  # fresh engines per instance, same store
        for comparison in warm:
            for flow in comparison.flows.values():
                assert flow.cache_stats is not None
                assert flow.cache_stats.misses == 0

    def test_store_path_requires_cache(self, tmp_path):
        from repro.analysis.experiments import ExperimentConfig

        with pytest.raises(ValueError, match="store_path requires use_cache"):
            ExperimentConfig(use_cache=False, store_path=tmp_path / "store")


# -- cluster: leases, heartbeats, reclaim --------------------------------------------


def _worker_heartbeat_path(root: Path, worker_id: str) -> Path:
    return root / "workers" / f"{worker_id}.json"


def _write_stale_heartbeat(root: Path, worker_id: str, age: float = 3600.0) -> None:
    (root / "workers").mkdir(parents=True, exist_ok=True)
    _worker_heartbeat_path(root, worker_id).write_text(
        json.dumps(
            {
                "worker_id": worker_id,
                "pid": 999999,
                "updated_at": time.time() - age,
                "poll_interval": 0.1,
                "stopped": False,
            }
        )
    )


def _manager(root: Path, label: str, ttl: float = 5.0) -> LeaseManager:
    return LeaseManager(root, WorkerIdentity.create(label), lease_ttl=ttl)


class TestLeaseManager:
    def test_two_threads_claim_exactly_one_wins(self, tmp_path):
        """The rename is the tie-break: of N racing claimers, one wins."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        managers = [_manager(root, f"t{i}") for i in range(4)]
        barrier = threading.Barrier(len(managers))
        wins: list = []

        def racer(manager):
            barrier.wait()
            claimed = manager.claim(job.job_id)
            if claimed is not None:
                wins.append((manager.identity.worker_id, claimed))

        threads = [threading.Thread(target=racer, args=(m,)) for m in managers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        winner_id, claimed = wins[0]
        assert claimed.status == "running" and claimed.attempts == 1
        assert claimed.executions[0]["worker"] == winner_id
        # The record moved: gone from the spool, present as the winner's lease.
        assert not (root / "jobs" / f"{job.job_id}.json").exists()
        lease = json.loads(
            (root / "leases" / winner_id / f"{job.job_id}.json").read_text()
        )
        assert lease["worker_id"] == winner_id
        assert lease["job"]["status"] == "running"

    def test_release_writes_terminal_record_and_drops_lease(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        manager = _manager(root, "a")
        claimed = manager.claim(job.job_id)
        claimed.status = "done"
        manager.release(claimed)
        assert not manager.lease_path(job.job_id).exists()
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "done" and record["attempts"] == 1

    def test_lease_expiry_reclaim_requeues_with_attempts_preserved(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        dead = _manager(root, "dead", ttl=1.0)
        claimed = dead.claim(job.job_id)
        assert claimed is not None
        # The owner died: its heartbeat goes stale, its lease mtime ages out.
        _write_stale_heartbeat(root, dead.identity.worker_id)
        old = time.time() - 60
        os.utime(dead.lease_path(job.job_id), (old, old))
        peer = _manager(root, "peer")
        assert peer.reclaim_expired() == 1
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "queued"
        assert record["attempts"] == 1  # the lost attempt still counts
        assert len(record["executions"]) == 1  # the lost claim stays on the audit trail
        assert "finished_at" not in record["executions"][0]
        assert not dead.lease_path(job.job_id).exists()

    def test_fresh_heartbeat_blocks_reclaim(self, tmp_path):
        """A slow worker with a live heartbeat keeps its lease, however old."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        slow = _manager(root, "slow", ttl=1.0)
        slow.claim(job.job_id)
        old = time.time() - 60
        os.utime(slow.lease_path(job.job_id), (old, old))
        (root / "workers").mkdir(exist_ok=True)
        _worker_heartbeat_path(root, slow.identity.worker_id).write_text(
            json.dumps(
                {
                    "worker_id": slow.identity.worker_id,
                    "updated_at": time.time(),
                    "poll_interval": 0.1,
                    "stopped": False,
                }
            )
        )
        peer = _manager(root, "peer")
        assert peer.reclaim_expired() == 0
        assert slow.lease_path(job.job_id).exists()

    def test_unexpired_lease_is_not_reclaimed(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        owner = _manager(root, "owner", ttl=3600.0)
        owner.claim(job.job_id)
        _write_stale_heartbeat(root, owner.identity.worker_id)  # dead, but TTL holds
        peer = _manager(root, "peer")
        assert peer.reclaim_expired() == 0

    def test_reclaim_fails_job_when_attempts_exhausted(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke", max_attempts=1)
        dead = _manager(root, "dead", ttl=1.0)
        dead.claim(job.job_id)
        _write_stale_heartbeat(root, dead.identity.worker_id)
        old = time.time() - 60
        os.utime(dead.lease_path(job.job_id), (old, old))
        peer = _manager(root, "peer")
        assert peer.reclaim_expired() == 1
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "failed"
        assert "died during attempt 1/1" in record["error"]

    def test_reclaim_drops_lease_when_spool_record_exists(self, tmp_path):
        """A release that crashed between its two steps must not duplicate."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        dead = _manager(root, "dead", ttl=1.0)
        claimed = dead.claim(job.job_id)
        # Simulate the crash window: terminal record written, lease not yet
        # removed, owner gone.
        claimed.status = "done"
        (root / "jobs" / f"{job.job_id}.json").write_text(json.dumps(claimed.to_dict()))
        _write_stale_heartbeat(root, dead.identity.worker_id)
        old = time.time() - 60
        os.utime(dead.lease_path(job.job_id), (old, old))
        peer = _manager(root, "peer")
        assert peer.reclaim_expired() == 0  # nothing requeued...
        assert not dead.lease_path(job.job_id).exists()  # ...stale lease dropped
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "done"  # the spool stayed authoritative

    def test_cancelled_lease_reclaims_to_cancelled(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        dead = _manager(root, "dead", ttl=1.0)
        claimed = dead.claim(job.job_id)
        claimed.cancel_requested = True
        dead.write_lease(claimed)
        _write_stale_heartbeat(root, dead.identity.worker_id)
        old = time.time() - 60
        os.utime(dead.lease_path(job.job_id), (old, old))
        assert _manager(root, "peer").reclaim_expired() == 1
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "cancelled"

    def test_heartbeat_staleness_detection(self):
        now = time.time()
        for bound in (WORKER_STALE_SECONDS, STALE_HEARTBEAT_SECONDS):
            fresh = {"updated_at": now, "poll_interval": 0.1, "stopped": False}
            assert heartbeat_is_fresh(fresh, bound)
            assert not heartbeat_is_fresh({"updated_at": now, "stopped": True}, bound)
            assert not heartbeat_is_fresh({"updated_at": now - 3600, "stopped": False}, bound)
            # The threshold scales with the poll interval of a slow process.
            assert heartbeat_is_fresh({"updated_at": now - 20, "poll_interval": 10.0}, bound)
            assert not heartbeat_is_fresh({"updated_at": now - 40, "poll_interval": 10.0}, bound)
        # Between the two bounds: a stale worker, but a live gateway.
        between = {"updated_at": now - 7.0, "poll_interval": 0.1}
        assert not heartbeat_is_fresh(between, WORKER_STALE_SECONDS)
        assert heartbeat_is_fresh(between, STALE_HEARTBEAT_SECONDS)
        assert worker_is_alive(between) == heartbeat_is_fresh(between, WORKER_STALE_SECONDS)


# -- cluster: worker loop -------------------------------------------------------------


class TestClusterWorker:
    def _worker(self, root, **overrides) -> ClusterWorker:
        config = dict(root=root, poll_interval=0.02, lease_ttl=5.0)
        config.update(overrides)
        return ClusterWorker(WorkerConfig(**config))

    def test_worker_serves_jobs_exactly_once(self, tmp_path):
        root = tmp_path / "svc"
        for index in range(2):
            submit_job(root, "smoke", params={"seed": 50 + index})
        worker = self._worker(root)
        assert worker.run(max_jobs=2, idle_exit=0.1) == 2
        records = [json.loads(p.read_text()) for p in sorted((root / "jobs").glob("*.json"))]
        assert [r["status"] for r in records] == ["done", "done"]
        assert all(len(r["executions"]) == 1 for r in records)
        assert all(
            r["executions"][0]["worker"] == worker.identity.worker_id for r in records
        )
        heartbeat = read_worker_heartbeats(root)[worker.identity.worker_id]
        assert heartbeat["jobs_done"] == 2 and heartbeat["stopped"] is True
        assert not worker_is_alive(heartbeat)  # clean exit is never "alive"

    def test_two_inprocess_workers_share_one_spool(self, tmp_path):
        """Two concurrent workers drain one burst with zero double-claims."""
        root = tmp_path / "svc"
        for index in range(6):
            submit_job(root, "smoke", params={"seed": 70 + index})
        workers = [self._worker(root, label=f"w{i}") for i in range(2)]
        threads = [
            threading.Thread(target=worker.run, kwargs={"idle_exit": 0.3})
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = [json.loads(p.read_text()) for p in sorted((root / "jobs").glob("*.json"))]
        assert len(records) == 6
        assert all(r["status"] == "done" for r in records)
        assert all(len(r["executions"]) == 1 for r in records), "a job was double-claimed"
        assert sum(worker.jobs_done for worker in workers) == 6

    def test_priority_order_with_fifo_ties(self, tmp_path):
        root = tmp_path / "svc"
        for job_id, priority in (("a", 0), ("b", 5), ("c", 5), ("d", 1)):
            submit_job(root, "smoke", priority=priority, job_id=job_id)
        worker = self._worker(root)
        assert [worker.step().job_id for _ in range(4)] == ["b", "c", "d", "a"]
        assert worker.step() is None

    def test_worker_respects_priority_order(self, tmp_path):
        root = tmp_path / "svc"
        low = submit_job(root, "smoke", priority=0)
        high = submit_job(root, "smoke", priority=9, params={"seed": 3})
        worker = self._worker(root)
        first = worker.step()
        assert first.job_id == high.job_id
        assert worker.step().job_id == low.job_id

    def test_worker_cancels_marked_queued_job_without_executing(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        assert request_cancel(root, job.job_id) is True
        worker = self._worker(root)
        finished = worker.step()
        assert finished.status == "cancelled"
        assert finished.result is None  # nothing was dispatched
        assert worker.jobs_cancelled == 1
        assert not (root / "jobs" / f"{job.job_id}.cancel").exists()

    def test_cancel_reaches_leased_job(self, tmp_path):
        """request_cancel finds a job whose record lives under a lease."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        manager = _manager(root, "holder")
        claimed = manager.claim(job.job_id)
        assert claimed is not None
        assert request_cancel(root, job.job_id) is True
        assert (root / "jobs" / f"{job.job_id}.cancel").exists()
        assert request_cancel(root, "never-existed") is False

    def test_worker_retries_failed_execution_via_spool(self, tmp_path, monkeypatch):
        import repro.service.scheduler as scheduler_module

        calls = {"count": 0}
        real = scheduler_module.generate_scenario

        def flaky(name, params=None):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient cluster failure")
            return real(name, params)

        monkeypatch.setattr(scheduler_module, "generate_scenario", flaky)
        root = tmp_path / "svc"
        job = submit_job(root, "smoke", max_attempts=2)
        worker = self._worker(root)
        first = worker.step()  # fails, released back to the spool as queued
        assert first.status == "queued" and "transient" in first.error
        second = worker.step()  # any worker may pick the retry up
        assert second.status == "done" and second.attempts == 2
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert len(record["executions"]) == 2

    def test_worker_idle_exit_rechecks_spool(self, tmp_path, monkeypatch):
        """A submission landing during the final sleep is served, not lost."""
        root = tmp_path / "svc"
        worker = self._worker(root)
        real_claim = worker._claim_next
        raced = {"submitted": False}

        def claim_with_late_submission():
            job = real_claim()
            if job is None and not raced["submitted"]:
                # The cycle's spool scan found nothing; the submission lands
                # now — after the scan, before the idle-deadline check.
                raced["submitted"] = True
                submit_job(root, "smoke")
            return job

        monkeypatch.setattr(worker, "_claim_next", claim_with_late_submission)
        # idle_exit=0: the deadline fires on the very first idle cycle, so
        # only the final spool re-check can see the racing submission.
        assert worker.run(max_jobs=1, idle_exit=0.0) == 1

    def _run_counting_scans(self, worker: ClusterWorker, **run_kwargs):
        """Run ``worker`` on a thread, timestamping each spool scan.

        Returns ``(thread, scan_times, first_scan)``; ``first_scan`` is set
        once the idle worker has scanned the spool at least once.
        """
        scan_times = []
        first_scan = threading.Event()
        real_scan = worker._queued_candidates

        def counting_scan():
            candidates = real_scan()
            scan_times.append(time.monotonic())
            first_scan.set()
            return candidates

        worker._queued_candidates = counting_scan
        thread = threading.Thread(target=worker.run, kwargs=run_kwargs, daemon=True)
        thread.start()
        return thread, scan_times, first_scan

    def _queue_wait(self, root: Path, job_id: str) -> float:
        record = json.loads(job_path(root, job_id).read_text())
        return record["executions"][0]["claimed_at"] - record["created_at"]

    def test_doorbell_wakes_an_idle_worker(self, tmp_path):
        """A slow-polling idle worker claims a new submission at once."""
        root = tmp_path / "svc"
        worker = self._worker(root, poll_interval=30.0)
        thread, _scans, first_scan = self._run_counting_scans(worker, max_jobs=1)
        try:
            assert first_scan.wait(timeout=30.0)  # the worker has gone idle
            (job,) = submit_jobs(root, [SubmitRequest(scenario="smoke")])
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert self._queue_wait(root, job.job_id) < 2.0
            assert worker.metrics.counter("worker.wake.doorbell").value >= 1
        finally:
            worker.request_stop()
            thread.join(timeout=60.0)

    def test_worker_without_a_doorbell_polls_and_says_so(self, tmp_path):
        """A path that is no FIFO: one event, then the poll serves the job."""
        root = tmp_path / "svc"
        bell = doorbell_path(root)
        bell.parent.mkdir(parents=True)
        bell.write_bytes(b"")  # a regular file where the FIFO belongs
        worker = self._worker(root, poll_interval=0.5)
        thread, _scans, first_scan = self._run_counting_scans(worker, max_jobs=1)
        try:
            assert first_scan.wait(timeout=30.0)
            job = submit_job(root, "smoke")  # the ring must not fail the submit
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            # One poll interval, plus slack for the scan and the claim.
            assert self._queue_wait(root, job.job_id) < 2 * worker.config.poll_interval
        finally:
            worker.request_stop()
            thread.join(timeout=60.0)
        (event,) = read_events(root, event="doorbell-unavailable")
        assert event["worker"] == worker.identity.worker_id
        assert "not a FIFO" in event["error"]
        assert worker.metrics.counter("worker.wake.poll").value >= 1
        assert "worker.wake.doorbell" not in worker.metrics.snapshot()
        assert bell.read_bytes() == b""  # the submitter never wrote into it

    def test_idle_worker_scans_once_per_poll(self, tmp_path):
        """No busy loop: T idle seconds cost at most ceil(T / poll) + 1 scans."""
        root = tmp_path / "svc"
        worker = self._worker(root, poll_interval=0.1)
        window = 1.0
        thread, scan_times, first_scan = self._run_counting_scans(worker)
        try:
            assert first_scan.wait(timeout=30.0)
            time.sleep(window + 0.2)
        finally:
            worker.request_stop()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        start = scan_times[0]
        in_window = [t for t in scan_times if t - start <= window]
        assert len(in_window) <= math.ceil(window / worker.config.poll_interval) + 1
        assert worker.metrics.counter("worker.wake.poll").value >= 1

    def test_ring_never_blocks_or_fails_a_submit(self, tmp_path):
        """No FIFO (ENOENT), no listener (ENXIO), a full pipe (EAGAIN)."""
        root = tmp_path / "svc"
        submit_job(root, "smoke")  # no workers/ directory yet
        bell = doorbell_path(root)
        bell.parent.mkdir(parents=True)
        os.mkfifo(bell)
        submit_job(root, "smoke")  # a FIFO nobody holds open
        listener = os.open(bell, os.O_RDWR | os.O_NONBLOCK)
        try:
            with pytest.raises(BlockingIOError):
                while True:
                    os.write(listener, b"\0" * 65536)
            submit_job(root, "smoke")  # a full pipe: a ring is already pending
        finally:
            os.close(listener)
        assert len(list((root / "jobs").glob("*.json"))) == 3

    def test_status_reports_leased_job_as_running(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        _manager(root, "holder").claim(job.job_id)
        report = service_status(root)
        assert report["jobs"]["counts"] == {"running": 1}
        assert report["cluster"] is not None
        leases = report["cluster"]["leases"]
        assert len(leases) == 1 and leases[0]["job_id"] == job.job_id
        assert active_leases(root)[0]["attempts"] == 1


# -- cluster: supervisor --------------------------------------------------------------


class TestClusterSupervisor:
    def _config(self, root, workers=1, **overrides) -> ClusterConfig:
        worker = WorkerConfig(root=root, poll_interval=0.05, lease_ttl=5.0)
        return ClusterConfig(worker, workers=workers, **overrides)

    def test_invalid_worker_settings_fail_at_construction(self, tmp_path):
        """The fleet's worker settings are validated once, when the config is
        built, not when start() forks the first worker."""
        with pytest.raises(ValueError, match="lease_ttl must be positive"):
            ClusterConfig(WorkerConfig(root=tmp_path / "svc", lease_ttl=0), workers=2)
        with pytest.raises(ValueError, match="poll_interval must be positive"):
            ClusterConfig(WorkerConfig(root=tmp_path / "svc", poll_interval=0), workers=2)
        with pytest.raises(ValueError, match="backend_workers must be positive"):
            ClusterConfig(WorkerConfig(root=tmp_path / "svc", backend_workers=0), workers=2)
        with pytest.raises(ValueError, match="workers must be positive"):
            self._config(tmp_path / "svc", workers=0)
        # The settings are no longer repeated on the cluster config itself.
        with pytest.raises(TypeError):
            ClusterConfig(root=tmp_path / "svc", lease_ttl=0)
        assert not (tmp_path / "svc").exists()

    def test_every_slot_forks_the_worker_template(self, tmp_path, monkeypatch):
        forked = []

        class Running:
            pid = 0

            def poll(self):
                return None

        def fake_fork(config):
            forked.append(config)
            return Running()

        monkeypatch.setattr(cluster_module, "fork_worker", fake_fork)
        template = WorkerConfig(
            root=tmp_path / "svc",
            backend_workers=2,
            poll_interval=0.05,
            lease_ttl=7.0,
            store_max_bytes=1 << 20,
        )
        config = ClusterConfig(template, workers=3)
        assert config.root == tmp_path / "svc"
        ClusterSupervisor(config).start()
        assert [worker.label for worker in forked] == ["w0", "w1", "w2"]
        assert all(replace(worker, label=template.label) == template for worker in forked)
        assert template.label == "worker"  # the template itself is never relabelled

    def test_supervisor_restarts_dead_worker(self, tmp_path):
        supervisor = ClusterSupervisor(self._config(tmp_path / "svc"))
        supervisor.start()
        try:
            assert supervisor.wait_alive(timeout=60.0)
            first_pid = supervisor.worker_pids()[0]
            os.kill(first_pid, 9)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                alive = supervisor.poll()
                pids = supervisor.worker_pids()
                if alive == 1 and pids and pids[0] != first_pid:
                    break
                time.sleep(0.05)
            assert supervisor.restarts == 1
            assert supervisor.worker_pids()[0] != first_pid
        finally:
            supervisor.stop()

    def test_forked_worker_is_the_supervisors_child_and_never_returns(
        self, tmp_path, monkeypatch
    ):
        """The child leaves through os._exit: the caller's run() returns once,
        in the supervisor only."""
        marks = tmp_path / "marks.txt"

        def entry(config, max_jobs=None, idle_exit=None):
            with open(marks, "a") as handle:
                handle.write(f"child {os.getpid()} {os.getppid()}\n")

        monkeypatch.setattr(cluster_module, "serve_worker", entry)
        supervisor = ClusterSupervisor(self._config(tmp_path / "svc", max_restarts=0))
        assert supervisor.run(idle_exit=60.0) == 0
        with open(marks, "a") as handle:
            handle.write(f"returned {os.getpid()}\n")
        (child,) = [r for r in read_events(tmp_path / "svc") if r["event"] == "worker-exited"]
        assert child["status"] == 0 and supervisor.gave_up
        assert marks.read_text().splitlines() == [
            f"child {child['pid']} {os.getpid()}",
            f"returned {os.getpid()}",
        ]

    def test_forked_worker_exception_exits_1_with_traceback(self, tmp_path, monkeypatch, capfd):
        def broken(config, max_jobs=None, idle_exit=None):
            raise RuntimeError("backend exploded")

        monkeypatch.setattr(cluster_module, "serve_worker", broken)
        child = fork_worker(WorkerConfig(root=tmp_path / "svc"))
        assert child.wait(timeout=30.0) == 1
        err = capfd.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: backend exploded" in err

    def test_stop_reaps_every_child(self, tmp_path):
        supervisor = ClusterSupervisor(self._config(tmp_path / "svc", workers=2))
        supervisor.start()
        try:
            assert supervisor.wait_alive(timeout=60.0)
            victim = supervisor.worker_pids()[0]
            os.kill(victim, 9)
            deadline = time.monotonic() + 30.0
            while supervisor.restarts == 0 and time.monotonic() < deadline:
                supervisor.poll()
                time.sleep(0.05)
            pids = [victim] + supervisor.worker_pids()
        finally:
            supervisor.stop()
        assert supervisor.restarts == 1 and len(pids) == 3
        assert supervisor.worker_pids() == []
        assert all(proc.returncode is not None for proc in supervisor._procs.values())
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # reaped: no zombie left behind
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_forked_child_gets_its_own_client_writer_and_registry(self, tmp_path, monkeypatch):
        root = tmp_path / "svc"
        event_log_for(root).emit("probe", side="parent")
        process_registry().counter("probe.parent").inc()

        def entry(config, max_jobs=None, idle_exit=None):
            for _ in range(2):
                event_log_for(config.root).emit(
                    "probe", side="child", metrics=process_registry().snapshot()
                )

        monkeypatch.setattr(cluster_module, "serve_worker", entry)
        child = fork_worker(WorkerConfig(root=root))
        assert child.wait(timeout=30.0) == 0
        event_log_for(root).emit("probe", side="parent")
        probes = [r for r in read_events(root) if r["event"] == "probe"]
        sides = {}
        for record in probes:
            sides.setdefault(record["side"], []).append((record["writer"], record["seq"]))
        (parent_writer,) = {writer for writer, _seq in sides["parent"]}
        (child_writer,) = {writer for writer, _seq in sides["child"]}
        assert parent_writer.startswith(f"client-{os.getpid()}-")
        assert child_writer.startswith(f"client-{child.pid}-")
        for side in ("parent", "child"):
            assert [seq for _writer, seq in sides[side]] == [0, 1]  # gapless, own seq
        assert all(r["metrics"] == {} for r in probes if r["side"] == "child")

    def test_supervised_fleet_serves_a_burst(self, tmp_path):
        root = tmp_path / "svc"
        supervisor = ClusterSupervisor(self._config(root, workers=2))
        supervisor.start()
        try:
            assert supervisor.wait_alive(timeout=60.0)
            report = run_loadgen(root, "smoke", jobs=4, timeout=60.0, poll=0.05)
        finally:
            supervisor.stop()
        assert report.done == 4 and report.timed_out == 0
        assert report.throughput > 0
        assert report.latency_percentile(0.5) is not None
        records = [json.loads(p.read_text()) for p in sorted((root / "jobs").glob("*.json"))]
        assert all(len(r["executions"]) == 1 for r in records)


# -- store: concurrent gc vs writers --------------------------------------------------


class TestConcurrentStoreGc:
    def test_eviction_skips_blob_touched_after_scan(self, tmp_path):
        """The multi-writer guard: a blob refreshed since the scan survives."""
        store = ResultStore(tmp_path / "store")
        signatures = [f"{i:02d}" + "9" * 62 for i in range(3)]
        for index, signature in enumerate(signatures):
            store.put_layout(signature, tuple(range(8)))
            os.utime(store._blob_path(signature), (3000 + index, 3000 + index))
        blobs_dir = tmp_path / "store" / "blobs"
        entries, total = scan_blobs(blobs_dir)
        # Between the scan and the eviction, a concurrent process serves a
        # hit from the oldest blob (refreshing its LRU clock).
        os.utime(store._blob_path(signatures[0]))
        evicted, _remaining = evict_scanned_blobs(entries, total, max_bytes=total // 3)
        assert signatures[0] in store  # freshly touched: spared
        assert signatures[1] not in store  # next-oldest went instead
        assert evicted == 2

    def test_eviction_discounts_blob_removed_by_concurrent_gc(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        signatures = [f"{i:02d}" + "a" * 62 for i in range(3)]
        for index, signature in enumerate(signatures):
            store.put_layout(signature, tuple(range(8)))
            os.utime(store._blob_path(signature), (4000 + index, 4000 + index))
        blobs_dir = tmp_path / "store" / "blobs"
        entries, total = scan_blobs(blobs_dir)
        store._blob_path(signatures[0]).unlink()  # a concurrent gc got there first
        blob_size = total // 3
        evicted, remaining = evict_scanned_blobs(entries, total, max_bytes=blob_size)
        # The vanished blob is discounted, one more eviction reaches the cap.
        assert evicted == 1
        assert remaining <= blob_size

    def test_gc_races_concurrent_writer_without_losing_writes(self, tmp_path):
        """A gc storm under a live writer never corrupts or crashes the store."""
        store = ResultStore(tmp_path / "store")
        stop = threading.Event()
        errors: list = []

        def writer():
            index = 0
            try:
                while not stop.is_set():
                    signature = f"{index % 97:02x}" + "b" * 62
                    store.put_layout(signature, (index,))
                    index += 1
            except Exception as error:  # pragma: no cover — the assertion target
                errors.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(25):
                store.gc(max_bytes=256)
        finally:
            stop.set()
            thread.join()
        assert errors == []
        final = "00" + "c" * 62
        store.put_layout(final, (1, 2, 3))
        assert store.get_layout(final) == (1, 2, 3)  # the store still works


# -- job record: execution audit trail ------------------------------------------------


class TestExecutionAuditTrail:
    def test_daemon_records_exactly_one_execution(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        worker = _lone_worker(root)
        worker.run(max_jobs=1, idle_exit=0.05)
        finished = wait_for_job(root, job.job_id, timeout=5.0)
        assert len(finished.executions) == 1
        entry = finished.executions[0]
        assert entry["worker"] == worker.identity.worker_id and entry["attempt"] == 1
        assert entry["finished_at"] >= entry["claimed_at"]
        assert finished.latency_seconds() is not None
        assert finished.latency_seconds() >= 0.0

    def test_latency_none_until_terminal(self):
        job = Job(job_id="x", scenario="smoke")
        assert job.latency_seconds() is None
        job.attempts = 1
        job.record_claim("w")
        job.status = "done"
        assert job.latency_seconds() is None  # claim never stamped finished
        job.finish_execution()
        assert job.latency_seconds() >= 0.0

    def test_record_round_trips_executions(self):
        job = Job(job_id="x", scenario="smoke")
        job.attempts = 1
        job.record_claim("w0")
        job.finish_execution()
        assert Job.from_dict(job.to_dict()) == job


# -- loadgen --------------------------------------------------------------------------


class TestLoadgen:
    def test_loadgen_strides_seeds_for_a_cold_burst(self, tmp_path):
        root = tmp_path / "svc"
        report = run_loadgen(root, "smoke", jobs=3, wait=False)
        assert report.submitted == 3
        records = [json.loads(p.read_text()) for p in sorted((root / "jobs").glob("*.json"))]
        seeds = sorted(r["params"]["seed"] for r in records)
        assert seeds == [seeds[0], seeds[0] + 1, seeds[0] + 2]

    def test_loadgen_waits_out_a_worker(self, tmp_path):
        root = tmp_path / "svc"
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        thread = threading.Thread(target=worker.run, kwargs={"idle_exit": 0.5})
        thread.start()
        try:
            report = run_loadgen(root, "smoke", jobs=3, timeout=30.0, poll=0.05)
        finally:
            thread.join()
        assert report.done == 3 and report.timed_out == 0
        assert len(report.latencies) == 3
        payload = report.to_dict()
        assert payload["throughput_jobs_per_s"] > 0
        assert payload["latency_p50"] <= payload["latency_max"]

    def test_loadgen_times_out_without_workers(self, tmp_path):
        report = run_loadgen(tmp_path / "svc", "smoke", jobs=2, timeout=0.2, poll=0.05)
        assert report.timed_out == 2 and report.done == 0

    def test_loadgen_rejects_bad_scenario_before_submitting(self, tmp_path):
        with pytest.raises(KeyError):
            run_loadgen(tmp_path / "svc", "no-such-scenario", jobs=1, wait=False)
        with pytest.raises(ValueError):
            run_loadgen(tmp_path / "svc", "smoke", jobs=0)


# -- cluster: liveness under long batches, ownership, history ------------------------


class TestClusterRobustness:
    def test_pulse_keeps_lease_fresh_during_long_batch(self, tmp_path, monkeypatch):
        """A single batch longer than the lease TTL must not get reclaimed."""
        import repro.service.scheduler as scheduler_module

        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.05, lease_ttl=0.4))
        real = scheduler_module.generate_scenario

        def slow(name, params=None):
            time.sleep(1.0)  # one batch, far longer than the 0.4 s TTL
            return real(name, params)

        monkeypatch.setattr(scheduler_module, "generate_scenario", slow)
        thread = threading.Thread(target=worker.run, kwargs={"max_jobs": 1, "idle_exit": 0.2})
        thread.start()
        peer = _manager(root, "peer", ttl=0.4)
        reclaimed = 0
        try:
            while thread.is_alive():
                reclaimed += peer.reclaim_expired()
                time.sleep(0.05)
        finally:
            thread.join()
        assert reclaimed == 0, "a live worker's lease was stolen mid-batch"
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "done"
        assert len(record["executions"]) == 1

    def test_release_refuses_to_clobber_after_reclaim(self, tmp_path):
        """A stalled worker whose lease was reclaimed must not overwrite the spool."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        stalled = _manager(root, "stalled", ttl=1.0)
        claimed = stalled.claim(job.job_id)
        # The worker stalls; a peer reclaims (stale heartbeat + expired TTL).
        _write_stale_heartbeat(root, stalled.identity.worker_id)
        old = time.time() - 60
        os.utime(stalled.lease_path(job.job_id), (old, old))
        assert _manager(root, "peer").reclaim_expired() == 1
        # The stalled worker wakes up and tries to finish "its" job.
        claimed.status = "done"
        assert stalled.release(claimed) is False
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "queued"  # the reclaim's requeue survived

    def test_candidate_scan_skips_terminal_but_sees_id_reuse(self, tmp_path):
        root = tmp_path / "svc"
        submit_job(root, "smoke", job_id="nightly")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        assert worker.step().status == "done"
        # The terminal record is remembered by mtime: later scans skip it...
        assert worker._queued_candidates() == []
        assert "nightly" in worker._known_terminal
        gc_service(root, purge_jobs=True)
        # ...but a purged-and-reused id is a brand-new submission.
        submit_job(root, "smoke", job_id="nightly", params={"seed": 9})
        assert worker._queued_candidates() == ["nightly"]
        assert worker.step().status == "done"

    def test_status_does_not_double_count_release_crash_window(self, tmp_path):
        """Terminal spool record + lingering lease = one job, not two."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        manager = _manager(root, "crashed")
        claimed = manager.claim(job.job_id)
        claimed.status = "done"
        # release() crashed between its two steps: record written, lease kept.
        (root / "jobs" / f"{job.job_id}.json").write_text(json.dumps(claimed.to_dict()))
        assert manager.lease_path(job.job_id).exists()
        report = service_status(root)
        assert report["jobs"]["counts"] == {"done": 1}
        assert len(report["jobs"]["records"]) == 1

    def test_supervisor_max_jobs_ignores_prior_terminal_records(self, tmp_path):
        """A reused root's history must not satisfy this run's --max-jobs."""
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0)).run(
            max_jobs=1, idle_exit=0.1
        )
        fresh = submit_job(root, "smoke", params={"seed": 9})
        supervisor = ClusterSupervisor(
            ClusterConfig(WorkerConfig(root=root, poll_interval=0.05, lease_ttl=5.0), workers=1)
        )
        assert supervisor.run(max_jobs=1, idle_exit=60.0) == 1
        record = json.loads((root / "jobs" / f"{fresh.job_id}.json").read_text())
        assert record["status"] == "done"

    def test_reclaim_restores_terminal_record_unchanged(self, tmp_path):
        """A done record stranded in a dead worker's lease dir is restored,
        never re-queued — terminal is terminal."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        dead = _manager(root, "dead", ttl=1.0)
        claimed = dead.claim(job.job_id)
        claimed.status = "done"
        claimed.finish_execution()
        # The worker died right after finishing, before writing the spool
        # record: the terminal record sits only in its lease directory.
        dead.write_lease(claimed)
        (root / "jobs" / f"{job.job_id}.json").unlink(missing_ok=True)
        _write_stale_heartbeat(root, dead.identity.worker_id)
        old = time.time() - 60
        os.utime(dead.lease_path(job.job_id), (old, old))
        assert _manager(root, "peer").reclaim_expired() == 1
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "done"  # restored, not re-queued
        assert record["attempts"] == 1

    def test_late_cancel_marker_is_swept_after_terminal(self, tmp_path):
        """A cancel landing during the final batch must not ambush id reuse."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke", job_id="nightly")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        claimed = worker.lease.claim(job.job_id)
        # The cancel arrives after the last batch boundary has passed.
        (root / "jobs" / "nightly.cancel").write_text("")
        finished = worker._run_claimed(claimed)
        # Too late to cancel mid-claim is fine either way; the marker must
        # be gone once the job is terminal.
        assert finished.is_terminal
        assert not (root / "jobs" / "nightly.cancel").exists()

    def test_gc_sweeps_orphaned_cancel_markers(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        _lone_worker(root).run(max_jobs=1, idle_exit=0.05)
        # Marker written against the finished job (the worker never saw it).
        (root / "jobs" / f"{job.job_id}.cancel").write_text("")
        (root / "jobs" / "ghost.cancel").write_text("")  # job never existed
        report = gc_service(root, purge_jobs=True)
        assert report["purged_jobs"] == 1
        assert list((root / "jobs").glob("*.cancel")) == []

    def test_supervisor_spool_counts_cache_tracks_history(self, tmp_path):
        root = tmp_path / "svc"
        for index in range(3):
            submit_job(root, "smoke", params={"seed": index})
        ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0)).run(
            max_jobs=3, idle_exit=0.1
        )
        supervisor = ClusterSupervisor(
            ClusterConfig(WorkerConfig(root=root, poll_interval=0.05, lease_ttl=5.0), workers=1)
        )
        assert supervisor._spool_counts() == (3, 0)
        assert len(supervisor._terminal_seen) == 3  # parsed once...
        assert supervisor._spool_counts() == (3, 0)  # ...then served from mtime cache
        fresh = submit_job(root, "smoke", params={"seed": 99})
        assert supervisor._spool_counts() == (3, 1)
        gc_service(root, purge_jobs=True)
        assert supervisor._spool_counts() == (0, 1)
        assert supervisor._terminal_seen == {}
        assert fresh.job_id not in supervisor._terminal_seen

    def test_refresh_never_resurrects_a_reclaimed_lease(self, tmp_path):
        """A disowned job's pulse/batch refresh must not recreate the lease."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        stalled = _manager(root, "stalled", ttl=1.0)
        claimed = stalled.claim(job.job_id)
        # A reclaimer renamed the lease away while the worker was frozen.
        _write_stale_heartbeat(root, stalled.identity.worker_id)
        old = time.time() - 60
        os.utime(stalled.lease_path(job.job_id), (old, old))
        assert _manager(root, "peer").reclaim_expired() == 1
        # The frozen worker wakes into a refresh: it must learn it lost.
        assert stalled.refresh_lease(claimed) is False
        assert not stalled.lease_path(job.job_id).exists()  # not resurrected
        assert stalled.release(claimed) is False  # and release stays refused

    def test_on_batch_disowns_job_when_lease_was_reclaimed(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        claimed = worker.lease.claim(job.job_id)
        worker.lease.lease_path(job.job_id).unlink()  # a reclaim stole it
        worker._on_batch(claimed)
        assert claimed.cancel_requested  # stop working a job a peer now owns
        assert not worker.lease.lease_path(job.job_id).exists()

    def test_disowned_job_does_not_consume_max_jobs(self, tmp_path, monkeypatch):
        """An outcome discarded by a reclaim must not count as finished work."""
        import repro.service.scheduler as scheduler_module

        root = tmp_path / "svc"
        submit_job(root, "smoke", job_id="stolen")
        submit_job(root, "smoke", job_id="kept", params={"seed": 9})
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        real = scheduler_module.generate_scenario

        def stealing(name, params=None):
            # Mid-execution of "stolen", a reclaimer takes the lease away.
            stolen_lease = worker.lease.lease_path("stolen")
            if stolen_lease.exists():
                stolen_lease.unlink()
            return real(name, params)

        monkeypatch.setattr(scheduler_module, "generate_scenario", stealing)
        # max_jobs=1 must be satisfied by the *owned* outcome ("kept"), not
        # by the discarded "stolen" one.
        assert worker.run(max_jobs=1, idle_exit=0.5) == 1
        assert worker.jobs_done == 1
        kept = json.loads((root / "jobs" / "kept.json").read_text())
        assert kept["status"] == "done"

    def test_gc_keeps_cancel_marker_of_leased_job(self, tmp_path):
        """A pending cancel for a claimed job must survive the marker sweep."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        _manager(root, "holder").claim(job.job_id)
        assert request_cancel(root, job.job_id) is True
        gc_service(root, purge_jobs=True)
        assert (root / "jobs" / f"{job.job_id}.cancel").exists()

    def test_supervisor_gives_up_when_workers_crash_loop(self, tmp_path, monkeypatch):
        """All workers dead + restart budget spent must give up, not hang,
        with every death logged once, not once per monitor tick."""

        def crash(config, max_jobs=None, idle_exit=None):
            if config.label != "w0":
                # Outlive slot 0's deaths: its last one, past the budget,
                # is then seen on many monitor ticks.
                time.sleep(0.5)
            raise SystemExit(3)

        # The forked children inherit the patched entry.
        monkeypatch.setattr(cluster_module, "serve_worker", crash)
        for workers in (1, 2):
            root = tmp_path / f"svc{workers}"
            submit_job(root, "smoke")  # pending work keeps the spool active
            supervisor = ClusterSupervisor(
                ClusterConfig(
                    WorkerConfig(root=root, poll_interval=0.05), workers=workers, max_restarts=2
                )
            )
            start = time.monotonic()
            # Without the give-up, the queued job keeps `active` nonzero and
            # this would sleep forever despite zero live workers.
            assert supervisor.run(idle_exit=60.0) == 0
            assert time.monotonic() - start < 30.0
            assert supervisor.restarts == 2
            assert supervisor.gave_up
            exits = [r for r in read_events(root) if r["event"] == "worker-exited"]
            deaths = workers + supervisor.restarts
            assert [r["status"] for r in exits] == [3] * deaths
            assert len({r["pid"] for r in exits}) == deaths  # one event per death

    def test_disowned_worker_leaves_requeued_jobs_cancel_marker(self, tmp_path):
        """A marker written against the requeued job is not ours to consume."""
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        claimed = worker.lease.claim(job.job_id)
        # A reclaim takes the lease and requeues the job...
        worker.lease.lease_path(job.job_id).unlink()
        (root / "jobs" / f"{job.job_id}.json").write_text(json.dumps(job.to_dict()))
        # ...and the operator cancels the *requeued* job.
        assert request_cancel(root, job.job_id) is True
        marker = root / "jobs" / f"{job.job_id}.cancel"
        marker_seen = marker.exists()
        finished = worker._run_claimed(claimed)
        assert marker_seen and marker.exists()  # pending for the next claimer
        assert finished.is_terminal  # the disowned outcome itself was dropped
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert record["status"] == "queued"  # requeued record untouched

    def test_gc_sweeps_dead_worker_heartbeats_and_empty_lease_dirs(self, tmp_path):
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        worker.run(max_jobs=1, idle_exit=0.1)  # exits with a stopped heartbeat
        worker_id = worker.identity.worker_id
        assert (root / "workers" / f"{worker_id}.json").exists()
        assert (root / "leases" / worker_id).exists()
        report = gc_service(root)
        assert report["purged_workers"] == 1
        assert not (root / "workers" / f"{worker_id}.json").exists()
        assert not (root / "leases" / worker_id).exists()

    def test_gc_keeps_live_workers_and_pending_leases(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        # A dead worker still holding a lease: both remnants must survive
        # (reclaim needs the stale heartbeat to judge the owner).
        dead = _manager(root, "dead", ttl=3600.0)
        dead.claim(job.job_id)
        _write_stale_heartbeat(root, dead.identity.worker_id)
        # A live worker with an empty lease dir must survive untouched.
        live = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        live._heartbeat(force=True)
        assert gc_service(root)["purged_workers"] == 0
        assert (root / "workers" / f"{dead.identity.worker_id}.json").exists()
        assert dead.lease_path(job.job_id).exists()
        assert (root / "leases" / live.identity.worker_id).exists()

    def test_supervisor_stop_request_ends_serve_forever(self, tmp_path):
        """The SIGTERM path: request_stop unwinds run() and reaps the fleet."""
        supervisor = ClusterSupervisor(
            ClusterConfig(
                WorkerConfig(root=tmp_path / "svc", poll_interval=0.05, lease_ttl=5.0), workers=1
            )
        )
        threading.Timer(0.5, supervisor.request_stop).start()
        # No max_jobs, no idle_exit: without the stop request this loops forever.
        assert supervisor.run() == 0
        assert supervisor.worker_pids() == []  # fleet reaped by stop()

    def test_reclaim_fast_path_never_parses_fresh_leases(self, tmp_path, monkeypatch):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        _manager(root, "owner", ttl=5.0).claim(job.job_id)  # freshly refreshed
        peer = _manager(root, "peer", ttl=5.0)

        def boom(path):
            raise AssertionError("fresh lease was parsed")

        monkeypatch.setattr(peer, "_lease_ttl_of", boom)
        assert peer.reclaim_expired() == 0  # one stat, no read


# -- the flat spool and the refusal of sharded roots -----------------------------------

#: The marker the previous release stamped on every root it served.
_ONE_SHARD_MARKER = '{\n  "layout_version": 1,\n  "shards": 1\n}\n'


def _finish_job(root: Path, job_id: str, status: str = "done") -> None:
    """Rewrite a spool record into a terminal status (simulating a serve)."""
    path = job_path(root, job_id)
    record = json.loads(path.read_text(encoding="utf-8"))
    record["status"] = status
    path.write_text(json.dumps(record), encoding="utf-8")


class TestFlatSpool:
    def test_flat_layout_reproduces_legacy_paths(self, tmp_path):
        assert job_path(tmp_path, "j1") == tmp_path / "jobs" / "j1.json"
        assert cancel_path(tmp_path, "j1") == tmp_path / "jobs" / "j1.cancel"
        manager = LeaseManager(tmp_path, WorkerIdentity("w0", pid=1, started_at=0.0))
        assert manager.lease_path("j1") == tmp_path / "leases" / "w0" / "j1.json"

    def test_flat_root_claims_carry_no_shard_or_steal_tags(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02))
        assert worker.step().status == "done"
        (claim,) = read_events(root, event="claimed")
        assert "shard" not in claim and "steal" not in claim
        record = json.loads((root / "jobs" / f"{job.job_id}.json").read_text())
        assert "shard" not in record["executions"][0]

    def test_flat_ids_are_the_plain_burst_ids(self, tmp_path):
        root = tmp_path / "svc"
        report = run_loadgen(root, "smoke", jobs=3, wait=False)
        assert report.submitted == 3
        ids = sorted(path.stem for path in (root / "jobs").glob("*.json"))
        burst = ids[0].split("-")[1]
        assert ids == [f"load-{burst}-{index:03d}" for index in range(3)]

    def test_flat_status_keeps_the_legacy_shape(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        manager = LeaseManager(root, WorkerIdentity.create("w"), lease_ttl=30.0)
        assert manager.claim(job.job_id) is not None
        cluster = service_status(root)["cluster"]
        assert set(cluster) == {"workers", "leases"}
        (lease,) = cluster["leases"]
        assert set(lease) == {"job_id", "worker_id", "age_seconds", "expires_in", "attempts"}

    def test_gc_purge_sweeps_orphan_markers_but_keeps_pending_ones(self, tmp_path):
        root = tmp_path / "svc"
        for job_id in ("first", "second"):
            submit_job(root, "smoke", job_id=job_id)
            _finish_job(root, job_id)
            cancel_path(root, job_id).write_text("", encoding="utf-8")
        # A marker of a *leased* job is pending, not orphaned: it survives.
        submit_job(root, "smoke", job_id="pending")
        manager = LeaseManager(root, WorkerIdentity.create("w"), lease_ttl=30.0)
        assert manager.claim("pending") is not None
        cancel_path(root, "pending").write_text("", encoding="utf-8")
        report = gc_service(root, purge_jobs=True)
        assert report["purged_jobs"] == 2
        assert not cancel_path(root, "first").exists()
        assert not cancel_path(root, "second").exists()
        assert cancel_path(root, "pending").exists()

    def test_gc_purge_ignores_a_record_whose_name_disagrees(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke", job_id="live")
        copy = dict(job.to_dict(), status="done")
        (root / "jobs" / "copy.json").write_text(json.dumps(copy), encoding="utf-8")
        assert gc_service(root, purge_jobs=True)["purged_jobs"] == 0
        assert job_path(root, "live").exists()
        assert service_status(root)["jobs"]["counts"] == {"queued": 1}

    def test_gc_sweeps_dead_worker_lease_dir(self, tmp_path):
        root = tmp_path / "svc"
        _write_stale_heartbeat(root, "w-dead")
        (root / "leases" / "w-dead").mkdir(parents=True)
        assert gc_service(root)["purged_workers"] == 1
        assert not (root / "workers" / "w-dead.json").exists()
        assert not (root / "leases" / "w-dead").exists()

    def test_gc_keeps_dead_worker_with_a_pending_lease(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        manager = LeaseManager(root, WorkerIdentity.create("w"), lease_ttl=30.0)
        assert manager.claim(job.job_id) is not None
        _write_stale_heartbeat(root, manager.identity.worker_id)
        assert gc_service(root)["purged_workers"] == 0
        assert _worker_heartbeat_path(root, manager.identity.worker_id).exists()

    def test_fresh_served_root_gets_no_layout_marker(self, tmp_path):
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        ClusterWorker(WorkerConfig(root=root, poll_interval=0.01)).run(max_jobs=1)
        ClusterSupervisor(ClusterConfig(WorkerConfig(root=root), workers=1))
        GatewayRunner(GatewayConfig(root=root, port=0)).start().stop()
        assert not (root / "shards.json").exists()

    def test_one_shard_marker_root_is_served(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "shards.json").write_text(_ONE_SHARD_MARKER)
        job = submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.01))
        assert worker.run(max_jobs=1) == 1
        assert wait_for_job(root, job.job_id, timeout=5.0).status == "done"
        ClusterSupervisor(ClusterConfig(WorkerConfig(root=root), workers=1))
        GatewayRunner(GatewayConfig(root=root, port=0)).start().stop()
        assert (root / "shards.json").read_text() == _ONE_SHARD_MARKER

    @pytest.mark.parametrize(
        "marker",
        [
            '{"layout_version": 1, "shards": 4}',
            '{"layout_version": 99, "shards": 1}',
            '{"layout_version": 1, "shards": "many"}',
            "{not json",
        ],
    )
    def test_sharded_root_is_refused_where_it_is_opened(self, tmp_path, marker):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "shards.json").write_text(marker)
        hint = "--shards 1"
        with pytest.raises(RuntimeError, match=hint):
            ClusterWorker(WorkerConfig(root=root))
        with pytest.raises(RuntimeError, match=hint):
            ClusterSupervisor(ClusterConfig(WorkerConfig(root=root), workers=1))
        with pytest.raises(RuntimeError, match=hint):
            submit_jobs(root, [SubmitRequest(scenario="smoke")])
        with pytest.raises(RuntimeError, match=hint):
            GatewayRunner(GatewayConfig(root=root, port=0)).start()
        assert sorted(path.name for path in root.iterdir()) == ["shards.json"]


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
