"""Tests for the gateway tier (policy classes, batch submit, HTTP server, loadgen).

The policy section pins token-bucket refill/burst math and bounded-queue
overflow ordering with explicit clocks, so nothing sleeps.  The group-commit
section wedges one spool write in flight to observe batching
deterministically.  The socket-level section proves the properties that
matter end-to-end: a rejected client's job never reaches the spool,
admitted work is exactly-once in the spool and event log, and a stopping
gateway flushes what it admitted.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import Counter

import pytest

from repro.obs.events import EventLog, iter_events
from repro.obs.metrics import nearest_rank
from repro.obs.snapshot import collect_gateway
from repro.service.cluster import ClusterWorker, LoadgenReport, WorkerConfig
from repro.service.spool import SubmitRequest, service_status, submit_job, submit_jobs
from repro.service.gateway.loadgen import (
    HttpLoadgenReport,
    format_http_loadgen_report,
    run_http_loadgen,
)
from repro.service.gateway.policy import AdmissionQueue, TokenBucket, TokenBucketTable
from repro.service.gateway.server import GatewayConfig, GatewayRunner


# -- token bucket ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_admits_then_rejects(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert [bucket.acquire(now=0.0) for _ in range(3)] == [0.0, 0.0, 0.0]
        # Bucket empty: the hint is exactly the time until one token refills.
        assert bucket.acquire(now=0.0) == pytest.approx(1.0)

    def test_rejection_consumes_nothing(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        assert bucket.acquire(now=0.0) == 0.0
        first_hint = bucket.acquire(now=0.0)
        assert first_hint == pytest.approx(0.5)
        # Asking again at the same instant gives the same answer: rejected
        # requests must not drain the bucket further.
        assert bucket.acquire(now=0.0) == pytest.approx(0.5)

    def test_refill_is_proportional_to_elapsed_time(self):
        bucket = TokenBucket(rate=4.0, burst=8)
        for _ in range(8):
            assert bucket.acquire(now=10.0) == 0.0
        # 0.75s at 4 tokens/s refills 3 tokens.
        assert bucket.acquire(now=10.75) == 0.0
        assert bucket.acquire(now=10.75) == 0.0
        assert bucket.acquire(now=10.75) == 0.0
        assert bucket.acquire(now=10.75) > 0.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        assert bucket.acquire(now=0.0) == 0.0
        # An hour idle still holds only `burst` tokens.
        assert bucket.acquire(now=3600.0) == 0.0
        assert bucket.acquire(now=3600.0) == 0.0
        assert bucket.acquire(now=3600.0) > 0.0

    def test_retry_after_shrinks_as_time_passes(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        bucket.acquire(now=0.0)
        assert bucket.acquire(now=0.0) == pytest.approx(1.0)
        assert bucket.acquire(now=0.6) == pytest.approx(0.4)

    def test_clock_going_backwards_is_tolerated(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.acquire(now=100.0) == 0.0
        # A non-monotonic caller must not produce negative refill.
        assert bucket.acquire(now=99.0) == pytest.approx(1.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestTokenBucketTable:
    def test_clients_have_independent_budgets(self):
        table = TokenBucketTable(rate=1.0, burst=1)
        assert table.acquire("alice", now=0.0) == 0.0
        assert table.acquire("alice", now=0.0) > 0.0
        assert table.acquire("bob", now=0.0) == 0.0

    def test_lru_eviction_bounds_the_table(self):
        table = TokenBucketTable(rate=1.0, burst=1, max_clients=2)
        assert table.acquire("a", now=0.0) == 0.0
        assert table.acquire("b", now=0.0) == 0.0
        assert table.acquire("c", now=0.0) == 0.0  # evicts "a"
        assert len(table) == 2
        # "a" comes back with a fresh bucket (evicting "b"); "c" kept its
        # drained one — the eviction reset only ever helps idle clients.
        assert table.acquire("a", now=0.0) == 0.0
        assert len(table) == 2
        assert table.acquire("c", now=0.0) > 0.0

    def test_recent_use_protects_against_eviction(self):
        table = TokenBucketTable(rate=1.0, burst=2, max_clients=2)
        table.acquire("a", now=0.0)
        table.acquire("b", now=0.0)
        table.acquire("a", now=0.0)  # refresh "a"; "b" is now LRU
        table.acquire("c", now=0.0)  # evicts "b"
        assert table.acquire("a", now=0.0) > 0.0  # drained bucket survived


# -- admission queue -------------------------------------------------------------------


class TestAdmissionQueue:
    def test_overflow_rejects_without_queueing(self):
        queue = AdmissionQueue(max_depth=2)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")
        assert len(queue) == 2
        assert queue.accepted == 2 and queue.rejected == 1

    def test_take_preserves_fifo_order_across_overflow(self):
        queue = AdmissionQueue(max_depth=3)
        for item in ("a", "b", "c"):
            assert queue.offer(item)
        assert not queue.offer("d")
        assert queue.take(limit=2) == ["a", "b"]
        # Rejected "d" never entered; room freed, later arrivals go behind "c".
        assert queue.offer("e")
        assert queue.take() == ["c", "e"]
        assert len(queue) == 0

    def test_invalid_depth_raises(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)


# -- micro-batching by group commit -----------------------------------------------------


class _WedgedSubmit:
    """A ``submit_fn`` whose first spool write blocks until released.

    While the first write is wedged in flight, later submissions can only
    queue, which makes what the next write takes deterministic.  Every
    call's batch size is recorded.
    """

    def __init__(self) -> None:
        self.in_flight = threading.Event()
        self.release = threading.Event()
        self.sizes = []

    def __call__(self, root, requests, events=None):
        self.sizes.append(len(requests))
        if len(self.sizes) == 1:
            self.in_flight.set()
            assert self.release.wait(timeout=30.0)
        return submit_jobs(root, requests, events=events)


def _post_in_background(runner, seeds, results):
    """POST one smoke job per seed, each from its own thread."""

    def post(seed):
        payload = {"scenario": "smoke", "params": {"seed": seed}}
        results.append(_request(runner.port, "POST", "/v1/jobs", payload, client=f"c{seed}"))

    threads = [threading.Thread(target=post, args=(seed,)) for seed in seeds]
    for thread in threads:
        thread.start()
    return threads


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


def _wedge_then_queue(runner, wedge, queued, results):
    """Wedge seed 0's write in flight, then queue ``queued`` more POSTs behind it."""
    threads = _post_in_background(runner, [0], results)
    assert wedge.in_flight.wait(timeout=10.0)
    threads += _post_in_background(runner, range(1, queued + 1), results)
    _wait_until(lambda: len(runner.gateway.queue) == queued)
    return threads


class TestMicroBatcher:
    def test_submissions_during_a_write_go_out_as_one_batch(self, tmp_path):
        wedge = _WedgedSubmit()
        runner = _gateway(tmp_path, submit_fn=wedge, batch_max=16)
        results = []
        try:
            threads = _wedge_then_queue(runner, wedge, 4, results)
            wedge.release.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            wedge.release.set()
            runner.stop()
        assert sorted(status for status, _, _ in results) == [202] * 5
        assert wedge.sizes == [1, 4]
        admitted = [e for e in iter_events(tmp_path) if e["event"] == "gateway-admitted"]
        assert sorted(e["batch"] for e in admitted) == [1, 4, 4, 4, 4]

    def test_flush_on_size(self, tmp_path):
        """``batch_max`` caps each write; the rest goes out in the next one."""
        wedge = _WedgedSubmit()
        runner = _gateway(tmp_path, submit_fn=wedge, batch_max=3)
        results = []
        try:
            threads = _wedge_then_queue(runner, wedge, 5, results)
            wedge.release.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            wedge.release.set()
            runner.stop()
        assert sorted(status for status, _, _ in results) == [202] * 6
        assert wedge.sizes == [1, 3, 2]
        assert len(list((tmp_path / "jobs").glob("*.json"))) == 6

    def test_flush_counts_batches(self, tmp_path):
        """A lone submission is one write; a stop with nothing queued writes none."""
        wedge = _WedgedSubmit()
        wedge.release.set()
        runner = _gateway(tmp_path, submit_fn=wedge)
        try:
            for seed in range(2):
                status, _, _ = _request(
                    runner.port, "POST", "/v1/jobs", {"scenario": "smoke", "params": {"seed": seed}}
                )
                assert status == 202
        finally:
            runner.stop()  # the final flush finds an empty queue
        assert wedge.sizes == [1, 1]
        assert runner.gateway.counters()["gateway.batches"] == 2

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            GatewayConfig(root=".", batch_max=0)


# -- batched submission ----------------------------------------------------------------


class TestSubmitJobs:
    def test_batch_writes_every_record_and_event(self, tmp_path):
        requests = [SubmitRequest(scenario="smoke", params={"seed": i}) for i in range(3)]
        jobs = submit_jobs(tmp_path, requests)
        assert len(jobs) == 3
        assert len({job.job_id for job in jobs}) == 3
        records = sorted(path.stem for path in (tmp_path / "jobs").glob("*.json"))
        assert records == sorted(job.job_id for job in jobs)
        submitted = [e for e in iter_events(tmp_path) if e["event"] == "submitted"]
        assert sorted(e["job"] for e in submitted) == sorted(job.job_id for job in jobs)

    def test_batch_events_use_the_callers_writer(self, tmp_path):
        log = EventLog(tmp_path, writer="front-door")
        submit_jobs(tmp_path, [SubmitRequest(scenario="smoke")], events=log)
        (event,) = [e for e in iter_events(tmp_path) if e["event"] == "submitted"]
        assert event["writer"] == "front-door"

    def test_invalid_request_rejects_the_whole_batch(self, tmp_path):
        requests = [
            SubmitRequest(scenario="smoke"),
            SubmitRequest(scenario="no-such-scenario"),
        ]
        with pytest.raises(KeyError):
            submit_jobs(tmp_path, requests)
        assert not (tmp_path / "jobs").exists()  # nothing half-submitted

    def test_duplicate_id_within_batch_rejects_before_writing(self, tmp_path):
        requests = [
            SubmitRequest(scenario="smoke", job_id="twin"),
            SubmitRequest(scenario="smoke", job_id="twin"),
        ]
        with pytest.raises(ValueError, match="already exists"):
            submit_jobs(tmp_path, requests)
        assert not (tmp_path / "jobs").exists()

    def test_duplicate_id_against_spool_rejects(self, tmp_path):
        submit_job(tmp_path, "smoke", job_id="taken")
        with pytest.raises(ValueError, match="'taken' already exists"):
            submit_jobs(tmp_path, [SubmitRequest(scenario="smoke", job_id="taken")])

    def test_submit_job_still_delegates(self, tmp_path):
        job = submit_job(tmp_path, "smoke", params={"seed": 5}, priority=3)
        assert (tmp_path / "jobs" / f"{job.job_id}.json").exists()
        assert job.priority == 3


# -- live server -----------------------------------------------------------------------


def _gateway(tmp_path, submit_fn=None, **overrides):
    defaults = dict(
        root=tmp_path,
        port=0,
        rate=1000.0,
        burst=1000.0,
        heartbeat_interval=0.2,
    )
    defaults.update(overrides)
    return GatewayRunner(GatewayConfig(**defaults), submit_fn=submit_fn).start()


def _request(port, method, path, payload=None, client=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"}
        if client:
            headers["X-Repro-Client"] = client
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        try:
            parsed = json.loads(data)
        except json.JSONDecodeError:
            parsed = data.decode("utf-8", "replace")
        return response.status, dict(response.getheaders()), parsed
    finally:
        connection.close()


class TestGatewayServer:
    def test_healthz_reports_queue_and_counters(self, tmp_path):
        runner = _gateway(tmp_path)
        try:
            status, _, payload = _request(runner.port, "GET", "/healthz")
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["queue"]["capacity"] == 256
            assert payload["counters"]["gateway.requests"] >= 1
        finally:
            runner.stop()

    def test_submit_writes_spool_record_and_status_roundtrip(self, tmp_path):
        runner = _gateway(tmp_path)
        try:
            status, _, payload = _request(
                runner.port, "POST", "/v1/jobs", {"scenario": "smoke", "priority": 2}
            )
            assert status == 202
            job_id = payload["job_id"]
            assert payload["status"] == "queued"
            record = json.loads((tmp_path / "jobs" / f"{job_id}.json").read_text())
            assert record["priority"] == 2
            status, _, seen = _request(runner.port, "GET", f"/v1/jobs/{job_id}")
            assert status == 200 and seen["status"] == "queued" and seen["terminal"] is False
        finally:
            runner.stop()

    def test_bad_requests_get_4xx_not_spool_writes(self, tmp_path):
        runner = _gateway(tmp_path)
        try:
            cases = [
                ("POST", "/v1/jobs", {"scenario": "no-such-scenario"}, 400),
                ("POST", "/v1/jobs", {"scenario": "smoke", "params": {"bogus": 1}}, 400),
                ("POST", "/v1/jobs", {"params": {}}, 400),
                ("GET", "/v1/jobs/never-submitted", None, 404),
                ("POST", "/v1/jobs/some-id", {"scenario": "smoke"}, 405),
                ("GET", "/v1/nope", None, 404),
            ]
            for method, path, payload, expected in cases:
                status, _, _ = _request(runner.port, method, path, payload)
                assert status == expected, (method, path)
            assert not list((tmp_path / "jobs").glob("*.json")) if (
                tmp_path / "jobs"
            ).exists() else True
        finally:
            runner.stop()

    def test_scenarios_endpoint_lists_registry(self, tmp_path):
        runner = _gateway(tmp_path)
        try:
            status, _, payload = _request(runner.port, "GET", "/v1/scenarios")
            assert status == 200
            names = [entry["name"] for entry in payload["scenarios"]]
            assert "smoke" in names
        finally:
            runner.stop()

    def test_rate_limited_job_never_reaches_the_spool(self, tmp_path):
        """The socket-level backpressure proof: 429 means zero spool bytes."""
        runner = _gateway(tmp_path, rate=0.001, burst=2)
        try:
            statuses = []
            for seed in range(4):
                status, headers, payload = _request(
                    runner.port,
                    "POST",
                    "/v1/jobs",
                    {"scenario": "smoke", "params": {"seed": seed}},
                    client="greedy",
                )
                statuses.append(status)
                if status == 429:
                    assert int(headers["Retry-After"]) >= 1
                    assert "retry after" in payload["error"]
            assert statuses == [202, 202, 429, 429]
            # Exactly the two admitted jobs exist; the rejected ones left no trace.
            assert len(list((tmp_path / "jobs").glob("*.json"))) == 2
            rejected = [
                e for e in iter_events(tmp_path) if e["event"] == "gateway-rejected"
            ]
            assert len(rejected) == 2
            assert {e["reason"] for e in rejected} == {"rate"}
            assert all(e["client"] == "greedy" for e in rejected)
        finally:
            runner.stop()

    def test_distinct_clients_have_distinct_budgets(self, tmp_path):
        runner = _gateway(tmp_path, rate=0.001, burst=1)
        try:
            for name in ("c1", "c2", "c3"):
                status, _, _ = _request(
                    runner.port, "POST", "/v1/jobs", {"scenario": "smoke"}, client=name
                )
                assert status == 202
            status, _, _ = _request(
                runner.port, "POST", "/v1/jobs", {"scenario": "smoke"}, client="c1"
            )
            assert status == 429
        finally:
            runner.stop()

    def test_full_admission_queue_answers_429_queue(self, tmp_path):
        """Wedge the spool write; the bounded queue must reject, not grow."""
        wedge = _WedgedSubmit()
        runner = _gateway(tmp_path, submit_fn=wedge, queue_depth=2, batch_max=1)
        results = []
        try:
            threads = _wedge_then_queue(runner, wedge, 2, results)
            status, headers, _ = _request(
                runner.port, "POST", "/v1/jobs", {"scenario": "smoke"}, client="late"
            )
            assert status == 429
            assert headers["Retry-After"] == "1"
            wedge.release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert sorted(status for status, _, _ in results) == [202, 202, 202]
            rejected = [
                e for e in iter_events(tmp_path) if e["event"] == "gateway-rejected"
            ]
            assert [e["reason"] for e in rejected] == ["queue"]
        finally:
            wedge.release.set()
            runner.stop()

    def test_concurrent_burst_is_batched_and_exactly_once(self, tmp_path):
        runner = _gateway(tmp_path, batch_max=16)
        try:
            report = run_http_loadgen(runner.url, jobs=12, clients=4, wait=False)
            assert report.admitted == 12 and report.errors == 0
            records = sorted(path.stem for path in (tmp_path / "jobs").glob("*.json"))
            assert records == sorted(report.job_ids)  # exactly-once, no extras
            admitted_events = [
                e for e in iter_events(tmp_path) if e["event"] == "gateway-admitted"
            ]
            assert sorted(e["job"] for e in admitted_events) == records
            # Each write of b jobs admits exactly b jobs tagged batch=b, and
            # the batch counter agrees with the events.
            sizes = Counter(e["batch"] for e in admitted_events)
            assert all(count % size == 0 for size, count in sizes.items())
            batches = sum(count // size for size, count in sizes.items())
            assert runner.gateway.counters()["gateway.batches"] == batches
        finally:
            runner.stop()

    def test_stop_flushes_admitted_submissions(self, tmp_path):
        """An accepted 202 must never be lost to a graceful shutdown."""
        wedge = _WedgedSubmit()
        runner = _gateway(tmp_path, submit_fn=wedge)
        responses = []
        threads = _wedge_then_queue(runner, wedge, 2, responses)
        stopper = threading.Thread(target=runner.stop)
        stopper.start()
        try:
            _wait_until(lambda: runner.gateway._stopping)
        finally:
            wedge.release.set()  # the stop must still write what was queued
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()
        for thread in threads:
            thread.join(timeout=30.0)
        assert [status for status, _, _ in responses] == [202, 202, 202]
        assert wedge.sizes == [1, 2]
        assert len(list((tmp_path / "jobs").glob("*.json"))) == 3

    def test_event_stream_replays_job_history(self, tmp_path):
        runner = _gateway(tmp_path)
        try:
            _, _, payload = _request(runner.port, "POST", "/v1/jobs", {"scenario": "smoke"})
            job_id = payload["job_id"]
            ClusterWorker(WorkerConfig(root=tmp_path, poll_interval=0.01)).run(
                max_jobs=1, idle_exit=30.0
            )
            connection = http.client.HTTPConnection("127.0.0.1", runner.port, timeout=30)
            try:
                connection.request("GET", f"/v1/jobs/{job_id}/events?timeout=20")
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type") == "application/x-ndjson"
                lines = response.read().decode("utf-8").splitlines()
            finally:
                connection.close()
            events = [json.loads(line)["event"] for line in lines if line.strip()]
            assert events[0] == "submitted"
            assert "claimed" in events
            assert events[-1] == "released"  # terminal transition closes the stream
        finally:
            runner.stop()

    def test_gateway_emits_lifecycle_events_and_metrics(self, tmp_path):
        runner = _gateway(tmp_path)
        try:
            _request(runner.port, "POST", "/v1/jobs", {"scenario": "smoke"})
        finally:
            runner.stop()
        events = list(iter_events(tmp_path))
        names = [e["event"] for e in events]
        assert "gateway-started" in names
        assert "gateway-admitted" in names
        assert names[-1] == "gateway-stopped"
        metrics_events = [e for e in events if e["event"] == "metrics"]
        assert metrics_events, "traffic must produce at least one metrics snapshot"
        snapshot = metrics_events[-1]["metrics"]
        assert snapshot["gateway.requests"]["value"] >= 1.0
        assert snapshot["gateway.admitted"]["value"] == 1.0
        assert "gateway.submit.seconds" in snapshot

    def test_heartbeat_feeds_status_snapshot(self, tmp_path):
        runner = _gateway(tmp_path)
        try:
            _request(runner.port, "POST", "/v1/jobs", {"scenario": "smoke"})
            snapshot = collect_gateway(tmp_path)
            assert snapshot is not None and snapshot.alive
            assert snapshot.heartbeat["port"] == runner.port
            report = service_status(tmp_path)
            assert report["gateway"]["alive"] is True
        finally:
            runner.stop()
        report = service_status(tmp_path)
        assert report["gateway"]["alive"] is False  # stopped heartbeat is not liveness
        assert report["gateway"]["heartbeat"]["counters"]["gateway.admitted"] == 1

    def test_roots_without_a_gateway_keep_the_historical_shape(self, tmp_path):
        submit_job(tmp_path, "smoke")
        report = service_status(tmp_path)
        assert "gateway" not in report
        assert collect_gateway(tmp_path) is None


# -- HTTP loadgen ----------------------------------------------------------------------


class TestHttpLoadgen:
    def test_nearest_rank_percentiles(self):
        # The ceil(f * n)-th smallest sample.
        values = [float(v) for v in range(1, 101)]
        assert nearest_rank(values, 0.50) == 50.0
        assert nearest_rank(values, 0.99) == 99.0
        assert nearest_rank(values, 0.07) == 7.0  # 0.07 * 100 is 7.000000000000001
        assert nearest_rank(values, 1.0) == 100.0
        assert nearest_rank(values, 0.0) == 1.0  # clamped to the min sample
        assert nearest_rank([], 0.5) is None
        odd = [float(v) for v in range(9, 0, -1)]  # unsorted, n = 9
        assert nearest_rank(odd, 0.50) == 5.0  # ceil(4.5)
        assert nearest_rank(odd, 0.90) == 9.0  # ceil(8.1)
        assert nearest_rank(odd, 0.10) == 1.0  # ceil(0.9)
        assert nearest_rank([3.0, 1.0, 2.0], 0.50) == 2.0  # ceil(1.5)
        assert nearest_rank([4.0], 0.99) == 4.0

    def test_spool_and_http_loadgen_percentiles_agree(self):
        values = [float(v) for v in range(1, 11)]
        spool = LoadgenReport(scenario="smoke", submitted=10, latencies=values)
        http = HttpLoadgenReport(url="http://x", scenario="smoke", clients=1)
        http.submit_latencies = values
        for fraction in (0.50, 0.90, 0.99):
            assert spool.latency_percentile(fraction) == http.submit_percentile(fraction)
        assert spool.latency_percentile(0.50) == 5.0

    def test_report_dict_carries_submit_percentiles(self):
        report = HttpLoadgenReport(url="http://x", scenario="smoke", clients=2)
        report.attempted = 4
        report.admitted = 4
        report.submit_latencies = [0.010, 0.020, 0.030, 0.040]
        report.wall_seconds = 2.0
        payload = report.to_dict()
        assert payload["submit_p50"] == 0.020
        assert payload["submit_p99"] == 0.040
        assert payload["submit_rate"] == 2.0

    def test_over_rate_burst_sees_429_and_retries_to_completion(self, tmp_path):
        runner = _gateway(tmp_path, rate=5.0, burst=1)
        try:
            report = run_http_loadgen(
                runner.url, jobs=5, clients=1, wait=False, timeout=60.0
            )
            assert report.admitted == 5  # Retry-After obeyed until admitted
            assert report.rejected_429 >= 1
            assert report.retry_after_max >= 1.0
            lines = "\n".join(format_http_loadgen_report(report))
            assert "Retry-After" in lines
        finally:
            runner.stop()

    def test_no_retry_mode_gives_up_on_429(self, tmp_path):
        runner = _gateway(tmp_path, rate=0.001, burst=2)
        try:
            report = run_http_loadgen(
                runner.url, jobs=6, clients=1, wait=False, retry_429=False
            )
            assert report.admitted == 2
            assert report.rejected_429 == 4
        finally:
            runner.stop()

    def test_wait_mode_polls_jobs_to_completion_over_http(self, tmp_path):
        runner = _gateway(tmp_path)
        serving = ClusterWorker(WorkerConfig(root=tmp_path, poll_interval=0.02))
        worker = threading.Thread(
            target=lambda: serving.run(max_jobs=4, idle_exit=60.0), daemon=True
        )
        worker.start()
        try:
            report = run_http_loadgen(runner.url, jobs=4, clients=2, wait=True, timeout=120.0)
            assert report.waited
            assert report.done == 4 and report.timed_out == 0
            lines = format_http_loadgen_report(report)
            assert lines[0] == "http loadgen: 4 done, 0 failed, 0 cancelled of 4 admitted"
            assert any("429 rejected: 0" in line for line in lines)
        finally:
            worker.join(timeout=120.0)
            runner.stop()

    def test_seeds_are_strided_across_the_burst(self, tmp_path):
        runner = _gateway(tmp_path)
        try:
            run_http_loadgen(runner.url, jobs=6, clients=3, wait=False)
            seeds = set()
            for path in (tmp_path / "jobs").glob("*.json"):
                seeds.add(json.loads(path.read_text())["params"]["seed"])
            assert len(seeds) == 6  # distinct seeds -> no accidental cache collapse
        finally:
            runner.stop()


# -- CLI wiring ------------------------------------------------------------------------


class TestGatewayCli:
    def test_gateway_parser_accepts_issue_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "gateway",
                "--root",
                "svc",
                "--port",
                "9000",
                "--rate",
                "10",
                "--burst",
                "20",
                "--queue-depth",
                "64",
            ]
        )
        assert args.command == "gateway"
        assert (args.port, args.rate, args.burst, args.queue_depth) == (9000, 10.0, 20.0, 64)

    def test_loadgen_parser_accepts_http_mode(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["loadgen", "--http", "http://127.0.0.1:8750", "--jobs", "24", "--clients", "8"]
        )
        assert args.http == "http://127.0.0.1:8750"
        assert args.clients == 8
        assert args.root is None

    def test_loadgen_requires_root_or_http(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--root"):
            main(["loadgen", "--jobs", "2"])

    def test_loadgen_http_rejects_verify(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="verify"):
            main(["loadgen", "--http", "http://127.0.0.1:1", "--verify"])

    def test_cli_loadgen_http_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        runner = _gateway(tmp_path)
        try:
            code = main(
                [
                    "loadgen",
                    "--http",
                    runner.url,
                    "--jobs",
                    "4",
                    "--clients",
                    "2",
                    "--no-wait",
                ]
            )
        finally:
            runner.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "http loadgen: 4 admitted of 4 attempted" in out
        assert "submit latency p50=" in out

    def test_cli_status_renders_gateway_section(self, tmp_path, capsys):
        from repro.cli import main

        runner = _gateway(tmp_path)
        try:
            _request(runner.port, "POST", "/v1/jobs", {"scenario": "smoke"})
            assert main(["status", "--root", str(tmp_path)]) == 0
        finally:
            runner.stop()
        out = capsys.readouterr().out
        assert "gateway: listening on 127.0.0.1:" in out
        assert "admitted=1" in out

    def test_cli_status_omits_gateway_section_without_heartbeat(self, tmp_path, capsys):
        from repro.cli import main

        submit_job(tmp_path, "smoke")
        assert main(["status", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "gateway:" not in out and "gateway traffic:" not in out
