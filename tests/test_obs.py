"""Tests for repro.obs — event log, tracing spans, metrics, snapshots and health.

The event-log tests enforce the layer's headline guarantees: atomic line
appends under thread *and* process concurrency (no torn lines, gapless
per-writer sequence numbers), size rotation that loses nothing mid-burst
and keeps each writer's order when two writers rotate at once,
corrupt-tail tolerance on read, and incremental cursors that never skip or
double-deliver across a rotation.  The snapshot tests prove the event log
is a faithful second source: per-job statuses replayed from events match
the spool, and loadgen's event-derived report matches a spool scan.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
import repro.obs.events as events_module
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventCursor,
    EventLog,
    event_log_for,
    events_dir,
    follow_events,
    format_event,
    iter_events,
    read_events,
)
from repro.obs.health import (
    STATE_DEAD,
    STATE_LAGGING,
    STATE_OK,
    STATE_STALLED,
    STATE_STOPPED,
    classify_worker,
    collect_fleet_health,
    format_health,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    fleet_metrics_from_events,
    format_metrics,
    merge_snapshots,
    process_registry,
    snapshot_delta,
    snapshot_percentile,
)
from repro.obs.snapshot import (
    ServiceSnapshot,
    job_counts_from_events,
    job_statuses_from_events,
)
from repro.obs.trace import Tracer, maybe_span
from repro.service.cluster import (
    ClusterWorker,
    WorkerConfig,
    format_loadgen_report,
    run_loadgen,
)
from repro.service.spool import WORKER_STALE_SECONDS, service_status, submit_job
from repro.service.store import ResultStore, read_cumulative_store_stats

# -- event log: basics ----------------------------------------------------------------


class TestEventLog:
    def test_emit_roundtrip_with_schema_and_gapless_seq(self, tmp_path):
        log = EventLog(tmp_path, writer="w1")
        log.emit("submitted", job="a", priority=3)
        log.emit("released", job="a", status="done")
        records = read_events(tmp_path)
        assert [r["event"] for r in records] == ["submitted", "released"]
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["v"] == EVENT_SCHEMA_VERSION for r in records)
        assert all(r["writer"] == "w1" for r in records)
        assert records[0]["priority"] == 3 and records[1]["status"] == "done"

    def test_none_fields_are_dropped(self, tmp_path):
        EventLog(tmp_path, writer="w").emit("released", job="a", latency=None)
        (record,) = read_events(tmp_path)
        assert "latency" not in record

    def test_filters_by_job_and_event(self, tmp_path):
        log = EventLog(tmp_path, writer="w")
        log.emit("submitted", job="a")
        log.emit("submitted", job="b")
        log.emit("released", job="a", status="done")
        assert [r["event"] for r in read_events(tmp_path, job_id="a")] == [
            "submitted",
            "released",
        ]
        assert len(read_events(tmp_path, event="submitted")) == 2
        assert read_events(tmp_path, tail=1)[0]["event"] == "released"

    def test_client_log_is_shared_per_root(self, tmp_path):
        first = event_log_for(tmp_path)
        assert event_log_for(tmp_path) is first
        assert event_log_for(tmp_path / "other") is not first

    def test_rejects_nonpositive_segment_size(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(tmp_path, max_segment_bytes=0)


# -- event log: rotation --------------------------------------------------------------


class TestEventLogRotation:
    def test_rotation_mid_burst_loses_nothing(self, tmp_path):
        log = EventLog(tmp_path, writer="w", max_segment_bytes=256)
        for index in range(60):
            log.emit("tick", n=index)
        segments = list(events_dir(tmp_path).glob("log-*.jsonl"))
        assert len(segments) >= 2, "burst should have rotated at least twice"
        records = read_events(tmp_path)
        assert [r["seq"] for r in records] == list(range(60))
        assert [r["n"] for r in records] == list(range(60))

    def test_cursor_survives_rotation_between_polls(self, tmp_path):
        log = EventLog(tmp_path, writer="w", max_segment_bytes=128)
        cursor = EventCursor(tmp_path)
        seen = []
        for index in range(40):
            log.emit("tick", n=index)
            if index % 7 == 0:
                seen += [r["n"] for r in cursor.poll()]
        seen += [r["n"] for r in cursor.poll()]
        assert seen == list(range(40))
        assert cursor.poll() == []

    def test_flat_root_layout_is_byte_identical(self, tmp_path):
        EventLog(tmp_path, writer="w").emit("submitted", job="j1")
        assert [path.name for path in events_dir(tmp_path).iterdir()] == ["log.jsonl"]
        (line,) = (events_dir(tmp_path) / "log.jsonl").read_text().splitlines()
        assert list(json.loads(line)) == ["v", "seq", "ts", "writer", "event", "job"]
        assert [r["job"] for r in iter_events(tmp_path)] == ["j1"]

    def test_racing_rotators_keep_each_writers_records_in_order(self, tmp_path, monkeypatch):
        """A rotator that listed the segments before a peer rotated and
        appended renames the peer's fresh segment under the peer's index;
        readers must still return each writer's records in seq order."""
        real_rename = os.rename
        for trial in range(24):
            root = tmp_path / f"trial-{trial}"
            peer = EventLog(root, writer="peer", max_segment_bytes=1)
            late = EventLog(root, writer="late", max_segment_bytes=1)
            peer.emit("tick")  # the first segment; every later emit rotates
            pending = [True]

            def racing_rename(source, target):
                # `late` has listed the segments and picked its index; the
                # peer rotates (same index) and appends before `late` renames.
                if pending and Path(target).name.startswith("log-"):
                    pending.clear()
                    peer.emit("tick")
                real_rename(source, target)

            monkeypatch.setattr(os, "rename", racing_rename)
            late.emit("tick")
            monkeypatch.setattr(os, "rename", real_rename)
            peer.emit("tick")
            rotated = sorted(path.name[:10] for path in events_dir(root).glob("log-*.jsonl"))
            assert rotated[0] == rotated[1], "the forced interleaving did not happen"
            for records in (read_events(root), EventCursor(root).poll()):
                assert [r["seq"] for r in records if r["writer"] == "peer"] == [0, 1, 2]
                assert [r["seq"] for r in records if r["writer"] == "late"] == [0]


# -- event log: corruption tolerance --------------------------------------------------


class TestEventLogCorruption:
    def test_torn_tail_line_is_skipped_not_fatal(self, tmp_path):
        log = EventLog(tmp_path, writer="w")
        log.emit("first")
        current = events_dir(tmp_path) / "log.jsonl"
        with open(current, "ab") as handle:
            handle.write(b'{"v": 1, "seq": 99, "tr')  # crash mid-write, no newline
        # A torn tail is invisible until terminated; later appends terminate
        # it into one garbage line, which readers skip.
        log.emit("second")
        records = read_events(tmp_path)
        assert [r["event"] for r in records] == ["first", "second"]

    def test_garbage_and_foreign_version_lines_are_skipped(self, tmp_path):
        log = EventLog(tmp_path, writer="w")
        log.emit("first")
        current = events_dir(tmp_path) / "log.jsonl"
        with open(current, "ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(b'{"v": 999, "event": "future-schema"}\n')
        log.emit("second")
        assert [r["event"] for r in read_events(tmp_path)] == ["first", "second"]
        cursor = EventCursor(tmp_path)
        assert [r["event"] for r in cursor.poll()] == ["first", "second"]
        assert cursor.skipped == 2

    def test_cursor_waits_for_incomplete_last_line(self, tmp_path):
        log = EventLog(tmp_path, writer="w")
        log.emit("first")
        cursor = EventCursor(tmp_path)
        assert len(cursor.poll()) == 1
        current = events_dir(tmp_path) / "log.jsonl"
        with open(current, "ab") as handle:
            handle.write(b'{"v": 1, "seq": 1, "ts": 1.0, "writer": "w", "event": "par')
        assert cursor.poll() == []  # incomplete: not consumed, not skipped
        with open(current, "ab") as handle:
            handle.write(b'tial"}\n')
        (record,) = cursor.poll()
        assert record["event"] == "partial"
        assert cursor.skipped == 0


# -- event log: concurrency -----------------------------------------------------------

_WRITER_SCRIPT = """
import sys
from repro.obs.events import EventLog
log = EventLog(sys.argv[1], writer=sys.argv[2])
for index in range(int(sys.argv[3])):
    log.emit("tick", n=index)
"""


class TestEventLogConcurrency:
    def test_threads_and_processes_append_while_reader_tails(self, tmp_path):
        """No torn lines, gapless per-writer seq, under real concurrency."""
        per_writer = 50
        thread_writers = [f"thread-{i}" for i in range(4)]
        process_writers = [f"proc-{i}" for i in range(2)]
        tailed = []
        stop = threading.Event()

        def tail():
            cursor = EventCursor(tmp_path)
            while not stop.is_set():
                tailed.extend(cursor.poll())
                time.sleep(0.005)
            tailed.extend(cursor.poll())
            assert cursor.skipped == 0

        def write(writer_id):
            log = EventLog(tmp_path, writer=writer_id, max_segment_bytes=2048)
            for index in range(per_writer):
                log.emit("tick", n=index)

        reader = threading.Thread(target=tail)
        reader.start()
        threads = [threading.Thread(target=write, args=(w,)) for w in thread_writers]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), w, str(per_writer)],
                env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
            )
            for w in process_writers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        stop.set()
        reader.join()

        everyone = thread_writers + process_writers
        assert len(tailed) == per_writer * len(everyone)
        for writer in everyone:
            seqs = [r["seq"] for r in tailed if r["writer"] == writer]
            assert sorted(seqs) == list(range(per_writer)), f"gap in {writer}"
            payload = sorted(r["n"] for r in tailed if r["writer"] == writer)
            assert payload == list(range(per_writer))


    def test_rotation_between_listing_and_open_delivers_once(self, tmp_path, monkeypatch):
        """A segment rotated mid-poll resumes at its offset, not at byte 0."""
        log = EventLog(tmp_path, writer="w")
        for index in range(3):
            log.emit("tick", n=index)
        cursor = EventCursor(tmp_path)
        tailed = cursor.poll()
        log.emit("tick", n=3)
        log.emit("tick", n=4)
        listing = events_module._segment_paths

        def listing_then_rotation(directory):
            paths = listing(directory)
            log._rotate(directory / "log.jsonl")
            log.emit("tick", n=5)
            return paths

        monkeypatch.setattr(events_module, "_segment_paths", listing_then_rotation)
        tailed += cursor.poll()
        monkeypatch.setattr(events_module, "_segment_paths", listing)
        tailed += cursor.poll()
        tailed += cursor.poll()
        assert sorted(record["seq"] for record in tailed) == list(range(6))


# -- tracing --------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_carry_timings_and_counters(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", tasks=3) as inner:
                inner.add(tasks=2, hits=1)
            outer.add(total=1)
        (root,) = tracer.roots
        assert root.name == "outer" and root.finished
        (child,) = root.children
        assert child.parent_id == root.span_id
        assert child.counters == {"tasks": 5.0, "hits": 1.0}
        assert root.wall_seconds >= child.wall_seconds >= 0.0
        tree = tracer.to_tree()
        assert tree[0]["name"] == "outer"
        assert tree[0]["children"][0]["counters"] == {"hits": 1, "tasks": 5}

    def test_sibling_spans_after_pop_share_the_root(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        (root,) = tracer.roots
        assert [child.name for child in root.children] == ["a", "b"]

    def test_maybe_span_is_a_noop_without_a_tracer(self):
        with maybe_span(None, "anything", tasks=1) as span:
            assert span is None

    def test_format_report_renders_names_shares_and_counters(self):
        tracer = Tracer()
        with tracer.span("solve", tasks=4):
            with tracer.span("dispatch"):
                pass
        report = tracer.format_report()
        assert "trace report" in report
        assert "solve" in report and "  dispatch" in report
        assert "tasks=4" in report

    def test_format_report_renders_empty_trace(self):
        assert "(no spans recorded)" in Tracer().format_report()


# -- metrics --------------------------------------------------------------------------


class TestMetrics:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert registry.counter("jobs") is counter

    def test_histogram_percentiles_are_ordered_and_bounded(self):
        histogram = Histogram("latency")
        for value in (0.002, 0.02, 0.02, 0.2, 2.0, 400.0):
            histogram.observe(value)
        assert histogram.count == 6
        p50, p90, p99 = (histogram.percentile(f) for f in (0.5, 0.9, 0.99))
        assert 0.0 < p50 <= p90 <= p99
        assert histogram.bucket_counts[-1] == 1  # 400s landed in overflow
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_merge_sums_counters_gauges_and_histogram_buckets(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        for registry in (first, second):
            registry.counter("done").inc(2)
            registry.gauge("queued").set(3)
            registry.histogram("latency").observe(0.05)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["done"]["value"] == 4
        assert merged["queued"]["value"] == 6
        assert merged["latency"]["count"] == 2
        assert sum(merged["latency"]["bucket_counts"]) == 2
        assert snapshot_percentile(merged["latency"], 0.5) is not None

    def test_snapshot_delta_reports_growth_since_baseline(self):
        registry = MetricsRegistry()
        registry.counter("steps").inc(10)
        registry.gauge("queued").set(4)
        registry.histogram("latency").observe(0.05)
        baseline = registry.snapshot()
        registry.counter("steps").inc(3)
        registry.gauge("queued").set(1)
        registry.histogram("latency").observe(2.0)
        registry.counter("fresh").inc(2)
        delta = snapshot_delta(registry.snapshot(), baseline)
        assert delta["steps"]["value"] == 3
        assert delta["queued"]["value"] == 1  # gauges pass through
        assert delta["fresh"]["value"] == 2  # new since the baseline: whole
        assert delta["latency"]["count"] == 1
        assert sum(delta["latency"]["bucket_counts"]) == 1
        assert delta["latency"]["sum"] == 2.0
        assert snapshot_delta(baseline, baseline)["steps"]["value"] == 0

    def test_merge_keeps_first_on_mismatched_bounds(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("latency", bounds=(1.0, 2.0)).observe(1.5)
        second.histogram("latency", bounds=(5.0, 9.0)).observe(6.0)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["latency"]["bounds"] == [1.0, 2.0]
        assert merged["latency"]["count"] == 1

    def test_format_metrics_renders_each_kind(self):
        registry = MetricsRegistry()
        registry.counter("solve.batches").inc(7)
        registry.gauge("spool.queued").set(2)
        registry.histogram("solve.seconds").observe(0.3)
        text = format_metrics(registry.snapshot())
        assert "solve.batches (counter) 7" in text
        assert "spool.queued (gauge) 2" in text
        assert "solve.seconds (histogram) count=1" in text and "p99=" in text
        assert format_metrics({}) == "metrics: none recorded"


# -- store: cumulative stats across sessions ------------------------------------------


class TestStoreCumulativeStats:
    def test_stats_survive_across_store_sessions(self, tmp_path):
        root = tmp_path / "store"
        first = ResultStore(root)
        first.put_layout("a" * 64, (1, None, 2))
        assert first.get_layout("a" * 64) is not None
        first.persist_stats()
        # A second session (another process in real life) adds its own traffic.
        second = ResultStore(root)
        assert second.get_layout("b" * 64) is None  # miss
        total = second.cumulative_stats()
        assert (total.hits, total.misses, total.writes) == (1, 1, 1)
        # The module-level reader sees both sessions without opening a store.
        persisted = read_cumulative_store_stats(root)
        assert (persisted.hits, persisted.misses, persisted.writes) == (1, 1, 1)

    def test_reader_tolerates_garbage_session_files(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        store.put_layout("c" * 64, (1,))
        store.persist_stats()
        (root / "stats" / "junk.json").write_text("not json", encoding="utf-8")
        (root / "stats" / "odd.json").write_text('{"stats": 3}', encoding="utf-8")
        assert read_cumulative_store_stats(root).writes == 1

    def test_reader_returns_zero_for_missing_store(self, tmp_path):
        stats = read_cumulative_store_stats(tmp_path / "nowhere")
        assert stats.hits == stats.misses == stats.writes == 0


# -- snapshots: event log vs spool ----------------------------------------------------


class TestSnapshots:
    def _settle_jobs(self, root):
        submit_job(root, "smoke")
        submit_job(root, "smoke", params={"seed": 9})
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.01))
        assert worker.run(max_jobs=2, idle_exit=0.05) == 2

    def test_service_status_keeps_its_dict_shape(self, tmp_path):
        root = tmp_path / "svc"
        self._settle_jobs(root)
        report = service_status(root)
        assert set(report) == {"root", "jobs", "cache_totals", "store", "cluster"}
        assert report["jobs"]["counts"] == {"done": 2}
        assert len(report["jobs"]["records"]) == 2
        assert report["cache_totals"]["misses"] > 0
        assert report["store"]["entries"] > 0
        assert set(report["cluster"]) == {"workers", "leases"}
        assert service_status(tmp_path / "never-served")["cluster"] is None
        snapshot = ServiceSnapshot.collect(root)
        assert snapshot.to_dict()["jobs"] == report["jobs"]
        json.dumps(report)  # stays JSON-serialisable end to end

    def test_job_statuses_from_events_match_the_spool(self, tmp_path):
        root = tmp_path / "svc"
        self._settle_jobs(root)
        from_spool = {
            record["job_id"]: record["status"]
            for record in service_status(root)["jobs"]["records"]
        }
        assert job_statuses_from_events(root) == from_spool
        assert job_counts_from_events(root) == {"done": 2}

    def test_job_statuses_from_events_none_without_a_log(self, tmp_path):
        assert job_statuses_from_events(tmp_path / "empty") is None

    def test_requeued_event_replays_to_queued(self, tmp_path):
        root = tmp_path / "svc"
        log = EventLog(root, writer="w")
        log.emit("submitted", job="j")
        log.emit("claimed", job="j")
        log.emit("released", job="j", status="failed")
        log.emit("requeued", job="j")
        assert job_statuses_from_events(root) == {"j": "queued"}

    def test_daemon_emits_the_full_job_lifecycle(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.01))
        assert worker.run(max_jobs=1, idle_exit=0.05) == 1
        lifecycle = [r["event"] for r in read_events(root, job_id=job.job_id)]
        assert lifecycle == ["submitted", "claimed", "released"]
        released = read_events(root, job_id=job.job_id, event="released")[0]
        assert released["status"] == "done" and released["latency"] >= 0.0
        snapshots = read_events(root, event="metrics")
        assert snapshots and all("metrics" in r for r in snapshots)
        merged = merge_snapshots(
            [r["metrics"] for r in snapshots if r["writer"] == snapshots[-1]["writer"]][-1:]
        )
        assert merged["solve.seconds"]["count"] == 1

    def test_loadgen_event_report_matches_spool_scan(self, tmp_path):
        root = tmp_path / "svc"
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        thread = threading.Thread(target=worker.run, kwargs={"idle_exit": 0.5})
        thread.start()
        try:
            report = run_loadgen(root, "smoke", jobs=3, timeout=30.0, poll=0.05, verify=True)
        finally:
            thread.join()
        assert report.done == 3 and report.timed_out == 0
        check = report.spool_check
        assert check is not None
        assert (check["done"], check["failed"], check["cancelled"]) == (3, 0, 0)
        payload = report.to_dict()
        assert payload["latency_p50"] <= payload["latency_p99"] <= payload["latency_max"]
        assert abs(payload["latency_p50"] - check["latency_p50"]) < 0.5
        # The smoke scenario is greedy-only: no anneal counters, no rate.
        assert report.anneal_steps_per_s is None
        assert "mean anneal step rate" not in "\n".join(format_loadgen_report(report))

    def test_worker_omits_anneal_work_done_before_it_started(self, tmp_path):
        # Anneal work this process recorded before the worker served (an
        # earlier compare or test) is not the worker's to report.
        process_registry().counter("anneal.steps").inc(5000)
        process_registry().counter("anneal.seconds").inc(1.0)
        root = tmp_path / "svc"
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        thread = threading.Thread(target=worker.run, kwargs={"idle_exit": 0.5})
        thread.start()
        try:
            report = run_loadgen(root, "smoke", jobs=2, timeout=30.0, poll=0.05)
        finally:
            thread.join()
        assert report.done == 2
        assert report.anneal_steps_per_s is None
        for record in read_events(root, event="metrics"):
            assert record["metrics"].get("anneal.steps", {"value": 0.0})["value"] == 0.0

    def test_loadgen_reports_anneal_step_rate_for_annealed_scenarios(self, tmp_path):
        root = tmp_path / "svc"
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.02, lease_ttl=5.0))
        thread = threading.Thread(target=worker.run, kwargs={"idle_exit": 0.5})
        thread.start()
        try:
            report = run_loadgen(root, "dense-bus", jobs=2, timeout=60.0, poll=0.05)
        finally:
            thread.join()
        assert report.done == 2
        # dense-bus anneals its panels, so the workers' anneal.steps /
        # anneal.seconds counters reach the metrics snapshots and the report
        # derives a mean step rate from the merged fleet view.
        assert report.anneal_steps_per_s is not None
        assert report.anneal_steps_per_s > 0.0
        assert report.to_dict()["anneal_steps_per_s"] == round(report.anneal_steps_per_s, 1)
        assert "mean anneal step rate" in "\n".join(format_loadgen_report(report))


# -- follow backoff -------------------------------------------------------------------


class TestFollowBackoff:
    def test_rejects_nonpositive_poll_interval(self, tmp_path):
        with pytest.raises(ValueError):
            next(follow_events(tmp_path, poll_interval=0.0))

    def test_idle_polls_back_off_and_activity_resets(self, tmp_path, monkeypatch):
        root = tmp_path / "svc"
        log = EventLog(root, writer="w")
        delays: list = []
        monkeypatch.setattr(time, "sleep", delays.append)
        calls = {"n": 0}

        def stop() -> bool:
            calls["n"] += 1
            if calls["n"] == 4:
                log.emit("ping")  # activity lands between polls
            return calls["n"] >= 6

        records = list(follow_events(root, poll_interval=0.1, stop=stop))
        assert [r["event"] for r in records] == ["ping"]
        # Empty polls double the delay up to the 1s idle ceiling; the poll
        # that saw the ping snaps back to the configured interval.
        assert delays == [
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
            pytest.approx(1.0),
            pytest.approx(0.1),
        ]

    def test_events_parser_honours_poll_flag(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["events", "--root", str(tmp_path), "--follow", "--poll", "0.05"]
        )
        assert args.poll == pytest.approx(0.05)


# -- metrics generations --------------------------------------------------------------


class TestMetricsGenerations:
    def _metrics_record(self, writer: str, nonce: str, value: float) -> dict:
        return {
            "writer": writer,
            "nonce": nonce,
            "metrics": {"jobs.done": {"type": "counter", "value": value}},
        }

    def test_generations_of_a_reused_writer_label_sum(self, tmp_path):
        records = [
            self._metrics_record("w", "gen-a", 3.0),
            self._metrics_record("w", "gen-a", 5.0),  # later snapshot, same life
            self._metrics_record("w", "gen-b", 2.0),  # restarted under same label
        ]
        merged, writers = fleet_metrics_from_events(records)
        assert merged["jobs.done"]["value"] == 7.0  # 5 (latest of a) + 2 (b)
        assert writers == ["w"]

    def test_legacy_records_without_nonce_keep_latest(self, tmp_path):
        records = [
            {"writer": "w", "metrics": {"jobs.done": {"type": "counter", "value": 3.0}}},
            {"writer": "w", "metrics": {"jobs.done": {"type": "counter", "value": 5.0}}},
        ]
        merged, _writers = fleet_metrics_from_events(records)
        assert merged["jobs.done"]["value"] == 5.0

    def test_event_log_round_trip_sums_across_restarts(self, tmp_path):
        root = tmp_path / "svc"
        for done in (4.0, 2.0):  # two process generations, same writer label
            log = EventLog(root, writer="daemon-fixed")
            registry = MetricsRegistry()
            registry.counter("jobs.done").inc(done)
            log.emit("metrics", nonce=log.nonce, metrics=registry.snapshot())
        merged, writers = fleet_metrics_from_events(iter_events(root, event="metrics"))
        assert merged["jobs.done"]["value"] == 6.0
        assert writers == ["daemon-fixed"]


# -- health model ---------------------------------------------------------------------


class TestHealthModel:
    def _heartbeat(self, age: float, now: float, **extra: object) -> dict:
        beat = {"updated_at": now - age, "poll_interval": 0.1, "started_at": now - 60.0}
        beat.update(extra)
        return beat

    def test_worker_state_machine_boundaries(self):
        now = 1000.0
        bound = WORKER_STALE_SECONDS  # poll_interval is small; bound = 5s
        assert classify_worker(self._heartbeat(0.1, now), now)[0] == STATE_OK
        assert classify_worker(self._heartbeat(0.6 * bound, now), now)[0] == STATE_LAGGING
        assert classify_worker(self._heartbeat(2.0 * bound, now), now)[0] == STATE_STALLED
        assert classify_worker(self._heartbeat(4.0 * bound, now), now)[0] == STATE_DEAD
        assert (
            classify_worker(self._heartbeat(0.1, now, stopped=True), now)[0] == STATE_STOPPED
        )

    def test_fleet_verdict_is_worst_live_worker(self, tmp_path):
        root = tmp_path / "svc"
        workers = root / "workers"
        workers.mkdir(parents=True)
        now = time.time()
        for name, age, stopped in (("w-ok", 0.1, False), ("w-gone", 99.0, False)):
            (workers / f"{name}.json").write_text(
                json.dumps(
                    {
                        "updated_at": now - age,
                        "started_at": now - 120.0,
                        "poll_interval": 0.1,
                        "stopped": stopped,
                        "jobs_done": 3,
                    }
                )
            )
        health = collect_fleet_health(root, now=now)
        assert health.workers["w-ok"].state == STATE_OK
        assert health.workers["w-gone"].state == STATE_DEAD
        assert health.verdict == STATE_DEAD
        assert health.workers["w-ok"].throughput_jobs_per_s > 0.0

    def test_all_stopped_fleet_reports_stopped(self, tmp_path):
        root = tmp_path / "svc"
        workers = root / "workers"
        workers.mkdir(parents=True)
        (workers / "w.json").write_text(
            json.dumps({"updated_at": time.time(), "stopped": True})
        )
        assert collect_fleet_health(root).verdict == STATE_STOPPED

    def test_queue_statistics_from_event_replay(self, tmp_path):
        root = tmp_path / "svc"
        log = EventLog(root, writer="w")
        for n in range(3):
            log.emit("submitted", job=f"j{n}")
        log.emit("claimed", job="j0")
        log.emit("released", job="j0", status="done", latency=0.1)
        log.emit("claimed", job="j1")
        queue = collect_fleet_health(root).queue
        assert queue.submitted == 3 and queue.claims == 2 and queue.releases == 1
        assert queue.queued == 1  # j2 never claimed
        assert queue.leased == 1  # j1 claimed, not yet released
        assert queue.claim_latency_p50 is not None
        assert queue.claim_latency_p50 <= queue.claim_latency_p95
        assert queue.queue_trend in ("rising", "falling", "flat")

    def test_claim_latency_percentiles_are_nearest_rank(self, tmp_path, monkeypatch):
        """Claim latencies of 1..10 s: p50 is the 5th smallest, p95 the 10th."""
        import repro.obs.events as events_module

        root = tmp_path / "svc"
        log = EventLog(root, writer="w")
        clock = [0.0]
        monkeypatch.setattr(events_module, "time", type("Clock", (), {"time": lambda: clock[0]}))
        for n in range(1, 11):
            log.emit("submitted", job=f"j{n}")
        for n in range(1, 11):
            clock[0] = float(n)
            log.emit("claimed", job=f"j{n}")
        queue = collect_fleet_health(root).queue
        assert queue.claim_latency_p50 == 5
        assert queue.claim_latency_p95 == 10

    def test_flat_root_has_one_queue_record(self, tmp_path):
        root = tmp_path / "svc"
        log = EventLog(root, writer="w")
        log.emit("submitted", job="j")
        health = collect_fleet_health(root)
        assert health.to_dict()["queue"]["queued"] == 1
        assert "shards" not in health.to_dict()
        assert "  queue: queued=1 leased=0 claims=0 reclaims=0 trend=rising" in (
            format_health(health)
        )

    def test_empty_root_is_idle_and_renders(self, tmp_path):
        health = collect_fleet_health(tmp_path / "empty")
        assert health.verdict == "idle"
        assert "no workers" in format_health(health)

    def test_snapshot_health_is_opt_in(self, tmp_path):
        root = tmp_path / "svc"
        EventLog(root, writer="w").emit("submitted", job="j")
        plain = ServiceSnapshot.collect(root).to_dict()
        assert "health" not in plain
        with_health = ServiceSnapshot.collect(root, with_health=True).to_dict()
        assert with_health["health"]["verdict"] == "idle"

    def test_status_health_verb_prints_verdict(self, tmp_path, capsys):
        root = tmp_path / "svc"
        EventLog(root, writer="w").emit("submitted", job="j")
        assert main(["status", "--root", str(root), "--health"]) == 0
        assert "health:" in capsys.readouterr().out
        assert main(["status", "--root", str(root), "--health", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"]["verdict"] == "idle"


# -- CLI verbs ------------------------------------------------------------------------


class TestObsCli:
    def _settled_root(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.01))
        assert worker.run(max_jobs=1, idle_exit=0.05) == 1
        return root, job

    def test_events_verb_prints_human_lines(self, tmp_path, capsys):
        root, job = self._settled_root(tmp_path)
        assert main(["events", "--root", str(root)]) == 0
        output = capsys.readouterr().out
        assert f"submitted job={job.job_id}" in output
        assert "released" in output and "metrics=<snapshot>" in output

    def test_events_verb_json_job_filter_proves_exactly_once(self, tmp_path, capsys):
        root, job = self._settled_root(tmp_path)
        assert main(["events", "--root", str(root), "--job", job.job_id, "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["event"] for r in records] == ["submitted", "claimed", "released"]
        assert all(r["job"] == job.job_id for r in records)

    def test_failed_job_keeps_its_traceback(self, tmp_path, capsys, monkeypatch):
        """The spool keeps a one-line error; the released event the traceback."""
        import repro.service.scheduler as scheduler_module

        def _explode_in_named_helper():
            raise RuntimeError("scenario blew up")

        def broken(name, params=None):
            _explode_in_named_helper()

        monkeypatch.setattr(scheduler_module, "generate_scenario", broken)
        root = tmp_path / "svc"
        job = submit_job(root, "smoke", max_attempts=1)
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.01))
        assert worker.run(max_jobs=1, idle_exit=0.05) == 1
        assert main(["events", "--root", str(root), "--job", job.job_id, "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        (released,) = [r for r in records if r["event"] == "released"]
        assert released["status"] == "failed"
        assert "_explode_in_named_helper" in released["traceback"]
        (record,) = service_status(root)["jobs"]["records"]
        assert record["error"] == "RuntimeError: scenario blew up"
        # The human-readable view stays one line per event.
        assert main(["events", "--root", str(root), "--job", job.job_id]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(records)
        assert "traceback=<see --json>" in lines[-1]

    def test_events_verb_tail_limits_output(self, tmp_path, capsys):
        root, _job = self._settled_root(tmp_path)
        assert main(["events", "--root", str(root), "--tail", "1", "--json"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_events_verb_on_empty_root(self, tmp_path, capsys):
        assert main(["events", "--root", str(tmp_path / "empty")]) == 0
        assert "no events recorded" in capsys.readouterr().out

    def test_metrics_verb_aggregates_solves_and_store(self, tmp_path, capsys):
        root, _job = self._settled_root(tmp_path)
        assert main(["metrics", "--root", str(root)]) == 0
        output = capsys.readouterr().out
        assert "solve.seconds (histogram) count=1" in output
        assert "store lifetime:" in output
        assert main(["metrics", "--root", str(root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["solve.seconds"]["count"] == 1
        assert payload["store"]["writes"] > 0
        assert len(payload["writers"]) == 1

    def test_metrics_verb_on_empty_root(self, tmp_path, capsys):
        assert main(["metrics", "--root", str(tmp_path / "empty")]) == 0
        assert "metrics: none recorded" in capsys.readouterr().out

    def test_flows_trace_flag_prints_report(self, capsys):
        code = main(
            ["flows", "--run", "id_no", "--trace", "--scale", "0.015", "--seed", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "trace report" in output
        assert "stage." in output
        assert "engine.solve_tasks" in output
        assert "signature.instance" in output
        # One root span: every stage is indented under "run", so %root
        # shares out the whole run instead of reading 100% per stage.
        report = output[output.index("trace report"):].splitlines()[2:]
        roots = [line for line in report if not line.startswith(" ")]
        assert len(roots) == 1 and roots[0].startswith("run ")

    def test_format_event_is_greppable(self):
        line = format_event(
            {"v": 1, "seq": 4, "ts": 12.5, "writer": "w", "event": "claimed", "job": "j1"}
        )
        assert "w#4 claimed" in line and "job=j1" in line

    def test_gc_verb_emits_a_gc_event(self, tmp_path, capsys):
        root, _job = self._settled_root(tmp_path)
        assert main(["gc", "--root", str(root), "--purge-jobs"]) == 0
        capsys.readouterr()
        events = read_events(root, event="gc")
        assert events and events[-1]["purged_jobs"] == 1
