"""Tests for repro.watch — the dashboard's data layer and (optionally) its TUI.

The data layer (:mod:`repro.watch.data`) is stdlib-only and tested
unconditionally: sparkline rendering, the incremental WatchPoller frames,
the job table, and the cancel/requeue operator actions.  The Textual TUI tests run only when the optional ``[tui]``
extra is installed (``pytest.importorskip``): CI's watch-smoke job
installs it and drives the app headless through Textual's ``run_test``
pilot; the core test job skips them.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.events import EventLog, iter_events
from repro.service.cluster import ClusterWorker, WorkerConfig
from repro.service.spool import cancel_path, job_path, submit_job
from repro.watch.data import (
    HISTORY_POINTS,
    WatchPoller,
    cancel_job,
    frame_summary,
    job_audit,
    read_job_table,
    requeue_job,
    sparkline,
)

# -- data layer -----------------------------------------------------------------------


class TestSparkline:
    def test_empty_series_is_blank_fixed_width(self):
        assert sparkline([], width=8) == " " * 8

    def test_peak_maps_to_tallest_glyph(self):
        rendered = sparkline([0.0, 1.0, 2.0, 4.0], width=4)
        assert len(rendered) == 4
        assert rendered[-1] == "█"

    def test_window_keeps_newest_values(self):
        rendered = sparkline([9.0] * 50 + [0.0], width=5)
        assert len(rendered) == 5


class TestWatchPoller:
    def _settled_root(self, tmp_path: Path) -> Path:
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        worker = ClusterWorker(WorkerConfig(root=root, poll_interval=0.01))
        assert worker.run(max_jobs=1, idle_exit=0.05) == 1
        return root

    def test_frames_fold_health_jobs_and_tail(self, tmp_path):
        root = self._settled_root(tmp_path)
        poller = WatchPoller(root)
        frame = poller.poll()
        assert frame.jobs and frame.jobs[0]["status"] == "done"
        assert any(r["event"] == "released" for r in frame.tail)
        verdict, _live, total = frame_summary(frame)
        assert total == len(frame.jobs)
        assert isinstance(verdict, str)

    def test_history_is_bounded_and_incremental(self, tmp_path):
        root = self._settled_root(tmp_path)
        poller = WatchPoller(root)
        for _n in range(HISTORY_POINTS + 5):
            frame = poller.poll()
        assert len(frame.queue_history) == HISTORY_POINTS
        assert len(frame.claim_history) == HISTORY_POINTS
        # A second poll delivers no duplicate tail events.
        tail_lengths = [len(poller.poll().tail) for _n in range(2)]
        assert tail_lengths[0] == tail_lengths[1]

    def test_job_table_lists_every_record_oldest_first(self, tmp_path):
        root = tmp_path / "svc"
        jobs = [submit_job(root, "smoke") for _n in range(5)]
        table = read_job_table(root)
        assert sorted(r["job_id"] for r in table) == sorted(j.job_id for j in jobs)
        created = [float(r["created_at"]) for r in table]
        assert created == sorted(created)

    def test_job_audit_formats_lifecycle(self, tmp_path):
        root = self._settled_root(tmp_path)
        job_id = read_job_table(root)[0]["job_id"]
        lines = job_audit(root, job_id)
        assert any("submitted" in line for line in lines)
        assert any("released" in line for line in lines)


class TestOperatorActions:
    def test_cancel_queued_job_writes_marker(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        assert cancel_job(root, job.job_id) is True
        assert cancel_path(root, job.job_id).exists()

    def test_cancel_missing_job_is_refused(self, tmp_path):
        root = tmp_path / "svc"
        submit_job(root, "smoke")
        assert cancel_job(root, "no-such-job") is False

    def _fail_job(self, root: Path, job_id: str) -> Path:
        path = job_path(root, job_id)
        record = json.loads(path.read_text())
        record["status"] = "failed"
        record["attempts"] = 2
        record["error"] = "boom"
        path.write_text(json.dumps(record))
        return path

    def test_requeue_failed_job_resets_record_and_emits_event(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")
        path = self._fail_job(root, job.job_id)
        assert requeue_job(root, job.job_id) is True
        record = json.loads(path.read_text())
        assert record["status"] == "queued"
        assert record["attempts"] == 0 and record["error"] is None
        events = list(iter_events(root, job_id=job.job_id, event="requeued"))
        assert len(events) == 1

    def test_requeue_respects_terminal_and_missing_jobs(self, tmp_path):
        root = tmp_path / "svc"
        job = submit_job(root, "smoke")  # still queued: not requeueable
        assert requeue_job(root, job.job_id) is False
        assert requeue_job(root, "no-such-job") is False

    def test_requeue_works_on_a_one_shard_marker_root(self, tmp_path):
        """Roots served by the previous release carry a one-shard marker."""
        root = tmp_path / "svc"
        root.mkdir()
        (root / "shards.json").write_text('{"layout_version": 1, "shards": 1}\n')
        job = submit_job(root, "smoke")
        self._fail_job(root, job.job_id)
        assert requeue_job(root, job.job_id) is True
        (requeued,) = iter_events(root, job_id=job.job_id, event="requeued")
        assert "shard" not in requeued


class TestWatchCli:
    def test_watch_verb_reports_missing_tui_extra(self, tmp_path, capsys):
        if importlib.util.find_spec("textual") is not None:
            pytest.skip("textual installed; the verb would launch the real TUI")
        assert main(["watch", "--root", str(tmp_path / "svc")]) == 1
        assert "[tui]" in capsys.readouterr().err


# -- Textual TUI (requires the [tui] extra) -------------------------------------------

_HAS_TEXTUAL = importlib.util.find_spec("textual") is not None

needs_textual = pytest.mark.skipif(
    not _HAS_TEXTUAL, reason="the [tui] extra (textual) is not installed"
)


def _dashboard_root(tmp_path: Path) -> Path:
    """A root with 3 worker heartbeats, queued jobs, and event history."""
    root = tmp_path / "svc"
    jobs = [submit_job(root, "smoke") for _n in range(3)]
    workers = root / "workers"
    workers.mkdir(parents=True, exist_ok=True)
    now = time.time()
    for index in range(3):
        (workers / f"worker-{index}.json").write_text(
            json.dumps(
                {
                    "updated_at": now,
                    "started_at": now - 30.0,
                    "poll_interval": 0.1,
                    "stopped": False,
                    "jobs_done": index,
                }
            )
        )
    log = EventLog(root, writer="seed")
    for job in jobs:
        log.emit("claimed", job=job.job_id)
    return root


@needs_textual
class TestWatchApp:
    def test_dashboard_renders_workers_queue_and_jobs(self, tmp_path):
        from textual.widgets import DataTable, Static

        from repro.watch.app import WatchApp

        root = _dashboard_root(tmp_path)

        async def scenario() -> None:
            app = WatchApp(root, interval=0.1)
            async with app.run_test() as pilot:
                await pilot.pause()
                assert app.query_one("#workers", DataTable).row_count == 3
                assert app.query_one("#jobs", DataTable).row_count == 3
                assert app.query_one("#queue", DataTable).row_count == 1
                summary = str(app.query_one("#summary", Static).renderable)
                assert "workers(live): 3" in summary

        asyncio.run(scenario())

    def test_cancel_keybinding_writes_cancel_marker(self, tmp_path):
        from repro.watch.app import WatchApp

        root = _dashboard_root(tmp_path)

        async def scenario() -> None:
            app = WatchApp(root, interval=0.1)
            async with app.run_test() as pilot:
                await pilot.pause()
                job_id = app.selected_job()
                assert job_id is not None
                await pilot.press("c")
                await pilot.pause()
                assert cancel_path(root, job_id).exists()

        asyncio.run(scenario())

    def test_detail_keybinding_opens_job_audit_screen(self, tmp_path):
        from repro.watch.app import JobDetailScreen, WatchApp

        root = _dashboard_root(tmp_path)

        async def scenario() -> None:
            app = WatchApp(root, interval=0.1)
            async with app.run_test() as pilot:
                await pilot.pause()
                await pilot.press("d")
                await pilot.pause()
                assert isinstance(app.screen, JobDetailScreen)
                await pilot.press("escape")
                await pilot.pause()
                assert not isinstance(app.screen, JobDetailScreen)

        asyncio.run(scenario())
