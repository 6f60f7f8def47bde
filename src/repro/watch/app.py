"""The Textual TUI of ``repro watch`` — a thin view over WatchPoller frames.

Import this module only through :func:`repro.watch.run_watch` (or inside
tests guarded by ``pytest.importorskip("textual")``): it imports Textual
at module scope and therefore requires the ``[tui]`` extra.

Layout::

    ┌ workers ────────────────────────────┐
    │ worker │ state │ hb │ done │ lease  │
    ├ queue ──────────────────────────────┤
    │ queued │ leased │ trend │ depth ▁▃▅ │ claims ▂▄█ │
    ├ jobs ───────────────────────────────┤
    │ job │ status │ attempts │ scenario  │
    ├ events ─────────────────────────────┤
    │ ...live tail...                     │
    └─────────────────────────────────────┘

Keys: ``q`` quit, ``c`` cancel the selected job, ``r`` requeue a
failed/cancelled job, ``d`` drill into the selected job's audit trail
(claim/release/reclaim events), ``escape`` back.

Everything stateful lives in :mod:`repro.watch.data`; this module only
moves frame fields into widgets, which is what keeps it testable with
Textual's headless ``run_test`` pilot in CI.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from textual.app import App, ComposeResult
from textual.binding import Binding
from textual.screen import Screen
from textual.widgets import DataTable, Footer, Header, Static

from repro.watch.data import (
    WatchFrame,
    WatchPoller,
    cancel_job,
    format_lease,
    frame_summary,
    job_audit,
    requeue_job,
)

#: Sparkline width used by the queue table columns.
_SPARK_WIDTH = 20


class JobDetailScreen(Screen):
    """Audit trail of one job: every event that ever touched it."""

    BINDINGS = [Binding("escape", "app.pop_screen", "back")]

    def __init__(self, root: Path, job_id: str) -> None:
        super().__init__()
        self._root = root
        self._job_id = job_id

    def compose(self) -> ComposeResult:
        lines = job_audit(self._root, self._job_id)
        body = "\n".join(lines) if lines else "(no events recorded for this job)"
        yield Static(f"job {self._job_id}\n\n{body}", id="job-detail")
        yield Footer()


class WatchApp(App):
    """Live fleet dashboard over one service root."""

    TITLE = "repro watch"
    BINDINGS = [
        Binding("q", "quit", "quit"),
        Binding("c", "cancel_selected", "cancel job"),
        Binding("r", "requeue_selected", "requeue job"),
        Binding("d", "detail_selected", "job detail"),
    ]

    def __init__(self, root: Union[str, Path], interval: float = 1.0) -> None:
        super().__init__()
        self.root = Path(root)
        self.interval = interval
        self.poller = WatchPoller(self.root)
        self.frame: Optional[WatchFrame] = None
        self._job_ids: List[str] = []

    # -- layout -------------------------------------------------------------------

    def compose(self) -> ComposeResult:
        yield Header(show_clock=False)
        yield Static("", id="summary")
        yield DataTable(id="workers")
        yield DataTable(id="queue")
        yield DataTable(id="jobs")
        yield Static("", id="events")
        yield Footer()

    def on_mount(self) -> None:
        workers = self.query_one("#workers", DataTable)
        workers.add_columns("worker", "state", "hb age", "done", "failed", "reclaimed", "lease")
        queue = self.query_one("#queue", DataTable)
        queue.add_columns("queued", "leased", "trend", "depth", "claims/tick")
        jobs = self.query_one("#jobs", DataTable)
        jobs.add_columns("job", "status", "attempts", "scenario")
        jobs.cursor_type = "row"
        self.refresh_frame()
        self.set_interval(self.interval, self.refresh_frame)

    # -- refresh ------------------------------------------------------------------

    def refresh_frame(self) -> None:
        """One poll: fold fleet state into every widget."""
        frame = self.poller.poll()
        self.frame = frame
        verdict, live, total = frame_summary(frame)
        self.query_one("#summary", Static).update(
            f"fleet: {verdict}  workers(live): {live}  jobs: {total}  root: {self.root}"
        )
        workers = self.query_one("#workers", DataTable)
        workers.clear()
        for worker_id, worker in sorted(frame.health.workers.items()):
            workers.add_row(
                worker_id,
                worker.state,
                f"{worker.heartbeat_age:.1f}s",
                str(worker.jobs_done),
                str(worker.jobs_failed),
                str(worker.jobs_reclaimed),
                format_lease(worker.lease),
            )
        queue = self.query_one("#queue", DataTable)
        queue.clear()
        queue.add_row(
            str(frame.health.queue.queued),
            str(frame.health.queue.leased),
            frame.health.queue.queue_trend,
            frame.queue_sparkline(_SPARK_WIDTH),
            frame.claim_sparkline(_SPARK_WIDTH),
        )
        jobs = self.query_one("#jobs", DataTable)
        jobs.clear()
        self._job_ids = []
        for record in frame.jobs:
            job_id = str(record.get("job_id"))
            self._job_ids.append(job_id)
            jobs.add_row(
                job_id,
                str(record.get("status")),
                str(record.get("attempts", 0)),
                str(record.get("scenario", "")),
            )
        tail = frame.tail[-12:]
        from repro.obs.events import format_event

        self.query_one("#events", Static).update(
            "\n".join(format_event(record) for record in tail) or "(no events yet)"
        )

    # -- actions ------------------------------------------------------------------

    def selected_job(self) -> Optional[str]:
        """Job id under the jobs-table cursor, if any."""
        jobs = self.query_one("#jobs", DataTable)
        row = jobs.cursor_row
        if row is None or not 0 <= row < len(self._job_ids):
            return None
        return self._job_ids[row]

    def action_cancel_selected(self) -> None:
        job_id = self.selected_job()
        if job_id is None:
            self.notify("no job selected", severity="warning")
            return
        if cancel_job(self.root, job_id):
            self.notify(f"cancellation requested for {job_id}")
        else:
            self.notify(f"cannot cancel {job_id}", severity="warning")
        self.refresh_frame()

    def action_requeue_selected(self) -> None:
        job_id = self.selected_job()
        if job_id is None:
            self.notify("no job selected", severity="warning")
            return
        if requeue_job(self.root, job_id):
            self.notify(f"requeued {job_id}")
        else:
            self.notify(f"cannot requeue {job_id} (not failed/cancelled)", severity="warning")
        self.refresh_frame()

    def action_detail_selected(self) -> None:
        job_id = self.selected_job()
        if job_id is None:
            self.notify("no job selected", severity="warning")
            return
        self.push_screen(JobDetailScreen(self.root, job_id))


__all__ = ["JobDetailScreen", "WatchApp"]
