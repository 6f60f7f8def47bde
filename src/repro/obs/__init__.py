"""repro.obs — dependency-light observability: events, traces, metrics, snapshots.

Five small, stdlib-only modules threaded through engine, flow, service and
cluster:

* :mod:`repro.obs.events` — crash-safe append-only JSONL event log per
  service root (atomic line appends, rotation, per-writer sequence numbers,
  schema-versioned records) with a replaying reader and an incremental
  cursor;
* :mod:`repro.obs.trace` — nestable span tracing for solves and flow
  stages, with a JSON trace tree and a flamegraph-style text report;
* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms
  snapshotted into the event log at heartbeat boundaries;
* :mod:`repro.obs.snapshot` — typed ``ServiceSnapshot``/``WorkerSnapshot``
  objects behind ``repro status``, plus event-log job-status replay;
* :mod:`repro.obs.health` — per-worker health verdicts and one queue
  record folded from heartbeats and the event log (``repro watch``'s
  model).

Layering: engine and flow code may import :mod:`repro.obs` (it is
stdlib-only at module level); :mod:`repro.obs.snapshot` and
:mod:`repro.obs.health` reach back into the service layer lazily, inside
functions, so no import cycle exists.
"""

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventCursor,
    EventLog,
    event_log_for,
    follow_events,
    format_event,
    iter_events,
    read_events,
)
from repro.obs.health import (
    FleetHealth,
    QueueHealth,
    WorkerHealth,
    classify_worker,
    collect_fleet_health,
    format_health,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    fleet_metrics_from_events,
    format_metrics,
    merge_snapshots,
    snapshot_percentile,
)
from repro.obs.snapshot import (
    ClusterSnapshot,
    LeaseSnapshot,
    ServiceSnapshot,
    StoreSnapshot,
    WorkerSnapshot,
    job_counts_from_events,
    job_statuses_from_events,
)
from repro.obs.trace import Span, Tracer, maybe_span

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventCursor",
    "EventLog",
    "event_log_for",
    "follow_events",
    "format_event",
    "iter_events",
    "read_events",
    "FleetHealth",
    "QueueHealth",
    "WorkerHealth",
    "classify_worker",
    "collect_fleet_health",
    "format_health",
    "fleet_metrics_from_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_metrics",
    "merge_snapshots",
    "snapshot_percentile",
    "ClusterSnapshot",
    "LeaseSnapshot",
    "ServiceSnapshot",
    "StoreSnapshot",
    "WorkerSnapshot",
    "job_counts_from_events",
    "job_statuses_from_events",
    "Span",
    "Tracer",
    "maybe_span",
]
