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

The package itself imports none of them and re-exports nothing: import
each name from the module that defines it, so a process loads only the
modules it uses.

Layering: engine and flow code may import :mod:`repro.obs` modules (they
are stdlib-only at module level); :mod:`repro.obs.snapshot` and
:mod:`repro.obs.health` reach back into the service layer lazily, inside
functions, so no import cycle exists.
"""
