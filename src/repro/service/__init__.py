"""repro.service — persistent job-service layer.

The engine layer (:mod:`repro.engine`) made panel solves dispatchable and
cacheable *within* one process; this layer makes them durable *across*
processes.  It is the subsystem every future scaling step (remote backends)
builds on:

* :mod:`repro.service.store` — :class:`ResultStore`, a disk-backed,
  content-addressed store of solved panel layouts that plugs in as the
  persistent second tier under :class:`repro.engine.cache.SolutionCache`;
* :mod:`repro.service.queue` — :class:`Job`, the spool record of one unit
  of work and its status lifecycle;
* :mod:`repro.service.scheduler` — :class:`Scheduler`, which batches
  compatible panel tasks of each claimed job and dispatches them over any
  :class:`~repro.engine.backends.ExecutionBackend`;
* :mod:`repro.service.scenarios` — the scenario registry generating diverse
  synthetic workloads far beyond the paper's three tables;
* :mod:`repro.service.daemon` — the file-based job spool (one flat
  ``jobs/`` directory and one ``leases/`` tree per root) and the client
  helpers behind the ``repro submit`` / ``status`` / ``cancel`` / ``gc``
  CLI verbs, so submitters never need a network connection;
* :mod:`repro.service.cluster` — the spool's one consumer: atomic
  lease-based claiming, per-worker heartbeats, crash reclaim, the lone
  worker behind ``repro serve``, the ``repro serve --workers K`` local
  fleet supervisor and the ``repro loadgen`` burst harness;
* :mod:`repro.service.gateway` — the HTTP front door (``repro gateway``):
  an asyncio JSON API that rate-limits, queues, and group-commits remote
  submissions into the same spool, with an HTTP mode for ``repro loadgen``.

Every lifecycle transition in this layer (submit, claim, release, reclaim,
cancel, gc, worker start/stop) is also appended to the root's event log
(:mod:`repro.obs.events`), which ``repro events`` / ``repro metrics`` and
the typed :class:`repro.obs.snapshot.ServiceSnapshot` consume.

See DESIGN.md §"Service layer" / §"Cluster layer" / §"Observability layer"
for the on-disk formats and versioning rules.
"""

from repro.service.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    ClusterWorker,
    LeaseManager,
    LoadgenReport,
    WorkerConfig,
    WorkerIdentity,
    run_loadgen,
)
from repro.service.daemon import (
    SubmitRequest,
    gc_service,
    request_cancel,
    service_status,
    submit_job,
    submit_jobs,
    wait_for_job,
)
from repro.service.gateway import (
    Gateway,
    GatewayConfig,
    GatewayRunner,
    HttpLoadgenReport,
    run_gateway,
    run_http_loadgen,
)
from repro.service.queue import JOB_STATUSES, Job
from repro.service.scenarios import (
    SCENARIO_NAMES,
    FlowScenarioSpec,
    ScenarioSpec,
    generate_scenario,
    list_scenarios,
    register_scenario,
    scenario_kind,
    scenario_spec,
)
from repro.service.scheduler import JobOutcome, Scheduler, batch_compatible
from repro.service.store import ResultStore, StoreStats, read_cumulative_store_stats

__all__ = [
    "ResultStore",
    "StoreStats",
    "read_cumulative_store_stats",
    "ClusterConfig",
    "ClusterSupervisor",
    "ClusterWorker",
    "LeaseManager",
    "LoadgenReport",
    "WorkerConfig",
    "WorkerIdentity",
    "run_loadgen",
    "Job",
    "JOB_STATUSES",
    "Scheduler",
    "JobOutcome",
    "batch_compatible",
    "ScenarioSpec",
    "FlowScenarioSpec",
    "SCENARIO_NAMES",
    "generate_scenario",
    "list_scenarios",
    "register_scenario",
    "scenario_kind",
    "scenario_spec",
    "SubmitRequest",
    "submit_job",
    "submit_jobs",
    "request_cancel",
    "wait_for_job",
    "service_status",
    "gc_service",
    "Gateway",
    "GatewayConfig",
    "GatewayRunner",
    "HttpLoadgenReport",
    "run_gateway",
    "run_http_loadgen",
]
