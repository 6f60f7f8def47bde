"""repro.service — persistent job-service layer.

The engine layer (:mod:`repro.engine`) made panel solves dispatchable and
cacheable *within* one process; this layer makes them durable *across*
processes.  It is the subsystem every future scaling step (remote backends)
builds on:

* :mod:`repro.service.store` — :class:`ResultStore`, a disk-backed,
  content-addressed store of solved panel layouts that plugs in as the
  persistent second tier under :class:`repro.engine.cache.SolutionCache`;
* :mod:`repro.service.spool` — the file-based job spool (one flat
  ``jobs/`` directory, one ``leases/`` tree and one ``workers/``
  directory per root): :class:`Job` and its status lifecycle, every spool
  path, one reader per spool file kind, the liveness rule, the doorbell,
  and the client helpers behind the ``repro submit`` / ``status`` /
  ``cancel`` / ``gc`` CLI verbs, so submitters never need a network
  connection;
* :mod:`repro.service.scheduler` — :class:`Scheduler`, which batches
  compatible panel tasks of each claimed job and dispatches them over any
  :class:`~repro.engine.backends.ExecutionBackend`;
* :mod:`repro.service.scenarios` — the scenario registry generating diverse
  synthetic workloads far beyond the paper's three tables;
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

The package itself imports nothing: a caller imports each name from the
module that defines it, so a process loads only the layers it runs (a
compare that opens the store never loads the cluster or the asyncio
gateway).

See DESIGN.md §"Service layer" / §"Cluster layer" / §"Observability layer"
for the on-disk formats and versioning rules.
"""
