"""repro.engine — pluggable parallel execution, panel-solution caching and sweeps.

The GSINO flow (and both baselines) spend nearly all of their time in
independent per-(region, direction) SINO panel solves, and the experiment
harness spends its time in independent benchmark instances.  This layer
turns both into dispatchable work:

* :mod:`repro.engine.backends` — the :class:`ExecutionBackend` strategy
  (``serial`` or a ``process`` pool, picked by one worker count) with
  order-preserving ``map_tasks`` dispatch, chunked over the pool;
* :mod:`repro.engine.signature` — stable content hashes of panel instances;
* :mod:`repro.engine.cache` — the content-addressed :class:`SolutionCache`
  with per-tier hit/miss statistics; optionally backed by a persistent
  :class:`LayoutStore` tier (``repro.service.store.ResultStore``) so fresh
  processes warm-start from disk;
* :mod:`repro.engine.panels` — :class:`PanelTask`, the backend worker
  function and the :class:`Engine` facade the flow drivers call;
* :mod:`repro.engine.sweep` — :class:`SweepRunner`, fanning whole
  experiment-grid instances over the same backends.

Every backend is bit-identical to the serial reference path: tasks carry
their own seeds, results are keyed rather than ordered, and result maps are
assembled in sorted-key order.  See DESIGN.md §"Execution engine".

The package re-exports nothing: import each name from the module that
defines it, so a process that only dispatches or reads results (the
backends are stdlib-only) never loads numpy and the SINO solvers.
"""
