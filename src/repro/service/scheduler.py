"""Job scheduler: turns claimed jobs into engine dispatches.

The scheduler owns the execution side of the service: given a job a worker
has already claimed, it regenerates the job's scenario into concrete panel
tasks, groups them into *compatible batches* — tasks sharing a (solver,
effort) pair, which one backend fan-out can dispatch together — and runs
each batch through the shared :class:`~repro.engine.panels.Engine`, so every
solve goes through the two-tier solution cache and lands in the persistent
store.

Claiming, retries and status transitions belong to the caller (the
lease-claiming :class:`~repro.service.cluster.ClusterWorker`); an execution
that fails simply raises.  Cancellation is cooperative: the flag is checked
between batches, so a cancel lands within one batch's latency rather than
one job's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import CacheStats
from repro.engine.panels import Engine, PanelTask
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.service.scenarios import FlowScenarioSpec, generate_scenario, scenario_spec
from repro.service.spool import Job


@dataclass
class JobOutcome:
    """Summary of one finished job execution (JSON-safe via ``to_dict``).

    ``flows`` and ``stages`` are populated only for flow-scenario jobs: the
    Table 1–3 headline numbers per flow, and the stage-graph execution
    counters (``executed`` / ``restored`` / ``shared``) — the latter is how
    operators see a warm store serving a whole flow without recomputation.
    """

    panels: int = 0
    batches: int = 0
    shields: int = 0
    tracks: int = 0
    valid_panels: int = 0
    runtime_seconds: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)
    flows: Optional[Dict[str, Dict[str, object]]] = None
    stages: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "panels": self.panels,
            "batches": self.batches,
            "shields": self.shields,
            "tracks": self.tracks,
            "valid_panels": self.valid_panels,
            "runtime_seconds": round(self.runtime_seconds, 6),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "store_hits": self.cache.store_hits,
            },
        }
        if self.flows is not None:
            payload["flows"] = self.flows
        if self.stages is not None:
            payload["stages"] = self.stages
        return payload


def batch_compatible(
    tasks: Sequence[PanelTask], max_size: Optional[int] = None
) -> List[List[PanelTask]]:
    """Group tasks into dispatch batches of one (solver, effort) pair each.

    Batches keep first-appearance order so a scenario's cheap greedy panels
    are not starved behind its annealed ones (or vice versa); within a batch
    the engine sorts by key, so the grouping never affects results.

    ``max_size`` splits each group into consecutive runs of at most that
    many tasks.  Since a scenario's tasks usually share one (solver,
    effort) pair, an unbounded grouping would collapse a whole job into a
    single batch — leaving the scheduler's between-batch cancellation and
    heartbeat hooks nothing to fire between.
    """
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be positive, got {max_size}")
    groups: Dict[Tuple[str, str], List[PanelTask]] = {}
    for task in tasks:
        groups.setdefault((task.solver, task.effort), []).append(task)
    if max_size is None:
        return list(groups.values())
    return [
        group[start : start + max_size]
        for group in groups.values()
        for start in range(0, len(group), max_size)
    ]


class Scheduler:
    """Execute claimed jobs through an engine, one job at a time.

    Parameters
    ----------
    engine:
        Backend + two-tier cache every batch is dispatched through.  A store
        attached to the engine's cache is what makes finished work durable.
    on_batch:
        Called with the job between dispatch batches.  The worker checks
        cancellation markers and refreshes its lease and heartbeat here, so
        all three work while a long job is executing, not just between jobs.
    batch_size:
        Upper bound on tasks per dispatch batch.  Bounding it is what gives
        a homogeneous job (one solver/effort across all its tasks — the
        common case) multiple batch boundaries, so cancellation lands
        within ``batch_size`` panels rather than after the whole job.
        ``None`` dispatches each compatible group whole.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` of the owning
        process; every finished execution lands in its ``solve.seconds``
        histogram (plus batch/panel counters).
    events:
        Optional :class:`~repro.obs.events.EventLog` threaded through to
        flow-scenario runners so stage materialisations are logged.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        on_batch: Optional[Callable[[Job], None]] = None,
        batch_size: Optional[int] = 8,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.engine = engine or Engine()
        self.on_batch = on_batch
        self.batch_size = batch_size
        self.metrics = metrics
        self.events = events

    def execute_job(self, job: Job) -> JobOutcome:
        """Execute one already-claimed (``running``) job; raises on failure.

        The claim itself — winning a lease rename — happened before this
        call; here the job's scenario is regenerated and dispatched batch by
        batch, with ``on_batch`` firing between batches.  Timing and the
        job's share of cache traffic are recorded on the returned outcome.
        Callers own the status transition (done / cancelled / retry / fail).
        """
        start = time.perf_counter()
        stats_before = self.engine.cache_stats()
        outcome = self._execute(job)
        outcome.runtime_seconds = time.perf_counter() - start
        outcome.cache = self.engine.cache_stats() - stats_before
        if self.metrics is not None:
            self.metrics.histogram("solve.seconds").observe(outcome.runtime_seconds)
            self.metrics.counter("solve.batches").inc(outcome.batches)
            self.metrics.counter("solve.panels").inc(outcome.panels)
        return outcome

    def _execute(self, job: Job) -> JobOutcome:
        spec = scenario_spec(job.scenario)
        if isinstance(spec, FlowScenarioSpec):
            return self._execute_flow(job, spec.with_params(dict(job.params)))
        tasks = generate_scenario(job.scenario, job.params)
        outcome = JobOutcome()
        for batch in batch_compatible(tasks, max_size=self.batch_size):
            if self.on_batch is not None:
                self.on_batch(job)
            if job.cancel_requested:
                break
            solutions = self.engine.solve_tasks(batch)
            outcome.batches += 1
            for solution in solutions.values():
                outcome.panels += 1
                outcome.shields += solution.num_shields
                outcome.tracks += solution.num_tracks
                outcome.valid_panels += int(solution.is_valid())
        return outcome

    def _execute_flow(self, job: Job, spec: FlowScenarioSpec) -> JobOutcome:
        """Run a flow scenario through the stage-graph runner.

        The job's flows share this scheduler's engine — and therefore its
        two-tier solution cache — and, when the engine's cache is backed by
        a :class:`~repro.service.store.ResultStore`, the same store doubles
        as the persistent stage-artifact tier, so a repeated flow job
        restores whole stages instead of re-solving panels one by one.
        Cancellation is honoured between flows (the stage batch boundary of
        this job kind); ``on_batch`` fires there too, keeping the worker's
        lease and heartbeat fresh during a long comparison.
        """
        # Imported here: the scheduler is imported by every worker at
        # startup, and the flow/bench stack is only needed once a flow job
        # runs.
        from repro.bench.ibm import generate_circuit
        from repro.flow.flows import build_context, run_flow
        from repro.flow.runner import FlowRunner
        from repro.gsino.config import GsinoConfig

        circuit = generate_circuit(
            spec.circuit,
            sensitivity_rate=spec.sensitivity_rate,
            scale=spec.scale,
            seed=spec.seed,
        )
        config = GsinoConfig(
            length_scale=1.0 / (spec.scale**0.5), sino_effort=spec.effort
        )
        context = build_context(circuit.grid, circuit.netlist, config, self.engine)
        layout_store = None if self.engine.cache is None else self.engine.cache.store
        artifact_store = layout_store if hasattr(layout_store, "get_artifact") else None
        runner = FlowRunner(
            context, store=artifact_store, tracer=self.engine.tracer, events=self.events
        )
        outcome = JobOutcome(flows={})
        for name in spec.flow_names():
            if self.on_batch is not None:
                self.on_batch(job)
            if job.cancel_requested:
                break
            result = run_flow(name, context, runner=runner)
            outcome.batches += 1
            outcome.panels += len(result.panels)
            outcome.shields += result.metrics.total_shields
            for solution in result.panels.values():
                outcome.tracks += solution.num_tracks
                outcome.valid_panels += int(solution.is_valid())
            assert outcome.flows is not None
            outcome.flows[name] = {
                "violations": result.metrics.crosstalk.num_violations,
                "average_wirelength_um": result.metrics.average_wirelength_um,
                "routing_area_um2": result.metrics.area.area,
                "shields": result.metrics.total_shields,
            }
        outcome.stages = runner.outcome_counts()
        return outcome

    def __repr__(self) -> str:
        return f"Scheduler(engine={self.engine!r})"
