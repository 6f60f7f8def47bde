"""Panel-solve execution: tasks, the worker function and the engine facade.

This is the layer the flow drivers talk to.  A :class:`PanelTask` is one
self-contained (panel problem, solver, effort, seed) work unit;
:func:`solve_panel_task` is the module-level worker every backend runs
(module-level so process pools can pickle it); and :class:`Engine` bundles an
:class:`~repro.engine.backends.ExecutionBackend` with an optional
:class:`~repro.engine.cache.SolutionCache` behind two calls:

* :meth:`Engine.solve_panels` — batch path used by Phase II: cache lookups,
  fan-out of the misses over the backend, cache fills, and assembly of the
  result map in sorted-key order (so downstream iteration order never
  depends on the backend).
* :meth:`Engine.solve_panel` — single-solve path used by Phase III's
  refinement loop, which is inherently sequential but still benefits from
  the shared cache (rejected candidates are reverted and often re-requested;
  repeated sweeps re-solve the same refinement sequence).

Determinism contract: for a fixed instance and configuration, every backend
produces bit-identical solutions.  This holds because each task is solved
independently from its own problem and an explicit per-task seed (the
stochastic ``anneal`` effort derives nothing from global RNG state), and
because results are keyed, not ordered, on the way back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.catalog import EFFORT_LEVELS, PANEL_SOLVERS
from repro.engine.backends import ExecutionBackend, SerialBackend
from repro.engine.cache import CacheStats, SolutionCache
from repro.engine.signature import panel_signature
from repro.obs.trace import Tracer, maybe_span
from repro.sino.anneal import AnnealConfig, solve_min_area_sino
from repro.sino.net_ordering import net_ordering_only
from repro.sino.panel import SinoProblem, SinoSolution

#: (region coordinate, direction) — matches :data:`repro.gsino.metrics.PanelKey`,
#: restated here so the engine layer does not import the flow layer.
PanelKey = Tuple[Tuple[int, int], str]


@dataclass(frozen=True)
class PanelTask:
    """One panel solve, fully described (picklable for process backends).

    Attributes
    ----------
    key:
        The (region coordinate, direction) the solution belongs to.
    problem:
        The SINO instance to solve.
    solver:
        ``"sino"`` (shield insertion + net ordering) or ``"ordering"``.
    effort:
        One of :data:`repro.catalog.EFFORT_LEVELS` (``"greedy"``,
        ``"anneal"`` or ``"anneal-fast"``); forwarded to the SINO solver.
    seed:
        Per-task seed of the stochastic annealing efforts.  ``None`` keeps
        the schedule's own seed (the serial reference behaviour).
    anneal:
        Annealing schedule override for the annealing efforts, including the
        chain count of multi-chain search; ``None`` uses the solver's
        default schedule.  The effort and the full schedule, chain count
        included, are part of the task signature, so changing either can
        never reuse a stale cached layout.
    """

    key: PanelKey
    problem: SinoProblem
    solver: str = "sino"
    effort: str = "greedy"
    seed: Optional[int] = None
    anneal: Optional[AnnealConfig] = None

    def __post_init__(self) -> None:
        if self.solver not in PANEL_SOLVERS:
            raise ValueError(
                f"unknown panel solver {self.solver!r} (expected one of {PANEL_SOLVERS})"
            )
        if self.effort not in EFFORT_LEVELS:
            raise ValueError(
                f"unknown SINO effort level {self.effort!r} (expected one of {EFFORT_LEVELS})"
            )

    def signature(self) -> str:
        """Content signature of this task (the cache key)."""
        return panel_signature(
            self.problem, self.solver, self.effort, self.seed, self.anneal
        )


def solve_panel_task(
    task: PanelTask, backend: Optional[ExecutionBackend] = None
) -> Tuple[PanelKey, SinoSolution]:
    """Solve one panel task; the worker function every backend executes.

    ``backend`` optionally fans the chains of a multi-chain effort out in
    parallel; pool workers leave it ``None`` (panels are already parallel at
    that level, and chain results never depend on how they were dispatched).
    """
    if task.solver == "ordering":
        solution = net_ordering_only(task.problem)
    else:
        config = task.anneal
        if task.seed is not None:
            config = replace(config or AnnealConfig(), seed=task.seed)
        solution = solve_min_area_sino(
            task.problem, effort=task.effort, config=config, backend=backend
        )
    return task.key, solution


class Engine:
    """Execution backend + solution cache behind one facade.

    One engine is meant to be shared across everything that should pool
    work and results: :func:`repro.gsino.pipeline.compare_flows` threads a
    single engine through all three flows so ID+NO, iSINO and GSINO solve
    each distinct panel instance exactly once between them.

    An optional :class:`~repro.obs.trace.Tracer` records a span per batch
    solve (with an inner span around the backend dispatch); absent one, the
    instrumentation is a no-op check.
    """

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        cache: Optional[SolutionCache] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.backend = backend or SerialBackend()
        self.cache = cache
        self.tracer = tracer

    # -- cache statistics ---------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Current cache counters (all zero when caching is disabled)."""
        if self.cache is None:
            return CacheStats()
        return self.cache.stats()

    # -- solving ------------------------------------------------------------------

    def solve_panel(
        self,
        problem: SinoProblem,
        solver: str = "sino",
        effort: str = "greedy",
        seed: Optional[int] = None,
        anneal: Optional[AnnealConfig] = None,
        key: PanelKey = ((0, 0), "single"),
    ) -> SinoSolution:
        """Solve one panel inline, through the cache when one is attached.

        Multi-chain efforts fan their chains over this engine's backend (the
        panel itself runs in the calling thread); results are identical for
        every backend, so cached layouts stay backend-agnostic.
        """
        task = PanelTask(
            key=key, problem=problem, solver=solver, effort=effort, seed=seed, anneal=anneal
        )
        if self.cache is None:
            return solve_panel_task(task, backend=self.backend)[1]
        signature = task.signature()
        cached = self.cache.get(signature, problem)
        if cached is not None:
            return cached
        solution = solve_panel_task(task, backend=self.backend)[1]
        self.cache.put(signature, solution)
        return solution

    def solve_panels(
        self,
        problems: Mapping[PanelKey, SinoProblem],
        solver: str = "sino",
        effort: str = "greedy",
        seed: Optional[int] = None,
        anneal: Optional[AnnealConfig] = None,
    ) -> Dict[PanelKey, SinoSolution]:
        """Solve a batch of panels, fanning cache misses over the backend.

        The returned dict is populated in sorted-key order regardless of the
        backend, so callers that iterate insertion order stay deterministic.
        Panels that are content-identical within the batch (the same net set
        recurring in several regions) are solved once and the layout shared.
        """
        tasks = [
            PanelTask(
                key=panel_key,
                problem=problems[panel_key],
                solver=solver,
                effort=effort,
                seed=seed,
                anneal=anneal,
            )
            for panel_key in sorted(problems)
        ]
        return self.solve_tasks(tasks)

    def solve_tasks(self, tasks: Sequence[PanelTask]) -> Dict[PanelKey, SinoSolution]:
        """Solve a heterogeneous batch of tasks (cache, dedupe, one fan-out).

        Unlike :meth:`solve_panels` the tasks may mix solvers, efforts, seeds
        and schedules — the service scheduler uses this to dispatch a whole
        job's worth of scenario tasks in one backend submission.  Task keys
        must be unique.  The returned dict is in sorted-key order regardless
        of the backend.
        """
        ordered = sorted(tasks, key=lambda task: task.key)
        if len({task.key for task in ordered}) != len(ordered):
            raise ValueError("task keys must be unique within a batch")
        with maybe_span(self.tracer, "engine.solve_tasks") as span:
            solutions: Dict[PanelKey, SinoSolution] = {}
            problems: Dict[PanelKey, SinoProblem] = {task.key: task.problem for task in ordered}
            pending_signature: Dict[PanelKey, str] = {}
            unique_tasks: Dict[str, PanelTask] = {}

            for task in ordered:
                signature = task.signature()
                if self.cache is not None:
                    cached = self.cache.get(signature, task.problem)
                    if cached is not None:
                        solutions[task.key] = cached
                        continue
                pending_signature[task.key] = signature
                unique_tasks.setdefault(signature, task)

            with maybe_span(self.tracer, "backend.dispatch", tasks=len(unique_tasks)):
                solved = self.backend.map_tasks(solve_panel_task, list(unique_tasks.values()))
            by_signature = dict(
                zip(unique_tasks.keys(), (solution for _key, solution in solved))
            )
            if self.cache is not None:
                for signature, solution in by_signature.items():
                    self.cache.put(signature, solution)
            for panel_key, signature in pending_signature.items():
                template = by_signature[signature]
                solutions[panel_key] = SinoSolution(
                    problem=problems[panel_key], layout=list(template.layout)
                )
            if span is not None:
                span.add(
                    tasks=len(ordered),
                    cache_hits=len(ordered) - len(pending_signature),
                    dispatched=len(unique_tasks),
                )

            # Assemble in sorted order so dict insertion order is reproducible.
            return {task.key: solutions[task.key] for task in ordered}

    # -- lifecycle ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Release the backend's pooled workers (idempotent)."""
        self.backend.shutdown()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        cache = "off" if self.cache is None else repr(self.cache)
        return f"Engine(backend={self.backend!r}, cache={cache})"
