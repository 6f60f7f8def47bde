"""The layers the benchmark times, and the metrics it reports for each.

``compare_probes`` lists every wrapped attribute of the in-process
compare workloads.  Each probe sits where the caller resolves the name:
``repro.flow.stages`` imports its phase functions by name, so those are
wrapped there; methods are wrapped on their class.  ``layer_metrics``
folds the recorded spans into the per-layer metrics, as self time (a
span's duration minus its child spans) and counts, per traced compare.

``PER_LAYER`` is the one catalogue of per-layer metric names and units:
every traced run prints all of them, with 0 for a layer the workload does
not exercise (the service layers on the compare workloads, the in-process
algorithm layers on the gateway workload, whose solves run in the worker
process).  ``LAYER_MOVES`` records which end-to-end metric each layer is
expected to move, on which workload.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from measure import median
from spans import Probe, Span, self_time_by_name, self_times

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("gsino_area_ratio", "ratio", "lower", 0.06),
    ("isino_area_ratio", "ratio", "lower", 0.06),
    ("gsino_wl_ratio", "ratio", "lower", 0.025),
)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("bench.generate_circuit_s", "s", "lower"),
    ("signature.instance_token_s", "s", "lower"),
    ("signature.instance_token_calls", "count", "lower"),
    ("router.route_baseline_s", "s", "lower"),
    ("router.route_reserved_s", "s", "lower"),
    ("router.heap_repushes", "count", "lower"),
    ("router.deleted_edges", "count", "lower"),
    ("budgeting.compute_budgets_s", "s", "lower"),
    ("metrics.compute_flow_metrics_s", "s", "lower"),
    ("phase2.build_panel_problems_s", "s", "lower"),
    ("phase2.panels", "count", "lower"),
    ("engine.solve_tasks_s", "s", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.dispatched", "count", "lower"),
    ("engine.batch_hit_ratio", "ratio", "higher"),
    ("engine.solve_panel_s", "s", "lower"),
    ("engine.solve_panel_calls", "count", "lower"),
    ("engine.solve_panel_hit_ratio", "ratio", "higher"),
    ("sino.solve_s", "s", "lower"),
    ("sino.solves", "count", "lower"),
    ("sino.solve_p50_ms", "ms", "lower"),
    ("sino.solve_max_ms", "ms", "lower"),
    ("phase3.run_s", "s", "lower"),
    ("phase3.pass1_sino_reruns", "count", "lower"),
    ("phase3.pass2_regions_examined", "count", "lower"),
    ("phase3.pass2_relax_ratio", "ratio", "higher"),
    ("phase3.unfixable_nets", "count", "lower"),
    ("flow.executed", "count", "lower"),
    ("flow.restored", "count", "higher"),
    ("flow.shared", "count", "higher"),
    ("flow.decode_s", "s", "lower"),
    ("flow.encode_s", "s", "lower"),
    ("flow.materialize_self_s", "s", "lower"),
    ("store.get_artifact_s", "s", "lower"),
    ("store.put_artifact_s", "s", "lower"),
    ("store.get_layout_s", "s", "lower"),
    ("store.put_layout_s", "s", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("gateway.submit_s_p50", "s", "lower"),
    ("gateway.admit_lag_s_p50", "s", "lower"),
    ("gateway.jobs_per_batch", "count", "higher"),
    ("gateway.rejected", "count", "lower"),
    ("cluster.queue_wait_s_p50", "s", "lower"),
    ("cluster.queue_wait_s_tail", "s", "lower"),
    ("cluster.run_s_p50_flow", "s", "lower"),
    ("cluster.run_s_p50_panels", "s", "lower"),
    ("scheduler.runtime_s_p50_flow", "s", "lower"),
    ("scheduler.runtime_s_p50_panels", "s", "lower"),
    ("cluster.claim_overhead_s", "s", "lower"),
    ("cluster.executions_per_job", "count", "lower"),
    ("cluster.utilization", "ratio", "lower"),
    ("loadgen.lag_s_max", "s", "lower"),
    ("loadgen.submit_latency_p50_s", "s", "lower"),
    ("loadgen.job_latency_tail_s", "s", "lower"),
    ("loadgen.job_latency_tail_pct", "percentile", "higher"),
    ("loadgen.job_latency_samples", "count", "higher"),
    ("quality.id_no_violations", "nets", "lower"),
    ("quality.isino_violations", "nets", "lower"),
    ("quality.gsino_violations", "nets", "lower"),
    ("quality.isino_area_overhead_pct", "%", "lower"),
    ("quality.gsino_area_overhead_pct", "%", "lower"),
    ("quality.gsino_wl_overhead_pct", "%", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Layer -> (end-to-end metric it should move, workloads where it should).
LAYER_MOVES: Dict[str, Tuple[str, str]] = {
    "bench": ("setup_s", "compare-cold, compare-warm"),
    "signature": ("latency_p50_s", "compare-warm (most of it), compare-cold"),
    "router": ("latency_p50_s", "compare-cold; zero on compare-warm"),
    "budgeting": ("latency_p50_s", "compare-cold, compare-warm"),
    "metrics": ("latency_p50_s", "compare-cold, compare-warm"),
    "phase2": ("latency_p50_s", "compare-cold, compare-warm (decode rebuilds problems)"),
    "engine": ("latency_p50_s", "compare-cold"),
    "sino": ("latency_p50_s, *_area_ratio", "compare-cold; gateway-open via scheduler.runtime"),
    "phase3": ("latency_p50_s, gsino_area_ratio, gsino_wl_ratio", "compare-cold"),
    "flow": ("latency_p50_s", "decode on compare-warm, encode on compare-cold"),
    "store": ("latency_p50_s", "writes on compare-cold, reads on compare-warm"),
    "gateway": ("latency_p50_s", "gateway-open (submit share of job latency)"),
    "cluster": ("latency_p50_s", "gateway-open (queue wait, claim overhead)"),
    "scheduler": ("latency_p50_s", "gateway-open (solve share of job latency)"),
}


def zero_metrics() -> Dict[str, float]:
    """Every per-layer metric at 0 (layers a workload does not exercise)."""
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


# -- probes ---------------------------------------------------------------------------


def _count(**names: str):
    """Observer copying result attributes into span counts."""

    def observe(span: Span, args: tuple, result: object, token: object) -> None:
        for key, attribute in names.items():
            value = getattr(result, attribute)
            span.counts[key] = float(len(value) if isinstance(value, list) else value)

    return observe


def _route_name(router: object) -> str:
    return "router.route_reserved" if router.config.reserve_shields else "router.route_baseline"


def _route_observe(span: Span, args: tuple, result: tuple, token: object) -> None:
    report = result[1]
    span.counts["heap_repushes"] = float(report.heap_repushes)
    span.counts["deleted_edges"] = float(report.deleted_edges)


def _served(engine: object) -> int:
    stats = engine.cache_stats()
    return stats.hits + stats.store_hits


def _tasks_observe(span: Span, args: tuple, result: object, token: int) -> None:
    span.counts["tasks"] = float(len(args[1]))
    span.counts["hits"] = float(_served(args[0]) - token)


def _panel_observe(span: Span, args: tuple, result: object, token: int) -> None:
    span.counts["hits"] = float(_served(args[0]) - token)


def _problems_observe(span: Span, args: tuple, result: dict, token: object) -> None:
    span.counts["panels"] = float(len(result))


def compare_probes() -> List[Probe]:
    """Every attribute the compare workloads wrap (imported lazily: the
    benchmark must be importable before ``src`` is on the path)."""
    import repro.bench.ibm as ibm
    import repro.engine.panels as panels
    import repro.flow.graph as graph
    import repro.flow.stages as stages
    import repro.gsino.phase2 as phase2
    from repro.engine.panels import Engine
    from repro.flow.runner import FlowRunner
    from repro.router.iterative_deletion import IterativeDeletionRouter
    from repro.service.store import ResultStore

    probes = [
        Probe(ibm, "generate_circuit", "bench.generate_circuit"),
        Probe(graph, "instance_token", "signature.instance_token"),
        Probe(IterativeDeletionRouter, "route", _route_name, observe=_route_observe),
        Probe(stages, "compute_budgets", "budgeting.compute_budgets"),
        Probe(stages, "compute_flow_metrics", "metrics.compute_flow_metrics"),
        # Phase II builds problems inside run_phase2; a warm decode
        # rebuilds them from the stage closure in repro.flow.stages.
        Probe(phase2, "build_panel_problems", "phase2.build_panel_problems",
              observe=_problems_observe),
        Probe(stages, "build_panel_problems", "phase2.build_panel_problems",
              observe=_problems_observe),
        Probe(Engine, "solve_tasks", "engine.solve_tasks", observe=_tasks_observe,
              before=lambda engine, tasks: _served(engine)),
        Probe(Engine, "solve_panel", "engine.solve_panel", observe=_panel_observe,
              before=lambda engine, *args, **kwargs: _served(engine)),
        Probe(panels, "solve_panel_task", "sino.solve"),
        Probe(stages, "run_phase3", "phase3.run", observe=_count(
            pass1_sino_reruns="pass1_sino_reruns",
            pass2_regions_examined="pass2_regions_examined",
            pass2_regions_relaxed="pass2_regions_relaxed",
            unfixable_nets="unfixable_nets",
        )),
        Probe(FlowRunner, "materialize", "flow.materialize"),
        Probe(ResultStore, "get_artifact", "store.get_artifact"),
        Probe(ResultStore, "put_artifact", "store.put_artifact"),
        Probe(ResultStore, "get_layout", "store.get_layout"),
        Probe(ResultStore, "put_layout", "store.put_layout"),
    ]
    for kind in ("budgets", "routing", "panels", "refine", "metrics"):
        probes.append(Probe(stages, f"encode_{kind}", "flow.encode"))
        probes.append(Probe(stages, f"decode_{kind}", "flow.decode"))
    return probes


# -- folding spans into metrics -------------------------------------------------------

#: Per-layer metric -> the span name whose self time it reports.
_SELF_TIME = {
    "signature.instance_token_s": "signature.instance_token",
    "router.route_baseline_s": "router.route_baseline",
    "router.route_reserved_s": "router.route_reserved",
    "budgeting.compute_budgets_s": "budgeting.compute_budgets",
    "metrics.compute_flow_metrics_s": "metrics.compute_flow_metrics",
    "phase2.build_panel_problems_s": "phase2.build_panel_problems",
    "engine.solve_tasks_s": "engine.solve_tasks",
    "engine.solve_panel_s": "engine.solve_panel",
    "sino.solve_s": "sino.solve",
    "phase3.run_s": "phase3.run",
    "flow.decode_s": "flow.decode",
    "flow.encode_s": "flow.encode",
    "flow.materialize_self_s": "flow.materialize",
    "store.get_artifact_s": "store.get_artifact",
    "store.put_artifact_s": "store.put_artifact",
    "store.get_layout_s": "store.get_layout",
    "store.put_layout_s": "store.put_layout",
    "trace.untraced_s": "compare",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span], compares: int) -> Dict[str, float]:
    """Per-layer metrics of ``compares`` traced compares, per compare.

    ``bench.generate_circuit_s`` is per generated instance instead, since
    instances are generated once in set-up, not per compare.
    """
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for index, record in enumerate(spans):
        by_name.setdefault(record.name, []).append(index)

    def total(name: str, count: str = "") -> float:
        indices = by_name.get(name, [])
        if not count:
            return sum(own[index] for index in indices)
        return sum(spans[index].counts.get(count, 0.0) for index in indices)

    metrics = zero_metrics()
    per = max(compares, 1)
    for metric, name in _SELF_TIME.items():
        metrics[metric] = total(name) / per
    generated = len(by_name.get("bench.generate_circuit", []))
    metrics["bench.generate_circuit_s"] = _ratio(total("bench.generate_circuit"), generated)

    task_spans = set(by_name.get("engine.solve_tasks", []))
    solves = [spans[index].seconds for index in by_name.get("sino.solve", [])]
    dispatched = sum(
        1 for index in by_name.get("sino.solve", []) if spans[index].parent in task_spans
    )
    tasks = total("engine.solve_tasks", "tasks")
    panel_calls = len(by_name.get("engine.solve_panel", []))
    routes = ("router.route_baseline", "router.route_reserved")
    examined = total("phase3.run", "pass2_regions_examined")
    metrics.update({
        "signature.instance_token_calls": len(by_name.get("signature.instance_token", [])) / per,
        "router.heap_repushes": sum(total(name, "heap_repushes") for name in routes) / per,
        "router.deleted_edges": sum(total(name, "deleted_edges") for name in routes) / per,
        "phase2.panels": total("phase2.build_panel_problems", "panels") / per,
        "engine.tasks": tasks / per,
        "engine.dispatched": dispatched / per,
        "engine.batch_hit_ratio": _ratio(total("engine.solve_tasks", "hits"), tasks),
        "engine.solve_panel_calls": panel_calls / per,
        "engine.solve_panel_hit_ratio": _ratio(total("engine.solve_panel", "hits"), panel_calls),
        "sino.solves": len(solves) / per,
        "sino.solve_p50_ms": 1000.0 * median(solves),
        "sino.solve_max_ms": 1000.0 * max(solves, default=0.0),
        "phase3.pass1_sino_reruns": total("phase3.run", "pass1_sino_reruns") / per,
        "phase3.pass2_regions_examined": examined / per,
        "phase3.pass2_relax_ratio": _ratio(total("phase3.run", "pass2_regions_relaxed"), examined),
        "phase3.unfixable_nets": total("phase3.run", "unfixable_nets") / per,
    })
    return metrics


def largest_self_times(spans: Sequence[Span], top: int = 5) -> List[Tuple[str, float]]:
    """The ``top`` span names by total self time, largest first."""
    return sorted(self_time_by_name(spans).items(), key=lambda item: -item[1])[:top]
