"""Artifact datatypes of the paper's flows and their persistence codecs.

Each codec pair turns one stage artifact into a JSON-safe payload and back.
Two rules keep restored artifacts **bit-identical** to computed ones:

* Only what the instance cannot re-derive is stored.  Routings store route
  trees as flat int lists, not grids; panel artifacts store track layouts,
  not problems (the problems are rebuilt deterministically from the decoded
  routing and budgets); metrics store the evaluated numbers plus the
  per-panel shield counts the congestion map needs.  Floats pass through JSON unchanged —
  Python serialises the shortest round-tripping representation, so decoded
  values compare equal bit for bit.
* Mapping insertion orders are preserved.  Several downstream quantities
  (floating-point sums over ``routes.values()``, sorted-key panel maps)
  depend on iteration order, so every codec encodes in the artifact's own
  iteration order and rebuilds dictionaries in that order.

A payload that fails to decode — corrupt, truncated, or produced by an
older stage implementation — raises, and the runner falls back to
recomputing the stage; a bad blob can cost time, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, cast

import numpy as np

from repro.flow.graph import FlowContext
from repro.grid.congestion import CongestionMap
from repro.grid.routes import RouteTree, RoutingSolution
from repro.gsino.budgeting import NetBudget
from repro.gsino.metrics import AreaReport, CrosstalkReport, FlowMetrics, PanelKey
from repro.gsino.phase2 import Phase2Result
from repro.gsino.phase3 import Phase3Report
from repro.router.iterative_deletion import RouterReport
from repro.sino.panel import SinoProblem, SinoSolution

#: JSON-safe payload type of every codec.
Payload = Dict[str, object]


@dataclass
class RoutingArtifact:
    """A global routing plus the statistics of the run that produced it."""

    routing: RoutingSolution
    report: RouterReport


@dataclass
class RefineArtifact:
    """Phase III output: the refined panel state and the refinement report.

    ``phase2`` holds the *refined* panels and (bound-mutated) problems; the
    pristine Phase II artifact it was derived from is never mutated.
    """

    phase2: Phase2Result
    report: Phase3Report


@dataclass
class MetricsArtifact:
    """The Table 1–3 quantities of one flow plus its final congestion map."""

    metrics: FlowMetrics
    congestion: CongestionMap


# -- shared key helpers -----------------------------------------------------------


def _encode_key(key: PanelKey) -> List[object]:
    (ix, iy), direction = key
    return [[ix, iy], direction]


def _decode_key(raw: object) -> PanelKey:
    coord, direction = cast(List[object], raw)
    ix, iy = cast(List[int], coord)
    return ((int(ix), int(iy)), str(direction))


# -- budgets ---------------------------------------------------------------------


def encode_budgets(budgets: Mapping[int, NetBudget]) -> Payload:
    """Serialise a budget table (in its own iteration order)."""
    return {
        "nets": [
            [
                budget.net_id,
                budget.lsk_budget,
                budget.kth,
                list(budget.sink_path_lengths_m),
            ]
            for budget in budgets.values()
        ]
    }


def decode_budgets(payload: Payload) -> Dict[int, NetBudget]:
    """Rebuild a budget table from its payload."""
    budgets: Dict[int, NetBudget] = {}
    for net_id, lsk_budget, kth, lengths in cast(List[List[object]], payload["nets"]):
        budgets[int(cast(int, net_id))] = NetBudget(
            net_id=int(cast(int, net_id)),
            lsk_budget=cast(float, lsk_budget),
            kth=cast(float, kth),
            sink_path_lengths_m=tuple(cast(List[float], lengths)),
        )
    return budgets


# -- routing ---------------------------------------------------------------------


def encode_routing(artifact: RoutingArtifact) -> Payload:
    """Serialise route trees (insertion order) and the router report.

    Each route is ``[net_id, [x0, y0, x1, y1, ...], [ax, ay, bx, by, ...]]``:
    its pin regions in order, then its edges sorted, as flat int lists.
    """
    routes = []
    for net_id, route in artifact.routing.routes.items():
        routes.append(
            [
                net_id,
                [value for coord in route.pin_regions for value in coord],
                [value for edge in sorted(route.edges) for coord in edge for value in coord],
            ]
        )
    report = artifact.report
    return {
        "routes": routes,
        "report": {
            "num_nets": report.num_nets,
            "initial_edges": report.initial_edges,
            "deleted_edges": report.deleted_edges,
            "kept_edges": report.kept_edges,
            "heap_repushes": report.heap_repushes,
            "runtime_seconds": report.runtime_seconds,
        },
    }


def decode_routing(context: FlowContext, payload: Payload) -> RoutingArtifact:
    """Rebuild a routing against the context's own grid and netlist."""
    routes: Dict[int, RouteTree] = {}
    for raw_id, pins, edges in cast(List[Tuple[int, List[int], List[int]]], payload["routes"]):
        if len(pins) % 2 or len(edges) % 4:
            raise ValueError(f"route of net {raw_id} has a malformed coordinate list")
        net_id = int(raw_id)
        # zip(it, it) pairs consecutive items: values into coords, coords into edges.
        pin_values = map(int, pins)
        edge_values = map(int, edges)
        ends = zip(edge_values, edge_values)
        routes[net_id] = RouteTree(
            net_id=net_id,
            pin_regions=tuple(zip(pin_values, pin_values)),
            edges=frozenset(zip(ends, ends)),
        )
    report_raw = cast(Dict[str, object], payload["report"])
    report = RouterReport(
        num_nets=int(cast(int, report_raw["num_nets"])),
        initial_edges=int(cast(int, report_raw["initial_edges"])),
        deleted_edges=int(cast(int, report_raw["deleted_edges"])),
        kept_edges=int(cast(int, report_raw["kept_edges"])),
        heap_repushes=int(cast(int, report_raw["heap_repushes"])),
        runtime_seconds=cast(float, report_raw["runtime_seconds"]),
    )
    return RoutingArtifact(
        routing=RoutingSolution(context.grid, context.netlist, routes),
        report=report,
    )


# -- panel solutions --------------------------------------------------------------


def _encode_layouts(panels: Mapping[PanelKey, SinoSolution]) -> List[List[object]]:
    return [
        [_encode_key(key), list(solution.layout)] for key, solution in panels.items()
    ]


def _decode_layout(raw: object) -> List[Optional[int]]:
    return [None if entry is None else int(cast(int, entry)) for entry in cast(List[object], raw)]


def encode_panels(result: Phase2Result) -> Payload:
    """Serialise a Phase II result as per-panel track layouts."""
    return {"panels": _encode_layouts(result.panels)}


def decode_panels(problems: Mapping[PanelKey, SinoProblem], payload: Payload) -> Phase2Result:
    """Re-bind stored layouts to freshly rebuilt panel problems.

    ``problems`` must be the deterministic rebuild from the decoded routing
    and budgets; binding validates each layout against its problem, so a
    payload from a different instance can never be silently accepted.
    """
    stored = {
        _decode_key(key): _decode_layout(layout)
        for key, layout in cast(List[List[object]], payload["panels"])
    }
    if set(stored) != set(problems):
        raise ValueError("stored panel keys do not match the rebuilt problems")
    result = Phase2Result()
    for key in sorted(problems):
        problem = problems[key]
        result.problems[key] = problem
        result.panels[key] = SinoSolution(problem=problem, layout=stored[key])
    return result


# -- phase III refinement ---------------------------------------------------------


def encode_refine(base: Phase2Result, artifact: RefineArtifact) -> Payload:
    """Serialise refined layouts, mutated bounds and the Phase III report.

    Bounds are stored only for panels whose problem differs from the
    pristine Phase II ``base`` — Phase III typically touches a handful of
    regions, so payloads stay small.
    """
    bounds: List[List[object]] = []
    for key, problem in artifact.phase2.problems.items():
        if not np.array_equal(problem.bounds, base.problems[key].bounds):
            pairs = sorted(zip(problem.segments, problem.bounds.tolist()))
            bounds.append([_encode_key(key), [[segment, bound] for segment, bound in pairs]])
    report = artifact.report
    return {
        "panels": _encode_layouts(artifact.phase2.panels),
        "bounds": bounds,
        "report": {
            "violations_before": report.violations_before,
            "violations_after": report.violations_after,
            "pass1_outer_iterations": report.pass1_outer_iterations,
            "pass1_sino_reruns": report.pass1_sino_reruns,
            "unfixable_nets": list(report.unfixable_nets),
            "shields_before": report.shields_before,
            "shields_after_pass1": report.shields_after_pass1,
            "shields_after": report.shields_after,
            "pass2_regions_examined": report.pass2_regions_examined,
            "pass2_regions_relaxed": report.pass2_regions_relaxed,
            "pass1_capped": report.pass1_capped,
            "pass2_capped": report.pass2_capped,
        },
    }


def decode_refine(base: Phase2Result, payload: Payload) -> RefineArtifact:
    """Rebuild the refined panel state on top of the pristine Phase II result."""
    problems = dict(base.problems)
    for key_raw, bounds_raw in cast(List[List[object]], payload["bounds"]):
        key = _decode_key(key_raw)
        overrides = {
            int(cast(int, segment)): cast(float, bound)
            for segment, bound in cast(List[List[object]], bounds_raw)
        }
        problems[key] = problems[key].with_bounds(overrides)
    stored = {
        _decode_key(key): _decode_layout(layout)
        for key, layout in cast(List[List[object]], payload["panels"])
    }
    if set(stored) != set(problems):
        raise ValueError("stored refined panels do not match the Phase II problems")
    refined = Phase2Result()
    for key in sorted(problems):
        refined.problems[key] = problems[key]
        refined.panels[key] = SinoSolution(problem=problems[key], layout=stored[key])
    report_raw = cast(Dict[str, object], payload["report"])
    report = Phase3Report(
        violations_before=int(cast(int, report_raw["violations_before"])),
        violations_after=int(cast(int, report_raw["violations_after"])),
        pass1_outer_iterations=int(cast(int, report_raw["pass1_outer_iterations"])),
        pass1_sino_reruns=int(cast(int, report_raw["pass1_sino_reruns"])),
        unfixable_nets=[
            int(cast(int, net))
            for net in cast(List[object], report_raw["unfixable_nets"])
        ],
        shields_before=int(cast(int, report_raw["shields_before"])),
        shields_after_pass1=int(cast(int, report_raw["shields_after_pass1"])),
        shields_after=int(cast(int, report_raw["shields_after"])),
        pass2_regions_examined=int(cast(int, report_raw["pass2_regions_examined"])),
        pass2_regions_relaxed=int(cast(int, report_raw["pass2_regions_relaxed"])),
        pass1_capped=bool(report_raw["pass1_capped"]),
        pass2_capped=bool(report_raw["pass2_capped"]),
    )
    return RefineArtifact(phase2=refined, report=report)


# -- metrics ---------------------------------------------------------------------


def encode_metrics(artifact: MetricsArtifact) -> Payload:
    """Serialise the evaluated metrics plus the per-panel shield counts."""
    metrics = artifact.metrics
    crosstalk = metrics.crosstalk
    area = metrics.area
    shields = [
        [_encode_key((coord, direction)), usage.shields]
        for coord, direction, usage in artifact.congestion.entries()
        if usage.shields
    ]
    return {
        "metrics": {
            "average_wirelength_um": metrics.average_wirelength_um,
            "total_wirelength_um": metrics.total_wirelength_um,
            "total_shields": metrics.total_shields,
            "total_overflow": metrics.total_overflow,
            "crosstalk": {
                "bound": crosstalk.bound,
                "net_noise": [[net_id, noise] for net_id, noise in crosstalk.net_noise.items()],
                "violating_nets": list(crosstalk.violating_nets),
            },
            "area": {
                "chip_width": area.chip_width,
                "chip_height": area.chip_height,
                "base_width": area.base_width,
                "base_height": area.base_height,
            },
        },
        "shields": shields,
    }


def decode_metrics(routing: RoutingArtifact, payload: Payload) -> MetricsArtifact:
    """Rebuild the metrics artifact; the congestion map is re-derived from
    the decoded routing plus the stored shield counts."""
    raw = cast(Dict[str, object], payload["metrics"])
    crosstalk_raw = cast(Dict[str, object], raw["crosstalk"])
    crosstalk = CrosstalkReport(bound=cast(float, crosstalk_raw["bound"]))
    for net_id, noise in cast(List[List[object]], crosstalk_raw["net_noise"]):
        crosstalk.net_noise[int(cast(int, net_id))] = cast(float, noise)
    crosstalk.violating_nets = [
        int(cast(int, net_id))
        for net_id in cast(List[object], crosstalk_raw["violating_nets"])
    ]
    area_raw = cast(Dict[str, object], raw["area"])
    area = AreaReport(
        chip_width=cast(float, area_raw["chip_width"]),
        chip_height=cast(float, area_raw["chip_height"]),
        base_width=cast(float, area_raw["base_width"]),
        base_height=cast(float, area_raw["base_height"]),
    )
    shields: Dict[PanelKey, float] = {
        _decode_key(key): cast(float, count)
        for key, count in cast(List[List[object]], payload["shields"])
    }
    congestion = CongestionMap.from_solution(routing.routing, shields=shields)
    metrics = FlowMetrics(
        average_wirelength_um=cast(float, raw["average_wirelength_um"]),
        total_wirelength_um=cast(float, raw["total_wirelength_um"]),
        crosstalk=crosstalk,
        area=area,
        total_shields=int(cast(int, raw["total_shields"])),
        total_overflow=cast(float, raw["total_overflow"]),
    )
    return MetricsArtifact(metrics=metrics, congestion=congestion)
