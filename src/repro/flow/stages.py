"""Reusable stage implementations of the paper's flows.

Each factory returns a :class:`~repro.flow.graph.Stage` wrapping one piece
of the legacy monolithic pipeline — budgeting, ID routing (with or without
shield reservation), per-panel solving, Phase III refinement, metrics
evaluation — so the three flows become graph recombinations of the same
six stage kinds.  The stage bodies call the *same* phase functions the
monoliths called, with the same arguments, which is what keeps the staged
flows bit-identical to the pre-refactor implementation (pinned by the
golden-equivalence suite in ``tests/test_flow.py``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Union, cast

from repro.flow.artifacts import (
    MetricsArtifact,
    Payload,
    RefineArtifact,
    RoutingArtifact,
    decode_budgets,
    decode_metrics,
    decode_panels,
    decode_refine,
    decode_routing,
    encode_budgets,
    encode_metrics,
    encode_panels,
    encode_refine,
    encode_routing,
)
from repro.flow.graph import FlowContext, Stage
from repro.gsino.budgeting import NetBudget, compute_budgets
from repro.gsino.metrics import PanelKey, compute_flow_metrics
from repro.gsino.phase2 import Phase2Result, build_panel_problems, run_phase2
from repro.gsino.phase3 import run_phase3
from repro.router.iterative_deletion import IterativeDeletionRouter
from repro.sino.panel import SinoSolution

#: The two router weight sets a routing stage can be parameterised with.
ROUTE_WEIGHT_SETS = ("baseline", "reserved")


def panels_of(artifact: object) -> Dict[PanelKey, SinoSolution]:
    """The panel-solution map of a Phase II or Phase III artifact."""
    if isinstance(artifact, RefineArtifact):
        return artifact.phase2.panels
    return cast(Phase2Result, artifact).panels


def budgeting_stage() -> Stage:
    """Phase I crosstalk budgeting (Formula 1): instance + config only."""

    def compute(context: FlowContext, inputs: Mapping[str, object]) -> object:
        return compute_budgets(context.netlist, context.config)

    def encode(
        context: FlowContext, inputs: Mapping[str, object], value: object
    ) -> Payload:
        return encode_budgets(cast(Dict[int, NetBudget], value))

    def decode(
        context: FlowContext, inputs: Mapping[str, object], payload: Payload
    ) -> object:
        return decode_budgets(payload)

    return Stage(name="budgeting", inputs=(), compute=compute, encode=encode, decode=decode)


def route_stage(weights: str) -> Stage:
    """One ID routing run under the named weight set.

    ``"baseline"`` routes with shield reservation off (the ID+NO / iSINO
    router); ``"reserved"`` uses the GSINO Formula 2 weights including the
    Formula 3 shield estimate — exactly the two router invocations of the
    legacy ``baselines`` and ``phase1`` modules.
    """
    if weights not in ROUTE_WEIGHT_SETS:
        raise ValueError(f"unknown weight set {weights!r} (expected one of {ROUTE_WEIGHT_SETS})")

    def compute(context: FlowContext, inputs: Mapping[str, object]) -> object:
        config = context.config
        if weights == "reserved":
            router = IterativeDeletionRouter(
                context.grid,
                context.netlist,
                config=config.gsino_weights,
                shield_estimator=(
                    config.resolved_estimator() if config.gsino_weights.reserve_shields else None
                ),
            )
        else:
            router = IterativeDeletionRouter(
                context.grid, context.netlist, config=config.baseline_weights
            )
        routing, report = router.route()
        return RoutingArtifact(routing=routing, report=report)

    def encode(
        context: FlowContext, inputs: Mapping[str, object], value: object
    ) -> Payload:
        return encode_routing(cast(RoutingArtifact, value))

    def decode(
        context: FlowContext, inputs: Mapping[str, object], payload: Payload
    ) -> object:
        return decode_routing(context, payload)

    return Stage(
        name="route_id",
        inputs=(),
        compute=compute,
        encode=encode,
        decode=decode,
        params=f"weights={weights}",
    )


def solve_panels_stage(routing_artifact: str, solver: str) -> Stage:
    """Per-panel solving over a routing: SINO or ordering-only.

    Dispatches every panel through the context engine
    (:meth:`~repro.engine.panels.Engine.solve_panels`, which batches the
    cache misses over the engine's backend), exactly as Phase II and the
    baselines' per-region steps always have.
    """

    def compute(context: FlowContext, inputs: Mapping[str, object]) -> object:
        routing = cast(RoutingArtifact, inputs[routing_artifact])
        budgets = cast(Dict[int, NetBudget], inputs["budgets"])
        return run_phase2(
            routing.routing,
            context.netlist,
            budgets,
            context.config,
            solver=solver,
            engine=context.engine,
        )

    def encode(
        context: FlowContext, inputs: Mapping[str, object], value: object
    ) -> Payload:
        return encode_panels(cast(Phase2Result, value))

    def decode(
        context: FlowContext, inputs: Mapping[str, object], payload: Payload
    ) -> object:
        routing = cast(RoutingArtifact, inputs[routing_artifact])
        budgets = cast(Dict[int, NetBudget], inputs["budgets"])
        problems = build_panel_problems(
            routing.routing, context.netlist, budgets, context.config
        )
        return decode_panels(problems, payload)

    return Stage(
        name="solve_panels",
        inputs=(routing_artifact, "budgets"),
        compute=compute,
        encode=encode,
        decode=decode,
        params=f"solver={solver}",
    )


def refine_stage(routing_artifact: str, panels_artifact: str) -> Stage:
    """Phase III local refinement over a solved panel map.

    The pristine Phase II artifact is never mutated: the stage refines a
    shallow copy (panel solutions and problems are replaced wholesale by
    the refiner, never edited in place), so memoised and persisted Phase II
    artifacts stay valid for other consumers.
    """

    def compute(context: FlowContext, inputs: Mapping[str, object]) -> object:
        routing = cast(RoutingArtifact, inputs[routing_artifact])
        base = cast(Phase2Result, inputs[panels_artifact])
        budgets = cast(Dict[int, NetBudget], inputs["budgets"])
        working = Phase2Result(panels=dict(base.panels), problems=dict(base.problems))
        report = run_phase3(
            routing.routing,
            working,
            budgets,
            context.netlist,
            context.config,
            engine=context.engine,
        )
        return RefineArtifact(phase2=working, report=report)

    def encode(
        context: FlowContext, inputs: Mapping[str, object], value: object
    ) -> Payload:
        return encode_refine(
            cast(Phase2Result, inputs[panels_artifact]), cast(RefineArtifact, value)
        )

    def decode(
        context: FlowContext, inputs: Mapping[str, object], payload: Payload
    ) -> object:
        return decode_refine(cast(Phase2Result, inputs[panels_artifact]), payload)

    return Stage(
        name="refine_phase3",
        inputs=(routing_artifact, panels_artifact, "budgets"),
        compute=compute,
        encode=encode,
        decode=decode,
        # Version 2: pass 1 breaks density ties in a fixed panel-key order;
        # under version 1 that order followed the writer's string-hash seed.
        version=2,
    )


def metrics_stage(routing_artifact: str, panels_artifact: str) -> Stage:
    """Table 1–3 metrics plus the final congestion map of one flow."""

    def compute(context: FlowContext, inputs: Mapping[str, object]) -> object:
        routing = cast(RoutingArtifact, inputs[routing_artifact])
        panels = panels_of(
            cast(Union[Phase2Result, RefineArtifact], inputs[panels_artifact])
        )
        metrics, congestion = compute_flow_metrics(routing.routing, panels, context.config)
        return MetricsArtifact(metrics=metrics, congestion=congestion)

    def encode(
        context: FlowContext, inputs: Mapping[str, object], value: object
    ) -> Payload:
        return encode_metrics(cast(MetricsArtifact, value))

    def decode(
        context: FlowContext, inputs: Mapping[str, object], payload: Payload
    ) -> object:
        return decode_metrics(cast(RoutingArtifact, inputs[routing_artifact]), payload)

    return Stage(
        name="metrics",
        inputs=(routing_artifact, panels_artifact),
        compute=compute,
        encode=encode,
        decode=decode,
    )
