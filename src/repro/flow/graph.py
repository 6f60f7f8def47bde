"""Typed stage-graph datatypes: contexts, stages and flow graphs.

A *flow* (ID+NO, iSINO, GSINO — and every future variant) is expressed as a
directed acyclic graph of named **artifacts**, each produced by one
**stage**.  Stages declare the artifact names they consume; the
:class:`~repro.flow.runner.FlowRunner` topologically schedules them,
memoises every artifact by content signature and persists encodable
artifacts through an :class:`ArtifactStore`.  Because signatures are pure
content hashes (:func:`repro.engine.signature.stage_signature`), two flows
that share an ancestor stage — the baselines' common routing, the budgets
every flow reads — share one artifact instead of recomputing it.

The datatypes here are deliberately small and generic: everything specific
to the paper's flows (what the stages compute, how artifacts serialise)
lives in :mod:`repro.flow.stages` and :mod:`repro.flow.artifacts`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Protocol, Sequence, Set, Tuple

from repro.engine.panels import Engine
from repro.engine.signature import anneal_token, float_token, instance_token
from repro.grid.nets import Netlist
from repro.grid.regions import RoutingGrid
from repro.gsino.config import GsinoConfig
from repro.obs.trace import maybe_span
from repro.router.weights import WeightConfig
from repro.tech.itrs import Technology


class ArtifactStore(Protocol):
    """Persistent stage-artifact tier (implemented by ``repro.service.store``).

    Duck-typed here so the flow layer never imports the service layer above
    it — mirroring how the engine's :class:`~repro.engine.cache.LayoutStore`
    protocol decouples the solution cache from the store.
    """

    def get_artifact(self, signature: str) -> Optional[Dict[str, object]]:
        """The stored payload for a stage signature, or ``None`` on a miss."""

    def put_artifact(self, signature: str, artifact: Dict[str, object]) -> None:
        """Persist one stage-artifact payload under its signature."""


@dataclass
class FlowContext:
    """Everything the stages of one flow run share.

    The context is built **once** per routing instance and threaded through
    every flow of a comparison: the grid, netlist and configuration are the
    single source of truth for all stages, and the engine supplies the
    execution backend and the (optionally store-backed) panel-solution
    cache.  Instance and configuration tokens are computed lazily and
    cached, so repeated signature computations cost one hash lookup.
    """

    grid: RoutingGrid
    netlist: Netlist
    config: GsinoConfig
    engine: Engine
    _instance_token: Optional[str] = field(default=None, init=False, repr=False)
    _config_token: Optional[str] = field(default=None, init=False, repr=False)

    @classmethod
    def build(
        cls,
        grid: RoutingGrid,
        netlist: Netlist,
        config: Optional[GsinoConfig] = None,
        engine: Optional[Engine] = None,
    ) -> "FlowContext":
        """Normalising constructor (defaults mirror the legacy flow drivers)."""
        return cls(
            grid=grid,
            netlist=netlist,
            config=config or GsinoConfig(),
            engine=engine or Engine(),
        )

    def instance_signature(self) -> str:
        """Content token of the routing instance (cached; the first
        computation is a ``signature.instance`` span on the engine's tracer)."""
        if self._instance_token is None:
            with maybe_span(self.engine.tracer, "signature.instance"):
                self._instance_token = instance_token(self.grid, self.netlist)
        return self._instance_token

    def config_signature(self) -> str:
        """Content token of the flow configuration (cached).

        Canonicalises every knob that can influence any stage output.  An
        explicitly supplied LSK table is tokenised by its sample content; a
        custom shield estimator by its fitted coefficients.  The token is a
        whole-configuration hash on purpose — see
        :func:`repro.engine.signature.stage_signature`.
        """
        if self._config_token is None:
            self._config_token = _config_token(self.config)
        return self._config_token


def _technology_token(technology: Technology) -> str:
    """Canonical encoding of a technology node (every dataclass field).

    Generic over the fields so a new electrical parameter can never be
    silently invisible to stage signatures: anything on the node — wire
    geometry, resistivity, driver/load, clock — feeds the LSK
    characterisation and therefore the budgets and metrics.
    """
    parts: List[str] = []
    for spec in dataclasses.fields(technology):
        value = getattr(technology, spec.name)
        parts.append(float_token(value) if isinstance(value, float) else str(value))
    return ",".join(parts)


def _config_token(config: GsinoConfig) -> str:
    """Canonical string of one :class:`GsinoConfig` (see ``config_signature``)."""
    keff = config.keff_model
    if config.lsk_table is not None:
        table = config.lsk_table
        lsk_token = ";".join(
            f"{float_token(lsk)}:{float_token(noise)}"
            for lsk, noise in zip(table.lsk_values, table.noise_values)
        )
    else:
        lsk_token = "-"
    if config.shield_estimator is not None:
        estimator = config.shield_estimator
        coefficients = estimator.coefficients
        estimator_token = ",".join(
            float_token(value)
            for value in (
                coefficients.a1,
                coefficients.a2,
                coefficients.a3,
                coefficients.a4,
                coefficients.a5,
                coefficients.a6,
            )
        ) + f",{float_token(estimator.reference_kth)}"
    else:
        estimator_token = "-"

    def weights(label: str, cfg: WeightConfig) -> str:
        return (
            f"{label}="
            + ",".join(
                (
                    float_token(cfg.alpha),
                    float_token(cfg.beta),
                    float_token(cfg.gamma),
                    str(cfg.reserve_shields),
                    str(cfg.bounding_box_margin),
                    float_token(cfg.weight_tolerance),
                )
            )
        )

    parts = (
        f"technology={_technology_token(config.technology)}",
        "bound="
        + ("-" if config.crosstalk_bound is None else float_token(config.crosstalk_bound)),
        "keff="
        + ",".join(
            float_token(value)
            for value in (
                keff.shield_attenuation,
                keff.adjacent_shield_bonus,
                keff.distance_exponent,
            )
        ),
        f"lsk_table={lsk_token}",
        f"characterize={config.characterize_table}",
        f"table_samples={config.table_samples}",
        f"length_scale={float_token(config.length_scale)}",
        f"sino_effort={config.sino_effort}",
        f"anneal={anneal_token(config.anneal)}",
        weights("gsino_weights", config.gsino_weights),
        weights("baseline_weights", config.baseline_weights),
        f"estimator={estimator_token}",
        f"refine_kth_shrink={float_token(config.refine_kth_shrink)}",
        f"max_pass1={config.max_pass1_iterations}",
        f"max_pass2={config.max_pass2_regions}",
        f"seed={config.seed}",
    )
    return "|".join(parts)


#: A stage's compute function: (context, inputs by artifact name) -> artifact.
ComputeFn = Callable[[FlowContext, Mapping[str, object]], object]

#: Serialise an artifact to a JSON-safe payload (context and inputs provided
#: so codecs can store only what the instance cannot re-derive).
EncodeFn = Callable[[FlowContext, Mapping[str, object], object], Dict[str, object]]

#: Rebuild an artifact from its payload plus the decoded input artifacts.
DecodeFn = Callable[[FlowContext, Mapping[str, object], Dict[str, object]], object]


@dataclass(frozen=True)
class Stage:
    """One node of a flow graph: a named, versioned, memoisable computation.

    Attributes
    ----------
    name:
        Stage kind (``"route_id"``, ``"solve_panels"``, ...); part of the
        artifact signature.
    inputs:
        Artifact names this stage consumes, in signature order.
    compute:
        The stage body.  Must be a pure function of the context and its
        inputs — determinism is what makes artifact signatures safe to
        share and persist.
    encode / decode:
        Optional codec pair for persistence.  A stage without a codec is
        memoised in memory but always recomputed in a fresh process.
    version:
        Implementation version; bump on any behavioural change so stale
        persisted artifacts can never be restored.
    params:
        Canonical token of the stage parameters (solver, weight set, ...),
        distinguishing sibling instantiations of one stage kind.
    """

    name: str
    inputs: Tuple[str, ...]
    compute: ComputeFn
    encode: Optional[EncodeFn] = None
    decode: Optional[DecodeFn] = None
    version: int = 1
    params: str = "-"


@dataclass(frozen=True)
class FlowGraph:
    """A named, validated DAG of artifacts.

    Attributes
    ----------
    name:
        Flow name (``"id_no"``, ``"isino"``, ``"gsino"``).
    stages:
        Mapping from artifact name to the stage that produces it.  Stage
        inputs must name artifacts present in the mapping.
    targets:
        The artifacts a caller needs to assemble the flow's result; the
        runner materialises these plus every ancestor.
    """

    name: str
    stages: Mapping[str, Stage]
    targets: Tuple[str, ...]

    def __post_init__(self) -> None:
        for artifact, stage in self.stages.items():
            for needed in stage.inputs:
                if needed not in self.stages:
                    raise ValueError(
                        f"flow {self.name!r}: stage for {artifact!r} needs unknown "
                        f"artifact {needed!r}"
                    )
        for target in self.targets:
            if target not in self.stages:
                raise ValueError(f"flow {self.name!r}: unknown target artifact {target!r}")
        self.schedule()  # raises on cycles

    def schedule(self, targets: Optional[Sequence[str]] = None) -> List[str]:
        """Topological order of ``targets`` (default: the graph's targets)
        and all their ancestors, dependencies first.

        The order is deterministic: a depth-first post-order over the
        declared input lists, visiting targets in declared order.
        """
        wanted = tuple(targets if targets is not None else self.targets)
        order: List[str] = []
        done: Set[str] = set()
        visiting: Set[str] = set()

        def visit(artifact: str) -> None:
            if artifact in done:
                return
            if artifact in visiting:
                raise ValueError(f"flow {self.name!r}: artifact cycle through {artifact!r}")
            if artifact not in self.stages:
                raise ValueError(f"flow {self.name!r}: unknown artifact {artifact!r}")
            visiting.add(artifact)
            for needed in self.stages[artifact].inputs:
                visit(needed)
            visiting.discard(artifact)
            done.add(artifact)
            order.append(artifact)

        for target in wanted:
            visit(target)
        return order

    def describe(self) -> List[str]:
        """Human-readable ``artifact <- stage(inputs)`` lines in schedule order."""
        lines = []
        for artifact in self.schedule():
            stage = self.stages[artifact]
            inputs = ", ".join(stage.inputs) if stage.inputs else "instance"
            lines.append(f"{artifact} <- {stage.name}({inputs})")
        return lines
