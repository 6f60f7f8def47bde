"""Scenario registry: programmatic workload generation for the service.

The paper exercises exactly three tables' worth of workloads; a long-running
service needs far more.  A *scenario* is a named, parameterised, seeded
workload description.  Two kinds are registered:

* **Panel scenarios** (:class:`ScenarioSpec`) generate batches of
  :class:`~repro.engine.panels.PanelTask` — panel width, net count,
  sensitivity mix, Kth bound range, technology node, capacity pressure and
  solver effort are all knobs — so operators can submit diverse panel
  traffic (``repro submit --scenario dense-bus --param seed=9``).
* **Flow scenarios** (:class:`FlowScenarioSpec`) name a whole stage-graph
  flow (:mod:`repro.flow`) on a generated benchmark instance — one flow or
  the full three-flow comparison — so a job can be "run GSINO on a scaled
  ibm01", not just a bag of panels
  (``repro submit --scenario flow-compare --param circuit=ibm03``).

Determinism contract: a scenario name plus its (possibly overridden)
parameters fully determines the work, bit for bit.  Job records therefore
store only ``(scenario, params)`` — tiny, JSON-safe — and the scheduler
regenerates the tasks (or the flow context) at execution time; identical
submissions produce identical panel/stage signatures and hit the result
store.

The registry and its spec validation are numpy-free, so the gateway and the
spool verbs check a submission without loading the solver stack; only
:func:`generate_scenario`, which runs where a job is solved, imports it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from repro.bench.profiles import get_profile
from repro.catalog import EFFORT_LEVELS, FLOW_NAMES, PANEL_SOLVERS
from repro.tech.itrs import ITRS_100NM, get_technology

if TYPE_CHECKING:  # the table validates specs without the solver stack
    from repro.engine.panels import PanelTask


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one scenario (every field may be overridden at submit).

    Attributes
    ----------
    name / description:
        Registry identity and a one-line summary for ``repro status``.
    technology:
        Node name or alias (see :func:`repro.tech.itrs.get_technology`).
        Lower-Vdd nodes proportionally tighten every Kth bound, mirroring
        the paper's observation that crosstalk constraints bind harder as
        technology scales.
    panels:
        Number of independent panel instances the scenario generates.
    min_segments / max_segments:
        Per-panel net-segment count range (drawn uniformly).
    sensitivity_rate:
        Probability that an unordered segment pair is mutually sensitive.
    kth_low / kth_high:
        Range the per-segment Kth bounds are drawn from (before the
        technology scaling); lower bounds force more shields.
    capacity_slack:
        Region track capacity as a multiple of the segment count.  Values
        below ~1.3 leave no room for shields and create overflow pressure;
        0 disables the capacity limit entirely.
    solver / effort / chains:
        Forwarded to :class:`~repro.engine.panels.PanelTask`; ``chains > 1``
        attaches an annealing schedule (the chain count only takes effect
        under the annealing efforts).
    seed:
        Base seed; panel ``i`` derives its structure and task seed from it.
    """

    name: str
    description: str
    technology: str = ITRS_100NM.name
    panels: int = 6
    min_segments: int = 6
    max_segments: int = 10
    sensitivity_rate: float = 0.3
    kth_low: float = 0.8
    kth_high: float = 1.6
    capacity_slack: float = 1.5
    solver: str = "sino"
    effort: str = "greedy"
    chains: int = 1
    seed: int = 2002

    def __post_init__(self) -> None:
        if self.panels < 1:
            raise ValueError(f"panels must be positive, got {self.panels}")
        if not 1 <= self.min_segments <= self.max_segments:
            raise ValueError(
                "need 1 <= min_segments <= max_segments, "
                f"got {self.min_segments}..{self.max_segments}"
            )
        if not 0.0 <= self.sensitivity_rate <= 1.0:
            raise ValueError(f"sensitivity_rate must lie in [0, 1], got {self.sensitivity_rate}")
        if not 0.0 < self.kth_low <= self.kth_high:
            raise ValueError(f"need 0 < kth_low <= kth_high, got {self.kth_low}..{self.kth_high}")
        if self.capacity_slack < 0.0:
            raise ValueError(f"capacity_slack must be non-negative, got {self.capacity_slack}")
        if self.solver not in PANEL_SOLVERS:
            raise ValueError(f"solver must be one of {PANEL_SOLVERS}, got {self.solver!r}")
        if self.effort not in EFFORT_LEVELS:
            raise ValueError(f"effort must be one of {EFFORT_LEVELS}, got {self.effort!r}")
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        get_technology(self.technology)  # fail fast on unknown nodes

    def with_params(self, params: Dict[str, object]) -> "ScenarioSpec":
        """A copy with submit-time overrides applied (unknown keys rejected).

        Values are type-checked against the field they override, so a bad
        submission fails here — before a job record is written — rather than
        burning a worker's retry budget on a job that can never run.
        """
        return _apply_params(self, params)


def _coerce_param(spec: object, key: str, value: object) -> object:
    """Type-check one override against the field it replaces."""
    current = getattr(spec, key)
    if isinstance(current, bool) or isinstance(value, bool):
        raise ValueError(f"scenario parameter {key!r} does not accept {value!r}")
    if isinstance(current, int):
        if not isinstance(value, int):
            raise ValueError(f"scenario parameter {key!r} must be an integer, got {value!r}")
        return value
    if isinstance(current, float):
        if not isinstance(value, (int, float)):
            raise ValueError(f"scenario parameter {key!r} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"scenario parameter {key!r} must be a string, got {value!r}")
    return value


def _apply_params(spec, params: Dict[str, object]):
    """Shared override machinery of both scenario kinds (see ``with_params``)."""
    if not params:
        return spec
    known = {spec_field.name for spec_field in fields(spec)} - {"name", "description"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown scenario parameter(s) {unknown}; overridable: {sorted(known)}"
        )
    coerced = {key: _coerce_param(spec, key, value) for key, value in params.items()}
    return replace(spec, **coerced)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FlowScenarioSpec:
    """A whole stage-graph flow run as a service workload.

    Attributes
    ----------
    name / description:
        Registry identity and a one-line summary for ``repro submit --list``.
    flow:
        One of :data:`repro.catalog.FLOW_NAMES` or ``"compare"`` (all three
        flows over one shared runner, exactly like ``repro compare``).
    circuit / sensitivity_rate / scale / seed:
        The generated benchmark instance (same knobs as the experiment
        drivers; the electrical length scale is derived from ``scale``).
    effort:
        Per-region SINO effort level of every panel solve.
    """

    name: str
    description: str
    flow: str = "compare"
    circuit: str = "ibm01"
    sensitivity_rate: float = 0.3
    scale: float = 0.01
    seed: int = 7
    effort: str = "greedy"

    def __post_init__(self) -> None:
        if self.flow != "compare" and self.flow not in FLOW_NAMES:
            raise ValueError(
                f"flow must be 'compare' or one of {FLOW_NAMES}, got {self.flow!r}"
            )
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {self.scale}")
        if not 0.0 <= self.sensitivity_rate <= 1.0:
            raise ValueError(
                f"sensitivity_rate must lie in [0, 1], got {self.sensitivity_rate}"
            )
        if self.effort not in EFFORT_LEVELS:
            raise ValueError(f"effort must be one of {EFFORT_LEVELS}, got {self.effort!r}")
        get_profile(self.circuit)  # fail fast on unknown benchmarks

    def flow_names(self) -> Tuple[str, ...]:
        """The flows this scenario runs, in canonical order."""
        return FLOW_NAMES if self.flow == "compare" else (self.flow,)

    def with_params(self, params: Dict[str, object]) -> "FlowScenarioSpec":
        """A copy with submit-time overrides applied (unknown keys rejected)."""
        return _apply_params(self, params)


#: Either kind of registered scenario.
AnyScenarioSpec = Union[ScenarioSpec, FlowScenarioSpec]


def generate_scenario(name: str, params: Dict[str, object] | None = None) -> List[PanelTask]:
    """Generate the panel tasks of a registered scenario, deterministically.

    Panel ``i`` gets segment ids in a disjoint ``i * 1000`` block so tasks
    stay distinguishable in panel keys and diagnostics, and a derived task
    seed ``seed + i`` so annealing panels are independent but reproducible.
    """
    from repro.engine.panels import PanelTask
    from repro.sino.anneal import AnnealConfig
    from repro.sino.panel import SinoProblem

    spec = scenario_spec(name).with_params(dict(params or {}))
    if isinstance(spec, FlowScenarioSpec):
        raise ValueError(
            f"scenario {name!r} is a flow scenario; the scheduler runs it through "
            "the stage-graph runner, not as a panel-task batch"
        )
    technology = get_technology(spec.technology)
    # Stylised node effect: bounds scale with Vdd relative to the paper's node.
    bound_scale = technology.vdd / ITRS_100NM.vdd
    rng = random.Random(spec.seed)
    tasks: List[PanelTask] = []
    anneal = AnnealConfig(chains=spec.chains) if spec.chains > 1 else None
    for index in range(spec.panels):
        count = rng.randint(spec.min_segments, spec.max_segments)
        segments = [index * 1000 + offset for offset in range(count)]
        sensitivity: Dict[int, set] = {segment: set() for segment in segments}
        for position, segment in enumerate(segments):
            for other in segments[position + 1 :]:
                if rng.random() < spec.sensitivity_rate:
                    sensitivity[segment].add(other)
        kth = {
            segment: bound_scale * rng.uniform(spec.kth_low, spec.kth_high)
            for segment in segments
        }
        capacity = 0 if spec.capacity_slack == 0.0 else math.ceil(count * spec.capacity_slack)
        problem = SinoProblem.build(
            segments=segments,
            sensitivity=sensitivity,
            kth=kth,
            default_kth=bound_scale * spec.kth_high,
            capacity=capacity,
        )
        tasks.append(
            PanelTask(
                key=((index, 0), "h"),
                problem=problem,
                solver=spec.solver,
                effort=spec.effort,
                seed=spec.seed + index,
                anneal=anneal,
            )
        )
    return tasks


# -- registry --------------------------------------------------------------------------

_REGISTRY: Dict[str, AnyScenarioSpec] = {}


def register_scenario(spec: AnyScenarioSpec) -> AnyScenarioSpec:
    """Add a scenario (panel or flow kind) to the registry (name must be unused)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def scenario_spec(name: str) -> AnyScenarioSpec:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def scenario_kind(name: str) -> str:
    """``"flow"`` or ``"panels"`` — how the scheduler must execute a scenario."""
    return "flow" if isinstance(scenario_spec(name), FlowScenarioSpec) else "panels"


def list_scenarios() -> List[Tuple[str, str]]:
    """(name, description) of every registered scenario, sorted by name."""
    return [(spec.name, spec.description) for _, spec in sorted(_REGISTRY.items())]


#: Names of the built-in scenarios (populated below).
register_scenario(
    ScenarioSpec(
        name="smoke",
        description="tiny greedy batch for health checks and CI",
        panels=3,
        min_segments=4,
        max_segments=6,
        sensitivity_rate=0.4,
    )
)
register_scenario(
    ScenarioSpec(
        name="uniform-medium",
        description="medium panels with the paper's typical sensitivity",
        panels=8,
        min_segments=8,
        max_segments=12,
        sensitivity_rate=0.3,
    )
)
register_scenario(
    ScenarioSpec(
        name="dense-bus",
        description="bus-like panels: high sensitivity, tight bounds, annealed",
        panels=6,
        min_segments=10,
        max_segments=14,
        sensitivity_rate=0.8,
        kth_low=0.5,
        kth_high=0.9,
        effort="anneal-fast",
    )
)
register_scenario(
    ScenarioSpec(
        name="mixed-width",
        description="widely varying panel widths (load-balance stressor)",
        panels=10,
        min_segments=3,
        max_segments=18,
        sensitivity_rate=0.4,
    )
)
register_scenario(
    ScenarioSpec(
        name="capacity-stress",
        description="capacity barely above the segment count: overflow pressure",
        panels=6,
        min_segments=8,
        max_segments=12,
        sensitivity_rate=0.5,
        capacity_slack=1.1,
    )
)
register_scenario(
    ScenarioSpec(
        name="node-70nm",
        description="aggressive 70 nm node: proportionally tighter Kth bounds",
        technology="70nm",
        panels=6,
        min_segments=6,
        max_segments=10,
        sensitivity_rate=0.5,
    )
)
register_scenario(
    ScenarioSpec(
        name="node-130nm",
        description="relaxed 130 nm node: looser bounds, fewer shields",
        technology="130nm",
        panels=6,
        min_segments=6,
        max_segments=10,
        sensitivity_rate=0.5,
    )
)
register_scenario(
    ScenarioSpec(
        name="ordering-baseline",
        description="net-ordering-only solves (the ID+NO per-region step)",
        solver="ordering",
        panels=8,
        min_segments=6,
        max_segments=12,
        sensitivity_rate=0.3,
    )
)
register_scenario(
    FlowScenarioSpec(
        name="flow-compare",
        description="stage-graph comparison of ID+NO, iSINO and GSINO on a scaled circuit",
        flow="compare",
    )
)
register_scenario(
    FlowScenarioSpec(
        name="flow-gsino",
        description="the three-phase GSINO stage graph on a scaled circuit",
        flow="gsino",
    )
)
register_scenario(
    FlowScenarioSpec(
        name="flow-isino",
        description="the iSINO baseline stage graph on a scaled circuit",
        flow="isino",
    )
)

SCENARIO_NAMES: Tuple[str, ...] = tuple(sorted(_REGISTRY))
