"""Experiment drivers that regenerate the paper's tables.

Each driver runs the three flows (ID+NO, iSINO, GSINO) on synthetic instances
of the requested benchmark circuits and extracts the quantity the
corresponding table reports:

* :func:`table1_rows` — crosstalk-violating nets of the ID+NO solutions
  (Table 1),
* :func:`table2_rows` — average wire length of ID+NO vs GSINO (Table 2),
* :func:`table3_rows` — routing area of ID+NO, iSINO and GSINO (Table 3).

All drivers share :func:`run_circuit_comparison`, which runs the flows once
per (circuit, sensitivity-rate) pair.  Instances are independent and seeded,
so :func:`run_table_suite` runs them through a
:class:`~repro.engine.sweep.SweepRunner`, serially or over a process pool;
within each instance the three flows share one solution cache.  Results are
identical either way — the experiments stay reproducible from the seed
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_percentage, format_table
from repro.bench.ibm import GeneratedCircuit, generate_circuit
from repro.bench.profiles import DEFAULT_CIRCUITS
from repro.engine.backends import create_backend
from repro.engine.cache import SolutionCache
from repro.engine.panels import Engine
from repro.engine.sweep import SweepRunner
from repro.flow.flows import build_context, run_compare
from repro.gsino.config import GsinoConfig
from repro.gsino.pipeline import FlowResult
from repro.sino.anneal import EFFORT_LEVELS, AnnealConfig

if TYPE_CHECKING:  # the service layer sits above analysis; import for types only
    from repro.service.store import ResultStore

#: The sensitivity rates the paper's tables cover.
DEFAULT_RATES: Tuple[float, ...] = (0.3, 0.5)


@dataclass
class ExperimentConfig:
    """Scope and scale of a table-reproduction run.

    Attributes
    ----------
    circuits:
        Benchmark names to include (subset of ibm01–ibm06).
    sensitivity_rates:
        Sensitivity rates to evaluate (the paper uses 0.3 and 0.5).
    scale:
        Benchmark size scale; the default keeps a full six-circuit sweep in
        the order of a minute of CPU.
    seed:
        Base random seed (each circuit adds its index).
    gsino:
        Flow configuration template; its ``length_scale`` is overridden per
        instance so scaled circuits keep full-size electrical behaviour.
    workers:
        1 runs the sweep's instances serially; N >= 2 fans them over a pool
        of N processes.  Instance results are identical either way.
    use_cache:
        Whether each instance shares one panel-solution cache across its
        three flows (on by default; purely an execution optimisation).
    sino_effort:
        Per-region SINO effort level — one of
        :data:`repro.catalog.EFFORT_LEVELS`; overrides the template's
        ``sino_effort``.
    chains:
        Independent annealing chains per panel for the annealing effort
        levels (1 = single-chain search, the historic behaviour).
    store_path:
        Optional directory of a persistent result store
        (:class:`repro.service.store.ResultStore`).  Every instance's flow
        runner persists its stage artifacts there, so repeated sweeps —
        including sweeps in *other processes*, and instances fanned over a
        process pool — restore whole stages.  Requires ``use_cache``.
    """

    circuits: Tuple[str, ...] = DEFAULT_CIRCUITS
    sensitivity_rates: Tuple[float, ...] = DEFAULT_RATES
    scale: float = 0.03
    seed: int = 7
    gsino: GsinoConfig = field(default_factory=GsinoConfig)
    workers: int = 1
    use_cache: bool = True
    sino_effort: str = "greedy"
    chains: int = 1
    store_path: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if not self.circuits:
            raise ValueError("at least one circuit is required")
        if not self.sensitivity_rates:
            raise ValueError("at least one sensitivity rate is required")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {self.scale}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.sino_effort not in EFFORT_LEVELS:
            raise ValueError(
                f"sino_effort must be one of {EFFORT_LEVELS}, got {self.sino_effort!r}"
            )
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        if self.store_path is not None and not self.use_cache:
            raise ValueError("store_path requires use_cache=True")

    def flow_config(self) -> GsinoConfig:
        """The per-instance flow configuration.

        The length scale is matched to ``scale``, and the SINO effort level
        and chain count are folded into the GSINO configuration (the chain
        count lives on the annealing schedule so it reaches the panel cache
        key).
        """
        changes: dict = {
            "length_scale": 1.0 / (self.scale ** 0.5),
            "sino_effort": self.sino_effort,
        }
        if self.chains != 1:
            schedule = self.gsino.anneal or AnnealConfig()
            changes["anneal"] = replace(schedule, chains=self.chains)
        return self.gsino.with_changes(**changes)

    def instance_runtime(self) -> Tuple[Engine, Optional["ResultStore"]]:
        """The per-instance execution engine and its persistent store.

        Panel solves inside an instance run serially — the sweep already
        parallelises at instance granularity, and nesting pools would
        oversubscribe — but the instance's three flows share one solution
        cache unless caching is disabled.  A configured ``store_path`` backs
        that cache with the persistent tier; the store is (re)opened here,
        inside the worker, so process-pool sweeps each hold their own
        handle on the shared directory (writes are atomic and idempotent).
        The store doubles as the stage-artifact tier of the flow runner, so
        repeated sweeps resume whole stages, not just panels.
        """
        if not self.use_cache:
            return Engine(), None
        store = None
        if self.store_path is not None:
            from repro.service.store import ResultStore  # service sits above analysis

            store = ResultStore(self.store_path)
        return Engine(cache=SolutionCache(store=store)), store

    def instance_engine(self) -> Engine:
        """The per-instance execution engine (see :meth:`instance_runtime`)."""
        return self.instance_runtime()[0]


@dataclass
class CircuitComparison:
    """The three flow results of one (circuit, sensitivity rate) instance."""

    circuit: GeneratedCircuit
    sensitivity_rate: float
    flows: Dict[str, FlowResult]

    @property
    def id_no(self) -> FlowResult:
        """The conventional-routing baseline."""
        return self.flows["id_no"]

    @property
    def isino(self) -> FlowResult:
        """Conventional routing followed by per-region SINO."""
        return self.flows["isino"]

    @property
    def gsino(self) -> FlowResult:
        """The three-phase GSINO flow."""
        return self.flows["gsino"]


def run_circuit_comparison(
    circuit_name: str,
    sensitivity_rate: float,
    config: ExperimentConfig,
    seed_offset: int = 0,
) -> CircuitComparison:
    """Generate one instance and run all three flows on it.

    The instance (grid, netlist, sensitivity) is generated exactly once and
    threaded through all three flows via one shared
    :class:`~repro.flow.graph.FlowContext`; the flows themselves run as
    stage graphs over a single runner, so shared ancestors (the baselines'
    routing, the budgets) are computed once per comparison — and, when a
    ``store_path`` is configured, persisted stage artifacts are restored
    instead of recomputed.
    """
    circuit = generate_circuit(
        circuit_name,
        sensitivity_rate=sensitivity_rate,
        scale=config.scale,
        seed=config.seed + seed_offset,
    )
    engine, store = config.instance_runtime()
    context = build_context(circuit.grid, circuit.netlist, config.flow_config(), engine)
    flows = run_compare(context, store=store).results
    return CircuitComparison(
        circuit=circuit,
        sensitivity_rate=sensitivity_rate,
        flows=flows,
    )


def run_table_suite(config: Optional[ExperimentConfig] = None) -> List[CircuitComparison]:
    """Run the full sweep behind Tables 1–3 (every circuit at every rate).

    The (circuit, rate) grid is fanned over ``config.workers`` by a
    :class:`~repro.engine.sweep.SweepRunner`; results come back in the
    canonical grid order either way.
    """
    config = config or ExperimentConfig()
    with create_backend(config.workers) as backend:
        return SweepRunner(backend=backend).run(config)


# -- Table 1: crosstalk violations of ID+NO ------------------------------------------


def table1_rows(comparisons: Sequence[CircuitComparison]) -> List[List[str]]:
    """Rows of Table 1: violating-net counts and percentages per circuit and rate."""
    by_circuit: Dict[str, Dict[float, CircuitComparison]] = {}
    for comparison in comparisons:
        name = comparison.circuit.profile.name
        by_circuit.setdefault(name, {})[comparison.sensitivity_rate] = comparison
    rows: List[List[str]] = []
    for name in sorted(by_circuit):
        row: List[str] = [name]
        for rate in sorted(by_circuit[name]):
            crosstalk = by_circuit[name][rate].id_no.metrics.crosstalk
            row.append(f"{crosstalk.num_violations} ({format_percentage(crosstalk.violation_fraction)})")
        rows.append(row)
    return rows


def render_table1(comparisons: Sequence[CircuitComparison]) -> str:
    """Table 1 as printable text."""
    rates = sorted({comparison.sensitivity_rate for comparison in comparisons})
    headers = ["circuit"] + [f"sensitivity = {format_percentage(rate, 0)}" for rate in rates]
    return format_table(
        headers,
        table1_rows(comparisons),
        title="Table 1: crosstalk-violating nets in ID+NO solutions",
    )


# -- Table 2: average wire length ------------------------------------------------------


def table2_rows(comparisons: Sequence[CircuitComparison]) -> List[List[str]]:
    """Rows of Table 2: ID+NO vs GSINO average wire length per circuit and rate."""
    rows: List[List[str]] = []
    for comparison in sorted(
        comparisons, key=lambda c: (c.circuit.profile.name, c.sensitivity_rate)
    ):
        id_no_wl = comparison.id_no.metrics.average_wirelength_um
        gsino_wl = comparison.gsino.metrics.average_wirelength_um
        overhead = gsino_wl / id_no_wl - 1.0 if id_no_wl > 0 else 0.0
        rows.append(
            [
                comparison.circuit.profile.name,
                format_percentage(comparison.sensitivity_rate, 0),
                f"{id_no_wl:.1f}",
                f"{gsino_wl:.1f} ({format_percentage(overhead)})",
            ]
        )
    return rows


def render_table2(comparisons: Sequence[CircuitComparison]) -> str:
    """Table 2 as printable text."""
    headers = ["circuit", "sensitivity", "ID+NO wl (um)", "GSINO wl (um)"]
    return format_table(
        headers,
        table2_rows(comparisons),
        title="Table 2: average wire lengths of ID+NO and GSINO solutions",
    )


# -- Table 3: routing area ----------------------------------------------------------------


def table3_rows(comparisons: Sequence[CircuitComparison]) -> List[List[str]]:
    """Rows of Table 3: routing area of the three flows per circuit and rate."""
    rows: List[List[str]] = []
    for comparison in sorted(
        comparisons, key=lambda c: (c.circuit.profile.name, c.sensitivity_rate)
    ):
        id_no_area = comparison.id_no.metrics.area
        isino_area = comparison.isino.metrics.area
        gsino_area = comparison.gsino.metrics.area
        rows.append(
            [
                comparison.circuit.profile.name,
                format_percentage(comparison.sensitivity_rate, 0),
                id_no_area.dimensions_label(),
                f"{isino_area.dimensions_label()} ({format_percentage(isino_area.overhead_vs(id_no_area))})",
                f"{gsino_area.dimensions_label()} ({format_percentage(gsino_area.overhead_vs(id_no_area))})",
            ]
        )
    return rows


def render_table3(comparisons: Sequence[CircuitComparison]) -> str:
    """Table 3 as printable text."""
    headers = ["circuit", "sensitivity", "ID+NO area", "iSINO area", "GSINO area"]
    return format_table(
        headers,
        table3_rows(comparisons),
        title="Table 3: routing areas of ID+NO, iSINO and GSINO solutions",
    )


def render_all_tables(comparisons: Sequence[CircuitComparison]) -> str:
    """Tables 1–3 concatenated, ready to print or write to a file."""
    return "\n\n".join(
        [
            render_table1(comparisons),
            render_table2(comparisons),
            render_table3(comparisons),
        ]
    )
