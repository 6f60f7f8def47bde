"""Sweep orchestration: fan whole benchmark instances over a backend.

Panel-level parallelism (:mod:`repro.engine.panels`) scales one flow;
:class:`SweepRunner` scales the *experiment grid* — the (circuit,
sensitivity-rate) matrix behind the paper's Tables 1–3.  Every grid point is
an independent, seeded instance, so the sweep maps cleanly onto the same
:class:`~repro.engine.backends.ExecutionBackend` abstraction with one task
per instance.

Instances fanned over a process pool run their *panel* work serially
(one pool level, never nested) but each still shares one solution cache
across its three flows.  Results come back in the canonical grid order
(circuits, then rates, as configured) so a parallel sweep is byte-for-byte
the serial sweep.

The runner also aggregates: :meth:`SweepRunner.summarize` folds a finished
sweep into per-flow totals (violations, wire length, shields, runtime) that
reports and capacity planning consume without walking raw results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.backends import ExecutionBackend, SerialBackend

if TYPE_CHECKING:  # imported lazily at runtime to avoid a circular import
    from repro.analysis.experiments import CircuitComparison, ExperimentConfig


@dataclass(frozen=True)
class SweepPoint:
    """One (circuit, sensitivity rate) cell of the experiment grid."""

    circuit: str
    sensitivity_rate: float
    seed_offset: int = 0


@dataclass
class FlowAggregate:
    """Per-flow totals over a finished sweep."""

    flow: str
    instances: int = 0
    total_violations: int = 0
    total_shields: int = 0
    total_runtime_seconds: float = 0.0
    wirelength_sum_um: float = 0.0
    area_sum_um2: float = 0.0

    @property
    def mean_wirelength_um(self) -> float:
        """Average of the per-instance average wire lengths."""
        if not self.instances:
            return 0.0
        return self.wirelength_sum_um / self.instances

    @property
    def mean_area_um2(self) -> float:
        """Average routing area per instance."""
        if not self.instances:
            return 0.0
        return self.area_sum_um2 / self.instances


def _run_sweep_point(task: Tuple[SweepPoint, "ExperimentConfig"]) -> "CircuitComparison":
    """Worker: run all three flows on one grid point (picklable, top-level)."""
    from repro.analysis.experiments import run_circuit_comparison

    point, config = task
    return run_circuit_comparison(
        point.circuit,
        point.sensitivity_rate,
        config,
        seed_offset=point.seed_offset,
    )


class SweepRunner:
    """Run an experiment grid over an execution backend."""

    def __init__(self, backend: Optional[ExecutionBackend] = None) -> None:
        self.backend = backend or SerialBackend()

    @staticmethod
    def points(config: "ExperimentConfig") -> List[SweepPoint]:
        """The grid in canonical order (circuits, then rates, as configured)."""
        return [
            SweepPoint(circuit=name, sensitivity_rate=rate, seed_offset=index)
            for index, name in enumerate(config.circuits)
            for rate in config.sensitivity_rates
        ]

    def run(self, config: "ExperimentConfig") -> List["CircuitComparison"]:
        """Run every grid point; results follow :meth:`points` order."""
        tasks = [(point, config) for point in self.points(config)]
        # One instance per submission: instances are few and each is orders
        # of magnitude heavier than the dispatch, so chunking would only
        # serialise the tail of the sweep.
        return self.backend.map_tasks(_run_sweep_point, tasks, chunk_size=1)

    @staticmethod
    def summarize(
        comparisons: Sequence["CircuitComparison"],
    ) -> Dict[str, FlowAggregate]:
        """Fold a finished sweep into per-flow aggregate totals."""
        aggregates: Dict[str, FlowAggregate] = {}
        for comparison in comparisons:
            for flow_name, result in comparison.flows.items():
                aggregate = aggregates.setdefault(flow_name, FlowAggregate(flow=flow_name))
                aggregate.instances += 1
                aggregate.total_violations += result.metrics.crosstalk.num_violations
                aggregate.total_shields += result.metrics.total_shields
                aggregate.total_runtime_seconds += result.runtime_seconds
                aggregate.wirelength_sum_um += result.metrics.average_wirelength_um
                aggregate.area_sum_um2 += result.metrics.area.area
        return aggregates

    def __repr__(self) -> str:
        return f"SweepRunner(backend={self.backend!r})"
