"""Evaluation metrics: crosstalk violations, wire length and routing area.

These are the quantities the paper's Tables 1–3 report:

* **Table 1** — the number (and fraction) of nets whose worst sink noise,
  computed with the LSK model over the final routed solution, exceeds the
  crosstalk bound.
* **Table 2** — the average wire length per net.
* **Table 3** — the routing area after accounting for the tracks consumed by
  shields (via :mod:`repro.grid.area`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.grid.area import AreaReport, routing_area
from repro.grid.congestion import CongestionMap
from repro.grid.regions import RegionCoord
from repro.grid.routes import PanelKey, RoutingSolution
from repro.gsino.config import UM_TO_M, GsinoConfig
from repro.noise.lsk import LskModel
from repro.sino.panel import SinoSolution


@dataclass
class CrosstalkReport:
    """Per-net noise evaluation of one routing + panel solution.

    Attributes
    ----------
    bound:
        The per-sink noise bound in volts.
    net_noise:
        Worst (over sinks) predicted noise voltage per net.
    violating_nets:
        Ids of nets whose worst noise exceeds the bound.
    """

    bound: float
    net_noise: Dict[int, float] = field(default_factory=dict)
    violating_nets: List[int] = field(default_factory=list)

    @property
    def num_nets(self) -> int:
        """Number of nets evaluated."""
        return len(self.net_noise)

    @property
    def num_violations(self) -> int:
        """Number of crosstalk-violating nets (Table 1 numerator)."""
        return len(self.violating_nets)

    @property
    def violation_fraction(self) -> float:
        """Fraction of nets violating the bound (Table 1 percentage)."""
        if not self.net_noise:
            return 0.0
        return self.num_violations / len(self.net_noise)

    def worst_noise(self) -> float:
        """Largest per-net noise voltage."""
        if not self.net_noise:
            return 0.0
        return max(self.net_noise.values())

    def excess_of(self, net_id: int) -> float:
        """How far above the bound a net sits (<= 0 when compliant)."""
        return self.net_noise.get(net_id, 0.0) - self.bound


def shields_by_region(panels: Mapping[PanelKey, SinoSolution]) -> Dict[PanelKey, float]:
    """Number of shield tracks per (region, direction) of a panel-solution map."""
    return {key: float(solution.num_shields) for key, solution in panels.items()}


def panel_coupling_cache(
    panels: Mapping[PanelKey, SinoSolution],
) -> Dict[PanelKey, Dict[int, float]]:
    """Per-panel ``{net: K_i}`` maps, computed once for reuse in net evaluation."""
    return {key: solution.couplings() for key, solution in panels.items()}


#: Per sink: the ordered ``(half_length_m, panel_key)`` terms of its tree path.
SinkTerms = Tuple[Tuple[float, PanelKey], ...]

_NO_COUPLINGS: Mapping[int, float] = {}


class SinkPathIndex:
    """Per-net path geometry of one routing, derived once for every LSK read.

    Equation 1 walks the tree path from a net's source region to each sink
    region; every path edge contributes half a region span (in metres, times
    ``length_scale``) times the net's Keff coupling in each of the edge's
    two panels.  The paths, half lengths and panel keys depend only on the
    routing and ``length_scale``; only the couplings change between
    evaluations.  Nothing writes a :class:`RoutingSolution`'s routes after
    construction, so the index — built per net on first use and memoised on
    the routing — stays exact, and :meth:`lsk_value` accumulates the same
    products in the same order as a walk of the paths would.
    """

    def __init__(self, routing: RoutingSolution, length_scale: float) -> None:
        # The parts of the routing the index reads, not the routing itself:
        # memoised on the routing, a back-reference would make a cycle that
        # only the cyclic collector frees.
        self.grid = routing.grid
        self.netlist = routing.netlist
        self.routes = routing.routes
        self.length_scale = length_scale
        # Every (half length, panel) term is stored once and shared by all
        # the paths through that panel.
        self._shared_terms: Dict[Tuple[float, PanelKey], Tuple[float, PanelKey]] = {}
        self._sink_terms: Dict[int, Tuple[SinkTerms, ...]] = {}
        self._region_lengths: Dict[int, Dict[RegionCoord, float]] = {}

    @classmethod
    def of(cls, routing: RoutingSolution, length_scale: float = 1.0) -> "SinkPathIndex":
        """The routing's memoised index for ``length_scale``."""
        return routing.memo((cls, length_scale), lambda: cls(routing, length_scale))

    def region_lengths_um(self, net_id: int) -> Dict[RegionCoord, float]:
        """The net's length inside each region it crosses (``l_j``, um)."""
        lengths = self._region_lengths.get(net_id)
        if lengths is None:
            lengths = self.routes[net_id].region_lengths_um(self.grid)
            self._region_lengths[net_id] = lengths
        return lengths

    def lsk_value(self, net_id: int, couplings: Mapping[PanelKey, Mapping[int, float]]) -> float:
        """Worst-sink LSK value of one net under ``couplings``."""
        sinks = self._sink_terms.get(net_id)
        if sinks is None:
            sinks = self._sink_terms[net_id] = self._build_sink_terms(net_id)
        worst = 0.0
        for terms in sinks:
            lsk_value = 0.0
            for half_length_m, key in terms:
                lsk_value += half_length_m * couplings.get(key, _NO_COUPLINGS).get(net_id, 0.0)
            if lsk_value > worst:
                worst = lsk_value
        return worst

    def _build_sink_terms(self, net_id: int) -> Tuple[SinkTerms, ...]:
        """One term sequence per sink of the net, in sink order."""
        net = self.netlist.net(net_id)
        route = self.routes[net_id]
        grid = self.grid
        source_region = grid.region_of_point(net.source.x, net.source.y).coord
        sink_regions = [grid.region_of_point(sink.x, sink.y).coord for sink in net.sinks]
        shared = self._shared_terms
        sinks = []
        for path in route.paths_from(source_region, sink_regions):
            terms = []
            for coord_a, coord_b in zip(path, path[1:]):
                direction = grid.edge_direction(coord_a, coord_b)
                half_length_m = (
                    grid.edge_length(coord_a, coord_b) / 2.0 * UM_TO_M * self.length_scale
                )
                for coord in (coord_a, coord_b):
                    term = (half_length_m, (coord, direction))
                    terms.append(shared.setdefault(term, term))
            sinks.append(tuple(terms))
        return tuple(sinks)


def net_lsk_value(
    net_id: int,
    routing: RoutingSolution,
    couplings: Mapping[PanelKey, Mapping[int, float]],
    length_scale: float = 1.0,
) -> float:
    """Worst-sink LSK value of one net (Equation 1 along each source-sink path).

    For every sink, the LSK value is accumulated along the tree path from the
    source region to the sink region: each path edge contributes half a region
    span (converted to metres and scaled by ``length_scale``) times the net's
    Keff coupling in each of the edge's two regions.  The worst sink is
    returned because the per-sink constraint must hold for all of them.  The
    paths come from the routing's :class:`SinkPathIndex`.
    """
    return SinkPathIndex.of(routing, length_scale).lsk_value(net_id, couplings)


def net_noise_voltage(
    net_id: int,
    routing: RoutingSolution,
    couplings: Mapping[PanelKey, Mapping[int, float]],
    lsk_model: LskModel,
    length_scale: float = 1.0,
) -> float:
    """Worst-sink noise voltage of one net under the LSK model."""
    lsk_value = net_lsk_value(net_id, routing, couplings, length_scale)
    return lsk_model.table.noise_for(lsk_value)


def evaluate_crosstalk(
    routing: RoutingSolution,
    panels: Mapping[PanelKey, SinoSolution],
    lsk_model: LskModel,
    bound: float,
    length_scale: float = 1.0,
    couplings: Optional[Mapping[PanelKey, Mapping[int, float]]] = None,
) -> CrosstalkReport:
    """Evaluate every net of a solution against the crosstalk bound."""
    if couplings is None:
        couplings = panel_coupling_cache(panels)
    paths = SinkPathIndex.of(routing, length_scale)
    report = CrosstalkReport(bound=bound)
    tolerance = 1e-9
    for net_id in routing.netlist.net_ids():
        noise = lsk_model.table.noise_for(paths.lsk_value(net_id, couplings))
        report.net_noise[net_id] = noise
        if noise > bound + tolerance:
            report.violating_nets.append(net_id)
    return report


@dataclass
class FlowMetrics:
    """The Table 1–3 quantities of one flow on one circuit."""

    average_wirelength_um: float
    total_wirelength_um: float
    crosstalk: CrosstalkReport
    area: AreaReport
    total_shields: int
    total_overflow: float

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline numbers (for reports and tests)."""
        return {
            "average_wirelength_um": self.average_wirelength_um,
            "total_wirelength_um": self.total_wirelength_um,
            "num_violations": float(self.crosstalk.num_violations),
            "violation_fraction": self.crosstalk.violation_fraction,
            "chip_width_um": self.area.chip_width,
            "chip_height_um": self.area.chip_height,
            "routing_area_um2": self.area.area,
            "total_shields": float(self.total_shields),
            "total_overflow": self.total_overflow,
        }


def compute_flow_metrics(
    routing: RoutingSolution,
    panels: Mapping[PanelKey, SinoSolution],
    config: GsinoConfig,
    lsk_model: Optional[LskModel] = None,
) -> Tuple[FlowMetrics, CongestionMap]:
    """Evaluate one flow's routing + panel solutions end to end."""
    model = lsk_model or config.lsk_model()
    congestion = CongestionMap.from_solution(routing, shields=shields_by_region(panels))
    crosstalk = evaluate_crosstalk(
        routing,
        panels,
        model,
        bound=config.resolved_bound(),
        length_scale=config.length_scale,
    )
    area = routing_area(congestion, routing.grid)
    total_shields = sum(solution.num_shields for solution in panels.values())
    metrics = FlowMetrics(
        average_wirelength_um=routing.average_wirelength_um(),
        total_wirelength_um=routing.total_wirelength_um(),
        crosstalk=crosstalk,
        area=area,
        total_shields=total_shields,
        total_overflow=congestion.total_overflow(),
    )
    return metrics, congestion
