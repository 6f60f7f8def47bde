"""Signal nets, pins and netlists with sensitivity relations.

Each net ``N_i`` has a source pin ``p_i0`` and one or more sink pins
``p_ij``.  Two nets are *sensitive* to each other when a switching event on
one can make the other malfunction; the netlist stores that relation as a set
of aggressor ids per net.  The paper's experiments assign sensitivity randomly
at a given rate (30 % or 50 %), which :mod:`repro.bench.sensitivity`
implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.grid.regions import RegionCoord, RoutingGrid
from repro.grid.sensitivity import ExplicitSensitivity, SensitivityOracle


@dataclass(frozen=True)
class Pin:
    """A pin location in micrometres."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if self.x < 0.0 or self.y < 0.0:
            raise ValueError(f"pin coordinates must be non-negative, got ({self.x}, {self.y})")

    def manhattan_distance(self, other: "Pin") -> float:
        """Manhattan distance to another pin, in micrometres."""
        return abs(self.x - other.x) + abs(self.y - other.y)


@dataclass(frozen=True)
class Net:
    """A signal net: a source pin and one or more sink pins.

    Attributes
    ----------
    net_id:
        Unique integer identifier within the netlist.
    pins:
        Pin tuple; ``pins[0]`` is the source, the rest are sinks.
    name:
        Optional human-readable name.
    """

    net_id: int
    pins: Tuple[Pin, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.net_id < 0:
            raise ValueError(f"net ids must be non-negative, got {self.net_id}")
        if len(self.pins) < 2:
            raise ValueError(f"net {self.net_id} needs at least a source and one sink")

    @property
    def source(self) -> Pin:
        """The driving pin ``p_i0``."""
        return self.pins[0]

    @property
    def sinks(self) -> Tuple[Pin, ...]:
        """The receiving pins ``p_ij`` (j > 0)."""
        return self.pins[1:]

    @property
    def num_pins(self) -> int:
        """Total pin count."""
        return len(self.pins)

    def hpwl(self) -> float:
        """Half-perimeter wire length of the pin bounding box (um)."""
        xs = [pin.x for pin in self.pins]
        ys = [pin.y for pin in self.pins]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def source_sink_distances(self) -> List[float]:
        """Manhattan distance from the source to each sink (``L_e,ij`` in Phase I)."""
        return [self.source.manhattan_distance(sink) for sink in self.sinks]

    def pin_regions(self, grid: RoutingGrid) -> List[RegionCoord]:
        """Region coordinates of all pins (duplicates removed, order preserved)."""
        coords: List[RegionCoord] = []
        for pin in self.pins:
            coord = grid.region_of_point(pin.x, pin.y).coord
            if coord not in coords:
                coords.append(coord)
        return coords


class Netlist:
    """A collection of nets plus the sensitivity relation between them.

    The sensitivity relation may be given either as an explicit mapping
    ``{net_id: aggressor ids}`` (small designs, tests) or as any
    :class:`~repro.grid.sensitivity.SensitivityOracle` (e.g. the random
    pairwise oracle used for large synthetic benchmarks).
    """

    def __init__(
        self,
        nets: Sequence[Net],
        sensitivity: Optional[Union[Mapping[int, Set[int]], SensitivityOracle]] = None,
        name: str = "netlist",
    ) -> None:
        self.name = name
        self._nets: Dict[int, Net] = {}
        for net in nets:
            if net.net_id in self._nets:
                raise ValueError(f"duplicate net id {net.net_id} in netlist {name!r}")
            self._nets[net.net_id] = net
        if sensitivity is None:
            self.sensitivity: SensitivityOracle = ExplicitSensitivity.empty()
        elif isinstance(sensitivity, SensitivityOracle):
            self.sensitivity = sensitivity
        else:
            for net_id in sensitivity:
                if net_id not in self._nets:
                    raise ValueError(f"sensitivity entry for unknown net id {net_id}")
            self.sensitivity = ExplicitSensitivity(
                {
                    net_id: {a for a in aggressors if a in self._nets}
                    for net_id, aggressors in sensitivity.items()
                }
            )

    # -- nets --------------------------------------------------------------

    @property
    def num_nets(self) -> int:
        """Number of signal nets."""
        return len(self._nets)

    def net(self, net_id: int) -> Net:
        """Look up a net by id."""
        if net_id not in self._nets:
            raise KeyError(f"no net with id {net_id} in netlist {self.name!r}")
        return self._nets[net_id]

    def nets(self) -> Iterator[Net]:
        """Iterate over nets in id order."""
        for net_id in sorted(self._nets):
            yield self._nets[net_id]

    def net_ids(self) -> List[int]:
        """Sorted list of net ids."""
        return sorted(self._nets)

    def __contains__(self, net_id: int) -> bool:
        return net_id in self._nets

    def __len__(self) -> int:
        return len(self._nets)

    # -- sensitivity ---------------------------------------------------------

    def are_sensitive(self, net_a: int, net_b: int) -> bool:
        """True when the two nets are sensitive to each other."""
        return self.sensitivity.are_sensitive(net_a, net_b)

    def sensitivity_rate(self, net_id: int) -> float:
        """Ratio of the net's aggressor count to the total number of signal nets.

        This is the paper's definition of the *sensitivity rate* of a net.
        """
        return self.sensitivity.rate_of(net_id, self.num_nets)

    def average_sensitivity_rate(self) -> float:
        """Mean sensitivity rate over all nets."""
        if not self._nets:
            return 0.0
        return sum(self.sensitivity_rate(net_id) for net_id in self._nets) / self.num_nets

    def with_sensitivity(
        self,
        sensitivity: Union[Mapping[int, Set[int]], SensitivityOracle],
    ) -> "Netlist":
        """A copy of this netlist with a different sensitivity relation."""
        return Netlist(list(self.nets()), sensitivity=sensitivity, name=self.name)

    # -- aggregate statistics -----------------------------------------------

    def total_hpwl(self) -> float:
        """Sum of per-net half-perimeter wire lengths (um)."""
        return sum(net.hpwl() for net in self.nets())

    def average_pin_count(self) -> float:
        """Mean number of pins per net."""
        if not self._nets:
            return 0.0
        return sum(net.num_pins for net in self.nets()) / self.num_nets

    def __repr__(self) -> str:
        return (
            f"Netlist(name={self.name!r}, nets={self.num_nets}, "
            f"avg_sensitivity={self.average_sensitivity_rate():.2f})"
        )
