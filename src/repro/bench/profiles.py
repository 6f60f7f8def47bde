"""Statistical profiles of the ISPD'98 / IBM benchmark circuits.

The paper's tables expose, for each circuit, the number of signal nets (via
the violation percentages of Table 1), the chip dimensions of the DRAGON
placement (Table 3, ID+NO column) and the average routed net length (Table 2,
ID+NO column).  Those numbers parameterise the synthetic generator so the
reproduced experiments see workloads of the same shape.

The net counts below are derived from Table 1: e.g. ibm01 reports 1907
violating nets at a 14.60 % rate, giving ~13 062 signal nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class CircuitProfile:
    """Published statistics of one benchmark circuit.

    Attributes
    ----------
    name:
        Circuit name (``ibm01`` .. ``ibm06``).
    num_nets:
        Number of signal nets in the full-size design.
    chip_width / chip_height:
        DRAGON placement dimensions in micrometres (Table 3, ID+NO).
    average_net_length:
        Average routed net length of the conventional (ID+NO) solution in
        micrometres (Table 2).
    grid_cols / grid_rows:
        Routing-grid dimensions used for the full-size reproduction.
    """

    name: str
    num_nets: int
    chip_width: float
    chip_height: float
    average_net_length: float
    grid_cols: int = 32
    grid_rows: int = 32

    def __post_init__(self) -> None:
        if self.num_nets < 1:
            raise ValueError(f"profile {self.name}: num_nets must be positive")
        if self.chip_width <= 0 or self.chip_height <= 0:
            raise ValueError(f"profile {self.name}: chip dimensions must be positive")
        if self.average_net_length <= 0:
            raise ValueError(f"profile {self.name}: average net length must be positive")
        if self.grid_cols < 2 or self.grid_rows < 2:
            raise ValueError(f"profile {self.name}: grid must be at least 2x2")

    def scaled(self, scale: float) -> "CircuitProfile":
        """A reduced-size version of the profile.

        ``scale`` shrinks the net count linearly and the chip dimensions and
        grid by ``sqrt(scale)`` so the per-region statistics (nets per region,
        net length in region spans) stay close to the full-size design.
        """
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {scale}")
        if scale == 1.0:
            return self
        linear = scale ** 0.5
        return CircuitProfile(
            name=f"{self.name}-s{scale:g}",
            num_nets=max(int(round(self.num_nets * scale)), 8),
            chip_width=self.chip_width * linear,
            chip_height=self.chip_height * linear,
            average_net_length=self.average_net_length * linear,
            grid_cols=max(int(round(self.grid_cols * linear)), 4),
            grid_rows=max(int(round(self.grid_rows * linear)), 4),
        )


#: Full-size profiles of the six circuits used in the paper's experiments.
IBM_PROFILES: Dict[str, CircuitProfile] = {
    "ibm01": CircuitProfile("ibm01", 13062, 1533.0, 1824.0, 639.0),
    "ibm02": CircuitProfile("ibm02", 19290, 3004.0, 3995.0, 724.0),
    "ibm03": CircuitProfile("ibm03", 26101, 3178.0, 3852.0, 647.0),
    "ibm04": CircuitProfile("ibm04", 31322, 3861.0, 3910.0, 748.0),
    "ibm05": CircuitProfile("ibm05", 29646, 9837.0, 7286.0, 695.0),
    "ibm06": CircuitProfile("ibm06", 34399, 5002.0, 3795.0, 769.0),
}


#: The benchmark circuits the paper's tables cover.
DEFAULT_CIRCUITS: Tuple[str, ...] = ("ibm01", "ibm02", "ibm03", "ibm04", "ibm05", "ibm06")


def get_profile(name: str) -> CircuitProfile:
    """Look up a benchmark profile by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in IBM_PROFILES:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(IBM_PROFILES)}")
    return IBM_PROFILES[key]


def list_profiles() -> List[str]:
    """Names of all available benchmark profiles."""
    return sorted(IBM_PROFILES)
