"""Per-region track utilisation, density and overflow accounting.

The ID router's weight function (Formula 2) needs the routing density
``HD(R) = HU(R) / HC(R)`` and the relative overflow ``HOFR(R)`` of every
region, where the utilisation ``HU = Nns + Nss`` counts both net segments and
the shields the eventual SINO solution will need.  This module provides a
single-pass accounting structure that both the routers and the evaluation
metrics reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.grid.regions import HORIZONTAL, VERTICAL, RegionCoord, RoutingGrid
from repro.grid.routes import PanelIndex, RoutingSolution


@dataclass
class RegionUsage:
    """Track usage of one region in one direction.

    Attributes
    ----------
    nets:
        Ids of nets occupying a track of this direction in the region
        (``Nns`` is their count).
    shields:
        Number of shield tracks reserved or inserted (``Nss``).
    capacity:
        Track capacity of the region in this direction.
    """

    nets: Set[int] = field(default_factory=set)
    shields: float = 0.0
    capacity: int = 0

    @property
    def num_segments(self) -> int:
        """Number of net segments (``Nns``)."""
        return len(self.nets)

    @property
    def utilization(self) -> float:
        """``HU = Nns + Nss``."""
        return self.num_segments + self.shields

    @property
    def density(self) -> float:
        """``HD = HU / HC`` (0 when the region has no capacity)."""
        if self.capacity <= 0:
            return 0.0
        return self.utilization / self.capacity

    @property
    def overflow(self) -> float:
        """Tracks used beyond the capacity (``max(0, HU - HC)``)."""
        return max(0.0, self.utilization - self.capacity)

    @property
    def relative_overflow(self) -> float:
        """``HOFR = overflow / HC`` (0 when the region has no capacity)."""
        if self.capacity <= 0:
            return 0.0
        return self.overflow / self.capacity


class CongestionMap:
    """Usage of every (region, direction) pair of a routing solution."""

    def __init__(self, grid: RoutingGrid) -> None:
        self.grid = grid
        self._usage: Dict[Tuple[RegionCoord, str], RegionUsage] = {}
        for region in grid.regions():
            self._usage[(region.coord, HORIZONTAL)] = RegionUsage(capacity=region.horizontal_capacity)
            self._usage[(region.coord, VERTICAL)] = RegionUsage(capacity=region.vertical_capacity)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_solution(
        cls,
        solution: RoutingSolution,
        shields: Optional[Mapping[Tuple[RegionCoord, str], float]] = None,
    ) -> "CongestionMap":
        """Build the map from a routing solution in a single pass.

        ``shields`` optionally supplies the number of shield tracks per
        (region, direction), e.g. from the per-region SINO solutions or the
        Formula 3 estimate.  Net memberships come from the routing's
        memoised :class:`~repro.grid.routes.PanelIndex`; each map gets its
        own sets, filled in route-insertion order.
        """
        congestion = cls(solution.grid)
        for key, panel in PanelIndex.of(solution).panels.items():
            congestion._usage[key].nets = set(panel.nets)
        if shields:
            for (coord, direction), count in shields.items():
                congestion.usage(coord, direction).shields = float(count)
        return congestion

    # -- access -------------------------------------------------------------------

    def usage(self, coord: RegionCoord, direction: str) -> RegionUsage:
        """Usage record of one (region, direction); raises KeyError when unknown."""
        key = (coord, direction)
        if key not in self._usage:
            raise KeyError(f"no usage record for region {coord} direction {direction!r}")
        return self._usage[key]

    def entries(self) -> Iterable[Tuple[RegionCoord, str, RegionUsage]]:
        """Iterate (coord, direction, usage) over all records."""
        for (coord, direction), usage in self._usage.items():
            yield coord, direction, usage

    def set_shields(self, coord: RegionCoord, direction: str, count: float) -> None:
        """Set the shield count of one (region, direction)."""
        if count < 0.0:
            raise ValueError(f"shield count must be non-negative, got {count}")
        self.usage(coord, direction).shields = float(count)

    # -- aggregate metrics -----------------------------------------------------------

    def total_overflow(self) -> float:
        """Sum of overflow tracks over all (region, direction) records."""
        return sum(usage.overflow for _, _, usage in self.entries())

    def max_density(self) -> float:
        """Largest density over all records."""
        return max((usage.density for _, _, usage in self.entries()), default=0.0)

    def num_overflowed_regions(self) -> int:
        """Number of (region, direction) records with positive overflow."""
        return sum(1 for _, _, usage in self.entries() if usage.overflow > 0.0)

    def most_congested(self) -> Tuple[RegionCoord, str, RegionUsage]:
        """The (region, direction) with the highest density."""
        return max(self.entries(), key=lambda item: item[2].density)

    def least_congested_among(
        self,
        candidates: Iterable[Tuple[RegionCoord, str]],
    ) -> Tuple[RegionCoord, str]:
        """The least dense (region, direction) among a candidate set.

        Used by Phase III pass 1, which adds a shield to the least congested
        region a violating net is routed through.
        """
        candidates = list(candidates)
        if not candidates:
            raise ValueError("least_congested_among needs at least one candidate")
        return min(candidates, key=lambda key: self.usage(key[0], key[1]).density)

    def density_histogram(self, num_bins: int = 10) -> List[int]:
        """Histogram of densities (bins of width ``1/num_bins`` starting at 0).

        Densities of 1.0 or above all land in the last bin; useful for quick
        congestion summaries in reports and examples.
        """
        if num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {num_bins}")
        bins = [0] * num_bins
        for _, _, usage in self.entries():
            index = min(int(usage.density * num_bins), num_bins - 1)
            bins[index] += 1
        return bins

    def __repr__(self) -> str:
        return (
            f"CongestionMap(regions={self.grid.num_regions}, "
            f"max_density={self.max_density():.2f}, overflow={self.total_overflow():.1f})"
        )
