"""Top-level synthetic benchmark generator.

``generate_circuit("ibm01", sensitivity_rate=0.3, scale=0.05)`` returns the
routing grid and netlist of a reduced-size circuit whose per-region
statistics match the full-size ibm01 profile; ``scale=1.0`` produces the
full-size instance (slow to route in pure Python, but supported).

Track capacities are derived from the generated netlist itself: the expected
number of nets crossing a region is estimated from the total horizontal /
vertical wire demand, and the capacity is that demand times a headroom
factor.  This keeps utilisation in the regime the paper operates in (congested
but routable) across scales and profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bench.placement import PlacementConfig, generate_nets
from repro.bench.profiles import CircuitProfile, get_profile
from repro.grid.nets import Netlist
from repro.grid.regions import RoutingGrid
from repro.grid.sensitivity import RandomPairwiseSensitivity
from repro.tech.itrs import ITRS_100NM, Technology


@dataclass
class GeneratedCircuit:
    """A synthetic benchmark instance ready for routing.

    Attributes
    ----------
    profile:
        The (possibly scaled) statistical profile the instance was drawn from.
    grid:
        The routing grid with derived track capacities.
    netlist:
        The placed nets with their random sensitivity relation.
    sensitivity_rate:
        The nominal sensitivity rate used for the random relation.
    seed:
        Seed of the random generator that produced the instance.
    """

    profile: CircuitProfile
    grid: RoutingGrid
    netlist: Netlist
    sensitivity_rate: float
    seed: int

    @property
    def name(self) -> str:
        """Instance name (profile name plus the sensitivity rate)."""
        return f"{self.profile.name}-s{int(self.sensitivity_rate * 100)}"


def _demand_maps(nets: list, profile: CircuitProfile) -> tuple:
    """Expected per-region horizontal / vertical track demand of a net list.

    Each net's bounding box is rasterised onto the region grid: its expected
    horizontal track demand (bounding-box width in region spans) is spread
    uniformly over the rows its box covers, and likewise for the vertical
    demand over the columns.  The result approximates the congestion map a
    bounding-box router will produce.
    """
    cols, rows = profile.grid_cols, profile.grid_rows
    region_w = profile.chip_width / cols
    region_h = profile.chip_height / rows
    horizontal = np.zeros((cols, rows))
    vertical = np.zeros((cols, rows))
    for net in nets:
        xs = [pin.x for pin in net.pins]
        ys = [pin.y for pin in net.pins]
        col_lo = min(int(min(xs) / region_w), cols - 1)
        col_hi = min(int(max(xs) / region_w), cols - 1)
        row_lo = min(int(min(ys) / region_h), rows - 1)
        row_hi = min(int(max(ys) / region_h), rows - 1)
        cols_covered = col_hi - col_lo + 1
        rows_covered = row_hi - row_lo + 1
        # Horizontal wires: the net crosses ~cols_covered regions in x, and the
        # row it uses is one of the rows_covered candidate rows.
        horizontal[col_lo:col_hi + 1, row_lo:row_hi + 1] += 1.0 / rows_covered
        vertical[col_lo:col_hi + 1, row_lo:row_hi + 1] += 1.0 / cols_covered
    return horizontal, vertical


def _derive_capacity(
    nets: list,
    profile: CircuitProfile,
    headroom: float,
    demand_percentile: float = 90.0,
) -> tuple:
    """Derive uniform per-region track capacities from the expected demand map.

    The capacity is set to the ``demand_percentile``-th percentile of the
    per-region expected demand times ``headroom``.  With a modest headroom the
    busiest regions of the conventional routing run close to (but below)
    capacity — the regime the paper's benchmarks operate in, where inserting
    shields after routing forces rows and columns to expand.
    """
    horizontal, vertical = _demand_maps(nets, profile)
    horizontal_capacity = max(int(np.ceil(np.percentile(horizontal, demand_percentile) * headroom)), 4)
    vertical_capacity = max(int(np.ceil(np.percentile(vertical, demand_percentile) * headroom)), 4)
    return horizontal_capacity, vertical_capacity


def generate_circuit(
    name: str,
    sensitivity_rate: float = 0.3,
    scale: float = 1.0,
    seed: int = 1998,
    capacity_headroom: float = 0.8,
    capacity_percentile: float = 90.0,
    placement: PlacementConfig = PlacementConfig(),
    technology: Technology = ITRS_100NM,
    profile: Optional[CircuitProfile] = None,
) -> GeneratedCircuit:
    """Generate one synthetic benchmark instance.

    Parameters
    ----------
    name:
        Benchmark name (``ibm01`` .. ``ibm06``); ignored when ``profile`` is
        given explicitly.
    sensitivity_rate:
        Nominal random sensitivity rate (the paper uses 0.3 and 0.5).
    scale:
        Size scale in (0, 1]; 1.0 is the full published size.
    seed:
        Random seed (placement and sensitivity are both derived from it).
    capacity_headroom:
        Ratio of region track capacity to the ``capacity_percentile``-th
        percentile of the expected per-region demand.
    capacity_percentile:
        Which percentile of the expected demand map sets the capacity.
    placement:
        Net synthesis configuration.
    technology:
        Technology node; its track pitch enters the routing grid (area model).
    profile:
        Explicit profile overriding the named lookup (used for custom sizes).
    """
    if not 0.0 <= sensitivity_rate <= 1.0:
        raise ValueError(f"sensitivity_rate must lie in [0, 1], got {sensitivity_rate}")
    if capacity_headroom <= 0.0:
        raise ValueError(f"capacity_headroom must be positive, got {capacity_headroom}")
    base_profile = profile or get_profile(name)
    scaled_profile = base_profile.scaled(scale)
    rng = np.random.default_rng(seed)
    nets = generate_nets(scaled_profile, rng, config=placement)
    horizontal_capacity, vertical_capacity = _derive_capacity(
        nets, scaled_profile, capacity_headroom, demand_percentile=capacity_percentile
    )
    grid = RoutingGrid(
        num_cols=scaled_profile.grid_cols,
        num_rows=scaled_profile.grid_rows,
        chip_width=scaled_profile.chip_width,
        chip_height=scaled_profile.chip_height,
        horizontal_capacity=horizontal_capacity,
        vertical_capacity=vertical_capacity,
        track_pitch_um=technology.track_pitch * 1e6,
    )
    sensitivity = RandomPairwiseSensitivity(rate=sensitivity_rate, seed=seed)
    netlist = Netlist(nets, sensitivity=sensitivity, name=scaled_profile.name)
    return GeneratedCircuit(
        profile=scaled_profile,
        grid=grid,
        netlist=netlist,
        sensitivity_rate=sensitivity_rate,
        seed=seed,
    )
