"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.ibm import generate_circuit
from repro.grid.nets import Net, Netlist, Pin
from repro.grid.regions import RoutingGrid
from repro.gsino.config import GsinoConfig
from repro.sino.panel import SinoProblem
from repro.tech.driver import UniformInterfaceModel
from repro.tech.itrs import ITRS_100NM


@pytest.fixture(scope="session")
def interface_model():
    """The default uniform driver/receiver pair of the 0.10 um node."""
    return UniformInterfaceModel.from_technology(ITRS_100NM)


@pytest.fixture(scope="session")
def small_circuit():
    """A small synthetic ibm01 instance shared by integration tests."""
    return generate_circuit("ibm01", sensitivity_rate=0.3, scale=0.015, seed=11)


@pytest.fixture(scope="session")
def small_circuit_config(small_circuit):
    """Flow configuration matched to the small circuit's scale."""
    return GsinoConfig(length_scale=1.0 / (0.015 ** 0.5))


def make_random_sino_problem(
    num_segments: int,
    sensitivity_rate: float,
    kth: float,
    seed: int = 0,
) -> SinoProblem:
    """Helper used by several SINO tests to build random instances."""
    rng = np.random.default_rng(seed)
    segments = list(range(num_segments))
    sensitivity = {segment: set() for segment in segments}
    for i in segments:
        for j in segments:
            if j > i and rng.random() < sensitivity_rate:
                sensitivity[i].add(j)
                sensitivity[j].add(i)
    return SinoProblem.build(segments, sensitivity, default_kth=kth)


def make_random_routing_instance(
    num_cols: int,
    num_rows: int,
    num_nets: int,
    capacity: int,
    sensitivity_rate: float,
    seed: int = 0,
    max_pins: int = 4,
):
    """A random grid with non-square regions plus a random netlist on it.

    Nets have 2..``max_pins`` pins (so many are multi-sink); about one in
    six keeps all its pins inside one region.  Returns ``(grid, netlist)``.
    """
    rng = np.random.default_rng(seed)
    grid = RoutingGrid(
        num_cols=num_cols,
        num_rows=num_rows,
        chip_width=100.0 * num_cols,
        chip_height=70.0 * num_rows,
        horizontal_capacity=capacity,
        vertical_capacity=capacity,
    )
    nets = []
    for net_id in range(num_nets):
        if rng.random() < 1.0 / 6.0:
            col = int(rng.integers(0, num_cols))
            row = int(rng.integers(0, num_rows))
            xs = rng.uniform(100.0 * col, 100.0 * col + 99.0, size=2)
            ys = rng.uniform(70.0 * row, 70.0 * row + 69.0, size=2)
        else:
            pin_count = int(rng.integers(2, max_pins + 1))
            xs = rng.uniform(0.0, grid.chip_width, size=pin_count)
            ys = rng.uniform(0.0, grid.chip_height, size=pin_count)
        pins = tuple(Pin(float(x), float(y)) for x, y in zip(xs, ys))
        nets.append(Net(net_id=net_id, pins=pins))
    sensitivity = {net_id: set() for net_id in range(num_nets)}
    for i in range(num_nets):
        for j in range(i + 1, num_nets):
            if rng.random() < sensitivity_rate:
                sensitivity[i].add(j)
                sensitivity[j].add(i)
    return grid, Netlist(nets, sensitivity=sensitivity)


@pytest.fixture
def random_sino_problem():
    """Factory fixture for random SINO problems."""
    return make_random_sino_problem
