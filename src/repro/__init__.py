"""repro — a reproduction of "Towards Global Routing With RLC Crosstalk Constraints".

The package reimplements, in pure Python, the complete system of Ma & He
(DAC 2002): the LSK crosstalk noise model, the per-region SINO solver, the
iterative-deletion global router, the three-phase GSINO flow and the two
baseline flows the paper compares against, plus every substrate they need
(technology parameters, a coupled-RLC transient simulator standing in for
SPICE, synthetic ISPD'98/IBM-style benchmarks, and the evaluation metrics of
Tables 1-3).  The :mod:`repro.engine` layer scales all of it: serial or
process-pool execution picked by one worker count, a content-addressed
cache of panel solutions shared across flows and phases, and sweep
orchestration over the experiment grid.

Quick start::

    from repro.bench.ibm import generate_circuit
    from repro.gsino import GsinoConfig, compare_flows

    circuit = generate_circuit("ibm01", sensitivity_rate=0.3, scale=0.03, seed=1)
    config = GsinoConfig(length_scale=1.0 / (0.03 ** 0.5))
    results = compare_flows(circuit.grid, circuit.netlist, config)
    print(results["gsino"].metrics.summary())

See DESIGN.md (repository root) for the full system inventory, layer map
and the scaled-instance methodology.
"""

__version__ = "1.1.0"

__all__ = [
    "tech",
    "circuit",
    "noise",
    "sino",
    "grid",
    "router",
    "engine",
    "gsino",
    "bench",
    "analysis",
]
