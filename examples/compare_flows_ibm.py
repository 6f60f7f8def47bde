"""Compare ID+NO, iSINO and GSINO on one synthetic IBM-style circuit.

Generates a scaled-down instance of a chosen benchmark, runs the three flows
of the paper's experiments on it, and prints the quantities behind Tables
1-3 for that single circuit.  Run with::

    python examples/compare_flows_ibm.py [circuit] [sensitivity_rate] [scale]

e.g. ``python examples/compare_flows_ibm.py ibm03 0.5 0.03``.
"""

from __future__ import annotations

import sys
import time

from repro.analysis import format_percentage
from repro.bench.ibm import generate_circuit
from repro.gsino import GsinoConfig, compare_flows


def main() -> None:
    circuit_name = sys.argv[1] if len(sys.argv) > 1 else "ibm01"
    sensitivity_rate = float(sys.argv[2]) if len(sys.argv) > 2 else 0.3
    scale = float(sys.argv[3]) if len(sys.argv) > 3 else 0.03

    circuit = generate_circuit(circuit_name, sensitivity_rate=sensitivity_rate, scale=scale, seed=7)
    config = GsinoConfig(length_scale=1.0 / (scale ** 0.5))

    print(f"{circuit.profile.name}: {circuit.netlist.num_nets} nets, "
          f"{circuit.grid.num_cols}x{circuit.grid.num_rows} regions, "
          f"HC={circuit.grid.horizontal_capacity}, VC={circuit.grid.vertical_capacity}, "
          f"sensitivity rate {format_percentage(sensitivity_rate, 0)}")

    start = time.perf_counter()
    results = compare_flows(circuit.grid, circuit.netlist, config)
    elapsed = time.perf_counter() - start

    id_no = results["id_no"]
    print()
    print(f"{'flow':8s} {'violating nets':>15s} {'avg WL (um)':>12s} {'WL overhead':>12s} "
          f"{'area':>14s} {'area overhead':>14s} {'shields':>8s}")
    for name in ("id_no", "isino", "gsino"):
        result = results[name]
        metrics = result.metrics
        wl_overhead = metrics.average_wirelength_um / id_no.metrics.average_wirelength_um - 1.0
        area_overhead = metrics.area.overhead_vs(id_no.metrics.area)
        violations = f"{metrics.crosstalk.num_violations} ({format_percentage(metrics.crosstalk.violation_fraction)})"
        print(f"{name:8s} {violations:>15s} {metrics.average_wirelength_um:>12.1f} "
              f"{format_percentage(wl_overhead):>12s} {metrics.area.dimensions_label():>14s} "
              f"{format_percentage(area_overhead):>14s} {metrics.total_shields:>8d}")

    print()
    print(f"All three flows finished in {elapsed:.1f} s "
          f"(GSINO phase III: {results['gsino'].phase3_report.pass1_sino_reruns} SINO re-runs)")


if __name__ == "__main__":
    main()
