"""Characterise the LSK lookup table with the coupled-RLC circuit simulator.

Reproduces the Section 2.2 procedure of the paper: sweep random single-region
panel configurations (tracks, shields, sensitivities, wire lengths) through
the transient simulator, build the monotone LSK -> noise-voltage table, and
check the two fidelity claims (rank correlation, linearity in length).
Run with::

    python examples/crosstalk_characterization.py
"""

from __future__ import annotations

from repro.noise.fidelity import lsk_fidelity_report
from repro.noise.table_builder import LskTableBuilder, TableBuildConfig
from repro.tech import ITRS_100NM


def main() -> None:
    config = TableBuildConfig(
        technology=ITRS_100NM,
        num_samples=80,
        num_entries=100,
        seed=2002,
    )
    print(f"Characterising the LSK table for {ITRS_100NM.name} "
          f"({config.num_samples} simulated panels) ...")
    builder = LskTableBuilder(config)
    table = builder.build()

    print()
    print(f"Built {table!r}")
    print(f"LSK budget for the paper's 0.15 V bound: {table.lsk_for_noise(0.15):.3e} m*K")
    print()
    print("Sample table entries (LSK -> noise voltage):")
    lsk_values = table.lsk_values
    noise_values = table.noise_values
    for index in range(0, table.num_entries, 20):
        print(f"  {lsk_values[index]:.3e}  ->  {noise_values[index]:.3f} V")
    print(f"  {lsk_values[-1]:.3e}  ->  {noise_values[-1]:.3f} V")

    print()
    print("Fidelity study (Section 2.2 claims):")
    report = lsk_fidelity_report(num_samples=30, seed=7)
    print(f"  rank correlation (LSK vs simulated noise): {report.rank_correlation:.2f}")
    print(f"  linearity of noise in wire length:         {report.length_linearity:.2f}")
    print(f"  supports the paper's fidelity claims:      {report.passes()}")


if __name__ == "__main__":
    main()
