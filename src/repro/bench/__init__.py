"""Synthetic ISPD'98 / IBM-style benchmark circuits.

The paper evaluates on the ISPD'98 / IBM benchmark suite placed with DRAGON.
Neither the netlists nor the placement tool are redistributable here, so this
sub-package generates *synthetic* circuits whose statistics match what the
paper's tables expose about each design: number of signal nets, chip
dimensions, average net length, and the random sensitivity assignment at a
chosen rate.  DESIGN.md records this substitution and the scale-factor
methodology every published number was generated under.

Modules
-------
* :mod:`repro.bench.profiles` — the per-circuit statistics (ibm01–ibm06).
* :mod:`repro.bench.placement` — net/pin synthesis from a profile.
* :mod:`repro.bench.ibm` — the top-level generator returning grid + netlist.

The package re-exports nothing: the profiles are stdlib-only and validate
circuit names in processes that never generate a circuit (and so never load
numpy), so import each name from the module that defines it.
"""
