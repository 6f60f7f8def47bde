"""Simultaneous shield insertion and net ordering (SINO) within one region.

SINO (He–Lepak, ISPD 2000 — reference [4] of the paper) is the sub-problem
GSINO solves inside every routing region: place the region's net segments and
a minimum number of shield wires on parallel tracks such that

* no two mutually *sensitive* nets sit on adjacent tracks (capacitive
  crosstalk freedom), and
* every net's total inductive coupling ``K_i`` (Keff model) stays below its
  bound ``Kth_i``.

The problem is NP-hard, so this package provides a fast greedy constructor
(:mod:`repro.sino.greedy`), one simulated-annealing improver
(:mod:`repro.sino.anneal`, one move per step, optionally over several
independent chains), the net-ordering-only solver used
by the ID+NO baseline (:mod:`repro.sino.net_ordering`), a solution checker
(:mod:`repro.sino.checker`), and the closed-form shield-count estimator of
Formula 3 (:mod:`repro.sino.estimate`).
"""

from repro.sino.panel import SinoProblem, SinoSolution
from repro.sino.checker import CheckResult, check_solution
from repro.sino.greedy import greedy_sino
from repro.sino.anneal import (
    ANNEAL_FAST_DIVISOR,
    EFFORT_LEVELS,
    AnnealConfig,
    anneal_sino,
    anneal_sino_multichain,
    derive_chain_seed,
    reduce_best_feasible,
    solve_min_area_sino,
)
from repro.sino.incremental import IncrementalPanelState, Move
from repro.sino.net_ordering import net_ordering_only
from repro.sino.estimate import (
    Formula3Coefficients,
    ShieldEstimator,
    default_shield_estimator,
    fit_formula3,
)

__all__ = [
    "SinoProblem",
    "SinoSolution",
    "CheckResult",
    "check_solution",
    "greedy_sino",
    "ANNEAL_FAST_DIVISOR",
    "EFFORT_LEVELS",
    "AnnealConfig",
    "anneal_sino",
    "anneal_sino_multichain",
    "derive_chain_seed",
    "reduce_best_feasible",
    "solve_min_area_sino",
    "IncrementalPanelState",
    "Move",
    "net_ordering_only",
    "Formula3Coefficients",
    "ShieldEstimator",
    "default_shield_estimator",
    "fit_formula3",
]
