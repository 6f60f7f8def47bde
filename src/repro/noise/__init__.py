"""RLC crosstalk noise models: the Keff model and the LSK model.

This sub-package implements Section 2 of the paper:

* :mod:`repro.noise.keff` — the formula-based Keff model of He–Lepak
  (reference [4] of the paper): the inductive coupling coefficient ``K_ij``
  between two signal wires in a panel and the per-net total ``K_i``.
* :mod:`repro.noise.lsk` — the length-scaled Keff model (Equation 1 of the
  paper): ``LSK_i = sum_j l_j * K_i^j`` over the routing regions a net
  crosses, plus the LSK -> crosstalk-voltage lookup table.
* :mod:`repro.noise.table_builder` — builds the lookup table by sweeping
  single-region panel configurations through the MNA circuit simulator
  (our substitute for the SPICE characterisation in the paper).
* :mod:`repro.noise.fidelity` — fidelity metrics (rank correlation between
  model and simulated noise) used to validate the model, reproducing the
  Section 2.2 claims.

The last two depend on scipy through the circuit simulator, so the package
does not re-export them: import them from their submodules, and a flow that
never characterises a table never loads scipy.
"""

from repro.noise.keff import (
    KeffModel,
    PanelOccupant,
    coupling_coefficient,
    panel_couplings,
    total_coupling,
)
from repro.noise.lsk import (
    LskTable,
    LskModel,
    RegionContribution,
    compute_lsk,
)

__all__ = [
    "KeffModel",
    "PanelOccupant",
    "coupling_coefficient",
    "panel_couplings",
    "total_coupling",
    "LskTable",
    "LskModel",
    "RegionContribution",
    "compute_lsk",
]
