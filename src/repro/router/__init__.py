"""The iterative-deletion (ID) global router.

Phase I of GSINO (and both baselines) route with the iterative-deletion
algorithm of Cong & Preas (reference [10] of the paper): every net starts
with the full grid graph of its pin bounding box — its connection graph —
and the router repeatedly deletes the edge with the largest weight —
Formula 2 — until every net's graph has been reduced to a tree.  Because all
nets are considered simultaneously, the result does not depend on a net
ordering.

Modules
-------
* :mod:`repro.router.weights` — the Formula 2 edge weight.
* :mod:`repro.router.iterative_deletion` — the ID router itself: the
  connection graphs on integer region ids, the two-sided deletability
  check, and pruning the final graphs into route trees.
"""

from repro.router.weights import WeightConfig, edge_weight
from repro.router.iterative_deletion import IterativeDeletionRouter, RouterReport

__all__ = [
    "WeightConfig",
    "edge_weight",
    "IterativeDeletionRouter",
    "RouterReport",
]
