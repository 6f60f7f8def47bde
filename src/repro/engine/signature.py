"""Content-addressed signatures for SINO panels, routing instances and stages.

The solution cache (:mod:`repro.engine.cache`) must recognise that two panel
solves — possibly issued by different flows, phases or sweep repetitions —
are the *same* problem.  Object identity is useless for that (every flow
rebuilds its own :class:`~repro.sino.panel.SinoProblem` instances), so the
cache keys on a stable content hash instead.

Beyond panels, the flow layer (:mod:`repro.flow`) memoises whole *stage
artifacts* — routings, budget tables, panel-solution maps, metrics — by the
same principle: :func:`instance_token` canonicalises a routing instance
(grid plus netlist, the sensitivity oracle by its own
:meth:`~repro.grid.sensitivity.SensitivityOracle.token`) and
:func:`stage_signature` hashes a stage's identity together with the
signatures of its input artifacts, so two flows that share an ancestor stage
share one artifact, in memory and in the persistent store.  The instance
token costs O(nets), not O(nets²): a random oracle is a pure function of
``(rate, seed)`` and the net ids, so its token needs no pair walk.

A signature covers everything that can influence the solution:

* the ordered segment (net) ids of the panel,
* the symmetric sensitivity matrix over those segments,
* every segment's ``Kth`` bound (the raw float64 bytes, so the key is exact —
  no formatting round-off can alias two different bounds),
* the track capacity,
* the Keff model parameters,
* the solver (``"sino"`` / ``"ordering"``), the effort level, the per-task
  seed and the full annealing schedule including its chain count — so
  raising ``AnnealConfig.chains`` or switching effort levels can never hit a
  stale cached layout.

Phase III mutates bounds via :meth:`SinoProblem.with_bounds`; because the
bounds are part of the signature, a tightened or relaxed panel can never hit
a stale cached solution.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.catalog import SIGNATURE_VERSION, STAGE_SIGNATURE_VERSION
from repro.sino.anneal import AnnealConfig
from repro.sino.panel import SinoProblem

if TYPE_CHECKING:  # the grid layer sits below the engine; import only for types
    from repro.grid.nets import Netlist
    from repro.grid.regions import RoutingGrid


def _float_token(value: float) -> str:
    """Exact, repr-stable encoding of a float."""
    return float(value).hex()


def problem_token(problem: SinoProblem) -> str:
    """Canonical string form of one SINO problem (before hashing).

    The segment ids (little-endian int64), the bit-packed sensitivity
    matrix and the little-endian float64 bound vector are hashed as raw
    bytes, in segment order; the segment count fixes where one array ends
    and the next begins.  Exposed separately from :func:`panel_signature`
    so tests can assert on the canonicalisation directly.
    """
    arrays = hashlib.sha256()
    arrays.update(np.asarray(problem.segments, dtype="<i8").tobytes())
    arrays.update(np.packbits(problem.sens).tobytes())
    arrays.update(problem.bounds.astype("<f8", copy=False).tobytes())
    model = problem.keff_model
    keff = ",".join(
        _float_token(value)
        for value in (
            model.shield_attenuation,
            model.adjacent_shield_bonus,
            model.distance_exponent,
        )
    )
    return "|".join(
        (
            f"v{SIGNATURE_VERSION}",
            f"segments={problem.num_segments}",
            f"arrays={arrays.hexdigest()}",
            f"capacity={problem.capacity}",
            f"keff={keff}",
        )
    )


def _anneal_token(anneal: Optional[AnnealConfig]) -> str:
    """Canonical encoding of an annealing schedule (``-`` for the default)."""
    if anneal is None:
        return "-"
    return ",".join(
        (
            str(anneal.iterations),
            _float_token(anneal.initial_temperature),
            _float_token(anneal.final_temperature),
            _float_token(anneal.capacitive_weight),
            _float_token(anneal.inductive_weight),
            _float_token(anneal.shield_weight),
            _float_token(anneal.overflow_weight),
            str(anneal.seed),
            str(anneal.chains),
        )
    )


def panel_signature(
    problem: SinoProblem,
    solver: str,
    effort: str,
    seed: Optional[int] = None,
    anneal: Optional[AnnealConfig] = None,
) -> str:
    """Stable hex digest identifying one (problem, solver, effort, seed) solve."""
    token = "|".join(
        (
            problem_token(problem),
            f"solver={solver}",
            f"effort={effort}",
            f"seed={'-' if seed is None else seed}",
            f"anneal={_anneal_token(anneal)}",
        )
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def anneal_token(anneal: Optional[AnnealConfig]) -> str:
    """Public canonical encoding of an annealing schedule.

    The flow layer folds the configured schedule into its configuration
    token; exposing the panel encoder keeps the two encodings identical by
    construction.
    """
    return _anneal_token(anneal)


def float_token(value: float) -> str:
    """Public exact hex encoding of a float.

    The single encoder behind both the panel signatures and the flow
    layer's instance/configuration tokens — one scheme, so the two token
    families can never drift apart.
    """
    return _float_token(value)


def instance_token(grid: "RoutingGrid", netlist: "Netlist") -> str:
    """Stable hex digest of one routing instance (grid + netlist + sensitivity).

    Covers everything a flow stage can read from the instance: the grid
    geometry and capacities, every net's id and pin coordinates
    (hex-encoded, so the token is exact) and the sensitivity oracle's
    :meth:`~repro.grid.sensitivity.SensitivityOracle.token`.  Together with
    the net ids that token fixes the relation among the netlist's nets, so
    the pairs themselves are never enumerated and the cost is linear in the
    pin count.  Two instances with the same token produce bit-identical
    stage artifacts under the same configuration, which is what lets the
    flow layer share and persist stage results across runs and processes.
    """
    grid_token = ",".join(
        (
            str(grid.num_cols),
            str(grid.num_rows),
            _float_token(grid.chip_width),
            _float_token(grid.chip_height),
            str(grid.horizontal_capacity),
            str(grid.vertical_capacity),
            _float_token(grid.track_pitch_um),
        )
    )
    net_parts = []
    for net in netlist.nets():
        pins = ";".join(f"{_float_token(pin.x)}:{_float_token(pin.y)}" for pin in net.pins)
        net_parts.append(f"{net.net_id}@{pins}")
    token = "|".join(
        (
            f"sv{STAGE_SIGNATURE_VERSION}",
            f"grid={grid_token}",
            f"nets={','.join(net_parts)}",
            f"sensitivity={netlist.sensitivity.token()}",
        )
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def stage_signature(
    stage: str,
    version: int,
    params: str,
    instance: str,
    config: str,
    inputs: Sequence[str],
) -> str:
    """Stable hex digest identifying one stage artifact.

    Covers the stage identity (name, implementation ``version``, parameter
    token), the instance and configuration tokens, and — in declared order —
    the signatures of the input artifacts, so any change anywhere upstream
    produces a different artifact signature.  The configuration token is a
    deliberate over-approximation: it covers the whole flow configuration,
    so an unrelated knob change conservatively re-executes every stage
    rather than risking a stale shared artifact.
    """
    token = "|".join(
        (
            f"sv{STAGE_SIGNATURE_VERSION}",
            f"stage={stage}",
            f"version={version}",
            f"params={params}",
            f"instance={instance}",
            f"config={config}",
            f"inputs={','.join(inputs)}",
        )
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()
