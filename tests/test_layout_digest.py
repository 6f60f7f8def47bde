"""Golden layout digest of a small ``repro compare`` run.

The reference oracles in ``tests/oracles`` solve the same
:class:`~repro.sino.panel.SinoProblem` objects the production solvers do, so
a bug in the shared panel-problem representation (relation matrix, bounds,
segment order) would move both sides together and pass every oracle test.
This digest was computed once from an independent implementation of that
representation and pins every Phase II and Phase III layout of

    repro compare --circuit ibm01 --scale 0.02 --seed 7

for ID+NO, iSINO and GSINO.  Any change to a single track of a single panel
changes it.  The same digest must come out of that compare run over a
persistent store, both cold (every stage executed and persisted) and warm
(every stage restored from the store).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

from repro.bench.ibm import generate_circuit
from repro.engine.cache import SolutionCache
from repro.engine.panels import Engine
from repro.flow.flows import (
    PANELS_GSINO,
    PANELS_ID_NO,
    PANELS_ISINO,
    REFINE_GSINO,
    build_context,
    flow_graph,
    run_compare,
)
from repro.flow.stages import panels_of
from repro.gsino.config import GsinoConfig
from repro.service.store import ResultStore

#: sha256 over the layouts below, computed before the panel problem held
#: its relation as a matrix (signature scheme v4).
GOLDEN_DIGEST = "a288f137d5437192e2892a3da59ea9679f6b68102ceaf6f98c70471a52c5ed05"

#: (flow graph, artifact) pairs whose layouts the digest covers, in order.
_ARTIFACTS = (
    ("id_no", PANELS_ID_NO),
    ("isino", PANELS_ISINO),
    ("gsino", PANELS_GSINO),
    ("gsino", REFINE_GSINO),
)


def compare_layout_digest(scale: float = 0.02, seed: int = 7) -> str:
    """sha256 of every panel layout of the CLI's ``compare`` on ibm01."""
    return digest_compare(scale, seed)[0]


def digest_compare(
    scale: float = 0.02, seed: int = 7, store_root: Optional[Path] = None
) -> Tuple[str, Dict[str, int]]:
    """The layout digest of one ``compare`` and its stage outcome counts,
    run over the result store at ``store_root`` when one is given."""
    circuit = generate_circuit("ibm01", sensitivity_rate=0.3, scale=scale, seed=seed)
    config = GsinoConfig(length_scale=1.0 / (scale ** 0.5))
    store = None if store_root is None else ResultStore(store_root)
    with Engine(cache=SolutionCache(store=store)) as engine:
        context = build_context(circuit.grid, circuit.netlist, config, engine)
        runner = run_compare(context, store=store).runner
        outcomes = runner.outcome_counts()
        digest = hashlib.sha256()
        for flow, artifact in _ARTIFACTS:
            value = runner.materialize(flow_graph(flow), targets=[artifact])[artifact]
            panels = panels_of(value)
            rows = [[list(key), panels[key].layout] for key in sorted(panels)]
            digest.update(artifact.encode("utf-8"))
            digest.update(json.dumps(rows, separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest(), outcomes


@pytest.fixture(scope="module")
def cold_store(tmp_path_factory):
    """A store filled by one cold compare, with that compare's digest and outcomes."""
    root = tmp_path_factory.mktemp("digest") / "store"
    return (root, *digest_compare(store_root=root))


def test_compare_layouts_match_the_golden_digest():
    assert compare_layout_digest() == GOLDEN_DIGEST


def test_cold_compare_over_a_store_matches_the_golden_digest(cold_store):
    _root, digest, outcomes = cold_store
    assert outcomes == {"executed": 10, "restored": 0, "shared": 3}
    assert digest == GOLDEN_DIGEST


def test_warm_restore_matches_the_golden_digest(cold_store):
    root, _digest, _outcomes = cold_store
    digest, outcomes = digest_compare(store_root=root)
    assert outcomes == {"executed": 0, "restored": 10, "shared": 3}
    assert digest == GOLDEN_DIGEST
