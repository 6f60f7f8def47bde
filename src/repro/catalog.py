"""The solver stack's names and format versions, importable without it.

The control plane (the HTTP gateway, the ``repro serve`` supervisor, the
spool verbs and the result store) validates scenario parameters and stamps
store records, but never solves a panel.  It reads the names and versions
below from here, so only a process that solves loads numpy and the solver
modules that define the behaviour behind them.  Each constant has this one
definition; the solver modules import it.
"""

from __future__ import annotations

from typing import Tuple

#: Effort levels accepted by :func:`repro.sino.anneal.solve_min_area_sino`
#: (and, transitively, ``GsinoConfig.sino_effort``, ``PanelTask.effort`` and
#: the CLI ``--effort``).
EFFORT_LEVELS: Tuple[str, ...] = ("greedy", "anneal", "anneal-fast")

#: Solvers a :class:`repro.engine.panels.PanelTask` can request.
PANEL_SOLVERS: Tuple[str, ...] = ("sino", "ordering")

#: The registered stage-graph flows (:mod:`repro.flow.flows`), in the
#: canonical comparison order.
FLOW_NAMES: Tuple[str, ...] = ("id_no", "isino", "gsino")

#: Signature scheme version; bump when the token layout changes so persisted
#: caches (if any) cannot return solutions hashed under an older scheme.
#: Version 2 added the chain count to the annealing-schedule token; version 3
#: added the batched-evaluation width.  Version 4 merged the two annealers:
#: under v3, ``effort=anneal`` at width 8 ran the one-move chain (the width
#: only applied to a separate batched effort), while the same token then ran
#: the best-of-8 chain, so a v3 layout must not be restored.  Version 5
#: hashes the problem's arrays (segment ids, packed sensitivity matrix, bound
#: vector) instead of spelling out sorted pair and bound lists.
#: Version 6: the anneal token lost its width field (one-move chain only).
SIGNATURE_VERSION = 6

#: Version of the *stage* signature scheme (instance token + stage token
#: layout) and of the stage payload formats.  Bump whenever either token
#: layout or a payload format changes so persisted stage artifacts written
#: under an older scheme can never be restored.  Version 2 replaced the
#: instance token's full sensitivity pair list with the oracle's token;
#: stores filled under version 1 re-execute once.  Version 3 stores routes
#: as flat int lists and adds the Phase III cap flags to the refine payload.
STAGE_SIGNATURE_VERSION = 3
