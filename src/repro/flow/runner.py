"""The flow runner: topological scheduling, memoisation and resume.

:class:`FlowRunner` materialises the artifacts of one or more
:class:`~repro.flow.graph.FlowGraph` objects over a shared
:class:`~repro.flow.graph.FlowContext`.  For every artifact it

1. computes the **stage signature** — a content hash over the stage
   identity, the instance and configuration tokens and the signatures of
   the input artifacts (:func:`repro.engine.signature.stage_signature`);
2. returns the **memoised** value when the signature was already
   materialised in this runner (this is how one ``compare`` run computes
   the baselines' shared routing, and the budgets, exactly once);
3. otherwise tries to **restore** the artifact from the persistent store
   (decode failures of any kind fall back to computing — a corrupt or
   stale payload can cost a recompute, never a wrong result — and are
   counted in ``decode_failures`` and named on the ``stage`` event);
4. otherwise **executes** the stage and writes the encoded artifact
   through to the store.  A stage whose artifact is persisted runs with
   the engine's panel cache in memory-only mode
   (:meth:`~repro.engine.cache.SolutionCache.memory_only`): the artifact
   already holds every layout the stage solves, so writing each panel to
   the store as well would persist it twice.

Every materialisation is recorded as a :class:`StageExecution` with its
outcome and wall-clock seconds, which is what powers the per-stage timing
breakdown of ``repro compare``, the zero-redundant-execution assertions of
the CI flow-smoke job and the ``repro flows --resume`` summary.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.engine.signature import stage_signature
from repro.flow.graph import ArtifactStore, FlowContext, FlowGraph
from repro.obs.events import EventLog
from repro.obs.trace import Tracer, maybe_span

#: Outcome labels of one artifact materialisation.
EXECUTED = "executed"
RESTORED = "restored"
SHARED = "shared"


@dataclass(frozen=True)
class StageExecution:
    """One artifact materialisation performed by a runner.

    Attributes
    ----------
    artifact / stage:
        The artifact name and the producing stage kind.
    flow:
        Name of the graph whose materialisation triggered this record.
    outcome:
        ``"executed"`` (stage body ran), ``"restored"`` (decoded from the
        persistent store) or ``"shared"`` (memoised by an earlier flow of
        the same runner; zero additional work).
    seconds:
        Wall-clock cost of the execution or restore (0.0 when shared).
    signature:
        The artifact's content signature.
    """

    artifact: str
    stage: str
    flow: str
    outcome: str
    seconds: float
    signature: str


class FlowRunner:
    """Materialise flow graphs with signature memoisation and persistence.

    One runner is meant to be shared across everything that should share
    stage artifacts: ``repro compare`` threads a single runner through
    ID+NO, iSINO and GSINO so their common ancestors (routing, budgets)
    are materialised once.  Attaching a ``store`` extends that sharing
    across *processes*: interrupted or repeated runs restore persisted
    artifacts stage-granular instead of recomputing them.

    Observability is opt-in: a ``tracer`` records one span per artifact
    materialisation (nested under whatever the caller opened), and an
    ``events`` log receives one ``stage`` event per materialisation with
    its outcome and wall-clock seconds (plus ``decode_error`` when a stored
    payload failed to decode and the stage was recomputed).
    """

    def __init__(
        self,
        context: FlowContext,
        store: Optional[ArtifactStore] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.context = context
        self.store = store
        self.tracer = tracer
        self.events = events
        self.executions: List[StageExecution] = []
        #: Stored payloads that failed to decode and were recomputed.
        self.decode_failures = 0
        self._values: Dict[str, object] = {}
        # Per-graph signature caches.  The graph object itself is pinned in
        # the tuple: keying by id() alone would let a garbage-collected
        # graph's address be reused by a different graph, silently serving
        # the old graph's signatures.
        self._signatures: Dict[int, Tuple[FlowGraph, Dict[str, str]]] = {}
        # Signatures installed by seed(): their values were supplied by the
        # caller, not computed, so neither they nor anything derived from
        # them may touch the persistent store (see seed()).
        self._seeded: Set[str] = set()

    # -- signatures ---------------------------------------------------------------

    def signature_of(self, graph: FlowGraph, artifact: str) -> str:
        """The content signature of one artifact of a graph (cached)."""
        _graph, cache = self._signatures.setdefault(id(graph), (graph, {}))
        if artifact in cache:
            return cache[artifact]
        stage = graph.stages[artifact]
        signature = stage_signature(
            stage=stage.name,
            version=stage.version,
            params=stage.params,
            instance=self.context.instance_signature(),
            config=self.context.config_signature(),
            inputs=[self.signature_of(graph, needed) for needed in stage.inputs],
        )
        cache[artifact] = signature
        return signature

    # -- seeding ------------------------------------------------------------------

    def seed(self, graph: FlowGraph, artifact: str, value: object) -> None:
        """Install a precomputed artifact value under its normal signature.

        Used by drivers that accept precomputed inputs (``run_gsino``'s
        ``budgets`` parameter).  The runner cannot verify a seeded value
        matches what the stage would have computed, so the seeded artifact
        — and, transitively, everything derived from it — is memoised in
        memory only: derived artifacts are neither written to the store
        (a caller-supplied value must never poison canonical signatures)
        nor restored from it (a canonical blob would not reflect the
        seeded input).
        """
        signature = self.signature_of(graph, artifact)
        self._seeded.add(signature)
        self._values[signature] = value

    # -- materialisation ----------------------------------------------------------

    def materialize(
        self, graph: FlowGraph, targets: Optional[Sequence[str]] = None
    ) -> Dict[str, object]:
        """Materialise ``targets`` (default: the graph's targets) and all
        ancestors; returns every materialised artifact by name."""
        values: Dict[str, object] = {}
        tainted: Set[str] = set()
        for artifact in graph.schedule(targets):
            stage = graph.stages[artifact]
            # The span opens first so signature hashing is traced time.
            with maybe_span(self.tracer, f"stage.{artifact}") as span:
                if self.signature_of(graph, artifact) in self._seeded or any(
                    needed in tainted for needed in stage.inputs
                ):
                    tainted.add(artifact)
                values[artifact] = self._materialize_one(
                    graph, artifact, values, use_store=artifact not in tainted
                )
                if span is not None and self.executions:
                    span.add(**{self.executions[-1].outcome: 1})
        return values

    def _materialize_one(
        self,
        graph: FlowGraph,
        artifact: str,
        values: Mapping[str, object],
        use_store: bool = True,
    ) -> object:
        stage = graph.stages[artifact]
        signature = self.signature_of(graph, artifact)
        if signature in self._values:
            self._record(artifact, stage.name, graph.name, SHARED, 0.0, signature)
            return self._values[signature]
        inputs = {needed: values[needed] for needed in stage.inputs}
        decode_error: Optional[str] = None
        if use_store and self.store is not None and stage.decode is not None:
            start = time.perf_counter()
            payload = self.store.get_artifact(signature)
            if payload is not None:
                try:
                    value = stage.decode(self.context, inputs, payload)
                except Exception as error:  # noqa: BLE001 — any bad payload means recompute
                    self.decode_failures += 1
                    decode_error = "".join(
                        traceback.format_exception_only(type(error), error)
                    ).strip()
                else:
                    self._values[signature] = value
                    self._record(
                        artifact,
                        stage.name,
                        graph.name,
                        RESTORED,
                        time.perf_counter() - start,
                        signature,
                    )
                    return value
        persist = use_store and self.store is not None and stage.encode is not None
        cache = self.context.engine.cache
        panel_tier = (
            cache.memory_only() if persist and cache is not None else contextlib.nullcontext()
        )
        start = time.perf_counter()
        with panel_tier:
            value = stage.compute(self.context, inputs)
        seconds = time.perf_counter() - start
        self._values[signature] = value
        if persist:
            self.store.put_artifact(signature, stage.encode(self.context, inputs, value))
        self._record(
            artifact, stage.name, graph.name, EXECUTED, seconds, signature, decode_error
        )
        return value

    def _record(
        self,
        artifact: str,
        stage: str,
        flow: str,
        outcome: str,
        seconds: float,
        signature: str,
        decode_error: Optional[str] = None,
    ) -> None:
        self.executions.append(
            StageExecution(
                artifact=artifact,
                stage=stage,
                flow=flow,
                outcome=outcome,
                seconds=seconds,
                signature=signature,
            )
        )
        if self.events is not None:
            self.events.emit(
                "stage",
                flow=flow,
                artifact=artifact,
                stage=stage,
                outcome=outcome,
                seconds=round(seconds, 6),
                decode_error=decode_error,
            )

    # -- statistics ---------------------------------------------------------------

    def outcome_counts(self) -> Dict[str, int]:
        """``{outcome: count}`` over every recorded materialisation."""
        counts: Dict[str, int] = {EXECUTED: 0, RESTORED: 0, SHARED: 0}
        for execution in self.executions:
            counts[execution.outcome] = counts.get(execution.outcome, 0) + 1
        return counts

    @property
    def executed_count(self) -> int:
        """Number of stage bodies actually run by this runner."""
        return self.outcome_counts()[EXECUTED]

    @property
    def restored_count(self) -> int:
        """Number of artifacts restored from the persistent store."""
        return self.outcome_counts()[RESTORED]

    @property
    def shared_count(self) -> int:
        """Number of artifact requests served by in-runner memoisation."""
        return self.outcome_counts()[SHARED]

    def executions_for(self, flow: str) -> List[StageExecution]:
        """The materialisations recorded while running one flow's graph."""
        return [execution for execution in self.executions if execution.flow == flow]

    def executed_stages(self, stage: str) -> int:
        """How many times a stage kind was actually executed (not shared)."""
        return sum(
            1
            for execution in self.executions
            if execution.stage == stage and execution.outcome == EXECUTED
        )

    def __repr__(self) -> str:
        counts = self.outcome_counts()
        return (
            f"FlowRunner(executed={counts[EXECUTED]}, restored={counts[RESTORED]}, "
            f"shared={counts[SHARED]}, store={'on' if self.store is not None else 'off'})"
        )
