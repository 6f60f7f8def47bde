"""Tests for the repro.flow stage-graph subsystem.

Covers the golden-equivalence guarantee (staged flows bit-identical to the
retained pre-refactor oracle in ``tests/oracles/gsino_reference.py``), stage sharing
within one comparison, store-backed resume with zero redundant stage
executions, the artifact codecs, GSINO on a process-pool engine, flow
scenarios in the service layer, and the ``repro flows`` CLI verb.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.experiments import (
    CircuitComparison,
    ExperimentConfig,
    run_circuit_comparison,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.bench.ibm import generate_circuit
from repro.cli import main
from repro.engine.backends import create_backend
from repro.engine.cache import SolutionCache
from repro.engine.panels import Engine
import repro.engine.signature as signature_module
import repro.service.store as store_module
from repro.engine.signature import STAGE_SIGNATURE_VERSION, instance_token, stage_signature
from repro.flow.artifacts import (
    RoutingArtifact,
    decode_budgets,
    decode_metrics,
    decode_panels,
    decode_refine,
    decode_routing,
    encode_budgets,
    encode_metrics,
    encode_panels,
    encode_refine,
    encode_routing,
)
from repro.flow.flows import (
    BUDGETS,
    FLOW_NAMES,
    PANELS_GSINO,
    REFINE_GSINO,
    build_context,
    flow_graph,
    list_flows,
    run_compare,
    run_flow,
)
from repro.flow.graph import FlowGraph, Stage
from repro.flow.runner import FlowRunner
from repro.grid.nets import Net, Netlist, Pin
from repro.grid.regions import RoutingGrid
from repro.grid.routes import RouteTree, RoutingSolution
from repro.grid.sensitivity import RandomPairwiseSensitivity
from repro.gsino.budgeting import compute_budgets
from repro.gsino.config import GsinoConfig
from repro.gsino.pipeline import compare_flows, run_gsino
from repro.obs.events import EventLog, read_events
from repro.obs.trace import Tracer
from repro.router.iterative_deletion import RouterReport
from repro.service.spool import Job
from repro.service.scenarios import (
    FlowScenarioSpec,
    generate_scenario,
    scenario_kind,
    scenario_spec,
)
from repro.service.scheduler import Scheduler
from repro.service.store import ResultStore

from tests.oracles.gsino_reference import (
    reference_compare_flows,
    reference_run_gsino,
    reference_run_id_no,
    reference_run_isino,
)


SCALE = 0.01


@pytest.fixture(scope="module")
def flow_circuit():
    """A tiny ibm01 instance shared by the flow tests."""
    return generate_circuit("ibm01", sensitivity_rate=0.3, scale=SCALE, seed=11)


@pytest.fixture(scope="module")
def flow_config():
    return GsinoConfig(length_scale=1.0 / (SCALE**0.5))


@pytest.fixture(scope="module")
def staged(flow_circuit, flow_config):
    """The three staged flows over one shared runner (and the runner)."""
    context = build_context(
        flow_circuit.grid, flow_circuit.netlist, flow_config, Engine(cache=SolutionCache())
    )
    return run_compare(context)


@pytest.fixture(scope="module")
def reference(flow_circuit, flow_config):
    """The pre-refactor monolithic comparison on the same instance."""
    return reference_compare_flows(flow_circuit.grid, flow_circuit.netlist, flow_config)


def _layouts(result):
    return {key: solution.layout for key, solution in result.panels.items()}


def _routes(result):
    return {net_id: route.edges for net_id, route in result.routing.routes.items()}


class TestGoldenEquivalence:
    """The staged flows are bit-identical to the pre-refactor oracle."""

    @pytest.mark.parametrize("flow", FLOW_NAMES)
    def test_metrics_bit_identical(self, staged, reference, flow):
        assert staged.results[flow].metrics.summary() == reference[flow].metrics.summary()

    @pytest.mark.parametrize("flow", FLOW_NAMES)
    def test_panel_layouts_bit_identical(self, staged, reference, flow):
        assert _layouts(staged.results[flow]) == _layouts(reference[flow])

    @pytest.mark.parametrize("flow", FLOW_NAMES)
    def test_routes_bit_identical(self, staged, reference, flow):
        assert _routes(staged.results[flow]) == _routes(reference[flow])

    def test_phase3_report_identical(self, staged, reference):
        assert dataclasses.asdict(staged.results["gsino"].phase3_report) == dataclasses.asdict(
            reference["gsino"].phase3_report
        )

    def test_budgets_identical(self, staged, reference):
        staged_budgets = staged.results["gsino"].budgets
        reference_budgets = reference["gsino"].budgets
        assert set(staged_budgets) == set(reference_budgets)
        for net_id in staged_budgets:
            assert staged_budgets[net_id] == reference_budgets[net_id]

    def test_table_rows_bit_identical(self, flow_circuit, staged, reference):
        def comparisons(flows):
            return [
                CircuitComparison(circuit=flow_circuit, sensitivity_rate=0.3, flows=flows)
            ]

        staged_cmp = comparisons(staged.results)
        reference_cmp = comparisons(reference)
        assert table1_rows(staged_cmp) == table1_rows(reference_cmp)
        assert table2_rows(staged_cmp) == table2_rows(reference_cmp)
        assert table3_rows(staged_cmp) == table3_rows(reference_cmp)

    def test_run_gsino_matches_reference(self, flow_circuit, flow_config):
        staged = run_gsino(flow_circuit.grid, flow_circuit.netlist, flow_config)
        oracle = reference_run_gsino(flow_circuit.grid, flow_circuit.netlist, flow_config)
        assert staged.metrics.summary() == oracle.metrics.summary()
        assert _layouts(staged) == _layouts(oracle)

    def test_standalone_baselines_match_reference(self, flow_circuit, flow_config):
        from repro.gsino.baselines import run_id_no, run_isino

        assert (
            run_id_no(flow_circuit.grid, flow_circuit.netlist, flow_config).metrics.summary()
            == reference_run_id_no(
                flow_circuit.grid, flow_circuit.netlist, flow_config
            ).metrics.summary()
        )
        assert (
            run_isino(flow_circuit.grid, flow_circuit.netlist, flow_config).metrics.summary()
            == reference_run_isino(
                flow_circuit.grid, flow_circuit.netlist, flow_config
            ).metrics.summary()
        )


class TestStageSharing:
    """Shared ancestors are materialised exactly once per comparison."""

    def test_baseline_routing_executed_once(self, staged):
        assert staged.runner.executed_stages("route_id") == 2  # baseline + reserved
        assert staged.runner.executed_stages("budgeting") == 1

    def test_three_artifacts_shared(self, staged):
        # route_baseline for isino; budgets for isino and gsino.
        assert staged.runner.shared_count == 3

    def test_baselines_share_routing_object(self, staged):
        assert staged.results["id_no"].routing is staged.results["isino"].routing

    def test_all_flows_share_budgets_object(self, staged):
        budgets = staged.results["id_no"].budgets
        assert staged.results["isino"].budgets is budgets
        assert staged.results["gsino"].budgets is budgets

    def test_stage_timings_reported(self, staged):
        for flow in FLOW_NAMES:
            timings = staged.results[flow].stage_timings
            assert timings is not None and timings
            assert all(seconds >= 0.0 for seconds in timings.values())
        # iSINO reuses the baseline routing: zero additional seconds.
        assert staged.results["isino"].stage_timings["route_baseline"] == 0.0

    def test_compare_flows_facade_unchanged(self, flow_circuit, flow_config, staged):
        results = compare_flows(flow_circuit.grid, flow_circuit.netlist, flow_config)
        assert set(results) == set(FLOW_NAMES)
        for flow in FLOW_NAMES:
            assert results[flow].metrics.summary() == staged.results[flow].metrics.summary()

    def test_seeded_budgets_are_used(self, flow_circuit, flow_config):
        budgets = compute_budgets(flow_circuit.netlist, flow_config)
        result = run_gsino(flow_circuit.grid, flow_circuit.netlist, flow_config, budgets=budgets)
        assert result.budgets is budgets

    def test_seeded_artifacts_never_touch_the_store(self, flow_circuit, flow_config, tmp_path):
        # A caller-supplied (unverifiable) budgets value must not let any
        # derived artifact be persisted under its canonical signature — a
        # later un-seeded run with the same store would silently restore
        # results derived from the foreign value.
        budgets = compute_budgets(flow_circuit.netlist, flow_config)
        doctored = dict(budgets)
        store = ResultStore(tmp_path / "store")
        context = build_context(
            flow_circuit.grid, flow_circuit.netlist, flow_config, Engine(cache=SolutionCache())
        )
        runner = FlowRunner(context, store=store)
        run_flow("gsino", context, runner=runner, seeds={BUDGETS: doctored})
        graph = flow_graph("gsino")
        # Everything downstream of the seeded budgets stays out of the
        # store; the independent reserved routing is legitimately persisted.
        for artifact in (BUDGETS, PANELS_GSINO, REFINE_GSINO, "metrics_gsino"):
            assert store.get_artifact(runner.signature_of(graph, artifact)) is None
        assert store.get_artifact(runner.signature_of(graph, "route_reserved")) is not None
        # And a seeded re-run does not restore canonical artifacts either.
        cold_store = ResultStore(tmp_path / "canonical")
        cold_context = build_context(
            flow_circuit.grid, flow_circuit.netlist, flow_config, Engine(cache=SolutionCache())
        )
        run_compare(cold_context, store=cold_store)  # populate canonical artifacts
        seeded_runner = FlowRunner(cold_context, store=cold_store)
        seeded_runner.seed(flow_graph("gsino"), BUDGETS, doctored)
        seeded_runner.materialize(flow_graph("gsino"))
        outcomes = {e.artifact: e.outcome for e in seeded_runner.executions}
        assert outcomes[PANELS_GSINO] == "executed"  # not restored past the seed


class TestGraph:
    def test_registered_flows(self):
        assert [name for name, _ in list_flows()] == list(FLOW_NAMES)

    def test_unknown_flow_rejected(self):
        with pytest.raises(KeyError):
            flow_graph("warp")

    def test_schedule_is_dependency_ordered(self):
        graph = flow_graph("gsino")
        order = graph.schedule()
        for artifact in order:
            for needed in graph.stages[artifact].inputs:
                assert order.index(needed) < order.index(artifact)

    def test_describe_lists_every_stage(self):
        lines = flow_graph("isino").describe()
        assert any(line.startswith("route_baseline <- route_id") for line in lines)
        assert any("solver" not in line for line in lines)

    def test_unknown_input_rejected(self):
        stage = Stage(name="s", inputs=("missing",), compute=lambda context, inputs: None)
        with pytest.raises(ValueError):
            FlowGraph(name="bad", stages={"a": stage}, targets=("a",))

    def test_cycle_rejected(self):
        stage_a = Stage(name="a", inputs=("b",), compute=lambda context, inputs: None)
        stage_b = Stage(name="b", inputs=("a",), compute=lambda context, inputs: None)
        with pytest.raises(ValueError):
            FlowGraph(name="cyclic", stages={"a": stage_a, "b": stage_b}, targets=("a",))

    def test_unknown_target_rejected(self):
        stage = Stage(name="s", inputs=(), compute=lambda context, inputs: None)
        with pytest.raises(ValueError):
            FlowGraph(name="bad", stages={"a": stage}, targets=("z",))


class TestSignatures:
    def test_instance_token_stable_across_regeneration(self, flow_circuit):
        twin = generate_circuit("ibm01", sensitivity_rate=0.3, scale=SCALE, seed=11)
        assert instance_token(flow_circuit.grid, flow_circuit.netlist) == instance_token(
            twin.grid, twin.netlist
        )

    def test_instance_token_differs_across_seeds(self, flow_circuit):
        other = generate_circuit("ibm01", sensitivity_rate=0.3, scale=SCALE, seed=12)
        assert instance_token(flow_circuit.grid, flow_circuit.netlist) != instance_token(
            other.grid, other.netlist
        )

    def test_instance_token_follows_the_sensitivity_oracle(self, flow_circuit):
        netlist = flow_circuit.netlist
        oracle = netlist.sensitivity
        token = instance_token(flow_circuit.grid, netlist)
        # Same pins, same relation under a fresh but equal oracle: same token.
        twin = netlist.with_sensitivity(RandomPairwiseSensitivity(oracle.rate, oracle.seed))
        assert instance_token(flow_circuit.grid, twin) == token
        # Same pins, another relation: another token.
        for rewired in (
            netlist.with_sensitivity(RandomPairwiseSensitivity(oracle.rate, oracle.seed + 1)),
            netlist.with_sensitivity(RandomPairwiseSensitivity(0.5, oracle.seed)),
            netlist.with_sensitivity({0: {1}}),
            netlist.with_sensitivity({}),
        ):
            assert instance_token(flow_circuit.grid, rewired) != token
        assert instance_token(flow_circuit.grid, netlist.with_sensitivity({0: {1}})) == (
            instance_token(flow_circuit.grid, netlist.with_sensitivity({1: {0}}))
        )

    def test_instance_hashing_is_traced_inside_the_first_stage(self, flow_circuit, flow_config):
        tracer = Tracer()
        context = build_context(
            flow_circuit.grid, flow_circuit.netlist, flow_config, Engine(tracer=tracer)
        )
        run_flow("id_no", context, runner=FlowRunner(context, tracer=tracer))
        first = tracer.roots[0]
        assert first.name.startswith("stage.")
        assert first.children[0].name == "signature.instance"

        def names(span):
            yield span.name
            for child in span.children:
                yield from names(child)

        all_names = [name for root in tracer.roots for name in names(root)]
        assert all_names.count("signature.instance") == 1

    def test_stage_signature_covers_every_field(self):
        base = dict(stage="s", version=1, params="-", instance="i", config="c", inputs=["x"])
        signature = stage_signature(**base)
        for key, value in (
            ("stage", "t"),
            ("version", 2),
            ("params", "solver=sino"),
            ("instance", "j"),
            ("config", "d"),
            ("inputs", ["y"]),
        ):
            assert stage_signature(**{**base, key: value}) != signature

    def test_artifact_signatures_differ_across_configs(self, flow_circuit, flow_config):
        context_a = build_context(flow_circuit.grid, flow_circuit.netlist, flow_config, Engine())
        context_b = build_context(
            flow_circuit.grid,
            flow_circuit.netlist,
            flow_config.with_changes(refine_kth_shrink=0.5),
            Engine(),
        )
        graph = flow_graph("gsino")
        for artifact in graph.schedule():
            assert FlowRunner(context_a).signature_of(graph, artifact) != FlowRunner(
                context_b
            ).signature_of(graph, artifact)

    def test_artifact_signatures_cover_technology_fields(self, flow_circuit, flow_config):
        # Any electrical parameter of the node feeds the LSK model; a
        # doctored technology with the same name and Vdd must still produce
        # different stage signatures (no stale cross-technology restores).
        from repro.tech.itrs import ITRS_100NM

        doctored = dataclasses.replace(
            ITRS_100NM, driver_resistance=ITRS_100NM.driver_resistance * 2
        )
        context_a = build_context(flow_circuit.grid, flow_circuit.netlist, flow_config, Engine())
        context_b = build_context(
            flow_circuit.grid,
            flow_circuit.netlist,
            flow_config.with_changes(technology=doctored),
            Engine(),
        )
        graph = flow_graph("gsino")
        assert FlowRunner(context_a).signature_of(graph, BUDGETS) != FlowRunner(
            context_b
        ).signature_of(graph, BUDGETS)

    def test_artifact_signatures_stable_within_config(self, flow_circuit, flow_config):
        graph = flow_graph("gsino")
        context = build_context(flow_circuit.grid, flow_circuit.netlist, flow_config, Engine())
        twin = build_context(flow_circuit.grid, flow_circuit.netlist, flow_config, Engine())
        for artifact in graph.schedule():
            assert FlowRunner(context).signature_of(graph, artifact) == FlowRunner(
                twin
            ).signature_of(graph, artifact)


class _SpyStore(ResultStore):
    """A result store that counts its panel-layout tier calls."""

    def __init__(self, root):
        super().__init__(root)
        self.layout_gets = 0
        self.layout_puts = 0

    def get_layout(self, signature):
        self.layout_gets += 1
        return super().get_layout(signature)

    def put_layout(self, signature, layout):
        self.layout_puts += 1
        super().put_layout(signature, layout)


class TestStoreResume:
    def _context(self, circuit, config, root, store_type=ResultStore):
        store = store_type(root)
        return build_context(
            circuit.grid, circuit.netlist, config, Engine(cache=SolutionCache(store=store))
        ), store

    def test_cold_compare_persists_panels_only_in_stage_artifacts(
        self, flow_circuit, flow_config, tmp_path
    ):
        # A stage whose artifact is persisted keeps its panels in the cache's
        # memory tier: the artifact already holds every layout it solved.
        context, store = self._context(flow_circuit, flow_config, tmp_path / "store", _SpyStore)
        cold = run_compare(context, store=store)
        assert cold.runner.outcome_counts() == {"executed": 10, "restored": 0, "shared": 3}
        assert (store.layout_gets, store.layout_puts) == (0, 0)
        assert context.engine.cache_stats().misses > 0  # cold solves are still counted
        executed = {e.signature for e in cold.runner.executions if e.outcome == "executed"}
        assert store.signatures() == sorted(executed)
        blobs = [path for path in (tmp_path / "store" / "blobs").rglob("*") if path.is_file()]
        assert len(blobs) == 10

    def test_seeded_run_writes_panel_layouts_through(self, flow_circuit, flow_config, tmp_path):
        # Stages derived from a seeded value persist no artifact, so their
        # panels keep the per-panel write-through: it is their only copy.
        budgets = compute_budgets(flow_circuit.netlist, flow_config)
        context, store = self._context(flow_circuit, flow_config, tmp_path / "store", _SpyStore)
        runner = FlowRunner(context, store=store)
        run_flow("gsino", context, runner=runner, seeds={BUDGETS: budgets})
        cache = context.engine.cache
        assert store.layout_puts == len(cache) > 0
        # Every solved layout, plus the un-seeded reserved routing's artifact.
        assert len(store) == len(cache) + 1
        assert store.get_artifact(runner.signature_of(flow_graph("gsino"), "route_reserved"))

    def test_warm_compare_restores_every_stage(self, flow_circuit, flow_config, tmp_path):
        context, store = self._context(flow_circuit, flow_config, tmp_path / "store")
        cold = run_compare(context, store=store)
        assert cold.runner.executed_count == 10
        warm_context, warm_store = self._context(flow_circuit, flow_config, tmp_path / "store")
        warm = run_compare(warm_context, store=warm_store)
        assert warm.runner.executed_count == 0
        assert warm.runner.restored_count == 10
        for flow in FLOW_NAMES:
            assert (
                warm.results[flow].metrics.summary() == cold.results[flow].metrics.summary()
            )
            assert _layouts(warm.results[flow]) == _layouts(cold.results[flow])
            assert _routes(warm.results[flow]) == _routes(cold.results[flow])

    def test_interrupted_run_resumes_stage_granular(self, flow_circuit, flow_config, tmp_path):
        context, store = self._context(flow_circuit, flow_config, tmp_path / "store")
        run_flow("id_no", context, store=store)  # "interrupted" after the first flow
        resumed_context, resumed_store = self._context(
            flow_circuit, flow_config, tmp_path / "store"
        )
        outcome = run_compare(resumed_context, store=resumed_store)
        by_artifact = {}
        for execution in outcome.runner.executions:
            by_artifact.setdefault(execution.artifact, execution.outcome)
        assert by_artifact["route_baseline"] == "restored"
        assert by_artifact[BUDGETS] == "restored"
        assert by_artifact["panels_id_no"] == "restored"
        assert by_artifact["route_reserved"] == "executed"
        assert by_artifact[REFINE_GSINO] == "executed"

    def test_corrupt_artifact_falls_back_to_compute(self, flow_circuit, flow_config, tmp_path):
        context, store = self._context(flow_circuit, flow_config, tmp_path / "store")
        cold = run_compare(context, store=store)
        graph = flow_graph("gsino")
        signature = cold.runner.signature_of(graph, PANELS_GSINO)
        # Poison the persisted payload with a structurally valid but wrong body.
        store.put_artifact(signature, {"panels": []})
        warm_context, warm_store = self._context(flow_circuit, flow_config, tmp_path / "store")
        events = EventLog(tmp_path / "svc", writer="flow-test")
        runner = FlowRunner(warm_context, store=warm_store, events=events)
        warm = run_compare(warm_context, runner=runner)
        assert warm.results["gsino"].metrics.summary() == cold.results["gsino"].metrics.summary()
        by_artifact = {e.artifact: e.outcome for e in warm.runner.executions}
        assert by_artifact[PANELS_GSINO] == "executed"
        # The fallback is reported, not swallowed: one counted failure, named
        # on the stage event of the recompute.
        assert runner.decode_failures == 1
        assert runner.outcome_counts() == {"executed": 1, "restored": 9, "shared": 3}
        failed = [
            record
            for record in read_events(tmp_path / "svc")
            if record["event"] == "stage" and "decode_error" in record
        ]
        assert [record["artifact"] for record in failed] == [PANELS_GSINO]
        assert failed[0]["outcome"] == "executed"
        assert "\n" not in failed[0]["decode_error"] and failed[0]["decode_error"]

    def test_store_filled_under_the_previous_scheme_re_executes(
        self, flow_circuit, flow_config, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        with monkeypatch.context() as old_scheme:
            for module in (signature_module, store_module):
                old_scheme.setattr(module, "STAGE_SIGNATURE_VERSION", STAGE_SIGNATURE_VERSION - 1)
            context, store = self._context(flow_circuit, flow_config, root)
            old = run_compare(context, store=store)
        assert old.runner.executed_count == 10
        context, store = self._context(flow_circuit, flow_config, root)
        fresh = run_compare(context, store=store)
        assert fresh.runner.outcome_counts() == {"executed": 10, "restored": 0, "shared": 3}
        for flow in FLOW_NAMES:
            assert fresh.results[flow].metrics.summary() == old.results[flow].metrics.summary()
        context, store = self._context(flow_circuit, flow_config, root)
        assert run_compare(context, store=store).runner.restored_count == 10

    def test_store_artifact_version_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_artifact("a" * 64, {"k": 1})
        path = store._blob_path("a" * 64)
        payload = json.loads(path.read_text())
        payload["stage_signature_version"] = STAGE_SIGNATURE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.get_artifact("a" * 64) is None
        # A scheme mismatch is a plain miss: the intact blob is left in
        # place (dead weight for the LRU), not counted as corruption.
        assert store.stats().corrupt_dropped == 0
        assert store.stats().misses >= 1
        assert path.exists()

    def test_store_artifact_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        payload = {"nested": {"values": [1, 2.5, None, "x"]}}
        store.put_artifact("b" * 64, payload)
        assert store.get_artifact("b" * 64) == payload
        assert store.get_artifact("c" * 64) is None


class TestCodecs:
    @pytest.fixture(scope="class")
    def artifacts(self, flow_circuit, flow_config):
        context = build_context(
            flow_circuit.grid, flow_circuit.netlist, flow_config, Engine(cache=SolutionCache())
        )
        runner = FlowRunner(context)
        values = runner.materialize(flow_graph("gsino"))
        return context, values

    def _roundtrip(self, payload):
        return json.loads(json.dumps(payload))

    def test_budgets_roundtrip(self, artifacts):
        _context, values = artifacts
        decoded = decode_budgets(self._roundtrip(encode_budgets(values[BUDGETS])))
        assert decoded == values[BUDGETS]
        assert list(decoded) == list(values[BUDGETS])

    def test_routing_roundtrip(self, artifacts):
        context, values = artifacts
        artifact = values["route_reserved"]
        decoded = decode_routing(context, self._roundtrip(encode_routing(artifact)))
        assert decoded.report == artifact.report
        assert list(decoded.routing.routes) == list(artifact.routing.routes)
        for net_id, route in artifact.routing.routes.items():
            assert decoded.routing.routes[net_id].edges == route.edges
            assert decoded.routing.routes[net_id].pin_regions == route.pin_regions
        assert (
            decoded.routing.total_wirelength_um() == artifact.routing.total_wirelength_um()
        )

    def test_routing_payload_is_flat_ints(self, flow_config):
        """A pin-only route and a route over several pin regions round-trip."""
        grid = RoutingGrid(
            num_cols=3,
            num_rows=3,
            chip_width=300.0,
            chip_height=210.0,
            horizontal_capacity=4,
            vertical_capacity=4,
        )
        netlist = Netlist(
            [
                Net(net_id=5, pins=(Pin(10.0, 10.0), Pin(20.0, 30.0))),
                Net(net_id=2, pins=(Pin(250.0, 10.0), Pin(10.0, 10.0), Pin(150.0, 180.0))),
            ]
        )
        routes = {
            5: RouteTree(net_id=5, pin_regions=((0, 0),)),
            2: RouteTree(
                net_id=2,
                pin_regions=((2, 0), (0, 0), (1, 2)),
                edges=frozenset(
                    {((1, 0), (0, 0)), ((2, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 2), (1, 1))}
                ),
            ),
        }
        artifact = RoutingArtifact(
            routing=RoutingSolution(grid, netlist, routes),
            report=RouterReport(num_nets=2, initial_edges=9, deleted_edges=5, kept_edges=4),
        )
        payload = self._roundtrip(encode_routing(artifact))
        assert payload["routes"] == [
            [5, [0, 0], []],
            [2, [2, 0, 0, 0, 1, 2], [0, 0, 1, 0, 1, 0, 1, 1, 1, 0, 2, 0, 1, 1, 1, 2]],
        ]
        context = build_context(grid, netlist, flow_config, Engine())
        decoded = decode_routing(context, payload)
        assert decoded.report == artifact.report
        assert list(decoded.routing.routes) == [5, 2]
        for net_id, route in routes.items():
            assert decoded.routing.routes[net_id].pin_regions == route.pin_regions
            assert decoded.routing.routes[net_id].edges == route.edges
        payload["routes"][1][2] = payload["routes"][1][2][:-1]
        with pytest.raises(ValueError):
            decode_routing(context, payload)

    def test_panels_roundtrip(self, artifacts):
        _context, values = artifacts
        artifact = values[PANELS_GSINO]
        decoded = decode_panels(
            artifact.problems, self._roundtrip(encode_panels(artifact))
        )
        assert {k: s.layout for k, s in decoded.panels.items()} == {
            k: s.layout for k, s in artifact.panels.items()
        }

    def test_panels_key_mismatch_rejected(self, artifacts):
        _context, values = artifacts
        artifact = values[PANELS_GSINO]
        payload = self._roundtrip(encode_panels(artifact))
        payload["panels"] = payload["panels"][:-1]
        with pytest.raises(ValueError):
            decode_panels(artifact.problems, payload)

    def test_refine_roundtrip(self, artifacts):
        _context, values = artifacts
        base = values[PANELS_GSINO]
        artifact = values[REFINE_GSINO]
        decoded = decode_refine(base, self._roundtrip(encode_refine(base, artifact)))
        assert dataclasses.asdict(decoded.report) == dataclasses.asdict(artifact.report)
        assert {k: s.layout for k, s in decoded.phase2.panels.items()} == {
            k: s.layout for k, s in artifact.phase2.panels.items()
        }
        for key, problem in artifact.phase2.problems.items():
            assert decoded.phase2.problems[key] == problem

    def test_metrics_roundtrip(self, artifacts):
        _context, values = artifacts
        routing = values["route_reserved"]
        artifact = values["metrics_gsino"]
        decoded = decode_metrics(routing, self._roundtrip(encode_metrics(artifact)))
        assert decoded.metrics.summary() == artifact.metrics.summary()
        assert decoded.metrics.crosstalk.net_noise == artifact.metrics.crosstalk.net_noise
        assert decoded.congestion.total_overflow() == artifact.congestion.total_overflow()


class TestPhase3Caps:
    def test_pass2_cap_is_reported(self, flow_circuit, flow_config):
        capped = run_gsino(
            flow_circuit.grid,
            flow_circuit.netlist,
            dataclasses.replace(flow_config, max_pass2_regions=1),
        ).phase3_report
        assert capped.pass2_regions_examined == 1
        assert capped.pass2_capped
        default = run_gsino(flow_circuit.grid, flow_circuit.netlist, flow_config).phase3_report
        assert not default.pass2_capped
        assert not default.pass1_capped


class TestParallelPhase3:
    def test_process_engine_bit_identical(self, flow_circuit, flow_config):
        serial = run_gsino(flow_circuit.grid, flow_circuit.netlist, flow_config)
        with Engine(backend=create_backend(2), cache=SolutionCache()) as engine:
            pooled = run_gsino(flow_circuit.grid, flow_circuit.netlist, flow_config, engine=engine)
        assert serial.metrics.summary() == pooled.metrics.summary()
        assert _layouts(serial) == _layouts(pooled)
        assert dataclasses.asdict(serial.phase3_report) == dataclasses.asdict(
            pooled.phase3_report
        )


class TestInstanceConstruction:
    def test_instance_generated_once_per_comparison(self, monkeypatch):
        import repro.analysis.experiments as experiments

        calls = []
        real = experiments.generate_circuit

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "generate_circuit", counting)
        config = ExperimentConfig(circuits=("ibm01",), sensitivity_rates=(0.3,), scale=SCALE)
        comparison = run_circuit_comparison("ibm01", 0.3, config)
        assert len(calls) == 1
        grid = comparison.flows["id_no"].routing.grid
        assert comparison.flows["gsino"].routing.grid is grid
        assert comparison.flows["isino"].routing.grid is grid


class TestFlowScenarios:
    def test_scenario_kinds(self):
        assert scenario_kind("flow-compare") == "flow"
        assert scenario_kind("smoke") == "panels"

    def test_generate_scenario_rejects_flow_scenarios(self):
        with pytest.raises(ValueError):
            generate_scenario("flow-gsino")

    def test_flow_scenario_validation(self):
        with pytest.raises(ValueError):
            FlowScenarioSpec(name="x", description="", flow="warp")
        with pytest.raises(KeyError):
            FlowScenarioSpec(name="x", description="", circuit="ibm99")
        with pytest.raises(ValueError):
            FlowScenarioSpec(name="x", description="", scale=0.0)

    def test_flow_scenario_param_overrides(self):
        spec = scenario_spec("flow-gsino").with_params({"circuit": "ibm02", "scale": 0.02})
        assert spec.circuit == "ibm02"
        assert spec.scale == pytest.approx(0.02)
        with pytest.raises(ValueError):
            scenario_spec("flow-gsino").with_params({"panels": 3})

    def test_flow_job_runs_and_reports(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job = Job(job_id="flow-1", scenario="flow-gsino", params={"scale": SCALE})
        scheduler = Scheduler(engine=Engine(cache=SolutionCache(store=store)))
        result = scheduler.execute_job(job).to_dict()
        assert set(result["flows"]) == {"gsino"}
        assert result["stages"]["executed"] == 5
        assert result["panels"] > 0

        # A repeated submission restores every stage from the store.
        warm_job = Job(job_id="flow-2", scenario="flow-gsino", params={"scale": SCALE})
        warm = Scheduler(
            engine=Engine(cache=SolutionCache(store=ResultStore(tmp_path / "store")))
        ).execute_job(warm_job).to_dict()
        assert warm["stages"]["executed"] == 0
        assert warm["stages"]["restored"] == 5
        assert warm["flows"] == result["flows"]

    def test_flow_compare_job_shares_stages(self):
        job = Job(job_id="cmp-1", scenario="flow-compare", params={"scale": SCALE})
        result = Scheduler(engine=Engine(cache=SolutionCache())).execute_job(job).to_dict()
        assert set(result["flows"]) == set(FLOW_NAMES)
        assert result["stages"]["executed"] == 10
        assert result["stages"]["shared"] == 3
        assert result["batches"] == 3


class TestFlowsCli:
    def test_list(self, capsys):
        assert main(["flows", "--list"]) == 0
        out = capsys.readouterr().out
        for name in FLOW_NAMES:
            assert name in out

    def test_show(self, capsys):
        assert main(["flows", "--show", "gsino"]) == 0
        out = capsys.readouterr().out
        assert "refine_gsino <- refine_phase3" in out

    def test_run_requires_a_mode(self):
        with pytest.raises(SystemExit):
            main(["flows"])

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(["flows", "--run", "gsino", "--resume"])
        with pytest.raises(SystemExit):
            main(["flows", "--resume", "--store", "somewhere"])

    def test_run_and_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        cold_command = ["flows", "--run", "compare", "--scale", str(SCALE), "--store", store]
        assert main(cold_command) == 0
        cold = capsys.readouterr().out
        assert "stage graph: 10 executed, 0 restored, 3 shared" in cold
        warm_command = ["flows", "--run", "gsino", "--scale", str(SCALE)]
        warm_command += ["--store", store, "--resume"]
        assert main(warm_command) == 0
        warm = capsys.readouterr().out
        assert "stage graph: 0 executed, 5 restored, 0 shared" in warm
        assert "5 stage(s) restored, 0 executed" in warm

    def test_compare_prints_stage_breakdown(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        arguments = ["compare", "--circuit", "ibm01", "--scale", str(SCALE), "--store", store]
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert "stages: route_baseline=" in cold
        assert "stage graph: 10 executed" in cold
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert "stage graph: 0 executed, 10 restored, 3 shared" in warm
        assert "zero redundant solves" in warm
