"""compare-cold and compare-warm: the paper's three-flow comparison in process.

Both run ``run_compare`` (ID+NO, iSINO and GSINO over one ``FlowRunner``)
on generated ibm01 instances with greedy effort, the serial backend and
the panel cache on, each compare over a fresh ``Engine``,
``SolutionCache`` and ``ResultStore``.

* **compare-cold** attaches an empty store to every compare, so every
  stage executes and writes through.  Instance time varies with the
  generated circuit, so a run cycles through ``COLD_INSTANCES`` instances
  derived from the workload seed, and reports the median over instances.
* **compare-warm** fills one store directory per instance with an untimed
  cold compare first; every timed compare then reopens that directory and
  must restore all ten stage artifacts, so the router and solver do no
  work and instance hashing, artifact decode and store reads remain.
"""

from __future__ import annotations

import contextlib
import gc
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from layers import LAYER_MOVES, compare_probes, largest_self_times, layer_metrics
from measure import Tally, median, peak_rss_mb, reset_peak_rss
from spans import SpanRecorder, instrument

CIRCUIT = "ibm01"
RATE = 0.3
#: ibm01 at this scale has 522 nets: large enough for the O(N^2) identity
#: hash to show (about a fifth of a cold compare, most of a warm one), small
#: enough for several compares per run inside the run budget.
SCALE = 0.04
#: A cold run compares each instance once (about 27 s of a 30 s run), then
#: cycles them until the deadline; ten keep the median compare and the
#: quality ratios steady against instance-to-instance variation.
COLD_INSTANCES = 10
#: A warm run fills one store per instance before timing; four keep the
#: quality ratios within their bounds at about 12 s of untimed filling.
WARM_INSTANCES = 4
FLOWS = ("id_no", "isino", "gsino")
#: Stage outcomes of one compare: ten artifacts, three of them shared.
COLD_OUTCOMES = {"executed": 10, "restored": 0, "shared": 3}
WARM_OUTCOMES = {"executed": 0, "restored": 10, "shared": 3}
IMPORT_PROBE = "import repro.flow.flows, repro.service.store"

#: Per flow: (violations, average wirelength, routing area, shields).
QualityRow = Dict[str, Tuple[int, float, float, int]]


@dataclass
class Instance:
    circuit: object
    config: object


def derive_seeds(seed: int, count: int) -> List[int]:
    """Instance seeds derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def set_up(seeds: Sequence[int]) -> Tuple[List[Instance], List[float]]:
    """Generate each instance and build its flow context, timing each."""
    from repro.bench import ibm
    from repro.flow.flows import build_context
    from repro.gsino.config import GsinoConfig

    instances, seconds = [], []
    for seed in seeds:
        start = time.perf_counter()
        circuit = ibm.generate_circuit(CIRCUIT, sensitivity_rate=RATE, scale=SCALE, seed=seed)
        config = GsinoConfig(length_scale=1.0 / SCALE**0.5)
        build_context(circuit.grid, circuit.netlist, config)
        seconds.append(time.perf_counter() - start)
        instances.append(Instance(circuit=circuit, config=config))
    return instances, seconds


def import_seconds(samples: int = 3) -> float:
    """Median wall time of a fresh interpreter importing the flow and store
    packages (the import share of set-up, measured as a user pays it)."""
    seconds = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
        seconds.append(time.perf_counter() - start)
    return median(seconds)


def compare_once(instance: Instance, store_dir: Path, recorder: Optional[SpanRecorder] = None):
    """One ``run_compare`` over a fresh engine, cache and store at ``store_dir``.

    Returns ``(wall seconds of run_compare, outcome)``.  With a recorder,
    the call runs under a root ``compare`` span.
    """
    from repro.engine.cache import SolutionCache
    from repro.engine.panels import Engine
    from repro.flow.flows import build_context, run_compare
    from repro.service.store import ResultStore

    store = ResultStore(store_dir)
    engine = Engine(cache=SolutionCache(store=store))
    circuit = instance.circuit
    context = build_context(circuit.grid, circuit.netlist, instance.config, engine)
    root = contextlib.nullcontext() if recorder is None else recorder.span("compare")
    with engine, root:
        start = time.perf_counter()
        outcome = run_compare(context, store=store)
        wall = time.perf_counter() - start
    return wall, outcome


def quality_of(outcome) -> QualityRow:
    row = {}
    for name in FLOWS:
        metrics = outcome.results[name].metrics
        row[name] = (
            metrics.crosstalk.num_violations,
            metrics.average_wirelength_um,
            metrics.area.area,
            metrics.total_shields,
        )
    return row


def check_outcome(outcome, expected: Dict[str, int], reference: Optional[QualityRow]) -> List[str]:
    """Every output check of one compare; returns the failures."""
    problems = []
    for name in ("isino", "gsino"):
        invalid = sum(1 for panel in outcome.results[name].panels.values() if not panel.is_valid())
        if invalid:
            problems.append(f"{name}: {invalid} invalid panel(s)")
    row = quality_of(outcome)
    violations = [row[name][0] for name in FLOWS]
    if not violations[2] <= violations[1] <= violations[0]:
        problems.append(f"violations not GSINO <= iSINO <= ID+NO: {violations}")
    counts = outcome.runner.outcome_counts()
    if counts != expected:
        problems.append(f"stage outcomes {counts}, expected {expected}")
    if reference is not None and row != reference:
        problems.append("warm Table 1-3 numbers differ from the cold run's")
    return problems


def _overhead_pct(row: QualityRow, flow: str, column: int) -> float:
    return 100.0 * (row[flow][column] / row["id_no"][column] - 1.0)


def quality_metrics(rows: Sequence[QualityRow]) -> Dict[str, float]:
    """Table 1-3 quality, averaged over the compared instances."""

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    return {
        "quality.id_no_violations": mean([row["id_no"][0] for row in rows]),
        "quality.isino_violations": mean([row["isino"][0] for row in rows]),
        "quality.gsino_violations": mean([row["gsino"][0] for row in rows]),
        "quality.isino_area_overhead_pct": mean([_overhead_pct(row, "isino", 2) for row in rows]),
        "quality.gsino_area_overhead_pct": mean([_overhead_pct(row, "gsino", 2) for row in rows]),
        "quality.gsino_wl_overhead_pct": mean([_overhead_pct(row, "gsino", 1) for row in rows]),
    }


def quality_ratios(rows: Sequence[QualityRow]) -> Dict[str, float]:
    """Table 2/3 quality as ratios to ID+NO, each flow's total over all
    instances divided by ID+NO's (0 when there are no instances)."""

    def ratio(flow: str, column: int) -> float:
        baseline = sum(row["id_no"][column] for row in rows)
        return sum(row[flow][column] for row in rows) / baseline if baseline else 0.0

    return {
        "gsino_area_ratio": ratio("gsino", 2),
        "isino_area_ratio": ratio("isino", 2),
        "gsino_wl_ratio": ratio("gsino", 1),
    }


def _store_bytes(store_dir: Path) -> int:
    from repro.service.store import ResultStore

    return ResultStore(store_dir).disk_usage()[1]


class CompareWorkload:
    """One compare-cold or compare-warm run in ``workdir``."""

    def __init__(self, warm: bool, seed: int, seconds: float, workdir: Path) -> None:
        self.warm = warm
        self.name = "compare-warm" if warm else "compare-cold"
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tally = Tally()
        self.references: Dict[int, QualityRow] = {}

    def _store_dir(self, index: int, instance: int) -> Path:
        # Warm compares reuse their instance's filled store; cold ones get
        # a fresh directory each time.
        return self.workdir / (f"warm-{instance}" if self.warm else f"cold-{index}")

    def _fill(self, instances: List[Instance]) -> None:
        """compare-warm: one untimed cold compare per instance fills its store."""
        for position, instance in enumerate(instances):
            _wall, outcome = compare_once(instance, self._store_dir(0, position))
            self.tally.record(check_outcome(outcome, COLD_OUTCOMES, None))
            self.references[position] = quality_of(outcome)

    def _one(self, index: int, instances: List[Instance], recorder=None):
        position = index % len(instances)
        store_dir = self._store_dir(index, position)
        before = _store_bytes(store_dir) if self.warm else 0
        wall, outcome = compare_once(instances[position], store_dir, recorder)
        expected = WARM_OUTCOMES if self.warm else COLD_OUTCOMES
        self.tally.record(check_outcome(outcome, expected, self.references.get(position)))
        written = _store_bytes(store_dir) - before
        row = quality_of(outcome)
        counts = outcome.runner.outcome_counts()
        del outcome
        if not self.warm:
            shutil.rmtree(store_dir, ignore_errors=True)
        gc.collect()
        return wall, row, counts, written

    def _instances(self) -> Tuple[List[Instance], List[float]]:
        count = WARM_INSTANCES if self.warm else COLD_INSTANCES
        return set_up(derive_seeds(self.seed, count))

    def run(self) -> Dict[str, float]:
        """Timed run: every end-to-end metric."""
        instances, setup_seconds = self._instances()
        setup_s = import_seconds() + median(setup_seconds)
        if self.warm:
            self._fill(instances)
        reset_peak_rss()
        walls: Dict[int, List[float]] = {}
        rows: Dict[int, QualityRow] = {}
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index < len(instances) or time.perf_counter() < deadline:
            position = index % len(instances)
            wall, rows[position], _counts, _written = self._one(index, instances)
            walls.setdefault(position, []).append(wall)
            index += 1
        # Each instance counts once, however many times the deadline let
        # it be compared: the median over instances of each one's median.
        metrics = {
            "setup_s": setup_s,
            "latency_p50_s": median(median(times) for times in walls.values()),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics.update(quality_ratios(list(rows.values())))
        return metrics

    def run_traced(self, trace_path: Path) -> Dict[str, float]:
        """Traced run: alternate untraced and traced compares, then fold the
        spans into every per-layer metric."""
        recorder = SpanRecorder(run_id=f"{self.name}-{self.seed}")
        probes = compare_probes()
        blocks = []
        with instrument(probes, recorder) as wrapped:
            instances, _setup_seconds = self._instances()
        blocks.append(wrapped)
        if self.warm:
            self._fill(instances)
        untraced, traced, rows, counts, written = [], [], [], [], []
        deadline = time.perf_counter() + self.seconds
        index = 0
        while not traced or time.perf_counter() < deadline:
            untraced.append(self._one(index, instances)[0])
            with instrument(probes, recorder) as wrapped:
                wall, row, outcome_counts, bytes_written = self._one(index, instances, recorder)
            blocks.append(wrapped)
            traced.append(wall)
            rows.append(row)
            counts.append(outcome_counts)
            written.append(bytes_written)
            index += 1
        recorder.write(trace_path)
        for wrapped in blocks:
            if not wrapped.restored:
                self.tally.record([f"not restored: {wrapped.not_restored}"])

        metrics = layer_metrics(recorder.spans, len(traced))
        metrics.update(quality_metrics(rows))
        for outcome in ("executed", "restored", "shared"):
            metrics[f"flow.{outcome}"] = sum(c[outcome] for c in counts) / len(counts)
        metrics["store.bytes_written"] = sum(written) / len(written)
        metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(untraced) - 1.0)
        self._report_mapping(recorder, metrics)
        return metrics

    def _report_mapping(self, recorder: SpanRecorder, metrics: Dict[str, float]) -> None:
        """Print the largest self times against the predicted layer mapping."""
        top = largest_self_times(recorder.spans)
        print(f"{self.name}: largest self times " + ", ".join(
            f"{name}={seconds:.3f}s" for name, seconds in top))
        if self.warm:
            holds = top[0][0] == "signature.instance_token"
            router = metrics["router.route_baseline_s"] + metrics["router.route_reserved_s"]
            print(f"  predicted: instance_token largest -> {holds}; "
                  f"router {router:.4f}s per compare")
        else:
            names = {name for name, _seconds in top[:2]}
            holds = names == {"sino.solve", "phase3.run"}
            print(f"  predicted: sino.solve and phase3.run the two largest -> {holds}")
        for layer, (metric, where) in LAYER_MOVES.items():
            print(f"  layer {layer}: moves {metric} on {where}")
