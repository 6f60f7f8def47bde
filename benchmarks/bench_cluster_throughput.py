"""Experiment C1 — cluster throughput: jobs/second as a function of workers.

The cluster layer's claim is that service throughput scales with worker
count instead of being a single-worker constant.  Measured here on a
cache-cold burst of annealed ``dense-bus`` scenario jobs (every job a
distinct derived seed, every fleet a fresh store, so nothing is served
from cache): the same burst is driven through a supervised 1-worker fleet
and a 3-worker fleet over their own spools, and the 3-worker throughput
must be at least ``REPRO_BENCH_MIN_CLUSTER_SPEEDUP``x (default 1.8x) the
single-worker throughput.  Exactly-once execution is asserted structurally
from the per-job ``executions`` audit trail on both runs.

Workers are real OS processes (the same plain ``repro serve`` lone-worker
path an operator runs), started and confirmed alive *before* the burst is
submitted, so process start-up cost never pollutes the throughput ratio.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.service.cluster import ClusterConfig, ClusterSupervisor, WorkerConfig, run_loadgen

#: Minimum 3-worker-over-1-worker throughput ratio (relaxable in CI, same
#: pattern as the other harness knobs).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_CLUSTER_SPEEDUP", "1.8"))

#: Burst size; a multiple of 3 so a perfectly balanced fleet has no remainder.
BURST_JOBS = int(os.environ.get("REPRO_BENCH_CLUSTER_JOBS", "9"))

#: Scenario of the burst: annealed bus panels, widened to ~0.4-0.5 s of
#: solve per job — heavy enough that claiming overhead is noise, small
#: enough for CI.
BURST_SCENARIO = "dense-bus"
BURST_PARAMS = {"panels": 12}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def _run_burst(root: Path, workers: int):
    """Drive one cache-cold burst through a supervised fleet; return report."""
    supervisor = ClusterSupervisor(
        ClusterConfig(WorkerConfig(root=root, poll_interval=0.05, lease_ttl=10.0), workers=workers)
    )
    supervisor.start()
    try:
        assert supervisor.wait_alive(timeout=60.0), "fleet failed to come up"
        report = run_loadgen(
            root,
            BURST_SCENARIO,
            jobs=BURST_JOBS,
            params=BURST_PARAMS,
            timeout=600.0,
            poll=0.05,
        )
    finally:
        supervisor.stop()
    assert report.done == BURST_JOBS, report.to_dict()
    records = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((root / "jobs").glob("*.json"))
    ]
    assert len(records) == BURST_JOBS
    # Exactly-once: every job has a single execution entry, and a cold
    # store means every one was actually solved (no cross-run warm start).
    assert all(len(record["executions"]) == 1 for record in records), "double execution"
    assert all(record["result"]["cache"]["misses"] > 0 for record in records), "burst not cold"
    return report


@pytest.mark.skipif(
    _usable_cpus() < 3,
    reason="cluster scaling needs >= 3 usable cores (CPU-bound workers "
    "cannot outrun each other on a shared core)",
)
def test_cluster_throughput_scales_with_workers(benchmark, tmp_path):
    """3 workers sustain >= 1.8x the job throughput of 1 on a cold burst."""
    single = _run_burst(tmp_path / "one", workers=1)

    triple = benchmark.pedantic(
        lambda: _run_burst(tmp_path / "three", workers=3), rounds=1, iterations=1
    )

    speedup = triple.throughput / single.throughput
    benchmark.extra_info["single_worker"] = single.to_dict()
    benchmark.extra_info["three_workers"] = triple.to_dict()
    benchmark.extra_info["speedup"] = round(speedup, 2)

    assert speedup >= MIN_SPEEDUP, (
        f"3-worker throughput {triple.throughput:.2f} jobs/s is only "
        f"{speedup:.2f}x the single worker's {single.throughput:.2f} jobs/s "
        f"(need >= {MIN_SPEEDUP}x)"
    )

