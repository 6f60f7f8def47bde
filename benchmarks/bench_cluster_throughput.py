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

The sharded-vs-flat comparison (``test_sharded_beats_flat_at_high_submit_rate``)
drives the same fleet size over a wide burst of cheap ``smoke`` jobs — where
spool-scan and claim contention, not solve time, dominate — once over a flat
spool and once over a 4-shard spool, and requires the sharded throughput to
reach ``REPRO_BENCH_MIN_SHARD_RATIO``x (default 1.0x) the flat throughput:
sharding must never cost throughput, and on wide bursts it should win.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.service import ClusterConfig, ClusterSupervisor, run_loadgen

#: Minimum 3-worker-over-1-worker throughput ratio (relaxable in CI, same
#: pattern as the other harness knobs).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_CLUSTER_SPEEDUP", "1.8"))

#: Burst size; a multiple of 3 so a perfectly balanced fleet has no remainder.
BURST_JOBS = int(os.environ.get("REPRO_BENCH_CLUSTER_JOBS", "9"))

#: Minimum sharded-over-flat throughput ratio (sharding must not regress).
MIN_SHARD_RATIO = float(os.environ.get("REPRO_BENCH_MIN_SHARD_RATIO", "1.0"))

#: Burst size of the sharded-vs-flat comparison: wide and cheap, so the
#: spool scan/claim path is what gets measured rather than the solver.
SHARD_BURST_JOBS = int(os.environ.get("REPRO_BENCH_SHARD_JOBS", "24"))

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


def _run_burst(
    root: Path,
    workers: int,
    *,
    shards: int = 1,
    scenario: str = BURST_SCENARIO,
    params: dict | None = None,
    jobs: int = BURST_JOBS,
):
    """Drive one cache-cold burst through a supervised fleet; return report."""
    supervisor = ClusterSupervisor(
        ClusterConfig(
            root=root, workers=workers, shards=shards, poll_interval=0.05, lease_ttl=10.0
        )
    )
    supervisor.start()
    try:
        assert supervisor.wait_alive(timeout=60.0), "fleet failed to come up"
        report = run_loadgen(
            root,
            scenario,
            jobs=jobs,
            params=dict(params if params is not None else BURST_PARAMS),
            timeout=600.0,
            poll=0.05,
        )
    finally:
        supervisor.stop()
    assert report.done == jobs, report.to_dict()
    # ``rglob`` covers both the flat layout (jobs/*.json) and the sharded
    # one (jobs/sNN/*.json) without caring which this root uses.
    records = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((root / "jobs").rglob("*.json"))
    ]
    assert len(records) == jobs
    # Exactly-once: every job has a single execution entry, and a cold
    # store means every one was actually solved (no cross-run warm start).
    assert all(len(record["executions"]) == 1 for record in records), "double execution"
    if scenario == BURST_SCENARIO:
        assert all(
            record["result"]["cache"]["misses"] > 0 for record in records
        ), "burst not cold"
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


@pytest.mark.skipif(
    _usable_cpus() < 3,
    reason="sharded-vs-flat comparison needs >= 3 usable cores (the fleets "
    "must actually run concurrently for spool contention to show up)",
)
def test_sharded_beats_flat_at_high_submit_rate(benchmark, tmp_path):
    """A 4-shard spool sustains >= flat throughput on a wide cheap burst."""
    flat = _run_burst(
        tmp_path / "flat",
        workers=3,
        scenario="smoke",
        params={},
        jobs=SHARD_BURST_JOBS,
    )

    sharded = benchmark.pedantic(
        lambda: _run_burst(
            tmp_path / "sharded",
            workers=3,
            shards=4,
            scenario="smoke",
            params={},
            jobs=SHARD_BURST_JOBS,
        ),
        rounds=1,
        iterations=1,
    )

    ratio = sharded.throughput / flat.throughput
    benchmark.extra_info["flat"] = flat.to_dict()
    benchmark.extra_info["sharded"] = sharded.to_dict()
    benchmark.extra_info["shard_ratio"] = round(ratio, 2)

    assert ratio >= MIN_SHARD_RATIO, (
        f"sharded throughput {sharded.throughput:.2f} jobs/s is only "
        f"{ratio:.2f}x the flat spool's {flat.throughput:.2f} jobs/s "
        f"(need >= {MIN_SHARD_RATIO}x)"
    )
