"""Experiment G1 — gateway submit throughput/latency over live HTTP.

The claim is that the gateway's group commit amortizes the spool's
atomic-rename hot path across a concurrent burst: submissions that queue
while one spool write is in flight go out together in the next, so N
clients submitting simultaneously cost one layout read and one executor
hop per *batch* instead of per job, and batched submission sustains at
least the throughput of a gateway forced to write one job per batch.

Both benchmarks drive a real in-process gateway (bound to an ephemeral
port) through :func:`repro.service.gateway.loadgen.run_http_loadgen` — the same
concurrent stdlib clients ``repro loadgen --http`` uses — so the medians
seeded into ``benchmarks/baseline.json`` gate the code path remote users
actually hit.  Rate limits are set far above the burst: this experiment
measures the write path, not the 429 path (the smoke job covers that).

Each variant runs ``ATTEMPTS`` times and keeps its best wall-clock to
damp scheduler noise; the batched/unbatched comparison is a ratio of two
runs on the same host, so machine speed cancels.  A structural check
asserts exactly-once spool delivery before any timing claim counts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.service.gateway.loadgen import run_http_loadgen
from repro.service.gateway.server import GatewayConfig, GatewayRunner

#: Jobs per burst and concurrent clients driving it.
JOBS = int(os.environ.get("REPRO_BENCH_GATEWAY_JOBS", "48"))
CLIENTS = int(os.environ.get("REPRO_BENCH_GATEWAY_CLIENTS", "4"))

#: Minimum batched-over-unbatched admit-throughput ratio.
MIN_BATCH_RATIO = float(os.environ.get("REPRO_BENCH_MIN_GATEWAY_BATCH_RATIO", "1.0"))

#: Wall-clock attempts per variant; the best one counts.
ATTEMPTS = int(os.environ.get("REPRO_BENCH_GATEWAY_ATTEMPTS", "2"))


def _gateway_config(root: Path, **overrides) -> GatewayConfig:
    # batch_max matches the in-flight concurrency: each keep-alive client
    # has one request outstanding, so no batch can hold more than CLIENTS.
    defaults = dict(
        root=root,
        port=0,
        rate=1_000_000.0,
        burst=1_000_000.0,
        queue_depth=max(256, JOBS * 2),
        batch_max=CLIENTS,
        heartbeat_interval=60.0,  # keep heartbeat I/O out of the measurement
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def _run_burst(root: Path, label: str, **overrides):
    """One gateway lifetime serving one burst; returns the loadgen report."""
    runner = GatewayRunner(_gateway_config(root, **overrides)).start()
    try:
        report = run_http_loadgen(
            runner.url, scenario="smoke", jobs=JOBS, clients=CLIENTS, wait=False, timeout=300.0
        )
    finally:
        runner.stop()
    assert report.errors == 0, f"{label}: {report.errors} client errors"
    assert report.rejected_429 == 0, f"{label}: unexpected rate limiting"
    assert report.admitted == JOBS, f"{label}: {report.admitted}/{JOBS} admitted"
    # Exactly-once: every admitted id is a spool record, no extras, no dups.
    records = sorted(path.stem for path in (root / "jobs").glob("*.json"))
    assert records == sorted(report.job_ids), f"{label}: spool/admission mismatch"
    return report


def _best_burst(base: Path, label: str, **overrides):
    """Best-of-ATTEMPTS burst (fresh root each), by admit throughput."""
    best = None
    for attempt in range(ATTEMPTS):
        root = base / f"{label}-{attempt}"
        report = _run_burst(root, label, **overrides)
        if best is None or report.submit_rate > best.submit_rate:
            best = report
    return best


def test_gateway_submit_latency(benchmark, tmp_path):
    """Submit p50/p99 and throughput of a batched concurrent burst.

    The benchmark median (the burst's wall-clock) is what
    ``check_regression.py`` gates; the client-observed latency
    percentiles ride along in ``extra_info`` so ``BENCH_gateway.json``
    carries the numbers the ISSUE asks for.
    """
    reports = []

    def burst() -> None:
        root = tmp_path / f"run-{len(reports)}"
        reports.append(_run_burst(root, "batched"))

    benchmark.pedantic(burst, rounds=1, iterations=1)
    report = reports[-1]
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["submit_p50_ms"] = round((report.submit_percentile(0.50) or 0) * 1e3, 3)
    benchmark.extra_info["submit_p90_ms"] = round((report.submit_percentile(0.90) or 0) * 1e3, 3)
    benchmark.extra_info["submit_p99_ms"] = round((report.submit_percentile(0.99) or 0) * 1e3, 3)
    benchmark.extra_info["admits_per_s"] = round(report.submit_rate, 2)
    benchmark.extra_info["rejected_429"] = report.rejected_429
    assert report.submit_percentile(0.99) is not None


def test_batched_submit_beats_unbatched(benchmark, tmp_path):
    """Group commit must not lose to one-spool-write-per-job.

    ``batch_max=1`` forces every admission through its own executor hop,
    layout read and rename; group commit amortizes those across up to
    ``CLIENTS`` jobs.  Host speed cancels in the ratio.
    """
    unbatched = _best_burst(tmp_path, "unbatched", batch_max=1)

    batched_reports = []

    def batched_burst() -> None:
        batched_reports.append(
            _best_burst(tmp_path / f"batched-{len(batched_reports)}", "batched")
        )

    benchmark.pedantic(batched_burst, rounds=1, iterations=1)
    batched = batched_reports[-1]
    ratio = batched.submit_rate / max(unbatched.submit_rate, 1e-9)
    benchmark.extra_info["batched_admits_per_s"] = round(batched.submit_rate, 2)
    benchmark.extra_info["unbatched_admits_per_s"] = round(unbatched.submit_rate, 2)
    benchmark.extra_info["batch_ratio"] = round(ratio, 3)
    assert ratio >= MIN_BATCH_RATIO, (
        f"batched admission {batched.submit_rate:.1f} jobs/s is below "
        f"{MIN_BATCH_RATIO}x the unbatched {unbatched.submit_rate:.1f} jobs/s"
    )


def test_submit_latency_report_is_json_serialisable(tmp_path):
    """The loadgen report must round-trip into BENCH_*.json artifacts."""
    report = _run_burst(tmp_path / "serialise", "serialise")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["admitted"] == JOBS
    assert payload["submit_p50"] > 0.0
    assert payload["submit_p99"] >= payload["submit_p50"]
