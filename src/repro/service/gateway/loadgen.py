"""HTTP load generator: N concurrent stdlib clients against a live gateway.

``repro loadgen --http URL`` drives the gateway the way remote users
will — concurrent keep-alive connections, distinct ``X-Repro-Client``
identities, polite 429 handling (sleep for ``Retry-After``, retry) — and
reports what the spool-level loadgen reports for local bursts: submit
latency percentiles, admission counts, and observed rejections.  The
same entry point backs ``benchmarks/bench_gateway.py``, so the CI
regression gate and the smoke job measure identical client behaviour.

Stdlib-only by design (``http.client`` + threads): the load generator
must run anywhere the gateway does, including the CI runner that just
pip-installed nothing but the package itself.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional
from urllib.parse import urlsplit

from repro.obs.metrics import nearest_rank
from repro.service.spool import TERMINAL_STATUSES, burst_requests


@dataclass
class HttpLoadgenReport:
    """What a ``loadgen --http`` burst saw, from the clients' side of the wire."""

    url: str
    scenario: str
    clients: int
    attempted: int = 0
    admitted: int = 0
    rejected_429: int = 0
    errors: int = 0
    retry_after_max: float = 0.0
    wall_seconds: float = 0.0
    waited: bool = False
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    timed_out: int = 0
    job_ids: List[str] = field(default_factory=list)
    submit_latencies: List[float] = field(default_factory=list)

    def submit_percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile of per-request submit latency (seconds)."""
        return nearest_rank(self.submit_latencies, fraction)

    @property
    def submit_rate(self) -> float:
        """Admitted submissions per wall-clock second."""
        return self.admitted / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "url": self.url,
            "scenario": self.scenario,
            "clients": self.clients,
            "attempted": self.attempted,
            "admitted": self.admitted,
            "rejected_429": self.rejected_429,
            "errors": self.errors,
            "retry_after_max": round(self.retry_after_max, 3),
            "wall_seconds": round(self.wall_seconds, 6),
            "submit_rate": round(self.submit_rate, 3),
            "submit_p50": self.submit_percentile(0.50),
            "submit_p90": self.submit_percentile(0.90),
            "submit_p99": self.submit_percentile(0.99),
            "waited": self.waited,
            "done": self.done,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timed_out": self.timed_out,
        }


class _Client(threading.Thread):
    """One keep-alive HTTP client submitting its slice of the burst."""

    def __init__(
        self,
        index: int,
        url: str,
        scenario: str,
        payloads: List[Dict[str, object]],
        deadline: float,
        retry_429: bool,
        client_prefix: str,
    ) -> None:
        super().__init__(name=f"http-loadgen-{index}", daemon=True)
        self.client_id = f"{client_prefix}-{index}"
        self.url = url
        self.scenario = scenario
        self.payloads = payloads
        self.deadline = deadline
        self.retry_429 = retry_429
        self.admitted: List[str] = []
        self.latencies: List[float] = []
        self.rejected_429 = 0
        self.errors = 0
        self.retry_after_max = 0.0

    def run(self) -> None:
        connection = _connect(self.url)
        try:
            for payload in self.payloads:
                self._submit_one(connection, payload)
        finally:
            connection.close()

    def _submit_one(self, connection: http.client.HTTPConnection, payload: Dict[str, object]):
        body = json.dumps(payload)
        while True:
            started = time.monotonic()
            try:
                connection.request(
                    "POST",
                    "/v1/jobs",
                    body=body,
                    headers={
                        "Content-Type": "application/json",
                        "X-Repro-Client": self.client_id,
                    },
                )
                response = connection.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException):
                self.errors += 1
                connection.close()  # reconnect lazily on the next request
                return
            if response.status == 202:
                self.latencies.append(time.monotonic() - started)
                try:
                    self.admitted.append(json.loads(data)["job_id"])
                except (json.JSONDecodeError, KeyError, TypeError):
                    self.errors += 1
                return
            if response.status == 429:
                self.rejected_429 += 1
                retry_after = float(response.getheader("Retry-After") or 1.0)
                self.retry_after_max = max(self.retry_after_max, retry_after)
                if not self.retry_429 or time.monotonic() + retry_after > self.deadline:
                    return
                time.sleep(retry_after)
                continue
            self.errors += 1
            return


def _connect(url: str) -> http.client.HTTPConnection:
    parts = urlsplit(url)
    if parts.scheme not in ("http", ""):
        raise ValueError(f"loadgen --http supports http:// URLs only, got {url!r}")
    host = parts.hostname or "127.0.0.1"
    return http.client.HTTPConnection(host, parts.port or 80, timeout=30.0)


def run_http_loadgen(
    url: str,
    scenario: str = "smoke",
    jobs: int = 8,
    clients: int = 4,
    params: Optional[Dict[str, object]] = None,
    priority: int = 0,
    max_attempts: int = 2,
    wait: bool = False,
    timeout: float = 120.0,
    retry_429: bool = True,
    client_prefix: str = "loadgen",
) -> HttpLoadgenReport:
    """Submit ``jobs`` jobs through ``clients`` concurrent HTTP clients.

    Each client carries a distinct ``X-Repro-Client`` identity, so the
    gateway's per-client buckets see ``clients`` independent budgets —
    exactly what a real multi-tenant burst looks like.  With
    ``retry_429`` (the default) clients honour ``Retry-After`` and
    resubmit until the shared ``timeout`` deadline; with ``wait`` the
    report additionally polls ``GET /v1/jobs/<id>`` until every admitted
    job reaches a terminal status (requires a live worker fleet).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    clients = min(clients, jobs)
    # The spool loadgen's seed-striped burst; the gateway assigns the ids.
    requests = burst_requests(scenario, jobs, params, priority, max_attempts)
    payloads = [asdict(request) for request in requests]
    deadline = time.monotonic() + timeout
    slices: List[List[Dict[str, object]]] = [payloads[i::clients] for i in range(clients)]
    workers = [
        _Client(index, url, scenario, slice_, deadline, retry_429, client_prefix)
        for index, slice_ in enumerate(slices)
    ]
    started = time.monotonic()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=max(0.0, deadline - time.monotonic()) + 5.0)
    report = HttpLoadgenReport(url=url, scenario=scenario, clients=clients, attempted=jobs)
    for worker in workers:
        report.admitted += len(worker.admitted)
        report.job_ids.extend(worker.admitted)
        report.submit_latencies.extend(worker.latencies)
        report.rejected_429 += worker.rejected_429
        report.errors += worker.errors
        report.retry_after_max = max(report.retry_after_max, worker.retry_after_max)
    report.wall_seconds = time.monotonic() - started
    if wait:
        report.waited = True
        _wait_for_completion(report, deadline)
    return report


def _wait_for_completion(report: HttpLoadgenReport, deadline: float) -> None:
    """Poll job statuses over HTTP until every admitted job is terminal."""
    connection = _connect(report.url)
    pending = set(report.job_ids)
    tallies = {"done": 0, "failed": 0, "cancelled": 0}
    try:
        while pending and time.monotonic() < deadline:
            for job_id in sorted(pending):
                status = _poll_status(connection, job_id)
                if status in TERMINAL_STATUSES:
                    tallies[status] += 1
                    pending.discard(job_id)
            if pending:
                time.sleep(0.25)
    finally:
        connection.close()
    report.done = tallies["done"]
    report.failed = tallies["failed"]
    report.cancelled = tallies["cancelled"]
    report.timed_out = len(pending)


def _poll_status(connection: http.client.HTTPConnection, job_id: str) -> Optional[str]:
    try:
        connection.request("GET", f"/v1/jobs/{job_id}")
        response = connection.getresponse()
        data = response.read()
        if response.status != 200:
            return None
        status = json.loads(data).get("status")
        return status if isinstance(status, str) else None
    except (OSError, http.client.HTTPException, json.JSONDecodeError):
        connection.close()
        return None


def _format_ms(seconds: Optional[float]) -> str:
    return "n/a" if seconds is None else f"{seconds * 1000.0:.1f}ms"


def format_http_loadgen_report(report: HttpLoadgenReport) -> List[str]:
    """Human-readable (and CI-greppable) lines for one HTTP burst."""
    lines = []
    if report.waited:
        lines.append(
            f"http loadgen: {report.done} done, {report.failed} failed, "
            f"{report.cancelled} cancelled of {report.admitted} admitted"
        )
    else:
        lines.append(
            f"http loadgen: {report.admitted} admitted of {report.attempted} attempted "
            f"(submit only)"
        )
    lines.append(
        f"  submit: {report.admitted}/{report.attempted} in {report.wall_seconds:.2f}s "
        f"({report.submit_rate:.1f} admits/s) over {report.clients} client(s)"
    )
    if report.rejected_429:
        lines.append(
            f"  429 rejected: {report.rejected_429} "
            f"(max Retry-After {report.retry_after_max:.0f}s)"
        )
    else:
        lines.append("  429 rejected: 0")
    lines.append(
        "  submit latency"
        f" p50={_format_ms(report.submit_percentile(0.50))}"
        f" p90={_format_ms(report.submit_percentile(0.90))}"
        f" p99={_format_ms(report.submit_percentile(0.99))}"
    )
    if report.errors or report.timed_out:
        lines.append(f"  errors: {report.errors}, timed out waiting: {report.timed_out}")
    return lines


__all__ = [
    "HttpLoadgenReport",
    "run_http_loadgen",
    "format_http_loadgen_report",
]
