"""gateway-open: an open-loop job stream through ``repro gateway`` and one worker.

The service runs as users run it: ``repro gateway`` and ``repro serve
--workers 1`` as separate processes on a fresh root, default settings
except the port.  Set-up is process launch until ``/healthz`` answers and
the worker heartbeat is fresh, repeated ``LAUNCHES`` times on fresh roots
(the last launch serves the load).  The load is :mod:`openloop`'s seeded
stream at ``RATE`` jobs per second, under half of what one worker
completes on this job mix; job latency runs from each job's due time to
the ``finished_at`` of its record, read back through ``GET /v1/jobs/<id>``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from compare_workloads import FLOWS, quality_metrics, quality_ratios
from layers import zero_metrics
from measure import Tally, median, peak_rss_mb, schedule_lateness, tail_percentile
from openloop import OpenLoopClient, Request, build_schedule
from spans import Span, SpanRecorder

#: Jobs per second offered.  One worker was busy 58% of the time at 1.75
#: jobs/s of this mix on a 2-vCPU VM, a capacity of about 3 jobs/s.  At
#: 1.25 jobs/s (about 42% busy) a seed whose schedule bunched the slow
#: jobs raised the median job latency by a third, so the rate is a third
#: of capacity.
RATE = 1.0
LAUNCHES = 3
READY_TIMEOUT = 60.0
#: How long admitted jobs may take to finish after the last submission.
DRAIN_TIMEOUT = 60.0
HOST = "127.0.0.1"


class Service:
    """A running gateway + one-worker cluster over one root."""

    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True)
        command = [sys.executable, "-m", "repro.cli"]
        quiet = {"stdout": subprocess.DEVNULL, "start_new_session": True}
        self.serve = subprocess.Popen(
            command + ["serve", "--root", str(root), "--workers", "1"], **quiet
        )
        self.gateway = subprocess.Popen(
            command + ["gateway", "--root", str(root), "--port", "0"], **quiet
        )
        self.port = 0

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers and the worker heartbeat is fresh."""
        from repro.service.cluster import read_worker_heartbeats, worker_is_alive

        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            for process in (self.serve, self.gateway):
                if process.poll() is not None:
                    raise RuntimeError(f"service process exited with {process.returncode}")
            if not self.port:
                self.port = self._heartbeat_port()
            workers = read_worker_heartbeats(self.root).values()
            if self.port and any(worker_is_alive(beat) for beat in workers):
                if self.get("/healthz")[0] == 200:
                    return
            time.sleep(0.02)
        raise RuntimeError("service not ready in time")

    def _heartbeat_port(self) -> int:
        try:
            beat = json.loads((self.root / "gateway.json").read_text())
        except (OSError, ValueError):
            return 0
        return 0 if beat.get("stopped") else int(beat.get("port") or 0)

    def get(self, path: str):
        connection = http.client.HTTPConnection(HOST, self.port, timeout=10.0)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        except (OSError, http.client.HTTPException, ValueError):
            return 0, None
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the gateway, the supervisor and its worker."""
        from repro.service.cluster import read_worker_heartbeats

        pids = [str(self.gateway.pid), str(self.serve.pid)]
        pids += [str(beat["pid"]) for beat in read_worker_heartbeats(self.root).values()]
        return sum(peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM both; kill their whole sessions if they do not exit."""
        for process in (self.gateway, self.serve):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in (self.gateway, self.serve):
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                pass
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except OSError:
                pass
            process.wait()


def _execution(record: dict) -> dict:
    executions = record.get("executions") or [{}]
    return executions[-1]


def _served_from_store(result: dict) -> bool:
    if "stages" in result:
        return result["stages"].get("executed", 1) == 0
    return result.get("cache", {}).get("misses", 1) == 0


class GatewayWorkload:
    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tally = Tally()

    def run(self) -> Dict[str, float]:
        session = self._session()
        metrics = {
            "setup_s": session["setup_s"],
            "latency_p50_s": median(session["latency"].values()),
            "peak_rss_mb": session["peak_rss_mb"],
        }
        metrics.update(quality_ratios(session["flow_rows"]))
        return metrics

    def run_traced(self, trace_path: Path) -> Dict[str, float]:
        """The same session, reported per layer from the job records."""
        session = self._session()
        requests: List[Request] = session["requests"]
        records: Dict[str, dict] = session["records"]
        due = session["due_wall"]
        metrics = zero_metrics()
        if session["flow_rows"]:
            metrics.update(quality_metrics(session["flow_rows"]))

        latencies = list(session["latency"].values())
        tail = tail_percentile(latencies)
        if tail is not None:
            metrics["loadgen.job_latency_tail_pct"] = float(tail[0])
            metrics["loadgen.job_latency_tail_s"] = tail[1]
        metrics["loadgen.job_latency_samples"] = float(len(latencies))
        metrics["loadgen.lag_s_max"] = max(
            schedule_lateness([r.due for r in requests], [r.sent for r in requests]), default=0.0
        )
        metrics["loadgen.submit_latency_p50_s"] = median(
            r.answered - r.due for r in requests if r.status == 202
        )

        waits, overheads, executions, from_store, lags = [], [], [], [], []
        runs = {"flow": [], "panels": []}
        runtimes = {"flow": [], "panels": []}
        for job_id, record in records.items():
            execution = _execution(record)
            result = record.get("result") or {}
            kind = "flow" if "flows" in result else "panels"
            claimed, finished = execution.get("claimed_at", 0.0), execution.get("finished_at", 0.0)
            waits.append(claimed - record["created_at"])
            runs[kind].append(finished - claimed)
            runtimes[kind].append(result.get("runtime_seconds", 0.0))
            overheads.append(finished - claimed - result.get("runtime_seconds", 0.0))
            executions.append(len(record.get("executions") or []))
            from_store.append(_served_from_store(result))
            lags.append(record["created_at"] - due[job_id])
        tail = tail_percentile(waits)
        metrics.update({
            "cluster.queue_wait_s_p50": median(waits),
            "cluster.queue_wait_s_tail": tail[1] if tail else max(waits, default=0.0),
            "cluster.run_s_p50_flow": median(runs["flow"]),
            "cluster.run_s_p50_panels": median(runs["panels"]),
            "scheduler.runtime_s_p50_flow": median(runtimes["flow"]),
            "scheduler.runtime_s_p50_panels": median(runtimes["panels"]),
            "cluster.claim_overhead_s": median(overheads),
            "cluster.executions_per_job": sum(executions) / max(len(executions), 1),
            "cluster.utilization": sum(map(sum, runs.values())) / (self.seconds or 1.0),
            "store.hit_ratio": sum(from_store) / max(len(from_store), 1),
            "gateway.admit_lag_s_p50": median(lags),
            "gateway.submit_s_p50": median(session["admit_latency"]),
        })
        counters = session["counters"]
        metrics["gateway.jobs_per_batch"] = counters.get("gateway.admitted", 0) / max(
            counters.get("gateway.batches", 0), 1
        )
        metrics["gateway.rejected"] = float(
            counters.get("gateway.rejected.rate", 0) + counters.get("gateway.rejected.queue", 0)
        )
        self._write_spans(trace_path, requests, records, due)
        return metrics

    # -- one session ----------------------------------------------------------------

    def _session(self) -> dict:
        setups = []
        for launch in range(LAUNCHES):
            start = time.perf_counter()
            service = Service(self.workdir / f"root-{launch}")
            try:
                service.wait_ready()
                setups.append(time.perf_counter() - start)
                if launch == LAUNCHES - 1:
                    session = self._load(service)
            finally:
                service.stop()
        session["setup_s"] = median(setups)
        return session

    def _load(self, service: Service) -> dict:
        from repro.obs.events import read_events

        requests = build_schedule(self.seed, RATE, self.seconds)
        wall_zero = OpenLoopClient(HOST, service.port).run(requests)
        due_wall = {r.job_id: wall_zero + r.due for r in requests if r.job_id}
        records = self._drain(service, [r for r in requests if r.status == 202])
        counters = (service.get("/healthz")[1] or {}).get("counters", {})
        peak = service.peak_rss_mb()

        latency, flow_rows = {}, {}
        for request in requests:
            record = records.get(request.job_id)
            problems = []
            if request.status != 202:
                problems.append(f"request {request.index} answered {request.status}")
            elif record is None or record.get("status") != "done":
                problems.append(f"job {request.job_id} ended {record and record.get('status')}")
            elif len(record.get("executions") or []) != 1:
                problems.append(f"job {request.job_id} executed {len(record['executions'])} times")
            flows = None if problems else (record.get("result") or {}).get("flows")
            if flows:
                violations = [flows[name]["violations"] for name in FLOWS]
                if not violations[2] <= violations[1] <= violations[0]:
                    problems.append(f"job {request.job_id}: violations not GSINO <= iSINO "
                                    f"<= ID+NO: {violations}")
            self.tally.record(problems)
            if problems:
                continue
            latency[request.job_id] = _execution(record)["finished_at"] - due_wall[request.job_id]
            if flows:
                key = json.dumps(request.payload, sort_keys=True)
                flow_rows[key] = {
                    name: (row["violations"], row["average_wirelength_um"],
                           row["routing_area_um2"], row["shields"])
                    for name, row in flows.items()
                }
        if not flow_rows:
            self.tally.record(["no flow-compare job finished: no Table 2/3 ratios"])
        admitted = {r.job_id for r in requests if r.job_id}
        admit_latency = [
            event["latency"] for event in read_events(service.root, event="gateway-admitted")
            if event.get("job") in admitted
        ]
        return {
            "requests": requests,
            "records": {job: records[job] for job in latency},
            "due_wall": due_wall,
            "latency": latency,
            "flow_rows": list(flow_rows.values()),
            "counters": counters,
            "admit_latency": admit_latency,
            "peak_rss_mb": peak,
        }

    def _drain(self, service: Service, admitted: List[Request]) -> Dict[str, dict]:
        """Poll every admitted job until it is terminal or the drain times out."""
        records: Dict[str, dict] = {}
        pending = [r.job_id for r in admitted]
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while pending and time.monotonic() < deadline:
            still = []
            for job_id in pending:
                status, record = service.get(f"/v1/jobs/{job_id}")
                if status == 200 and record.get("terminal"):
                    records[job_id] = record
                else:
                    still.append(job_id)
            pending = still
            if pending:
                time.sleep(0.2)
        return records

    def _write_spans(self, path: Path, requests, records, due) -> None:
        """Per job: a ``job`` span (due to finished) over ``submit``,
        ``queue`` and ``run`` spans, on the wall clock."""
        recorder = SpanRecorder(run_id=f"gateway-open-{self.seed}")
        for request in requests:
            record = records.get(request.job_id)
            if record is None:
                continue
            execution = _execution(record)
            start = due[request.job_id]
            parent = len(recorder.spans)
            job = Span("job", start, execution["finished_at"], None, recorder.run_id)
            recorder.spans.append(job)
            for name, begin, end in (
                ("submit", start, start + request.answered - request.due),
                ("queue", record["created_at"], execution["claimed_at"]),
                ("run", execution["claimed_at"], execution["finished_at"]),
            ):
                recorder.spans.append(Span(name, begin, end, parent, recorder.run_id))
        recorder.write(path)
