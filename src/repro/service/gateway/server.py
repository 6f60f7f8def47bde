"""`repro gateway`: the asyncio HTTP/JSON front door to a spool root.

Remote clients submit jobs over plain HTTP instead of writing spool
files, and get pushed back politely when the fleet is saturated::

    POST /v1/jobs                {"scenario": ..., "params": {...}}  -> 202
    GET  /v1/jobs/<id>           spool-record status                 -> 200
    GET  /v1/jobs/<id>/events    chunked JSONL event stream          -> 200
    GET  /healthz                readiness + queue/counter snapshot  -> 200

Admission pipeline for a ``POST /v1/jobs`` (policy classes live in
:mod:`repro.service.gateway.policy`):

1. **Rate limit** — a per-client token bucket (keyed by the
   ``X-Repro-Client`` header, falling back to peer IP).  An empty bucket
   answers ``429`` with ``Retry-After`` equal to the bucket's own
   estimate of when the next token accrues.  Nothing is queued.
2. **Validate** — scenario and params go through the same
   ``scenario_spec(...).with_params`` gate as a local ``repro submit``;
   a bad request is a ``400`` before it costs the spool anything.
3. **Admission queue** — a bounded FIFO between handlers and the
   batch writer.  A full queue is the fleet saturated: ``429`` +
   Retry-After.
4. **Group commit** — one background task writes the queued
   submissions, up to ``batch_max``, with one
   :func:`~repro.service.spool.submit_jobs` call as soon as no spool
   write is in flight.  A lone submission goes out at once; whatever
   queues while a write is in flight goes out together in the next one,
   so a concurrent burst costs one executor hop per batch instead of per
   job without any submission waiting on a timer.  Only after the spool
   write lands does the client get its ``202`` with the job id — an
   accepted submission is durably queued, never in-memory-only.

Everything the front door does is observable: ``gateway-started`` /
``gateway-admitted`` / ``gateway-rejected`` / ``gateway-stopped`` events
in the shared event log, ``gateway.*`` counters/histograms riding
``metrics`` events (merged by ``repro metrics`` like any worker's), and
a ``gateway.json`` heartbeat at the root that gives ``repro status`` its
gateway section.

The server is stdlib-only (``asyncio`` + hand-rolled HTTP/1.1: request
line, headers, Content-Length bodies, keep-alive) — deliberately not a
web framework, for the same reason the spool is files: zero new
dependencies between the paper code and its service tier.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.obs.events import EventCursor, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.service.gateway.policy import AdmissionQueue, TokenBucketTable
from repro.service.scenarios import scenario_spec
from repro.service.spool import (
    TERMINAL_STATUSES,
    Job,
    SubmitRequest,
    gateway_heartbeat_path,
    job_path,
    lease_files,
    load_job,
    refuse_sharded_root,
    submit_jobs,
)
from repro.service.store import atomic_write_text

#: Upper bound on request bodies (a submission is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Bucket edges for the batch-size histogram (jobs per spool write).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass
class GatewayConfig:
    """Tunables for one gateway process (CLI flags map 1:1)."""

    root: Union[str, Path]
    host: str = "127.0.0.1"
    port: int = 8750
    rate: float = 50.0  # tokens/second per client
    burst: float = 100.0  # bucket capacity per client
    queue_depth: int = 256
    batch_max: int = 16  # submissions per spool write
    max_clients: int = 1024
    submit_timeout: float = 30.0  # handler wait for its batch to land
    heartbeat_interval: float = 2.0
    stream_poll: float = 0.2  # event-stream follow cadence
    stream_timeout: float = 300.0

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_max}")


@dataclass
class _Pending:
    """One admitted submission waiting for its batch to hit the spool."""

    request: SubmitRequest
    client: str
    future: "asyncio.Future[Job]"
    received_at: float = field(default_factory=time.monotonic)


class _HttpError(Exception):
    """Raised by handlers to short-circuit into a JSON error response."""

    def __init__(self, status: int, message: str, headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class Gateway:
    """The HTTP front door; bind with :meth:`start`, tear down with :meth:`stop`.

    All coroutine methods run on one event loop.  The only off-loop work
    is the spool write itself (``submit_fn`` in a thread-pool executor,
    because it is blocking file I/O); ``submit_fn`` is injectable so
    tests can wedge a write and observe group commit and queue overflow
    deterministically.
    """

    def __init__(
        self,
        config: GatewayConfig,
        submit_fn: Optional[Callable[..., List[Job]]] = None,
    ) -> None:
        self.config = config
        self.root = Path(config.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.events = EventLog(self.root, writer=f"gateway-{os.getpid()}-{uuid.uuid4().hex[:6]}")
        self.metrics = MetricsRegistry()
        self.buckets = TokenBucketTable(config.rate, config.burst, max_clients=config.max_clients)
        self.queue = AdmissionQueue(config.queue_depth)
        self._submit_fn = submit_fn or submit_jobs
        self._server: Optional[asyncio.base_events.Server] = None
        self._batch_task: Optional["asyncio.Task[None]"] = None
        self._heartbeat_task: Optional["asyncio.Task[None]"] = None
        self._connections: set = set()
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False
        self._started_at = time.time()
        self._emitted_requests = -1.0  # forces one metrics event at stop even when idle
        self.port = config.port

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the batch/heartbeat tasks."""
        refuse_sharded_root(self.root)
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.config.host, port=self.config.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._batch_task = asyncio.create_task(self._batch_loop())
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        self._write_heartbeat(stopped=False)
        self.events.emit(
            "gateway-started",
            host=self.config.host,
            port=self.port,
            rate=self.config.rate,
            burst=self.config.burst,
            queue_depth=self.config.queue_depth,
            batch_max=self.config.batch_max,
        )

    async def stop(self) -> None:
        """Graceful stop: close the socket, flush admitted work, mark stopped.

        Submissions that were admitted (their clients may already be
        waiting on a 202) are flushed to the spool before the final
        heartbeat, so an accepted job is never lost to a shutdown.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._wake is not None:
            self._wake.set()  # let the batch loop observe _stopping and final-flush
        if self._batch_task is not None:
            await self._batch_task
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._emit_metrics()
        self.events.emit(
            "gateway-stopped",
            port=self.port,
            admitted=int(self.metrics.counter("gateway.admitted").value),
            rejected=int(
                self.metrics.counter("gateway.rejected.rate").value
                + self.metrics.counter("gateway.rejected.queue").value
            ),
        )
        self._write_heartbeat(stopped=True)

    # -- batching ----------------------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Group commit: write what queued while the last write ran, until stopped.

        Submissions admitted during a write wait for it, and the next write
        takes them together (up to ``batch_max``); an idle loop sleeps until
        a handler queues one.  After a stop the loop writes out everything
        already admitted before it returns.
        """
        assert self._wake is not None
        while True:
            batch = self.queue.take(self.config.batch_max)
            if batch:
                await self._write_batch(batch)
                continue
            if self._stopping:
                return
            await self._wake.wait()
            self._wake.clear()

    async def _write_batch(self, batch: List[_Pending]) -> None:
        """One spool write for the whole batch; resolve every waiting handler."""
        loop = asyncio.get_running_loop()
        requests = [pending.request for pending in batch]
        started = time.monotonic()
        try:
            jobs = await loop.run_in_executor(
                None, lambda: self._submit_fn(self.root, requests, events=self.events)
            )
        except Exception as exc:  # noqa: BLE001 - any submit failure fails the batch
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(
                        _HttpError(500, f"spool write failed: {exc}")
                    )
            return
        elapsed = time.monotonic() - started
        self.metrics.counter("gateway.batches").inc()
        self.metrics.histogram("gateway.batch.jobs", bounds=BATCH_SIZE_BUCKETS).observe(
            float(len(batch))
        )
        self.metrics.histogram("gateway.submit.seconds").observe(elapsed)
        for pending, job in zip(batch, jobs):
            latency = time.monotonic() - pending.received_at
            self.metrics.counter("gateway.admitted").inc()
            self.metrics.histogram("gateway.admit.seconds").observe(latency)
            self.events.emit(
                "gateway-admitted",
                job=job.job_id,
                client=pending.client,
                batch=len(batch),
                latency=round(latency, 6),
            )
            if not pending.future.done():
                pending.future.set_result(job)
        # Refresh the heartbeat per batch, so `repro status` sees counters
        # move with traffic instead of lagging one heartbeat interval.
        self._write_heartbeat(stopped=False)

    # -- heartbeat / observability -----------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            self._write_heartbeat(stopped=False)
            self._emit_metrics()

    def _emit_metrics(self) -> None:
        """Append a metrics snapshot event, but only when traffic moved."""
        requests = self.metrics.counter("gateway.requests").value
        if requests == self._emitted_requests:
            return
        self._emitted_requests = requests
        self.events.emit("metrics", nonce=self.events.nonce, metrics=self.metrics.snapshot())

    def counters(self) -> Dict[str, int]:
        """Traffic totals for the heartbeat and ``/healthz``."""
        names = (
            "gateway.requests",
            "gateway.admitted",
            "gateway.rejected.rate",
            "gateway.rejected.queue",
            "gateway.batches",
        )
        return {name: int(self.metrics.counter(name).value) for name in names}

    def _write_heartbeat(self, stopped: bool) -> None:
        depth = len(self.queue)
        self.metrics.gauge("gateway.queue.depth").set(depth)
        payload = {
            "pid": os.getpid(),
            "host": self.config.host,
            "port": self.port,
            "started_at": round(self._started_at, 3),
            "updated_at": round(time.time(), 3),
            # heartbeat_is_fresh scales staleness with poll_interval; reuse it.
            "poll_interval": self.config.heartbeat_interval,
            "stopped": stopped,
            "rate": self.config.rate,
            "burst": self.config.burst,
            "queue": {"depth": depth, "capacity": self.queue.capacity},
            "counters": self.counters(),
        }
        atomic_write_text(gateway_heartbeat_path(self.root), json.dumps(payload, indent=2) + "\n")

    # -- connection handling -----------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        peer = writer.get_extra_info("peername")
        peer_ip = peer[0] if isinstance(peer, tuple) else "local"
        try:
            while not self._stopping:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._send_json(
                        writer, exc.status, {"error": exc.message}, {}, exc.headers
                    )
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer, peer_ip)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.CancelledError,
            ConnectionError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; None on clean EOF or idle timeout."""
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=30.0)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _dispatch(
        self,
        request: Tuple[str, str, Dict[str, str], bytes],
        writer: asyncio.StreamWriter,
        peer_ip: str,
    ) -> bool:
        method, target, headers, body = request
        self.metrics.counter("gateway.requests").inc()
        path = urlsplit(target).path
        query = parse_qs(urlsplit(target).query)
        try:
            if path == "/healthz" and method == "GET":
                return await self._send_json(writer, 200, self._health_payload(), headers)
            if path == "/v1/scenarios" and method == "GET":
                from repro.service.scenarios import list_scenarios

                listing = [{"name": name, "description": desc} for name, desc in list_scenarios()]
                return await self._send_json(writer, 200, {"scenarios": listing}, headers)
            if path == "/v1/jobs" and method == "POST":
                client = headers.get("x-repro-client") or peer_ip
                payload = await self._submit(client, body)
                return await self._send_json(writer, 202, payload, headers)
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/") :]
                if method != "GET":
                    raise _HttpError(405, f"method {method} not allowed")
                if rest.endswith("/events"):
                    await self._stream_events(writer, rest[: -len("/events")], query)
                    return False  # chunked stream ends the connection
                return await self._send_json(writer, 200, self._job_status(rest), headers)
            raise _HttpError(404, f"no route for {method} {path}")
        except _HttpError as exc:
            payload = {"error": exc.message}
            return await self._send_json(writer, exc.status, payload, headers, exc.headers)

    # -- routes ------------------------------------------------------------------------

    def _health_payload(self) -> Dict[str, object]:
        return {
            "status": "stopping" if self._stopping else "ok",
            "root": str(self.root),
            "uptime": round(time.time() - self._started_at, 3),
            "queue": {
                "depth": len(self.queue),
                "capacity": self.queue.capacity,
            },
            "counters": self.counters(),
        }

    async def _submit(self, client: str, body: bytes) -> Dict[str, object]:
        retry_after = self.buckets.acquire(client, time.monotonic())
        if retry_after > 0.0:
            raise self._rejection(client, "rate", retry_after)
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}")
        if not isinstance(payload, dict) or not isinstance(payload.get("scenario"), str):
            raise _HttpError(400, 'body must be a JSON object with a "scenario" string')
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise _HttpError(400, '"params" must be a JSON object')
        request = SubmitRequest(
            scenario=payload["scenario"],
            params=params,
            priority=int(payload.get("priority", 0)),
            max_attempts=int(payload.get("max_attempts", 2)),
            job_id=payload.get("job_id"),
        )
        try:
            scenario_spec(request.scenario).with_params(dict(params))
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"invalid submission: {exc}")
        assert self._wake is not None
        future: "asyncio.Future[Job]" = asyncio.get_running_loop().create_future()
        pending = _Pending(request=request, client=client, future=future)
        if not self.queue.offer(pending):
            raise self._rejection(client, "queue", 1.0)
        self._wake.set()
        try:
            job = await asyncio.wait_for(pending.future, timeout=self.config.submit_timeout)
        except asyncio.TimeoutError:
            raise _HttpError(503, "spool write timed out; job may still land")
        return {"job_id": job.job_id, "status": job.status, "scenario": job.scenario}

    def _rejection(self, client: str, reason: str, retry_after: float) -> _HttpError:
        """Record one 429 (counter + event) and build its response."""
        self.metrics.counter(f"gateway.rejected.{reason}").inc()
        self.events.emit(
            "gateway-rejected", client=client, reason=reason, retry_after=round(retry_after, 3)
        )
        seconds = max(1, math.ceil(retry_after))
        message = "rate limit exceeded" if reason == "rate" else "admission queue full"
        return _HttpError(429, f"{message}; retry after {seconds}s", {"Retry-After": str(seconds)})

    def _job_status(self, job_id: str) -> Dict[str, object]:
        """Spool-record view of one job; lease-aware like `repro status`."""
        path = job_path(self.root, job_id)
        job = load_job(path)
        if job is None:
            if lease_files(self.root, job_id):
                return {"job_id": job_id, "status": "running", "leased": True}
            if not path.exists():
                raise _HttpError(404, f"unknown job {job_id!r}")
            # Caught mid-rewrite; report the id as known but in flux.
            return {"job_id": job_id, "status": "running", "leased": False}
        info = job.to_dict()
        info["terminal"] = job.is_terminal
        return info

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str, query: Dict[str, List[str]]
    ) -> None:
        """Chunked JSONL stream of one job's events via an event cursor.

        Replays the job's history from the event log, then follows
        until a terminal transition (``released``/``reclaimed`` carrying a
        terminal status, or the job record going terminal), the client
        disconnecting, or ``timeout`` (query param, capped by config).
        """
        follow = query.get("follow", ["1"])[0] not in ("0", "false")
        timeout = min(
            float(query.get("timeout", [self.config.stream_timeout])[0]),
            self.config.stream_timeout,
        )
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        cursor = EventCursor(self.root)
        deadline = time.monotonic() + timeout
        finished = False
        while True:
            for record in cursor.poll():
                if record.get("job") != job_id:
                    continue
                chunk = json.dumps(record, separators=(",", ":")) + "\n"
                data = chunk.encode("utf-8")
                writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
                if record.get("status") in TERMINAL_STATUSES or record.get("event") in (
                    "done",
                    "failed",
                    "cancelled",
                ):
                    finished = True
            await writer.drain()
            if finished or not follow or self._stopping or time.monotonic() >= deadline:
                break
            status = self._job_status_quiet(job_id)
            if status is not None and status in TERMINAL_STATUSES:
                # Record went terminal but its event predates our cursor; one
                # more poll already happened above, so close the stream.
                finished = True
                continue
            await asyncio.sleep(self.config.stream_poll)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    def _job_status_quiet(self, job_id: str) -> Optional[str]:
        try:
            payload = self._job_status(job_id)
        except _HttpError:
            return None
        status = payload.get("status")
        return status if isinstance(status, str) else None

    # -- response plumbing -------------------------------------------------------------

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        request_headers: Dict[str, str],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> bool:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        keep_alive = request_headers.get("connection", "keep-alive").lower() != "close"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        return keep_alive


class GatewayRunner:
    """Run a :class:`Gateway` on a background thread (tests, benches, embedding).

    ``start`` blocks until the socket is bound (so ``runner.port`` and
    ``runner.url`` are valid immediately); ``stop`` performs the same
    graceful flush as a SIGTERM'd ``repro gateway``.
    """

    def __init__(
        self,
        config: GatewayConfig,
        submit_fn: Optional[Callable[..., List[Job]]] = None,
    ) -> None:
        self.config = config
        self.gateway: Optional[Gateway] = None
        self._submit_fn = submit_fn
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="gateway", daemon=True)

    @property
    def port(self) -> int:
        assert self.gateway is not None
        return self.gateway.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "GatewayRunner":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("gateway failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(f"gateway failed to start: {self._error}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.gateway = Gateway(self.config, submit_fn=self._submit_fn)
        self._stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        await self.gateway.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.gateway.stop()


def _announce_stdout(line: str) -> None:
    print(line, flush=True)  # flushed so `repro gateway > log &` is tail-able immediately


def run_gateway(
    config: GatewayConfig, announce: Callable[[str], None] = _announce_stdout
) -> Dict[str, int]:
    """Blocking entry point behind ``repro gateway``; returns final counters.

    Installs SIGINT/SIGTERM handlers for a graceful stop (close the
    socket, flush admitted submissions to the spool, write a ``stopped``
    heartbeat) so CI can `kill` the process without losing accepted jobs.
    """
    counters: Dict[str, int] = {}

    async def _main() -> None:
        gateway = Gateway(config)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or unsupported platform
        await gateway.start()
        announce(
            f"gateway listening on http://{config.host}:{gateway.port} "
            f"(root {config.root}, rate {config.rate:g}/s, burst {config.burst:g}, "
            f"queue {config.queue_depth})"
        )
        try:
            await stop.wait()
        finally:
            await gateway.stop()
            counters.update(gateway.counters())

    asyncio.run(_main())
    return counters


__all__ = [
    "GatewayConfig",
    "Gateway",
    "GatewayRunner",
    "run_gateway",
]
