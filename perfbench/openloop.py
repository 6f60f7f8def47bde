"""Seeded open-loop job stream for the gateway workload.

Independent submitters do not wait for each other, so the stream is open
loop: request ``i`` is due ``i / rate`` seconds after the start whatever
the service does, and every latency is measured from that due time, so a
stall also charges the requests queued behind it.  The arrival schedule,
the job mix and every job seed derive from the workload seed alone.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Fresh jobs cycle through shuffled copies of this block, one job of each
#: scenario: a flow-compare (about 1 s of solve), an annealed dense-bus
#: batch (about 0.35 s) and two panel batches of about 20 ms.  No source
#: gives the scenarios' shares of real traffic, so they are weighted alike.
FRESH_BLOCK = ("flow-compare", "dense-bus", "uniform-medium", "mixed-width")
#: flow-compare runs at this circuit scale.
FLOW_SCALE = 0.02
#: Every fifth request repeats an earlier fresh submission verbatim; its
#: results are already in the worker's store.
REPEAT_EVERY = 5
#: A repeat copies a job submitted at least this many requests earlier, so
#: the original has finished by the time the repeat runs: at the gateway
#: workload's 1 job/s that is 4 s, over twice the slowest job latency
#: measured there (1.7 s).
REPEAT_LAG = 4


@dataclass
class Request:
    index: int
    due: float
    payload: Dict[str, object]
    repeat_of: Optional[int] = None
    sent: float = 0.0
    answered: float = 0.0
    status: int = 0
    job_id: str = ""


def build_schedule(seed: int, rate: float, seconds: float) -> List[Request]:
    """The requests due within ``seconds`` at a fixed ``rate`` per second."""
    rng = random.Random(seed)
    requests: List[Request] = []
    block: List[str] = []
    for index in range(max(1, int(rate * seconds))):
        due = index / rate
        if index % REPEAT_EVERY == REPEAT_EVERY - 1 and index >= REPEAT_LAG + REPEAT_EVERY:
            earlier = [r for r in requests[: index - REPEAT_LAG + 1] if r.repeat_of is None]
            original = rng.choice(earlier)
            requests.append(Request(index, due, dict(original.payload), original.index))
            continue
        if not block:
            block = list(FRESH_BLOCK)
            rng.shuffle(block)
        scenario = block.pop()
        params: Dict[str, object] = {"seed": rng.randrange(1, 1_000_000)}
        if scenario == "flow-compare":
            params["scale"] = FLOW_SCALE
        requests.append(Request(index, due, {"scenario": scenario, "params": params}))
    return requests


class OpenLoopClient:
    """Send a schedule over ``connections`` keep-alive connections.

    Connection ``k`` owns requests ``k, k + n, k + 2n, ...`` and sleeps until
    each is due; ``sent`` and ``answered`` are monotonic offsets from the
    start, so ``sent - due`` is how late the generator ran.
    """

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self.host = host
        self.port = port
        self.connections = connections

    def run(self, requests: List[Request]) -> float:
        """Send every request; returns the wall-clock time of offset 0."""
        wall_zero = time.time()
        zero = time.monotonic()
        # Daemon threads: a terminated run must not wait out the schedule.
        threads = [
            threading.Thread(
                target=self._send_all, args=(requests[k :: self.connections], zero), daemon=True
            )
            for k in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return wall_zero

    def _send_all(self, requests: List[Request], zero: float) -> None:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30.0)
        try:
            for request in requests:
                delay = zero + request.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                request.sent = time.monotonic() - zero
                try:
                    connection.request(
                        "POST", "/v1/jobs", body=json.dumps(request.payload),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException):
                    connection.close()
                    request.status = -1
                    continue
                request.answered = time.monotonic() - zero
                request.status = response.status
                if response.status == 202:
                    request.job_id = json.loads(body)["job_id"]
        finally:
            connection.close()
