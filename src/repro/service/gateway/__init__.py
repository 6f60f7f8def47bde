"""The gateway tier: HTTP front door, backpressure policy, HTTP loadgen.

Split in three so the policy math stays import-light and socket-free:

* :mod:`repro.service.gateway.policy` — token buckets and the bounded
  admission queue (plain classes, explicit clocks, fully covered by
  tier-1 tests).
* :mod:`repro.service.gateway.server` — the asyncio HTTP/1.1 server
  that wires those policies in front of the spool and group-commits
  admitted submissions to it.
* :mod:`repro.service.gateway.loadgen` — concurrent stdlib HTTP
  clients for ``repro loadgen --http`` and ``bench_gateway.py``.
"""

from repro.service.gateway.loadgen import (
    HttpLoadgenReport,
    format_http_loadgen_report,
    run_http_loadgen,
)
from repro.service.gateway.policy import (
    AdmissionQueue,
    TokenBucket,
    TokenBucketTable,
)
from repro.service.gateway.server import (
    Gateway,
    GatewayConfig,
    GatewayRunner,
    read_gateway_heartbeat,
    run_gateway,
)

__all__ = [
    "AdmissionQueue",
    "Gateway",
    "GatewayConfig",
    "GatewayRunner",
    "HttpLoadgenReport",
    "TokenBucket",
    "TokenBucketTable",
    "format_http_loadgen_report",
    "read_gateway_heartbeat",
    "run_gateway",
    "run_http_loadgen",
]
