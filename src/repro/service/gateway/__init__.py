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

The package imports none of them, so loading the policy or the loadgen
never starts asyncio; import each name from its module.
"""
