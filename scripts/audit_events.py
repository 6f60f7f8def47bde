#!/usr/bin/env python3
"""Exactly-once audit of a settled service root, from its event log.

Usage (with the ``repro`` package importable: installed, or
``PYTHONPATH=src`` from a checkout)::

    python scripts/audit_events.py --root R --jobs N [--workers K]

Checks, once every worker on ``R`` has exited:

* the log holds ``N`` submitted jobs, each submitted once, and the spool
  holds exactly their ``N`` records;
* every job has exactly one ``claimed`` and one ``released`` event, and
  the release carries status ``done``;
* every writer's ``seq`` runs 0, 1, 2, … in read order, with no gap;
* with ``--workers K``: ``K`` ``worker-started`` and ``K``
  ``worker-stopped`` events.

Prints one ``OK`` line and exits 0, or lists every failure and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.events import read_events


def audit(root: Path, jobs: int, workers: Optional[int] = None) -> List[str]:
    """Every failed check of the audit, as one message each (empty: passed)."""
    records = read_events(root)
    failures: List[str] = []

    submitted = Counter(r["job"] for r in records if r["event"] == "submitted")
    if len(submitted) != jobs:
        failures.append(f"expected {jobs} submitted jobs, found {len(submitted)}")
    failures += [f"{job}: submitted {n} times" for job, n in sorted(submitted.items()) if n != 1]
    spool = sorted(path.stem for path in (root / "jobs").glob("*.json"))
    if spool != sorted(submitted):
        failures.append(f"spool holds {len(spool)} records, not the {len(submitted)} submitted")

    for job in sorted(submitted):
        claims = [r for r in records if r.get("job") == job and r["event"] == "claimed"]
        releases = [r for r in records if r.get("job") == job and r["event"] == "released"]
        if len(claims) != 1 or len(releases) != 1:
            failures.append(f"{job}: {len(claims)} claims, {len(releases)} releases")
        elif releases[0].get("status") != "done":
            failures.append(f"{job}: released as {releases[0].get('status')!r}")

    seqs: Dict[str, List[int]] = {}
    for record in records:
        seqs.setdefault(record["writer"], []).append(record["seq"])
    for writer, seen in sorted(seqs.items()):
        if seen != list(range(len(seen))):
            failures.append(f"writer {writer}: seq not gapless in order, starts {seen[:10]}")

    if workers is not None:
        for event in ("worker-started", "worker-stopped"):
            count = sum(1 for r in records if r["event"] == event)
            if count != workers:
                failures.append(f"expected {workers} {event} events, found {count}")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="service root to audit")
    parser.add_argument("--jobs", type=int, required=True, help="jobs the burst submitted")
    parser.add_argument("--workers", type=int, default=None, help="workers the fleet ran")
    args = parser.parse_args(argv)
    failures = audit(args.root, args.jobs, args.workers)
    for failure in failures:
        print(f"audit: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"audit: {args.jobs} jobs exactly once, every writer gapless: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
