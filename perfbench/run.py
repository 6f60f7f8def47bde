"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compare-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints every
end-to-end metric; ``--trace 1`` is the separate traced run, which wraps
each layer's public functions and prints every per-layer metric.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a failed output check counts as a failed operation.
Scratch state lives under ``.perfbench/`` in the checkout and is removed
when the run ends, except the traced run's span file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SOURCE = CHECKOUT / "src"
WORKLOADS = ("compare-cold", "compare-warm", "gateway-open")


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SOURCE}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])
    )
    from layers import END_TO_END, PER_LAYER

    # A terminated run still unwinds: the gateway workload's finally blocks
    # stop the service processes it started, and the scratch state goes.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    scratch = CHECKOUT / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}"
    trace_path = scratch / "traces" / f"{args.workload}-{args.seed}.jsonl"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "gateway-open":
            from gateway_workload import GatewayWorkload

            workload = GatewayWorkload(args.seed, args.seconds, workdir)
        else:
            from compare_workloads import CompareWorkload

            workload = CompareWorkload(
                args.workload == "compare-warm", args.seed, args.seconds, workdir
            )
        metrics = workload.run_traced(trace_path) if args.trace else workload.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    catalogue = {entry[0]: entry[1] for entry in (PER_LAYER if args.trace else END_TO_END)}
    if set(metrics) != set(catalogue):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(catalogue))}")
    tally = workload.tally
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in catalogue.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
