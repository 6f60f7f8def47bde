"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload gateway-open --seeds 1 2 3 4 5 --seconds 30
    python3 perfbench/spread.py --workload compare-cold --seeds 1 2 3 --against 4 5 6 --seconds 30

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric its median and the distance between the first and
third quartile as a share of the median, next to the metric's bound.  With
``--against``, a second seed set runs interleaved with the first (one run
of each in turn, so a change in host speed reaches both sets alike), and
each metric also gets the second set's median as a change from the first's.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from layers import END_TO_END
from measure import median, quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: result["metrics"][name]["value"] for name, *_rest in END_TO_END}
    print(f"seed {seed}: {time.monotonic() - start:.1f}s correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{name}={value:.4g}" for name, value in values.items()), flush=True)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--against", type=int, nargs="*", default=[],
                        help="a second seed set, run interleaved with the first")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    sets: List[List[Dict[str, float]]] = [[], []]
    for first, second in itertools.zip_longest(args.seeds, args.against):
        for position, seed in enumerate((first, second)):
            if seed is not None:
                sets[position].append(_run(args.workload, seed, args.seconds))
    for name, _unit, _better, bound in END_TO_END:
        line = f"{name} (bound {bound}):"
        medians = []
        for runs in filter(None, sets):
            values = [run[name] for run in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            medians.append(median(values))
            line += f" median {medians[-1]:.4g} spread {spread:.3f};"
        if len(medians) == 2 and medians[0]:
            line += f" second median {medians[1] / medians[0] - 1.0:+.3f} vs first"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
