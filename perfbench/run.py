"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See README.md in this directory.
"""

import os
import sys
import time

# Python salts string hashes afresh in every process, which moves set and
# dict layouts from run to run; the benchmark runs under one fixed salt so
# that this is not one more difference between runs.  exec keeps this the
# same process.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--length", type=int, default=None,
        help="references per trace instead of the workload's own "
        "(the benchmark's tests use a tiny length)",
    )
    args = parser.parse_args(argv)

    from perfbench.harness import run_benchmark
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_benchmark(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        length=args.length,
        started=STARTED,
        root=ROOT,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
