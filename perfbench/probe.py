"""Set-up probe, run by run.py in a fresh interpreter.

    python3 perfbench/probe.py --workload NAME --seed N

Times the import of ``cliffdegen.cli`` plus the calls to ``main`` for the
workload's warm-up ops, checks their answers, and prints the seconds.
Exits 1 if a warm-up op fails.
"""

from __future__ import annotations

import argparse
import sys
import time

import harness
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    ops = workloads.WORKLOADS[args.workload].warmup_ops(args.seed)
    start = time.perf_counter()
    cli = harness.load_cli()
    seconds = time.perf_counter() - start
    ok = True
    for op in ops:
        outcome = harness.execute(cli.main, op)
        seconds += outcome.seconds
        problem = harness.problem(op, outcome)
        if problem is not None:
            print(f"probe: {op.label}: {problem}", file=sys.stderr)
            ok = False
    print(seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
