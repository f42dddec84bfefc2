#!/usr/bin/env python3
"""Digest the stdout of every benchmark workload op, so that two checkouts
can be shown to print the same bytes.

Run:  python scripts/stdout_digest.py [--seeds 1 2 3] [--cycles 3]
          [--workload NAME ...] [--per-op] [--root DIR]

For each workload of ``perfbench/workloads.py`` (imported, never changed)
and each seed, the warm-up ops, the prime ops and the first ``--cycles``
cycles run through ``cliffdegen.cli.main`` in this process, in the order
the benchmark runs them.  One line per workload gives the op count and one
sha256 over every op's exit code and stdout; ``--per-op`` first prints one
line per op.  ``--root`` takes ``src/`` and ``perfbench/`` from another
checkout, say a copy of the parent commit, so that one script digests both.
Ops run through the benchmark's own ``harness.execute``: stdin from the op,
stdout captured, stderr discarded; an op whose ``main`` raises has the exit
code None.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workload_ops(workload, seeds, cycles: int):
    """(label, op) in benchmark order: per seed the warm-up, the prime ops
    and cycles 0 .. cycles - 1."""
    for seed in seeds:
        for k, op in enumerate(workload.warmup_ops(seed)):
            yield f"seed {seed} warmup {k} {op.label}", op
        for k, op in enumerate(workload.prime):
            yield f"seed {seed} prime {k} {op.label}", op
        for cycle in range(cycles):
            for k, op in enumerate(workload.cycle_ops(seed, cycle)):
                yield f"seed {seed} cycle {cycle}.{k} {op.label}", op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--workload", nargs="+", help="default: every workload")
    parser.add_argument("--per-op", action="store_true", help="also print one line per op")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to digest (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    import harness
    import workloads

    try:
        cli = harness.load_cli()
    except (harness.ProgramMissing, ImportError) as exc:
        print(f"stdout_digest: cannot load the program: {exc}", file=sys.stderr)
        return 2
    names = args.workload or sorted(workloads.WORKLOADS)
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        print(f"stdout_digest: unknown workload(s) {sorted(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        total = hashlib.sha256()
        count = 0
        for label, op in workload_ops(workloads.WORKLOADS[name], args.seeds, args.cycles):
            outcome = harness.execute(cli.main, op)
            line = f"{outcome.code}\t{hashlib.sha256(outcome.stdout.encode()).hexdigest()}"
            total.update(line.encode() + b"\n")
            count += 1
            if args.per_op:
                print(f"{name}\t{label}\t{line}")
        print(f"{name}\t{count} ops\t{total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
