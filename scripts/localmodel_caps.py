#!/usr/bin/env python3
"""Time each `localmodel` subcommand on its slowest legal input class at
n = cli.MAX_LOCALMODEL_N, each in a fresh interpreter, and print its wall
time, peak RSS and payload.

Run:  python scripts/localmodel_caps.py [--n N] [--seed S]

The classes, g = 2 matrices with entries in -9..9 drawn from
random.Random(S):
- `sequiv` on a tuple and its conjugate by a unimodular integer matrix:
  equivalent, so the closure runs until the span stops;
- `sequiv` on two unrelated tuples;
- `simple` on an upper-triangular tuple conjugated as above, with a
  vector spanning its invariant line: neither closure reaches the full
  dimension, so both take the closure over Q;
- `centralizer` of two unrelated matrices in gl_n.
Each row's payload must be the known answer; the script exits 1 if one is
not.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from cliffdegen.acceptance import _random_unimodular
from cliffdegen.cli import MAX_LOCALMODEL_N
from cliffdegen.linalg import mat_mul

ROOT = Path(__file__).resolve().parent.parent
CHILD = "import sys; from cliffdegen.cli import main; sys.exit(main(sys.argv[1:]))"


def random_matrix(rng, n, upper=False):
    return [[rng.randint(-9, 9) if j >= i or not upper else 0 for j in range(n)] for i in range(n)]


def tuple_json(mats):
    return {"g": len(mats), "n": len(mats[0]), "X": [[[str(v) for v in row] for row in m] for m in mats]}


def cases(n, seed):
    """(label, subcommand, input document, expected payload)."""
    rng = random.Random(seed)
    first = [random_matrix(rng, n) for _ in range(2)]
    second = [random_matrix(rng, n) for _ in range(2)]
    P, Pinv = _random_unimodular(rng, n)
    conj = [mat_mul(P, mat_mul(m, Pinv)) for m in first]
    upper = [mat_mul(P, mat_mul(random_matrix(rng, n, upper=True), Pinv)) for _ in range(2)]
    units = [[[int((r, c) == (i, j)) for c in range(n)] for r in range(n)] for i in range(n) for j in range(n)]
    L = n * n
    return [
        ("sequiv conjugate", "sequiv", {"first": tuple_json(first), "second": tuple_json(conj)},
         {"equivalent": True, "length_bound": L}),
        ("sequiv unrelated", "sequiv", {"first": tuple_json(first), "second": tuple_json(second)},
         {"equivalent": False, "length_bound": L}),
        ("simple reducible", "simple", {"tuple": tuple_json(upper), "vector": [str(row[0]) for row in P]},
         {"generates_full_algebra": False, "cyclic_vector": False}),
        ("centralizer random", "centralizer", {"tuple": tuple_json(first), "h": tuple_json(units)["X"]},
         {"dimension": 1}),
    ]


def run_fresh(argv, text):
    """(exit code, stdout, wall seconds, peak RSS in MB) of the CLI in a new
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    # the child reads all of stdin before it prints; wait4 gives its own rusage
    proc.stdin.write(text.encode())
    proc.stdin.close()
    out = proc.stdout.read().decode()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, seconds, usage.ru_maxrss // 1024  # ru_maxrss is in KiB


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=MAX_LOCALMODEL_N, help="at least 2")
    parser.add_argument("--seed", type=int, default=8)
    args = parser.parse_args(argv)
    print(f"{'case':20} {'n':>3} {'wall s':>8} {'peak MB':>8}  payload")
    ok = True
    for label, action, doc, want in cases(args.n, args.seed):
        code, out, seconds, rss = run_fresh(["localmodel", action, "--input", "-"], json.dumps(doc))
        payload = json.loads(out)["payload"] if code == 0 else None
        print(f"{label:20} {args.n:>3} {seconds:>8.2f} {rss:>8}  {json.dumps(payload)}")
        ok = ok and payload == want
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
