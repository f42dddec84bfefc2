#!/usr/bin/env python3
"""Time each `localmodel` subcommand on its slowest legal input class at
n = cli.MAX_LOCALMODEL_N, and `lipschitz test` at its two caps, each in a
fresh interpreter, and print its wall time, peak RSS and payload.

Run:  python scripts/localmodel_caps.py [--n N] [--lipschitz-m M]
          [--ratfun-lipschitz-m M] [--seed S]

The `localmodel` classes, g = 2 matrices with entries in -9..9 drawn from
random.Random(S):
- `sequiv` on a tuple and its conjugate by a unimodular integer matrix:
  equivalent, so the closure runs until the span stops;
- `sequiv` on two unrelated tuples;
- `simple` on an upper-triangular tuple conjugated as above, with a
  vector spanning its invariant line: neither closure reaches the full
  dimension, so both take the closure over Q;
- `centralizer` of two unrelated matrices in gl_n, with h the n^2
  elementary matrices, and again with one of them repeated: the dimension
  is counted in span(h), so the repeat adds nothing.
The `lipschitz test` classes, at m = cli.MAX_LIPSCHITZ_M over Q on a dense
form Q = P^T diag(d) P, P unimodular, and at m = cli.MAX_RATFUN_LIPSCHITZ_M
over a dense Q(t) form, every entry of degree 1 over degree 1:
- over Q, the product of 4 random vectors, and the sum of all even blades;
- over Q(t), the product of 3 vectors with rational coordinates.
A product v_1 ... v_k is a member with norm q(v_1) ... q(v_k).  The sum of
all even blades is checked on the orthogonal basis f = P e, where the
product is a signed exclusive or and tau a sign per grade: its norm
x tau(x), and, for a scalar norm c != 0, x f_j tau(x) a vector for every j.
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
from fractions import Fraction
from math import prod
from pathlib import Path

from cliffdegen import jsonio
from cliffdegen.acceptance import _random_unimodular
from cliffdegen.cli import MAX_LIPSCHITZ_M, MAX_LOCALMODEL_N, MAX_RATFUN_LIPSCHITZ_M
from cliffdegen.clifford import Multivector, QuadraticSpace, geometric_product
from cliffdegen.linalg import mat_mul
from cliffdegen.rings import Poly, RatFun

ROOT = Path(__file__).resolve().parent.parent
CHILD = "import sys; from cliffdegen.cli import main; sys.exit(main(sys.argv[1:]))"


def random_matrix(rng, n, upper=False):
    return [[rng.randint(-9, 9) if j >= i or not upper else 0 for j in range(n)] for i in range(n)]


def tuple_json(mats):
    return {"g": len(mats), "n": len(mats[0]), "X": [[[str(v) for v in row] for row in m] for m in mats]}


def equals(want):
    """The check that a payload is ``want``."""
    return lambda payload: payload == want


def localmodel_cases(n, seed):
    """(label, size, argv, input document, check of the payload)."""
    rng = random.Random(seed)
    first = [random_matrix(rng, n) for _ in range(2)]
    second = [random_matrix(rng, n) for _ in range(2)]
    P, Pinv = _random_unimodular(rng, n)
    conj = [mat_mul(P, mat_mul(m, Pinv)) for m in first]
    upper = [mat_mul(P, mat_mul(random_matrix(rng, n, upper=True), Pinv)) for _ in range(2)]
    units = [[[int((r, c) == (i, j)) for c in range(n)] for r in range(n)] for i in range(n) for j in range(n)]
    L = n * n
    rows = [
        ("sequiv conjugate", "sequiv", {"first": tuple_json(first), "second": tuple_json(conj)},
         {"equivalent": True, "length_bound": L}),
        ("sequiv unrelated", "sequiv", {"first": tuple_json(first), "second": tuple_json(second)},
         {"equivalent": False, "length_bound": L}),
        ("simple reducible", "simple", {"tuple": tuple_json(upper), "vector": [str(row[0]) for row in P]},
         {"generates_full_algebra": False, "cyclic_vector": False}),
        ("centralizer random", "centralizer", {"tuple": tuple_json(first), "h": tuple_json(units)["X"]},
         {"dimension": 1}),
        ("centralizer dependent h", "centralizer", {"tuple": tuple_json(first), "h": tuple_json(units + units[:1])["X"]},
         {"dimension": 1}),
    ]
    return [(label, n, ["localmodel", action], doc, equals(want)) for label, action, doc, want in rows]


def random_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def q_of(V, v):
    """q(v) = v^T Q v."""
    return sum((v[i] * V.gram[i][j] * v[j] for i in range(V.m) for j in range(V.m)), 0)


def diag_product(x, y, d):
    """x y in the Clifford algebra of the diagonal form d on an orthogonal
    basis: blade a times blade b is the sign of the reordering, the
    squares d_i of the common generators, on blade a ^ b."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            swaps = sum((a >> i + 1).bit_count() for i in range(b.bit_length()) if b >> i & 1)
            c = ca * cb * (-1) ** swaps * prod(d[i] for i in range(len(d)) if (a & b) >> i & 1)
            out[a ^ b] = out.get(a ^ b, 0) + c
    return {k: c for k, c in out.items() if c}


def diag_tau(x):
    return {a: -c if a.bit_count() & 2 else c for a, c in x.items()}


def even_sum_payload(P, d):
    """The payload for the sum of all even blades, read on the basis f
    with e_i = sum_j P[j][i] f_j, on which the form is diag(d)."""
    m = len(d)
    gens = [{1 << j: P[j][i] for j in range(m) if P[j][i]} for i in range(m)]
    x = {}
    for mask in range(1 << m):
        if mask.bit_count() % 2 == 0:
            blade = {0: 1}
            for i in range(m):
                if mask >> i & 1:
                    blade = diag_product(blade, gens[i], d)
            for k, c in blade.items():
                x[k] = x.get(k, 0) + c
    x = {k: c for k, c in x.items() if c}
    norm = diag_product(x, diag_tau(x), d)
    if not norm.keys() <= {0}:
        return {"homogeneous": True, "cl0_member": False, "norm_scalar": None, "verdict": "none"}
    c = norm.get(0, 0)
    if not c:
        raise ValueError("a zero norm: membership needs the doubled algebra")
    member = all(
        all(k.bit_count() == 1 for k in diag_product(diag_product(x, {1 << j: 1}, d), diag_tau(x), d))
        for j in range(m)
    )
    verdict = ("spin" if c == 1 else "group") if member else "none"
    return {"homogeneous": True, "cl0_member": member, "norm_scalar": str(c), "verdict": verdict}


def product_check(V, vectors):
    """The check of the payload for the product of ``vectors``: a member
    whose norm has the value q(v_1) ... q(v_k), however it is printed."""
    norm = prod((q_of(V, v) for v in vectors), start=1)
    verdict = "group" if norm else "monoid"
    if verdict == "group" and len(vectors) % 2 == 0 and norm == 1:
        verdict = "spin"

    def check(payload):
        return (
            payload is not None
            and {k: payload[k] for k in ("homogeneous", "cl0_member", "verdict")}
            == {"homogeneous": True, "cl0_member": True, "verdict": verdict}
            and payload["norm_scalar"] is not None
            and jsonio.decode_coeff(payload["norm_scalar"]) == norm
        )

    return check


def multivector_json(x):
    return {json.dumps([i + 1 for i in range(mask.bit_length()) if mask >> i & 1]): jsonio.encode_coeff(c)
            for mask, c in x.terms.items()}


def product_case(rng, V, k, coordinate):
    vectors = [[coordinate(rng) for _ in range(V.m)] for _ in range(k)]
    x = Multivector.scalar(1)
    for v in vectors:
        x = geometric_product(x, Multivector({1 << i: c for i, c in enumerate(v)}), V)
    return {"V": jsonio.encode_space(V), "x": multivector_json(x)}, product_check(V, vectors)


def lipschitz_cases(m, ratfun_m, seed):
    """(label, size, argv, input document, check of the payload)."""
    rng = random.Random(seed)
    P, _ = _random_unimodular(rng, m)
    d = [random_rational(rng) for _ in range(m)]
    V = QuadraticSpace([[sum(P[k][i] * d[k] * P[k][j] for k in range(m)) for j in range(m)] for i in range(m)])
    even = {"V": jsonio.encode_space(V),
            "x": multivector_json(Multivector({mask: 1 for mask in range(1 << m) if mask.bit_count() % 2 == 0}))}
    t_form = [[None] * ratfun_m for _ in range(ratfun_m)]
    for i in range(ratfun_m):
        for j in range(i, ratfun_m):
            t_form[i][j] = t_form[j][i] = RatFun(Poly([rng.randint(-3, 3), rng.randint(1, 3)]),
                                                 Poly([rng.randint(1, 3), rng.randint(1, 3)]))
    W = QuadraticSpace(t_form)
    argv = ["lipschitz", "test"]
    return [
        ("lipschitz 4 vectors", m, argv, *product_case(rng, V, 4, random_rational)),
        ("lipschitz even sum", m, argv, even, equals(even_sum_payload(P, d))),
        ("lipschitz Q(t) 3 vectors", ratfun_m, argv, *product_case(rng, W, 3, random_rational)),
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
    parser.add_argument("--lipschitz-m", type=int, default=MAX_LIPSCHITZ_M, help="at least 2")
    parser.add_argument("--ratfun-lipschitz-m", type=int, default=MAX_RATFUN_LIPSCHITZ_M, help="at least 1")
    parser.add_argument("--seed", type=int, default=8)
    args = parser.parse_args(argv)
    print(f"{'case':24} {'size':>4} {'wall s':>8} {'peak MB':>8}  payload")
    ok = True
    rows = localmodel_cases(args.n, args.seed) + lipschitz_cases(args.lipschitz_m, args.ratfun_lipschitz_m, args.seed)
    for label, size, command, doc, check in rows:
        code, out, seconds, rss = run_fresh([*command, "--input", "-"], json.dumps(doc))
        payload = json.loads(out)["payload"] if code == 0 else None
        shown = json.dumps(payload)
        if len(shown) > 160:  # an unreduced Q(t) norm runs to kilobytes
            shown = f"{shown[:140]}... ({len(shown)} bytes)"
        print(f"{label:24} {size:>4} {seconds:>8.2f} {rss:>8}  {shown}")
        ok = ok and check(payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
