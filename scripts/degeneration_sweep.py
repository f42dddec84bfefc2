#!/usr/bin/env python3
"""Sweep one-parameter families of quadratic forms and tabulate how the
special fibre of the even Clifford algebra degenerates: its dimension, and
the dimension and nilpotency index of its radical at t = 0 (by the
structure theorem, from the corank of Q(0)).  Every row is a witness, so the generic
fibre is semisimple (det 2Q(t) != 0, with 2Q of full rank at a check
point).

Run:  python scripts/degeneration_sweep.py [--max-m 7]
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from cliffdegen.clifford import QuadraticSpace
from cliffdegen.degeneration import QuadraticFamily, certify_specialization
from cliffdegen.rings import Poly


def dense_family(m, r):
    """Q0 + t I with Q0 = P^T diag(q_1, .., q_(m-r), 0, .., 0) P of corank
    r: P unit upper triangular with entries in -2..2 above the diagonal,
    then q_k = +-a/b for a, b in 1..3, from random.Random(5)."""
    rng = random.Random(5)
    P = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(m)] for i in range(m)]
    q = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3)) for _ in range(m - r)] + [0] * r
    Q0 = [[sum((P[k][i] * q[k] * P[k][j] for k in range(m)), Fraction(0)) for j in range(m)] for i in range(m)]
    return QuadraticFamily(QuadraticSpace([[Poly([Q0[i][j], int(i == j)]) for j in range(m)] for i in range(m)]))


def families(max_m):
    t = Poly.t()
    for m in range(3, max_m + 1, 2):
        yield f"diag(1,..,1,t)     m={m}", QuadraticFamily.diagonal([1] * (m - 1) + [t])
        yield f"diag(1,..,1,t,t)   m={m}", QuadraticFamily.diagonal([1] * (m - 2) + [t, t])
        yield f"diag(t,..,t)       m={m}", QuadraticFamily.diagonal([t] * m)
        yield f"diag(1,..,1,t^2)   m={m}", QuadraticFamily.diagonal([1] * (m - 1) + [t * t])
        yield f"dense Q0+tI, corank {m - 2}  m={m}", dense_family(m, m - 2)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=7)
    args = ap.parse_args()
    print(f"{'family':26} {'dim':>5} {'radical':>8} {'nil_idx':>8} {'secs':>6}")
    for label, fam in families(args.max_m):
        t0 = time.time()
        w = certify_specialization(fam)
        dt = time.time() - t0
        print(
            f"{label:26} {w.special_fiber.dim:>5} {len(w.radical_basis):>8} "
            f"{w.nilpotency_index:>8} {dt:>6.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
