"""Seeded workloads for the cliffdegen CLI.

Each workload is a fixed cycle of op slots: the subcommand, its size and the
shape of its input are fixed per slot, and only the input values come from
the seed.  Run-to-run cost therefore depends little on the seed, and every
cycle has the same mix.  Each op carries the answer it must produce, known
by construction or computed with ``oracle`` (never with cliffdegen).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import oracle

NONZERO = (-4, -3, -2, -1, 1, 2, 3, 4)


class Mismatch(Exception):
    """The program's output differs from the known answer."""


def expect(cond, what: str):
    if not cond:
        raise Mismatch(what)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    stdin: str
    code: int  # expected exit code
    check: Callable  # raises when the parsed stdout document is wrong

    def problem(self, code, stdout: str):
        """None when the op produced the known answer, else the reason."""
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        try:
            self.check(json.loads(stdout))
        except Exception as exc:  # a malformed document is a failed op, not a crash
            return f"{type(exc).__name__}: {exc}"
        return None


def _payload(doc, subcommand: str, verdict: str = "pass"):
    expect(doc["subcommand"] == subcommand, f"subcommand {doc['subcommand']!r}")
    expect(doc["verdict"] == verdict, f"verdict {doc['verdict']!r}, expected {verdict!r}")
    return doc["payload"]


def _rat(rng, nonzero=False) -> Fraction:
    p = rng.choice(NONZERO) if nonzero else rng.randint(-4, 4)
    return Fraction(p, rng.randint(1, 3))


# ---------------------------------------------------------------------------
# lie_reconstruct: dense non-diagonal rational forms, m = 4..9


def _reconstruct(rng, m: int) -> Op:
    Q = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            Q[i][j] = Q[j][i] = _rat(rng, nonzero=i != j)

    def check(doc):
        p = _payload(doc, "form reconstruct")
        expect(p["matches"] is True, "matches is not true")
        got = [[Fraction(v) for v in row] for row in p["recovered_Q"]["Q"]]
        expect(got == Q, "recovered Q differs from the input")

    text = json.dumps({"m": m, "Q": [[str(v) for v in row] for row in Q]})
    return Op(f"reconstruct m={m}", ("form", "reconstruct", "--input", "-"), text, 0, check)


def lie_cycle(rng):
    return [_reconstruct(rng, m) for m in range(4, 10)]


def lie_warmup(rng):
    return [_reconstruct(rng, m) for m in (4, 5, 6)]


# ---------------------------------------------------------------------------
# degeneration: one-parameter families over Q[t], odd m

# points where the benchmark compares parametric answers with its own values
CHECK_POINTS = (Fraction(13, 7), Fraction(-17, 5), Fraction(29, 11), Fraction(5, 3))


def _poly(rng, vanish: bool):
    """Degree-1 polynomial a + b t, with a = 0 when it must vanish at 0."""
    a = "0" if vanish else str(_rat(rng, nonzero=True))
    return [a, str(_rat(rng, nonzero=True))]


def _ratfun(rng, vanish: bool):
    den = [str(rng.randint(1, 3)), str(_rat(rng, nonzero=True))]
    return {"num": _poly(rng, vanish), "den": den}


def _values(Q, c: Fraction):
    return [[oracle.coeff_value(v, c) for v in row] for row in Q]


def _regular(Q, c: Fraction) -> bool:
    return all(oracle.regular_at(v, c) for row in Q for v in row)


def _family(rng, m: int, shape: str, vanish: int):
    """Symmetric matrix of JSON coefficients.  Shapes: "diag", "diag_rat",
    "near_diag" (one off-diagonal pair), "dense", "dense_rat" (rational
    function off-diagonal).  Rows and columns below ``vanish`` vanish at 0."""
    Q = [[[] for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if i != j and (shape.startswith("diag") or (shape == "near_diag" and (i, j) != (0, 1))):
                continue
            rat = shape == "diag_rat" or (shape == "dense_rat" and i != j)
            Q[i][j] = Q[j][i] = (_ratfun if rat else _poly)(rng, i < vanish)
    return Q


def _generic_family(rng, m, shape, vanish):
    """A family with det(2Q(t)) not identically zero, shown by a nonzero
    value at a check point."""
    while True:
        Q = _family(rng, m, shape, vanish)
        if any(_regular(Q, c) and oracle.det(_values(Q, c)) != 0 for c in CHECK_POINTS):
            return Q


def _family_text(Q) -> str:
    return json.dumps({"m": len(Q), "Q": Q})


def _analyze(rng, m: int, shape: str, vanish: int = 0) -> Op:
    Q = _generic_family(rng, m, shape, vanish)
    corank = m - oracle.rank(_values(Q, Fraction(0)))
    # Cl^0 modulo its radical is Cl^0 of the nondegenerate quotient form
    radical = 2 ** (m - 1) - max(1, 2 ** (m - corank - 1))
    dets = {
        c: oracle.det([[2 * v for v in row] for row in _values(Q, c)])
        for c in CHECK_POINTS
        if _regular(Q, c)
    }

    def check(doc):
        p = _payload(doc, "degenerate analyze")
        expect(p["m"] == m, f"m = {p['m']}")
        expect(p["special_fiber"]["dim"] == 2 ** (m - 1), "special fibre dimension")
        expect(p["radical_dim"] == radical, f"radical_dim {p['radical_dim']}, expected {radical}")
        expect(len(p["radical_basis"]) == radical, "radical basis length")
        expect(p["generic_radical_dim"] == 0, "generic fibre not semisimple")
        compared = 0
        for c, want in dets.items():
            if oracle.regular_at(p["det"], c):
                expect(oracle.coeff_value(p["det"], c) == want, f"det(2Q) at t = {c}")
                compared += 1
        expect(compared > 0, "det(2Q) could not be evaluated at any check point")

    label = f"analyze m={m} {shape}"
    return Op(label, ("degenerate", "analyze", "--input", "-"), _family_text(Q), 0, check)


def _analyze_singular(rng, m: int, shape: str) -> Op:
    """Index m duplicates index 1, so det(2Q(t)) vanishes identically."""
    Q = _family(rng, m, shape, 0)
    for j in range(m - 1):
        Q[m - 1][j] = Q[j][m - 1] = Q[0][j]
    Q[m - 1][m - 1] = Q[0][0]

    def check(doc):
        p = _payload(doc, "degenerate analyze", "fail")
        expect(isinstance(p["counterexample"], str), "no counterexample")

    label = f"analyze m={m} {shape} singular"
    return Op(label, ("degenerate", "analyze", "--input", "-"), _family_text(Q), 2, check)


def _tensor(rng, m: int, shape: str, at: bool) -> Op:
    Q = _generic_family(rng, m, shape, 0)
    dim = 2 ** (m - 1)
    argv = ("form", "tensor", "--input", "-")
    points = [c for c in CHECK_POINTS if _regular(Q, c)]
    if at:
        c = rng.choice([c for c in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-1)) if _regular(Q, c)])
        argv += ("--at", str(c))
        points = [c]

    def check(doc):
        p = _payload(doc, "form tensor")
        T = p["tensor"]
        expect(T["dim"] == dim and T["identity"] == 0, "tensor dimension or identity")
        if at:
            expect(p["specialized_at"] == str(c), "specialized_at")
        entries = {}
        for i, j, k, v in T["c"]:
            entries.setdefault((i, j), {})[k] = v
        for x in points:
            def at_x(i, j):
                return {k: oracle.coeff_value(v, x) for k, v in entries.get((i, j), {}).items()}

            for j in range(dim):
                expect(at_x(0, j) == {j: 1}, f"e0 * basis[{j}]")
            # (e1 e2)^2 = -q1 q2 + b12 e1 e2, and e1 e2 is basis element 1
            V = _values(Q, x)
            want = {0: -V[0][0] * V[1][1], 1: 2 * V[0][1]}
            got = at_x(1, 1)
            expect(set(got) <= {0, 1}, "(e1 e2)^2 leaves span(e0, e1 e2)")
            expect(all(got.get(k, 0) == w for k, w in want.items()), f"(e1 e2)^2 at t = {x}")

    label = f"tensor m={m} {shape}" + (" --at" if at else "")
    return Op(label, argv, _family_text(Q), 0, check)


def degeneration_cycle(rng):
    return [
        _analyze(rng, 3, "diag", vanish=1),
        _analyze(rng, 3, "dense_rat"),
        _tensor(rng, 3, "dense", at=False),
        _tensor(rng, 3, "diag_rat", at=True),
        _analyze_singular(rng, 3, "diag"),
        _analyze(rng, 5, "diag", vanish=2),
        _analyze(rng, 5, "dense", vanish=1),
        _analyze(rng, 5, "diag_rat"),
        _tensor(rng, 5, "dense", at=False),
        _tensor(rng, 5, "dense", at=True),
        _analyze_singular(rng, 5, "dense"),
        _analyze(rng, 7, "near_diag", vanish=1),
        _tensor(rng, 7, "diag", at=False),
        _tensor(rng, 7, "near_diag", at=True),
    ]


def degeneration_warmup(rng):
    return [
        _analyze(rng, 3, "diag", vanish=1),
        _tensor(rng, 3, "dense_rat", at=False),
        _tensor(rng, 3, "dense", at=True),
        _analyze(rng, 5, "diag"),
    ]


# ---------------------------------------------------------------------------
# spin_local: spinor modules, weights, branching, Lipschitz, local models


def _spinor_check(ell: int, odd: bool) -> Op:
    m = 2 * ell + odd
    dim = 2**ell
    target = dim * dim if odd else dim * dim // 2

    def check(doc):
        p = _payload(doc, "spinor check")
        expect(p["case"] == ("odd" if odd else "even") and p["ell"] == ell, "case")
        expect(p["relations_ok"] is True and p["bijective"] is True, "not bijective")
        expect(p["operator_rank"] == target == p["target_dim"], f"rank {p['operator_rank']}")
        expect(p["dim_even_algebra"] == 2 ** (m - 1), "even algebra dimension")

    parity = "--odd" if odd else "--even"
    return Op(f"spinor check ell={ell} {parity}", ("spinor", "check", "--ell", str(ell), parity), "", 0, check)


def _spinor_weights(ell: int, module: str) -> Op:
    """module: "B" (spin), "D" (both half-spins), "+" or "-" (one half).
    S+ is the even exterior-degree half: an even number of +1/2 entries."""
    half = Fraction(1, 2)
    want = sorted(
        (w, 1)
        for w in product((half, -half), repeat=ell)
        if module in "BD" or sum(x > 0 for x in w) % 2 == (module == "-")
    )
    extra = {"B": (), "D": ("--type", "D"), "+": ("--halfspin", "+"), "-": ("--halfspin", "-")}[module]

    def check(doc):
        p = _payload(doc, "spinor weights")
        got = sorted((tuple(Fraction(x) for x in w["weight"]), w["multiplicity"]) for w in p["weights"])
        expect(got == want, "weight multiset")
        expect(p["count"] == len(want), f"count {p['count']}")

    argv = ("spinor", "weights", "--ell", str(ell)) + extra
    return Op(f"spinor weights ell={ell} {module}", argv, "", 0, check)


def _plethysm(case: str, halfspin: str = None) -> Op:
    dim = 4096 if case == "f4" else 64

    def check(doc):
        p = _payload(doc, "plethysm verify")
        expect(p["is_single_irreducible"] is True and p["halfspin_agree"] is True, "not irreducible")
        (c,) = p["constituents"]
        expect(c["dim"] == dim and c["multiplicity"] == 1, f"constituent {c}")
        if case == "g2":
            expect(p["matches_rho_module"] is True and c["highest_weight"] == p["rho"], "not V_rho")

    argv = ("plethysm", "verify", case) + (("--halfspin", halfspin) if halfspin else ())
    return Op(f"plethysm {case}" + (f" {halfspin}" if halfspin else ""), argv, "", 0, check)


def _blade_key(mask: int) -> str:
    return "[" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "]"


def _lipschitz(rng, m: int, corank: int, member: bool) -> Op:
    """Diagonal form with ``corank`` zero entries.  Members are products of
    m - 2 independent vectors.  Non-members are a e_ij + b e_kl over four
    nondegenerate directions (x tau(x) is not a scalar) when the form has
    them, else a vector plus a bivector (not homogeneous)."""
    qs = [_rat(rng, nonzero=True) for _ in range(m - corank)] + [Fraction(0)] * corank
    rng.shuffle(qs)
    live = [i for i in range(m) if qs[i]]
    homogeneous = True
    if member:
        k = m - 2
        while True:
            vecs = [[_rat(rng) for _ in range(m)] for _ in range(k)]
            if oracle.rank(vecs) == k:
                break
        x = {0: Fraction(1)}
        for v in vecs:
            x = oracle.diag_mul(x, {1 << i: c for i, c in enumerate(v) if c}, qs)
    elif len(live) >= 4:
        i, j, k, l = rng.sample(live, 4)
        x = {1 << i | 1 << j: _rat(rng, nonzero=True), 1 << k | 1 << l: _rat(rng, nonzero=True)}
    else:
        i, j = rng.sample(range(m), 2)
        x = {1 << i: _rat(rng, nonzero=True), 1 << i | 1 << j: _rat(rng, nonzero=True)}
        homogeneous = False
    z = oracle.diag_mul(x, oracle.diag_reverse(x), qs)
    norm = z.get(0, Fraction(0)) if set(z) <= {0} else None
    verdict = "none"
    if member:
        verdict = "monoid"
        if norm:
            verdict = "group"
            if len(vecs) % 2 == 0 and norm == 1:
                verdict = "spin"

    def check(doc):
        p = _payload(doc, "lipschitz test")
        expect(p["homogeneous"] is homogeneous, "homogeneous")
        expect(p["cl0_member"] is member, f"cl0_member {p['cl0_member']}, expected {member}")
        got = None if p["norm_scalar"] is None else Fraction(p["norm_scalar"])
        expect(got == norm, f"norm_scalar {got}, expected {norm}")
        expect(p["verdict"] == verdict, f"verdict {p['verdict']}, expected {verdict}")

    space = {"m": m, "Q": [[str(qs[i]) if i == j else "0" for j in range(m)] for i in range(m)]}
    text = json.dumps({"V": space, "x": {_blade_key(b): str(c) for b, c in x.items()}})
    label = f"lipschitz m={m} corank={corank} {'member' if member else 'non-member'}"
    return Op(label, ("lipschitz", "test", "--input", "-"), text, 0, check)


def _ints(rng, n, lo=-3, hi=3):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def _conjugate(mats, P, Pinv):
    return [oracle.mat_mul(oracle.mat_mul(P, X), Pinv) for X in mats]


def _tuple_json(mats) -> dict:
    return {"g": len(mats), "n": len(mats[0]), "X": [[[str(v) for v in row] for row in X] for X in mats]}


def _irreducible(rng, n: int, g: int):
    """Diagonal with distinct entries plus a matrix with no zero
    off-diagonal entry: together they generate the full matrix algebra."""
    d = rng.sample(range(-5, 6), n)
    D = [[Fraction(d[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    A = [[Fraction(rng.choice(NONZERO)) if i != j else Fraction(rng.randint(-3, 3)) for j in range(n)] for i in range(n)]
    return [D, A] + [_ints(rng, n) for _ in range(g - 2)]


def _upper(rng, n: int, g: int):
    return [[[Fraction(rng.randint(-3, 3)) if j >= i else Fraction(0) for j in range(n)] for i in range(n)] for _ in range(g)]


def _simple(rng, n: int, g: int, full: bool) -> Op:
    P, Pinv = oracle.unimodular_pair(rng, n)
    if full:
        mats = _irreducible(rng, n, g)
        vector = [rng.choice(NONZERO) for _ in range(n)]
    else:
        mats = _upper(rng, n, g)
        vector = [P[i][0] for i in range(n)]  # P e_1 spans an invariant line

    def check(doc):
        p = _payload(doc, "localmodel simple")
        expect(p["generates_full_algebra"] is full, "generates_full_algebra")
        expect(p["cyclic_vector"] is full, "cyclic_vector")

    text = json.dumps({"tuple": _tuple_json(_conjugate(mats, P, Pinv)), "vector": [str(v) for v in vector]})
    label = f"simple n={n} g={g} {'full' if full else 'reducible'}"
    return Op(label, ("localmodel", "simple", "--input", "-"), text, 0, check)


def _sequiv(rng, n: int, g: int, L, equivalent: bool) -> Op:
    P, Pinv = oracle.unimodular_pair(rng, n)
    first = [_ints(rng, n) for _ in range(g)]
    second = [list(map(list, X)) for X in first]
    if not equivalent:
        shift = rng.choice((-2, -1, 1, 2))  # tr X_1 moves by n * shift
        for i in range(n):
            second[0][i][i] += shift
    doc_in = {"first": _tuple_json(first), "second": _tuple_json(_conjugate(second, P, Pinv))}
    argv = ("localmodel", "sequiv", "--input", "-") + (("--L", str(L)) if L else ())

    def check(doc):
        p = _payload(doc, "localmodel sequiv")
        expect(p["equivalent"] is equivalent, f"equivalent {p['equivalent']}")
        expect(p["length_bound"] == (L or n * n), "length_bound")

    label = f"sequiv n={n} g={g} L={L or n * n} {'equal' if equivalent else 'differ'}"
    return Op(label, argv, json.dumps(doc_in), 0, check)


def _centralizer(rng, n: int, commuting: bool) -> Op:
    """Commuting diagonal tuples have the diagonal matrices (dimension n)
    as centralizer in gl_n; an irreducible tuple has the scalars (1)."""
    P, Pinv = oracle.unimodular_pair(rng, n)
    if commuting:
        mats = []
        for _ in range(2):
            d = rng.sample(range(-5, 6), n)
            mats.append([[Fraction(d[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)])
    else:
        mats = _irreducible(rng, n, 2)
    units = [[[Fraction(int((r, c) == (i, j))) for c in range(n)] for r in range(n)] for i in range(n) for j in range(n)]
    h = _tuple_json(_conjugate(units, P, Pinv))["X"]
    want = n if commuting else 1

    def check(doc):
        p = _payload(doc, "localmodel centralizer")
        expect(p["dimension"] == want, f"dimension {p['dimension']}, expected {want}")

    text = json.dumps({"tuple": _tuple_json(_conjugate(mats, P, Pinv)), "h": h})
    label = f"centralizer n={n} {'commuting' if commuting else 'irreducible'}"
    return Op(label, ("localmodel", "centralizer", "--input", "-"), text, 0, check)


LIPSCHITZ_FORMS = ((3, 0), (4, 0), (5, 0), (3, 1), (4, 1), (5, 1), (3, 3), (4, 4))


def spin_cycle(rng):
    ops = [_spinor_check(ell, odd) for ell in (1, 2, 3, 4) for odd in (True, False)]
    ops += [_spinor_weights(ell, mod) for ell, mod in ((3, "B"), (4, "D"), (5, "+"), (6, "-"), (7, "B"))]
    ops += [_plethysm("g2"), _plethysm("c3"), _plethysm("f4"), _plethysm("g2", "-"), _plethysm("c3", "-")]
    ops += [_lipschitz(rng, m, r, member) for m, r in LIPSCHITZ_FORMS for member in (True, False)]
    ops += [_simple(rng, n, g, full) for n, g, full in ((2, 2, True), (2, 2, False), (3, 2, True), (3, 2, False), (3, 3, True), (2, 3, False))]
    ops += [
        _sequiv(rng, 2, 2, None, True),
        _sequiv(rng, 2, 2, None, False),
        _sequiv(rng, 3, 2, None, True),
        _sequiv(rng, 2, 3, None, False),
        _sequiv(rng, 3, 3, 4, True),
        _sequiv(rng, 3, 3, 5, False),
    ]
    ops += [_centralizer(rng, n, commuting) for n in (2, 3) for commuting in (True, False)]
    return ops


def spin_warmup(rng):
    return [
        _spinor_check(2, True),
        _spinor_weights(3, "B"),
        _plethysm("g2"),
        _plethysm("c3"),
        _lipschitz(rng, 3, 0, True),
        _simple(rng, 2, 2, True),
        _sequiv(rng, 2, 2, None, True),
        _centralizer(rng, 2, False),
    ]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable  # rng -> [Op], the repeated unit of a run
    warmup: Callable  # rng -> [Op], run before timing and in each set-up probe
    prime: tuple = ()  # ops also run before timing, too slow to repeat per probe

    def cycle_ops(self, seed: int, index: int) -> list:
        return self.cycle(random.Random(f"{self.name}/{seed}/{index}"))

    def warmup_ops(self, seed: int) -> list:
        return self.warmup(random.Random(f"{self.name}/{seed}/warmup"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lie_reconstruct", lie_cycle, lie_warmup),
        Workload("degeneration", degeneration_cycle, degeneration_warmup),
        Workload("spin_local", spin_cycle, spin_warmup, prime=(_plethysm("f4"),)),
    )
}
