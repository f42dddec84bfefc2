"""Flat families, specialisation commutation, radicals, and witnesses.

Four constructions that the library replaced stay here as references: the
determinant by Gaussian elimination over Q(t); the Bareiss determinant
brought to lowest terms by one Euclid against the product of every row's
scale (the library cancels one denominator at a time); the radical computed
on the tensor over Q with ``Fraction`` kernel vectors, checked to be an ideal and
nilpotent, with its nilpotency index from the chain of its powers (the
library takes the dimension and the index from the structure theorem); and
the kernel of the trace form of the tensor over D Q, mapped to the e_a by
one ``Fraction`` per coordinate (the library now spans the radical by the
products Cl^odd ker Q(0) on the form itself)."""

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from cliffdegen import clifford, degeneration
from cliffdegen.cli import main
from cliffdegen.clifford import QuadraticSpace
from cliffdegen.degeneration import (
    NoWitness,
    _det_fraction_field,
    _integer_row,
    QuadraticFamily,
    certify_specialization,
    jacobson_radical,
    radical_shape,
)
from cliffdegen.jsonio import decode_space, encode_rational, encode_space, encode_tensor
from cliffdegen.liestructure import AlgebraTensor, even_blade_basis, theta_tensor
from cliffdegen.linalg import SpanBasis, echelon, nullspace_dense
from cliffdegen.rings import InvariantViolation, Poly, RatFun, eval_coeff
from test_liestructure import form_with_lcm, is_rational, lambdas, over_q


def t():
    return Poly.t()


# -- references -------------------------------------------------------------


def reference_det(rows) -> RatFun:
    """Gaussian elimination with division over Q(t), never reduced: each
    pivot step multiplies the degrees."""
    n = len(rows)
    mat = [[v if isinstance(v, RatFun) else RatFun(v, 1) for v in row] for row in rows]
    det = RatFun.const(1)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return RatFun.const(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            sign = -sign
        pv = mat[col][col]
        det = det * pv
        for r in range(col + 1, n):
            if not mat[r][col]:
                continue
            f = mat[r][col] * RatFun(pv.den, pv.num)
            for c2 in range(col, n):
                mat[r][c2] = mat[r][c2] - f * mat[col][c2]
    return det * sign


def one_euclid_integer_row(row) -> tuple:
    """(scale, polys): the row times its scale, over Z[t].  The scale is
    the product of the row's ``RatFun`` denominators times the lcm of the
    coefficient denominators that this product leaves."""
    polys = [v.num if isinstance(v, RatFun) else v if isinstance(v, Poly) else Poly.const(v) for v in row]
    scale = Poly.const(1)
    for i, v in enumerate(row):
        if isinstance(v, RatFun):
            scale = scale * v.den
            polys = [p if j == i else p * v.den for j, p in enumerate(polys)]
    L = lcm(*(c.denominator for p in polys + [scale] for c in p.coeffs))
    return scale * L, [Poly([int(c * L) for c in p.coeffs]) for p in polys]


def one_euclid_det(rows) -> RatFun:
    """Bareiss over Z[t] on the cleared rows, and the last pivot over the
    product of the scales reduced by one Euclid: on a dense m = 7 family
    over Q(t) that one Euclid took about 4.4 s of 5 s."""
    n = len(rows)
    scales, mat = zip(*(one_euclid_integer_row(row) for row in rows))
    mat = list(mat)
    sign = 1
    prev = Poly.const(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if mat[r][k]), None)
        if pivot is None:
            return RatFun.const(0)
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        p = mat[k][k]
        for i in range(k + 1, n):
            ri, a = mat[i], mat[i][k]
            for j in range(k + 1, n):
                q, r = divmod(p * ri[j] - a * mat[k][j], prev)
                assert not r
                ri[j] = q
        prev = p
    den = Poly.const(sign)
    for s in scales:
        den = den * s
    return RatFun(prev, den).reduced()


@dataclass
class ReferenceRadical:
    dimension: int
    basis: list  # coordinate vectors over the e_a
    nilpotency_index: int  # smallest k with radical^k = 0 (1 when radical = 0)


def witness_radical(w) -> ReferenceRadical:
    """The radical a witness reports, as the reference records it."""
    return ReferenceRadical(len(w.radical_basis), w.radical_basis, w.nilpotency_index)


def reference_radical(T: AlgebraTensor) -> ReferenceRadical:
    """The trace-form kernel over Q, with the ideal and nilpotency checks on
    ``Fraction`` kernel vectors; T must have scale 1."""
    assert T.scale == 1
    d = T.dim
    by_slot: dict = {}
    for (i, k), row in T.c.items():
        for l, v in row.items():
            by_slot.setdefault((k, l), []).append((i, v))
    gram = [[Fraction(0)] * d for _ in range(d)]
    for (k, l), left in by_slot.items():
        for i, v in left:
            for j, w in by_slot.get((l, k), ()):
                gram[i][j] += v * w
    kernel = nullspace_dense(gram, d)
    if not kernel:
        return ReferenceRadical(dimension=0, basis=[], nilpotency_index=1)
    span = echelon(kernel)
    sparse = [{k: v for k, v in enumerate(vec) if v != 0} for vec in kernel]
    for vec in sparse:
        for x in range(d):
            assert span.contains(T.multiply(vec, {x: 1})) and span.contains(T.multiply({x: 1}, vec))
    current, index = sparse, 1
    while current:
        nxt = SpanBasis()
        vecs = [p for a in current for b in sparse if (p := T.multiply(a, b)) and nxt.insert(p)]
        assert len(vecs) < len(current)
        current = vecs
        index += 1
    return ReferenceRadical(dimension=len(kernel), basis=kernel, nilpotency_index=index)


def reference_lambda_radical(T: AlgebraTensor) -> list:
    """The radical of the unital algebra T as the library computed it
    before it spanned Cl^odd ker Q(0): the kernel of the trace form
    (x, y) -> Tr(L_x L_y), the radical of any finite-dimensional
    associative algebra in characteristic 0, reported over the e_a.

    The work runs on T's own entries, those over D Q for a tensor of
    ``scale`` D.  With f_a = lambda_a e_a and Lambda = diag(lambda_a),
    gram_T = Lambda^-1 gram_S Lambda^-1 for the trace forms over Q and over
    D Q: gram_S has the pivot columns of gram_T, and its kernel vector y of
    free column fc (y's last nonzero entry) maps to gram_T's as
    x_j = lambda_j y_j / lambda_fc, one ``Fraction`` per nonzero
    coordinate."""
    if not is_rational(T):
        raise ValueError("radical computation requires rational coefficients")
    T.verify_unital()
    d = T.dim
    # the algebra is associative, so L_i L_j = L_(e_i e_j) and
    # Tr(L_i L_j) = sum over k of c[i,j][k] Tr(L_k), Tr(L_k) = sum over l
    # of c[k,l][l]: one pass over the entries for the traces, one for gram
    trace: dict = {}
    for (k, l), row in T.c.items():
        v = row.get(l)
        if v:
            trace[k] = trace.get(k, 0) + v
    gram = [[0] * d for _ in range(d)]
    for (i, j), row in T.c.items():
        gram[i][j] = sum(v * trace[k] for k, v in row.items() if k in trace)
    kernel = nullspace_dense(gram, d)
    lam = lambdas(T)
    basis = []
    for vec in kernel:
        fc = max(k for k, y in enumerate(vec) if y)
        lf = lam[fc]
        basis.append(
            [Fraction(lam[j] * y.numerator, lf * y.denominator) if y else y for j, y in enumerate(vec)]
        )
    return basis


def radical_basis(V: QuadraticSpace) -> list:
    """The library's basis of the radical of Cl0(V), over the e_a."""
    return jacobson_radical(V)[1]


def test_family_requires_regularity_at_zero():
    with pytest.raises(ValueError, match="regular at t = 0"):
        QuadraticFamily(
            QuadraticSpace.diagonal([RatFun.const(1), RatFun(Poly.const(1), t())])
        )


def test_each_entry_is_evaluated_at_zero_once(monkeypatch):
    """Building the family specialises it at t = 0, which is its regularity
    check, and keeps that fibre: certifying the family evaluates no entry
    at 0 again, so each of the m^2 entries is evaluated there once."""
    at_zero = []
    eval_coeff = clifford.eval_coeff

    def counted(v, c):
        if c == 0:
            at_zero.append(v)
        return eval_coeff(v, c)

    monkeypatch.setattr(clifford, "eval_coeff", counted)
    r = RatFun(t(), t() + 1)
    F = QuadraticFamily(QuadraticSpace([[t() + 1, r, 0], [r, 2, 0], [0, 0, t()]]))
    assert len(at_zero) == 9
    w = certify_specialization(F)
    assert len(at_zero) == 9
    assert F.special.gram == QuadraticSpace.diagonal([1, 2, 0]).gram and len(w.radical_basis) == 2


def test_family_tensor_polynomial_entries():
    F = QuadraticFamily.diagonal([1, 1, t()])
    T = over_q(theta_tensor(F.space))
    degrees = [len(v.coeffs) - 1 for row in T.c.values() for v in row.values() if isinstance(v, Poly)]
    assert degrees and max(degrees) <= 1


def _specialize_tensor(T, c):
    """Coefficient-wise substitution t = c in every entry over Q (a packed
    one unpacked by ``over_q``), zeros dropped."""
    T, c = over_q(T), Fraction(c)
    out = {}
    for key, row in T.c.items():
        vals = {k: x for k, v in row.items() if (x := eval_coeff(v, c))}
        if vals:
            out[key] = vals
    return AlgebraTensor(dim=T.dim, identity=T.identity, c=out, basis_masks=T.basis_masks)


def test_constant_family_and_commutation():
    F = QuadraticFamily.diagonal([1, t(), 2])
    T = theta_tensor(F.space)
    for c in (0, 5, Fraction(-3, 2)):  # the fibre at -3/2 has scale 2, the family 1
        assert over_q(_specialize_tensor(T, c)) == over_q(theta_tensor(F.at(c)))
    Fc = QuadraticFamily.diagonal([1, 2, 3])
    Tc = theta_tensor(Fc.space)
    assert _specialize_tensor(Tc, 7) == Tc


def test_fiber_dimension_is_constant():
    F = QuadraticFamily.diagonal([t(), 1, t()])
    for c in (0, 1, 2):
        assert theta_tensor(F.at(c)).dim == 4 == len(even_blade_basis(3))


def _m2_tensor():
    """M_2 in the unital basis (I, E12, E21, E22), written out by hand."""
    one = Fraction(1)
    c = {}
    for j in range(4):
        c[(0, j)] = {j: one}
        c[(j, 0)] = {j: one}
    c[(1, 2)] = {0: one, 3: -one}  # E12 E21 = I - E22
    c[(1, 3)] = {1: one}
    c[(2, 1)] = {3: one}
    c[(3, 2)] = {2: one}
    c[(3, 3)] = {3: one}
    return AlgebraTensor(dim=4, identity=0, c=c)


def test_radical_of_handwritten_matrix_algebra():
    T = _m2_tensor()
    T.verify_unital()
    assert reference_lambda_radical(T) == []


@pytest.mark.parametrize(
    "key, row, side",
    [((0, 2), {2: Fraction(2)}, "left"), ((3, 0), {}, "right"), ((1, 0), {1: 1, 2: 1}, "right")],
    ids=["left-scaled", "right-missing", "right-extra-term"],
)
def test_a_broken_identity_row_is_an_invariant_violation(key, row, side):
    T = _m2_tensor()
    T.c[key] = row
    with pytest.raises(InvariantViolation, match=f"identity fails on the {side} at"):
        T.verify_unital()
    with pytest.raises(InvariantViolation):
        reference_lambda_radical(T)


def test_radical_examples():
    assert jacobson_radical(QuadraticSpace.diagonal([1, 1, 1])) == ([], [])
    V = QuadraticSpace.diagonal([1, 1, 0])
    R, basis = jacobson_radical(V)
    assert R == [[0, 0, 1]]
    assert len(basis) == 2 == radical_shape(3, 1)[0]
    # the kernel directions are the even blades meeting the null direction:
    # coordinates 2 (e13) and 3 (e23) in the (e0, e12, e13, e23) basis
    assert echelon(basis).dim == 2
    for vec in basis:
        assert vec[0] == 0 and vec[1] == 0
    assert reference_radical(theta_tensor(V)).nilpotency_index == 2 == radical_shape(3, 1)[1]


def test_radical_of_full_matrix_algebra_via_clifford():
    # Cl^+ of a nondegenerate odd form is a full matrix algebra; m = 3 gives M_2
    assert radical_basis(QuadraticSpace.diagonal([1, -1, 1])) == []


def test_radical_rejects_parametric_tensor():
    # the trace-form reference refuses a tensor over Q[t]; the library's
    # radical takes the special fibre, over Q by construction
    F = QuadraticFamily.diagonal([1, 1, t()])
    with pytest.raises(ValueError):
        reference_lambda_radical(theta_tensor(F.space))


def test_witness_examples():
    w = certify_specialization(QuadraticFamily.diagonal([1, 1, t()]))
    assert w.det_generic == RatFun(Poly((0, 8)), Poly.const(1))
    assert len(w.radical_basis) == 2

    w2 = certify_specialization(QuadraticFamily.diagonal([1, 1, 1]))
    assert len(w2.radical_basis) == 0

    w3 = certify_specialization(QuadraticFamily.diagonal([t(), t(), t()]))
    assert len(w3.radical_basis) == 3


def test_witness_of_a_family_with_denominators_prints_the_fibre_over_q():
    """The special fibre is kept over D Q (D = 6 here) and printed over Q;
    the radical basis is over the e_a."""
    third = Poly([0, Fraction(1, 3)])
    F = QuadraticFamily(QuadraticSpace(
        [[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 3), third, 0], [0, 0, third]]
    ))
    w = certify_specialization(F)
    Q0 = theta_tensor(F.at(0))
    assert w.special_fiber.scale == 6
    assert encode_tensor(w.special_fiber) == encode_tensor(over_q(Q0))
    assert witness_radical(w) == reference_radical(over_q(Q0)) and len(w.radical_basis) == 2


def test_the_check_point_scan_passes_every_pole_and_root():
    # bad points are poles of an entry or roots of det 2Q: at most the
    # denominator degrees plus the degree of the det's numerator of them
    poles = Poly.const(1)
    for k in range(1, 6):
        poles = poles * Poly([-k, 1])
    roots = Poly.const(1)
    for k in range(6, 10):
        roots = roots * Poly([-k, 1])
    for entries, point in (
        ([RatFun(1, poles), 1, 1], 6),
        ([RatFun(roots, poles), 1, 1], 10),
        ([RatFun(1, poles), roots, RatFun(roots, poles)], 10),
    ):
        w = certify_specialization(QuadraticFamily.diagonal(entries))
        assert w.generic_check_point == point


def test_witness_requires_odd_m_and_generic_nondegeneracy():
    with pytest.raises(ValueError):
        certify_specialization(QuadraticFamily.diagonal([1, t()]))
    with pytest.raises(NoWitness):
        certify_specialization(QuadraticFamily.diagonal([t(), t(), Poly()]))


def test_semisimple_iff_nondegenerate_on_random_forms():
    rng = random.Random(41)
    for _ in range(50):
        m = rng.choice([3, 5])
        g = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                g[i][j] = v
                g[j][i] = v
        V = QuadraticSpace(g)
        twoq = [[2 * v for v in row] for row in V.gram]
        nondeg = echelon(twoq).dim == m
        rad = radical_basis(V)
        assert (rad == []) == nondeg


def test_radical_is_ideal_and_nil_by_construction():
    # the reference asserts that its kernel is an ideal and nilpotent, and
    # the library's kernel is the same; a degenerate case of each parity of
    # corank
    for diag in ([1, 1, 0], [1, 0, 0], [0, 0, 0]):
        V = QuadraticSpace.diagonal(diag)
        ref = reference_radical(theta_tensor(V))
        assert radical_basis(V) == ref.basis
        assert ref.nilpotency_index <= 4


def _sym(v):
    sympy = pytest.importorskip("sympy")
    if isinstance(v, RatFun):
        return _sym(v.num) / _sym(v.den)
    if isinstance(v, Poly):
        return sum((_sym(c) * sympy.Symbol("t") ** i for i, c in enumerate(v.coeffs)), sympy.Integer(0))
    return sympy.Rational(v.numerator, v.denominator)


def _random_rows(rng, n, case):
    """An n x n matrix of rationals, ``Poly``s and ``RatFun``s.  Case 0
    makes the first pivot zero; case 1 makes rows 0 and 1 agree up to a
    factor on the first two columns, so that the second pivot vanishes after
    the first elimination step."""

    def poly():
        return Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))])

    def entry():
        kind = rng.random()
        if kind < 0.2:
            return Fraction(0)
        if kind < 0.6:
            return poly()
        return RatFun(poly(), Poly([rng.randint(1, 3), rng.randint(-2, 2)]))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if case == 0:
        rows[0][0] = Fraction(0)
    elif case == 1:
        rows[0][0] = rows[0][0] or poly() + Poly.t()
        f = entry() or Fraction(2)
        rows[1][0], rows[1][1] = f * rows[0][0], f * rows[0][1]
    return rows


def test_det_fraction_field_matches_sympy_with_row_swaps():
    """The determinant equals sympy's, and it is sympy's ``cancel`` form up
    to the scalar that makes the denominator monic: lowest terms."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    T = sympy.Symbol("t")
    rng = random.Random(41)
    swaps = {"first": 0, "second": 0}
    for trial in range(96):
        case = trial % 3
        n = rng.randint((2, 3, 1)[case], 4 if trial < 72 else 7)
        rows = _random_rows(rng, n, case)
        got = _det_fraction_field(rows)
        assert isinstance(got, RatFun)
        M = DomainMatrix.from_Matrix(sympy.Matrix([[_sym(v) for v in row] for row in rows]))
        want = sympy.cancel(M.domain.to_sympy(M.to_field().det()))
        num, den = (sympy.Poly(x, T, domain="QQ") for x in sympy.fraction(want))
        lead = den.LC()
        assert sympy.Poly(_sym(got.num), T, domain="QQ") == num.quo_ground(lead), rows
        assert sympy.Poly(_sym(got.den), T, domain="QQ") == den.quo_ground(lead), rows
        assert got.den.coeffs[-1] == 1
        if want != 0 and case < 2:
            swaps[("first", "second")[case]] += 1
    assert min(swaps.values()) >= 8, swaps


def test_det_matches_the_elimination_over_q_t():
    rng = random.Random(43)
    for trial in range(45):
        case = trial % 3
        rows = _random_rows(rng, rng.randint((2, 3, 1)[case], 4), case)
        got, want = _det_fraction_field(rows), reference_det(rows)
        assert got == want, rows
        low = want.reduced()  # the form `degenerate analyze` prints
        assert (got.num.coeffs, got.den.coeffs) == (low.num.coeffs, low.den.coeffs), rows


def test_the_det_cancelled_scale_by_scale_is_the_one_euclid_lowest_terms():
    """Cancelling the last pivot against one denominator at a time gives
    the numerator and denominator of the one Euclid against the product of
    the scales,
    coefficient for coefficient: on random rows (zero entries, constant and
    non-monic denominators) and on the doubled rows of dense families over
    Q(t), whose entries the family reduced."""
    rng = random.Random(47)
    cases = [_random_rows(rng, rng.randint((2, 3, 1)[case], 6), case) for case in (0, 1, 2) * 20]
    for m, ratfuns in ((3, 3), (5, 4), (5, 10), (7, 6)):
        F = QuadraticFamily(decode_space(_roadmap_family(rng, m, ratfuns)))
        cases.append([[2 * v for v in row] for row in F.space.gram])
    for rows in cases:
        got, want = _det_fraction_field(rows), one_euclid_det(rows)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), rows


def _roadmap_family(rng, m, ratfuns):
    """Upper-triangle entries a + b t with a, b = randint(-4, 4)/randint(1, 3);
    the first ``ratfuns`` off-diagonal ones are divided by 1 + c t,
    c = randint(1, 3)."""
    Q = [[None] * m for _ in range(m)]
    off = 0
    for i in range(m):
        for j in range(i, m):
            a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            v = [str(a), str(b)]
            if i != j and off < ratfuns:
                v = {"num": v, "den": ["1", str(rng.randint(1, 3))]}
                off += 1
            Q[i][j] = Q[j][i] = v
    return {"m": m, "Q": Q}


@pytest.mark.parametrize("ratfuns", [0, 2, 4, 6])
def test_dense_m7_families_analyze_fast_with_a_det_of_minor_size(capsys, tmp_path, ratfuns):
    """Unreduced elimination over Q(t) spent 33.7 s on the det of the first
    of these families and printed degree 1825 over 1818; the det in lowest
    terms has degree at most 7, plus 2 for each pair of entries with a
    denominator 1 + c t.  Each analyze took about 0.4 s on a shared 2-core
    2.0 GHz Xeon: the 8 s bound leaves 20 times that for a loaded machine
    and still fails the unreduced elimination."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(_roadmap_family(random.Random(5), 7, ratfuns)))
    start = time.perf_counter()
    code = main(["degenerate", "analyze", "--input", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    det = json.loads(capsys.readouterr().out)["payload"]["det"]
    assert len(det["num"]) - 1 <= 7 + 2 * ratfuns and len(det["den"]) - 1 <= 2 * ratfuns
    assert det["den"][-1] == "1"
    assert elapsed < 8.0


def _low_rank_form(rng, m):
    """A^T diag(d) A with A an integer r x m matrix, r < m, and each d_k of
    denominator 2 or 3."""
    r = rng.randint(0, m - 1)
    A = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(r)]
    d = [Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3])) for _ in range(r)]
    return QuadraticSpace(
        [[sum((A[k][i] * d[k] * A[k][j] for k in range(r)), Fraction(0)) for j in range(m)] for i in range(m)]
    )


@pytest.mark.parametrize("D", [2, 3, 6])
def test_integer_radical_matches_the_fraction_reference(D):
    """The radical, over the e_a, is the reference's on the tensor over Q,
    basis vector for basis vector; so is the trace-form kernel of the
    tensor over D Q mapped to the e_a, and that of the tensor over Q."""
    rng = random.Random(f"integer-radical/{D}")
    mixed = 0
    for m in (2, 3, 3, 4, 4, 5, 5, 6):
        forms = [form_with_lcm(rng, m, D, "degenerate")]
        if m < 6:
            forms.append(_low_rank_form(rng, m))
        for V in forms:
            T = theta_tensor(V)
            assert T.scale == V.scaled()[0]
            want = reference_radical(over_q(T)).basis
            got = radical_basis(V)
            assert got == want, (D, m)
            assert reference_lambda_radical(T) == want, (D, m)
            assert reference_lambda_radical(over_q(T)) == want, (D, m)
            assert all(type(y) is Fraction for vec in got for y in vec)
            # a vector across grades is where lambda_j / lambda_fc is not 1
            grades = [{T.basis_masks[k].bit_count() for k, y in enumerate(vec) if y} for vec in got]
            mixed += T.scale > 1 and any(len(g) > 1 for g in grades)
    assert mixed >= 2


# -- the structure theorem ----------------------------------------------------


def _corank_family(rng, m, r, kind):
    """A family Q(t) whose fibre at 0 has corank r, and that fibre.
    Q(0) = P^T diag(q_1, .., q_(m-r), 0, .., 0) P, with each q_k = +-a/b for
    a, b in 1..2.  P is the identity for ``diagonal`` (the zeros then
    shuffled in), and unit upper triangular with entries in -1..1 above
    the diagonal otherwise.  The family is Q(0) + t I, except for ``qt``:
    Q(0) + t B with B symmetric and diagonally dominant, so det 2Q(t) != 0,
    whose fibre is taken by specialisation."""
    dense = kind != "diagonal"
    P = [[1 if i == j else rng.randint(-1, 1) if dense and j > i else 0 for j in range(m)] for i in range(m)]
    q = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 2), rng.randint(1, 2)) for _ in range(m - r)]
    q += [0] * r
    if not dense:
        rng.shuffle(q)
    Q0 = [[sum((P[k][i] * q[k] * P[k][j] for k in range(m)), Fraction(0)) for j in range(m)] for i in range(m)]
    B = [[int(i == j) for j in range(m)] for i in range(m)]
    if kind == "qt":
        for i in range(m):
            for j in range(i, m):
                B[i][j] = B[j][i] = rng.choice([-m, m]) if i == j else rng.randint(-1, 1)
    F = QuadraticFamily(QuadraticSpace([[Poly([Q0[i][j], B[i][j]]) for j in range(m)] for i in range(m)]))
    return F, (F.at(0) if kind == "qt" else QuadraticSpace(Q0))


def _printed(basis):
    return [[encode_rational(v) for v in vec] for vec in basis]


@pytest.mark.parametrize("kind", ["diagonal", "dense", "qt"])
def test_the_structure_theorem_gives_the_reference_radical(kind):
    """Dimension and nilpotency index of the radical by the formulas, and
    the printed basis of the span of Cl^odd ker Q(0), against the reference on
    every corank r = 0..m, m = 2..6; at odd m also the witness of a family
    with that special fibre, whose corank the library computes itself."""
    rng = random.Random(f"structure/{kind}")
    for m in range(2, 7):
        for r in range(m + 1):
            F, V = _corank_family(rng, m, r, kind)
            T = theta_tensor(V)
            want = reference_radical(over_q(T))
            assert radical_shape(m, r) == (want.dimension, want.nilpotency_index), (kind, m, r)
            assert _printed(radical_basis(V)) == _printed(want.basis), (kind, m, r)
            if m % 2:
                w = certify_specialization(F)
                assert witness_radical(w) == want, (kind, m, r)
                assert _printed(w.radical_basis) == _printed(want.basis), (kind, m, r)


def _dense_fibre(rng, m, r) -> QuadraticSpace:
    """P^T diag(q_1, .., q_(m-r), 0, .., 0) P of corank r, P unit upper
    triangular with entries in -2..2 above the diagonal, each q_k = +-a/b
    with a in {1, 7, 11, 13} and b in {2, 3, 5}, so D > 1 for r < m."""
    P = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(m)] for i in range(m)]
    q = [Fraction(rng.choice([-1, 1]) * rng.choice([1, 7, 11, 13]), rng.choice([2, 3, 5])) for _ in range(m - r)]
    q += [0] * r
    return QuadraticSpace(
        [[sum((P[k][i] * q[k] * P[k][j] for k in range(m)), Fraction(0)) for j in range(m)] for i in range(m)]
    )


def test_the_radical_basis_matches_the_fraction_mapping_reference():
    """On dense rational fibres of every corank 0..m, m = 3..7, with D > 1
    (but for the zero form), the basis and its printed strings are the
    reference's, zeros kept as ``Fraction(0)``; some coordinates have
    lambda_j != lambda_fc."""
    rng = random.Random("lambda-radical")
    uneven = 0
    for m in range(3, 8):
        for r in range(m + 1):
            V = _dense_fibre(rng, m, r)
            T = theta_tensor(V)
            assert T.scale > 1 or r == m, (m, r)
            got, want = radical_basis(V), reference_lambda_radical(T)
            assert got == want and _printed(got) == _printed(want), (m, r)
            assert len(got) == radical_shape(m, r)[0], (m, r)
            assert all(type(y) is Fraction for vec in got for y in vec)
            lam = lambdas(T)
            for vec in got:
                fc = max(k for k, y in enumerate(vec) if y)
                uneven += any(y and lam[j] != lam[fc] for j, y in enumerate(vec))
    assert uneven > 0


def _orthogonal_product(a: int, b: int, q) -> tuple:
    """e_a e_b over diag(q_1, .., q_m) from the relations alone: each
    generator of b passes the generators of a above it, and e_i^2 = q_i.
    Returns (a ^ b, coefficient)."""
    swaps = sum((a >> (j + 1)).bit_count() for j in range(len(q)) if b >> j & 1)
    return a ^ b, (-1) ** swaps * prod(q[i] for i in range(len(q)) if (a & b) >> i & 1)


@pytest.mark.parametrize("m", [3, 4])
def test_the_trace_form_is_diagonal_in_an_orthogonal_basis(m):
    """Over diag(q_1, .., q_m) with symbolic q_i, Tr(L_(e_c)) = 0 for every
    even c != 0, and Tr(L_(e_a) L_(e_b)) is 0 for a != b and
    2^(m-1) e_a^2 = +-2^(m-1) prod_(i in a) q_i for a = b.  So the trace
    form is nondegenerate exactly when every q_i is, that is when
    det 2Q != 0.  The symbolic product is the library's tensor at rational
    points."""
    sympy = pytest.importorskip("sympy")
    q = sympy.symbols(f"q1:{m + 1}")
    masks = even_blade_basis(m)
    index = {mask: k for k, mask in enumerate(masks)}
    d = len(masks)

    def left(a):  # L_(e_a) on Cl0, column b holding e_a e_b
        L = sympy.zeros(d, d)
        for b in masks:
            c, v = _orthogonal_product(a, b, q)
            L[index[c], index[b]] = v
        return L

    Ls = {a: left(a) for a in masks}
    for c in masks[1:]:
        assert Ls[c].trace() == 0
    gram = sympy.Matrix(d, d, lambda i, j: sympy.expand((Ls[masks[i]] * Ls[masks[j]]).trace()))
    for i, a in enumerate(masks):
        k = a.bit_count()
        square = (-1) ** (k * (k - 1) // 2) * prod(q[j] for j in range(m) if a >> j & 1)
        assert gram[i, i] == sympy.expand(2 ** (m - 1) * square)
        assert all(gram[i, j] == 0 for j in range(d) if j != i)
    want = 2 ** ((m - 1) * d) * prod(q) ** (d // 2)
    assert sympy.expand(gram.det() - want) == 0 or sympy.expand(gram.det() + want) == 0
    rng = random.Random(f"orthogonal/{m}")
    for _ in range(3):
        vals = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for _ in range(m)]
        T = over_q(theta_tensor(QuadraticSpace.diagonal(vals)))
        for a in masks:
            for b in masks:
                c, v = _orthogonal_product(a, b, vals)
                assert T.entry(index[a], index[b]) == {index[c]: v}


def test_a_singular_check_point_is_an_invariant_violation(monkeypatch):
    """2Q(c) below full rank contradicts det 2Q(c) != 0.  Against a det that
    is wrongly a constant, the scan stops at t = 1, where
    diag(1, 1, t - 1) is singular."""
    monkeypatch.setattr(degeneration, "_det_fraction_field", lambda rows: RatFun.const(8))
    with pytest.raises(InvariantViolation, match="singular"):
        certify_specialization(QuadraticFamily.diagonal([1, 1, Poly([-1, 1])]))


def _pole_family(n):
    """diag(prod_(k=n+1)^(2n) (t - k) / prod_(k=1)^n (t - k), 1, 1): poles at
    t = 1..n and det roots at t = n + 1..2n, so the check point is 2n + 1."""
    num = den = Poly.const(1)
    for k in range(1, n + 1):
        num, den = num * Poly([-(n + k), 1]), den * Poly([-k, 1])
    return QuadraticFamily.diagonal([RatFun(num, den), 1, 1])


def _count_reductions(monkeypatch) -> list:
    """A list that grows by one on each call of ``RatFun.reduced``."""
    calls = []
    reduced = RatFun.reduced
    monkeypatch.setattr(RatFun, "reduced", lambda self: calls.append(1) or reduced(self))
    return calls


def _det_reductions(F) -> int:
    """The reductions of the det: one per ``RatFun`` denominator other than
    1 of a row of 2Q (:func:`~cliffdegen.degeneration._integer_row`); the
    integer scales are units and take none."""
    return sum(s != 1 for row in F.space.gram for s in _integer_row([2 * v for v in row])[0])


def test_the_check_point_scan_reduces_each_entry_once(monkeypatch, capsys, tmp_path):
    """Poles are tested on the denominators in lowest terms, each reduced
    once per family, as it is built; the det reduces once more, for the one
    denominator other than 1.  Evaluating the entry at each pole reduced it
    again there, 41 reductions in all, and took 0.5-2 s.  The stdout is
    pinned as it was printed then."""
    calls = _count_reductions(monkeypatch)
    F = _pole_family(40)
    assert len(calls) == 1
    w = certify_specialization(F)
    assert w.generic_check_point == 81 and len(calls) == 1 + _det_reductions(F) == 2
    monkeypatch.undo()
    path = tmp_path / "family.json"
    path.write_text(json.dumps(encode_space(F.space)))
    assert main(["degenerate", "analyze", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d2fe37b708b54c4c4fe1bc8852e55b6f2f981fbda585ed99b18dc6255c8697d4"
    )


def test_a_family_reduces_each_rational_entry_once(monkeypatch):
    """diag((t^2 + t)/t, 1, 1) has a removable singularity at 0.  Its entry
    is reduced once, when the family is built: the regularity check, the
    special fibre and the check-point scan read the stored lowest terms
    (they reduced it three times, once each).  Every denominator of 2Q is
    then 1, so the det reduces nothing."""
    t = Poly.t()
    calls = _count_reductions(monkeypatch)
    F = QuadraticFamily.diagonal([RatFun(t * t + t, t), 1, 1])
    assert len(calls) == 1
    entry = F.space.gram[0][0]
    assert (entry.num, entry.den) == (t + 1, Poly.const(1))
    w = certify_specialization(F)
    assert len(calls) == 1 + _det_reductions(F) == 1
    assert (w.generic_check_point, len(w.radical_basis)) == (1, 0)
    assert w.det_generic == RatFun(8 * (t + 1), Poly.const(1))


# sha256 of `degenerate analyze` stdout on the m = 7 families below, as the
# nilpotency chain printed it (in 4.6 s and 17 s, fresh processes, on a
# shared 2-core 2.0 GHz Xeon)
LARGE_RADICAL_SHA256 = {
    2: "f4c4ee384fc86c281ba1b4d70397dada1c0d56bbbb84a78cce21735dc0517cbe",
    4: "94c7c71e884247682250c5590f880b19a9fdf81d6b015e759f4e2f7ddaed6284",
}


def _large_radical_family(r):
    """Q0 + t I at m = 7, Q0 = P^T diag(q_1, .., q_(7-r), 0, .., 0) P of
    corank r: P unit upper triangular with entries in -2..2 above the
    diagonal, then q_k = +-a/b for a, b in 1..3, from random.Random(5)."""
    rng, m = random.Random(5), 7
    P = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(m)] for i in range(m)]
    q = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3)) for _ in range(m - r)] + [0] * r
    Q0 = [[sum((P[k][i] * q[k] * P[k][j] for k in range(m)), Fraction(0)) for j in range(m)] for i in range(m)]
    return {"m": m, "Q": [[[str(Q0[i][j]), "1"] if i == j else str(Q0[i][j]) for j in range(m)] for i in range(m)]}


@pytest.mark.parametrize("r, dim, index", [(2, 48, 3), (4, 60, 5)])
def test_m7_families_with_a_large_special_radical(capsys, tmp_path, r, dim, index):
    """The nilpotency chain spent seconds on these inputs of under 500
    bytes; each now takes about 0.4 s in process (shared 2-core 2.0 GHz
    Xeon), and the 4 s bound still fails the chain."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(_large_radical_family(r)))
    start = time.perf_counter()
    assert main(["degenerate", "analyze", "--input", str(path)]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    payload = json.loads(out)["payload"]
    assert (payload["radical_dim"], payload["radical_nilpotency_index"]) == (dim, index)
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_RADICAL_SHA256[r]
    assert elapsed < 4.0


# -- the printed certificate, checked from stdout alone ------------------------


def _printed_certificate(payload) -> tuple:
    """(dim, table, radical) read from a ``degenerate analyze`` payload
    alone: the special fibre as {(i, j): {k: int}} and the radical basis as
    sparse ``int`` vectors.  The table and each vector are cleared of their
    denominators, which moves no span and sends no product to or from 0."""
    fibre = payload["special_fiber"]
    entries = [(i, j, k, Fraction(v)) for i, j, k, v in fibre["c"]]
    L = lcm(*(v.denominator for *_, v in entries))
    table: dict = {}
    for i, j, k, v in entries:
        table.setdefault((i, j), {})[k] = int(v * L)
    radical = []
    for vec in payload["radical_basis"]:
        vec = {k: x for k, v in enumerate(vec) if (x := Fraction(v))}
        D = lcm(*(x.denominator for x in vec.values()))
        radical.append({k: int(x * D) for k, x in vec.items()})
    return fibre["dim"], table, radical


def _product(table, u, v) -> dict:
    out: dict = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: x for k, x in out.items() if x}


def _eliminate(w, row, p) -> dict:
    """w with column p cleared by ``row``, whose pivot is p, made primitive."""
    a, b = row[p], w[p]
    w = {k: x for k in w.keys() | row.keys() if (x := a * w.get(k, 0) - b * row.get(k, 0))}
    g = gcd(*w.values())
    return {k: x // g for k, x in w.items()}


class _IntSpan:
    """Span of sparse ``int`` vectors by fraction-free elimination: each
    row is primitive and keyed by its pivot, its minimal column."""

    def __init__(self):
        self.rows: dict = {}

    def insert(self, w) -> bool:
        for p in sorted(self.rows):  # a row reaches only past its pivot
            if w.get(p):
                w = _eliminate(w, self.rows[p], p)
        if w:
            self.rows[min(w)] = w
        return bool(w)

    def annihilator(self, d) -> list:
        """``int`` functionals {column: coefficient} whose common kernel is
        the span.  With the rows reduced (each 0 at the other pivots), w is
        in the span exactly when w - sum_p (w_p / r_p[p]) r_p = 0, and its
        entry at each column g that is no pivot is one functional."""
        for p in sorted(self.rows, reverse=True):
            for q in [q for q in self.rows[p] if q != p and q in self.rows]:
                self.rows[p] = _eliminate(self.rows[p], self.rows[q], q)
        out = []
        for g in range(d):
            if g not in self.rows:
                f = {g: Fraction(1)}
                f.update({p: -Fraction(r[g], r[p]) for p, r in self.rows.items() if r.get(g)})
                D = lcm(*(x.denominator for x in f.values()))
                out.append({k: int(x * D) for k, x in f.items()})
        return out


def _check_printed_certificate(payload):
    """The printed radical basis is independent and spans a two-sided ideal
    of the printed tensor, whose power at the printed nilpotency index is 0
    and whose power before it is not."""
    d, table, radical = _printed_certificate(payload)
    span = _IntSpan()
    assert all(span.insert(v) for v in radical)
    phi = span.annihilator(d)
    for v in radical:
        for x in range(d):
            for w in (_product(table, v, {x: 1}), _product(table, {x: 1}, v)):
                assert not any(sum(f.get(k, 0) * c for k, c in w.items()) for f in phi)
    index = payload["radical_nilpotency_index"]
    powers = [radical]  # bases of J, J^2, ..., J^n spanned by J^(n-1) J
    while powers[-1] and len(powers) <= index:
        nxt = _IntSpan()
        powers.append([p for a in powers[-1] for b in radical if (p := _product(table, a, b)) and nxt.insert(p)])
    assert len(powers) == index and not powers[-1]


def test_the_printed_certificate_holds_without_the_library_products(capsys, tmp_path):
    """On non-diagonal families Q0 + t I, Q0 of each corank at m = 3 and 5,
    and on an m = 7 family of corank 2, the stdout of `degenerate analyze`
    is checked with ``int`` and ``Fraction`` arithmetic only: no blade
    product, tensor or span of the library."""
    rng = random.Random("printed-certificate")
    docs = []
    for m in (3, 5):
        for r in range(m + 1):
            Q0 = _dense_fibre(rng, m, r).gram
            assert r == m or any(Q0[i][j] for i in range(m) for j in range(i)), (m, r)
            Q = [[Poly([Q0[i][j], int(i == j)]) for j in range(m)] for i in range(m)]
            docs.append(encode_space(QuadraticSpace(Q)))
    docs.append(_large_radical_family(2))
    path = tmp_path / "family.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        assert main(["degenerate", "analyze", "--input", str(path)]) == 0
        _check_printed_certificate(json.loads(capsys.readouterr().out)["payload"])
