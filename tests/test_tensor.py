"""The even-algebra tensor and its radical against the straightforward
constructions they replace, kept here as references: the tensor from one
geometric product per pair of even blades, products of vectors by a dense
double loop, the radical as the kernel of a dense Tr(L_i L_j) matrix, and
the printed tensor through one ``Fraction`` (or ``Poly`` of them) per
entry."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from cliffdegen.clifford import (
    BladeIndexError,
    Multivector,
    QuadraticSpace,
    blade_row,
    geometric_product,
)
from cliffdegen.degeneration import jacobson_radical, radical_shape
from cliffdegen.jsonio import encode_coeff, encode_tensor
from cliffdegen.liestructure import AlgebraTensor, even_blade_basis, theta_tensor, unscale
from cliffdegen.linalg import echelon
from cliffdegen.rings import Poly, RatFun, czero
from test_liestructure import PRIMORIAL_97, form_with_lcm, over_q

sympy = pytest.importorskip("sympy")


# -- references ---------------------------------------------------------


def reference_theta_tensor(V: QuadraticSpace) -> AlgebraTensor:
    """One geometric product per pair of even blades, on a fresh copy of
    the space so that no product cache is shared with the code under test."""
    V = QuadraticSpace(V.gram)
    masks = even_blade_basis(V.m)
    index = {mask: k for k, mask in enumerate(masks)}
    c = {}
    for i, ma in enumerate(masks):
        for j, mb in enumerate(masks):
            prod = geometric_product(
                Multivector({ma: Fraction(1)}), Multivector({mb: Fraction(1)}), V
            )
            row = {}
            for mask, coeff in prod.terms.items():
                row[index[mask]] = coeff
            if row:
                c[(i, j)] = row
    return AlgebraTensor(dim=len(masks), identity=0, c=c, basis_masks=masks)


def reference_multiply(T: AlgebraTensor, u: list, v: list) -> list:
    """Product of two dense coordinate vectors."""
    out = [0] * T.dim
    for i, a in enumerate(u):
        if czero(a):
            continue
        for j, bv in enumerate(v):
            if czero(bv):
                continue
            for k, coeff in T.entry(i, j).items():
                out[k] = out[k] + a * bv * coeff
    return out


def dense(vec: dict, d: int) -> list:
    return [vec.get(k, 0) for k in range(d)]


def sparse(vec: list) -> dict:
    return {k: v for k, v in enumerate(vec) if not czero(v)}


def exact(T: AlgebraTensor) -> dict:
    """Every entry with its representation, so that equal values written
    differently (an unreduced RatFun, an int for a Fraction) differ."""
    return {key: {k: repr(v) for k, v in row.items()} for key, row in T.c.items()}


def sym(v) -> "sympy.Rational":
    return sympy.Rational(v.numerator, v.denominator)


def reference_radical(T: AlgebraTensor):
    """(sympy basis of the kernel of the dense trace form, nilpotency
    index): L_i[l][k] = c[i,k][l] and Tr(L_i L_j) = sum over k, l of
    L_i[k][l] L_j[l][k]; R^(n+1) is spanned by the products of a basis of
    R^n with one of R."""
    d = T.dim
    L = [
        [[Fraction(T.entry(i, k).get(l, 0)) for k in range(d)] for l in range(d)]
        for i in range(d)
    ]
    gram = sympy.Matrix(
        d,
        d,
        lambda i, j: sym(
            sum(
                (L[i][k][l] * L[j][l][k] for k in range(d) for l in range(d)),
                Fraction(0),
            )
        ),
    )
    kernel = gram.nullspace()
    basis = [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in kernel]
    power, index = basis, 1
    while power:
        prods = [reference_multiply(T, a, b) for a in power for b in basis]
        rows = sympy.Matrix([[sym(x) for x in p] for p in prods]).rowspace()
        power = [[Fraction(int(x.p), int(x.q)) for x in r] for r in rows]
        index += 1
    return kernel, index


def reference_encode_tensor(T: AlgebraTensor) -> dict:
    """The entries over Q: entry k of basis_i basis_j is divided by
    lambda_i lambda_j / lambda_k (:meth:`AlgebraTensor.lambdas`) as it is
    encoded."""
    lam = T.lambdas()
    entries = []
    for (i, j) in sorted(T.c):
        row = T.c[(i, j)]
        lij = lam[i] * lam[j]
        for k in sorted(row):
            v = row[k] if T.scale == 1 else unscale(row[k], lij // lam[k])
            entries.append([i, j, k, encode_coeff(v)])
    return {"dim": T.dim, "identity": T.identity, "c": entries}


# -- forms --------------------------------------------------------------


def _rat(rng, den=3):
    return Fraction(rng.randint(-4, 4), rng.randint(1, den))


def _symmetric(m, entry):
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            g[i][j] = g[j][i] = entry(i, j)
    return QuadraticSpace(g)


def diagonal_form(rng, m):
    return QuadraticSpace.diagonal([_rat(rng) for _ in range(m)])


def dense_form(rng, m):
    return _symmetric(m, lambda i, j: _rat(rng))


def degenerate_form(rng, m):
    """A^T D A with A of rank at most m - 1, sometimes diagonal with zeros."""
    if rng.random() < 0.3:
        return QuadraticSpace.diagonal([rng.choice([0, 0, 1, -1, 2]) for _ in range(m)])
    r = rng.randint(0, m - 1)
    A = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(r)]
    D = [_rat(rng) for _ in range(r)]
    return _symmetric(m, lambda i, j: sum((A[k][i] * D[k] * A[k][j] for k in range(r)), Fraction(0)))


def poly_form(rng, m):
    return _symmetric(m, lambda i, j: Poly([_rat(rng) for _ in range(rng.randint(0, 3))]))


def ratfun_form(rng, m):
    def entry(i, j):
        num = Poly([_rat(rng) for _ in range(rng.randint(0, 2))])
        den = Poly([rng.choice([1, 2, 3]), _rat(rng)])
        return RatFun(num, den)

    return _symmetric(m, entry)


FORMS = [diagonal_form, dense_form, degenerate_form, poly_form, ratfun_form]


# -- the tensor, one row at a time ----------------------------------------


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
def test_theta_tensor_matches_one_product_per_pair(form):
    rng = random.Random(f"theta/{form.__name__}")
    for m in (1, 2, 3, 4, 4, 5, 5):
        V = form(rng, m)
        assert exact(over_q(theta_tensor(V))) == exact(reference_theta_tensor(V)), (form.__name__, m)


def test_theta_tensor_matches_one_product_per_pair_at_m6():
    rng = random.Random(6)
    for form in (dense_form, poly_form):
        V = form(rng, 6)
        T = theta_tensor(V)
        assert T.dim == 32
        assert exact(over_q(T)) == exact(reference_theta_tensor(V))


# -- the tensor on the integer form D Q -----------------------------------


def _int_coefficient(c) -> bool:
    return type(c) is int or type(c) is Poly and all(type(x) is int for x in c.coeffs)


def test_rows_on_the_integer_form_have_int_coefficients():
    rational = form_with_lcm(random.Random(60), 5, 60, "dense")
    family = _symmetric(5, lambda i, j: Poly([Fraction(2 * i + 1, 2), Fraction(j - i + 1, 3)]))
    for V, D in ((rational, 60), (family, 6)):
        assert V.scaled()[0] == D
        S = V.scaled()[1]
        kinds = set()
        for ma in range(1 << V.m):
            for terms in blade_row(S, ma):
                assert all(_int_coefficient(c) for c in terms.values()), (D, ma)
                kinds.update(type(c) for c in terms.values())
        assert kinds == ({int} if V is rational else {int, Poly})


@pytest.mark.parametrize("D", [1, 2, 6, 60, PRIMORIAL_97], ids=["1", "2", "6", "60", "primorial97"])
@pytest.mark.parametrize("shape", ["diagonal", "dense", "degenerate"])
def test_scaled_theta_tensor_matches_the_reference(D, shape):
    rng = random.Random(f"scaled-theta/{D}/{shape}")
    deep = 0
    for m in range(1, 7):
        V = form_with_lcm(rng, m, D, shape)
        assert V.scaled()[0] == D
        T = theta_tensor(V)
        want = reference_theta_tensor(V)
        assert exact(over_q(T)) == exact(want), (D, shape, m)
        # the tensor over D Q has int entries and prints as the one over Q
        assert T.scale == D and all(type(v) is int for row in T.c.values() for v in row.values())
        assert encode_tensor(T) == encode_tensor(want), (D, shape, m)
        # the entries of a b -> c with |a| + |b| >= |c| + 4 are divided by D^k, k >= 2
        masks = T.basis_masks
        deep += any(
            masks[i].bit_count() + masks[j].bit_count() >= masks[k].bit_count() + 4
            for (i, j), row in T.c.items()
            for k in row
        )
    assert deep >= 3


def test_scaled_theta_tensor_matches_the_reference_over_other_rings():
    """Q[t] forms with fractional coefficients are scaled; RatFun forms run
    unscaled."""
    rng = random.Random("scaled-theta/rings")
    for form in (poly_form, ratfun_form):
        for m in (2, 3, 4, 5, 6):
            V = form(rng, m)
            if form is poly_form:  # every entry gains a t/6 term, so 6 divides D
                V = QuadraticSpace([[v + Poly([0, Fraction(1, 6)]) for v in row] for row in V.gram])
                assert V.scaled()[0] % 6 == 0 and V.scaled()[1] is not V
            else:
                assert V.scaled() == (1, V) and V.scaled()[1] is V
            T, want = theta_tensor(V), reference_theta_tensor(V)
            assert exact(over_q(T)) == exact(want), (form.__name__, m)
            assert encode_tensor(T) == encode_tensor(want), (form.__name__, m)


def test_blade_row_lists_every_product_in_mask_order():
    rng = random.Random(11)
    for form in (dense_form, degenerate_form, ratfun_form):
        V = form(rng, 4)
        for ma in range(16):
            row = blade_row(V, ma)
            assert len(row) == 16
            for b in range(16):
                want = geometric_product(
                    Multivector({ma: Fraction(1)}), Multivector({b: Fraction(1)}), V
                )
                assert row[b] == want.terms, (ma, b)
    with pytest.raises(BladeIndexError):
        blade_row(QuadraticSpace.diagonal([1, 1]), 0b100)


# -- sparse products of vectors --------------------------------------------


def _random_vector(rng, d, values):
    keys = rng.sample(range(d), rng.randint(0, min(d, 5)))
    vec = {k: values(rng) for k in keys}
    return {k: v for k, v in vec.items() if not czero(v)}


def unit_form(rng, m):
    """diag(+-1): products of blades cancel often."""
    return QuadraticSpace.diagonal([rng.choice([1, -1]) for _ in range(m)])


def test_sparse_multiply_matches_the_dense_loop():
    rng = random.Random(23)
    cancelled = 0
    for form in (diagonal_form, dense_form, degenerate_form, poly_form, unit_form):
        for m in (2, 3, 4, 5):
            T = theta_tensor(form(rng, m))
            d = T.dim
            values = lambda r: r.choice([-1, 1, 2])  # small values make sums that cancel common
            for _ in range(12):
                u = _random_vector(rng, d, values)
                v = _random_vector(rng, d, values)
                want = reference_multiply(T, dense(u, d), dense(v, d))
                got = T.multiply(u, v)
                assert got == sparse(want), (form.__name__, m, u, v)
                touched = {k for i in u for j in v for k in T.entry(i, j)}
                cancelled += len(touched - set(got))
    assert cancelled > 20  # sums that cancel to zero leave no key behind


def test_sparse_multiply_drops_cancelled_and_nilpotent_terms():
    # (1 + e12)(1 - e12) = 1 - e12^2 = 1 + q1 q2 = 0 when q1 q2 = -1
    T = theta_tensor(QuadraticSpace.diagonal([1, -1, 3]))
    assert T.multiply({0: 1, 1: 1}, {0: 1, 1: -1}) == {}
    T = theta_tensor(QuadraticSpace.diagonal([1, 1, 1]))
    assert T.multiply({0: 2}, {1: 3}) == {1: 6}


# -- printing the tensor from its ints -------------------------------------

PRINT_SCALES = [1, 2, 6, 12, 2**10, 97]


def _printed(T: AlgebraTensor) -> str:
    return json.dumps(encode_tensor(T))


def _synthetic_tensor(rng, m: int, D: int) -> AlgebraTensor:
    """Random sparse entries on the even blades of m generators, of scale D:
    nonzero ``int``s of either sign, some of them multiples of powers of D,
    and ``Poly``s of them with zero coefficients inside.  As in a Clifford
    tensor, e_a e_b has terms on blades c with |c| <= |a| + |b| only."""
    masks = even_blade_basis(m)
    d = len(masks)
    h = [mask.bit_count() >> 1 for mask in masks]

    def number():
        return rng.choice([-1, 1]) * rng.randint(1, 60) * D ** rng.randint(0, 3) * rng.choice([1, 2, 3, 5])

    c = {}
    for i in range(d):
        for j in range(d):
            if rng.random() < 0.5:
                continue
            row = {}
            below = [k for k in range(d) if h[k] <= h[i] + h[j]]
            for k in rng.sample(below, rng.randint(1, min(len(below), 4))):
                if rng.random() < 0.5:
                    row[k] = number()
                else:
                    coeffs = [number() if rng.random() < 0.6 else 0 for _ in range(rng.randint(1, 4))]
                    row[k] = Poly(coeffs + [number()])
            c[(i, j)] = row
    return AlgebraTensor(dim=d, identity=0, c=c, basis_masks=masks, scale=D)


@pytest.mark.parametrize("D", PRINT_SCALES)
def test_the_printed_tensor_matches_the_unscale_reference(D):
    """Byte for byte, on random ints and Polys of every sign, with zero
    coefficients inside a Poly; with D > 1 some entries are p/q after a
    cancellation (gcd neither 1 nor q), and some are divided by
    D^(h_i + h_j - h_k) != D^(h_k)."""
    rng = random.Random(f"print/{D}")
    cancelled = uneven = inner_zeros = 0
    for m in (2, 3, 4, 5, 6):
        T = _synthetic_tensor(rng, m, D)
        assert _printed(T) == json.dumps(reference_encode_tensor(T)), (D, m)
        h = [mask.bit_count() >> 1 for mask in T.basis_masks]
        for (i, j), row in T.c.items():
            for k, v in row.items():
                q = D ** (h[i] + h[j] - h[k])
                coeffs = v.coeffs if type(v) is Poly else (v,)
                cancelled += any(1 < gcd(a, q) < q for a in coeffs)
                uneven += h[i] + h[j] - h[k] != h[k]
                inner_zeros += 0 in coeffs[1:-1]
    assert inner_zeros > 0
    if D > 1:
        assert cancelled > 0 and uneven > 0


def _poly_form_with_lcm(rng, m: int, D: int) -> QuadraticSpace:
    """A dense form over Q[t] of degree up to 2, with zero middle
    coefficients, whose coefficient denominators have lcm D."""
    dens = [q for q in range(1, D + 1) if D % q == 0]

    def entry(i, j):
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(rng.randint(1, 3))]
        if len(coeffs) == 3 and rng.random() < 0.5:
            coeffs[1] = Fraction(0)
        return Poly(coeffs)

    V = _symmetric(m, entry)
    gram = [list(row) for row in V.gram]
    gram[0][0] = Poly([Fraction(1, D), 0, Fraction(-3, rng.choice(dens))])
    return QuadraticSpace(gram)


@pytest.mark.parametrize("D", PRINT_SCALES)
def test_theta_tensors_print_as_the_unscale_reference(D):
    """Clifford tensors over Q and Q[t] of scale D, and over Q(t) (scale
    1), print byte for byte as the reference prints them."""
    rng = random.Random(f"print-theta/{D}")
    for m in (2, 3, 4, 5):
        forms = ((form_with_lcm(rng, m, D, "dense"), D), (_poly_form_with_lcm(rng, m, D), D), (ratfun_form(rng, m), 1))
        for V, scale in forms:
            T = theta_tensor(V)
            assert T.scale == scale
            assert _printed(T) == json.dumps(reference_encode_tensor(T)), (D, m, scale)


# -- the radical through the joined trace form -----------------------------


def _same_span(kernel, basis) -> bool:
    if len(kernel) != len(basis):
        return False
    if not basis:
        return True
    ours = sympy.Matrix([[sym(x) for x in vec] for vec in basis])
    both = ours.col_join(sympy.Matrix.hstack(*kernel).T)
    return ours.rank() == both.rank() == len(basis)


@pytest.mark.parametrize("form", [diagonal_form, dense_form, degenerate_form], ids=lambda f: f.__name__)
def test_radical_matches_the_dense_trace_form_kernel(form):
    rng = random.Random(f"radical/{form.__name__}")
    radicals = 0
    for m in (1, 2, 3, 3, 4, 4, 5, 5):
        V = form(rng, m)
        T = theta_tensor(V)
        basis = jacobson_radical(T)
        kernel, index = reference_radical(over_q(T))
        assert len(basis) == len(kernel), (form.__name__, m)
        assert _same_span(kernel, basis), (form.__name__, m)
        # the certificate's dimension and index, from the corank of V
        assert radical_shape(m, m - echelon(V.gram).dim) == (len(kernel), index), (form.__name__, m)
        assert all(len(vec) == T.dim for vec in basis)  # dense lists
        radicals += len(basis) > 0
    if form is degenerate_form:
        assert radicals >= 6


def test_radical_of_a_non_clifford_algebra_matches_the_dense_kernel():
    # upper triangular 3x3 matrices: the radical is the strictly upper part,
    # a product of whose basis elements e12 e23 = e13 survives once
    E = {(1, 1): 0, (2, 2): 1, (3, 3): 2, (1, 2): 3, (2, 3): 4, (1, 3): 5}
    units = {v: k for k, v in E.items()}
    d = 7  # the identity is coordinate 6
    c = {}
    for a, (i, j) in units.items():
        for b, (k, l) in units.items():
            if j == k:
                c[(a, b)] = {E[(i, l)]: Fraction(1)}
    for a in range(d):
        c[(6, a)] = c[(a, 6)] = {a: Fraction(1)}
    T = AlgebraTensor(dim=d, identity=6, c=c)
    basis = jacobson_radical(T)
    kernel, index = reference_radical(T)
    assert len(basis) == len(kernel) == 3
    assert _same_span(kernel, basis)
    assert index == 3  # the library computes no index off a Clifford algebra
