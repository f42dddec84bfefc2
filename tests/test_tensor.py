"""The even-algebra tensor and its radical against the straightforward
constructions they replace, kept here as references: the tensor from one
geometric product per pair of even blades, the tensor over Z[t] on
``Poly`` entries (before its Kronecker packing), products of vectors by a
dense double loop, the radical as the kernel of a dense Tr(L_i L_j) matrix,
and the printed tensor through one ``Fraction`` (or ``Poly`` of them) per
entry."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from cliffdegen import liestructure
from cliffdegen.clifford import (
    BladeIndexError,
    Multivector,
    QuadraticSpace,
    blade_row,
    geometric_product,
)
from cliffdegen.degeneration import jacobson_radical, radical_shape
from cliffdegen.jsonio import decode_coeff, encode_coeff, encode_tensor
from cliffdegen.liestructure import AlgebraTensor, even_blade_basis, theta_tensor
from cliffdegen.linalg import echelon
from cliffdegen.rings import Poly, RatFun, czero
from test_degeneration import reference_lambda_radical
from test_liestructure import PRIMORIAL_97, form_with_lcm, is_rational, over_q, unpacked

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


def reference_poly_theta_tensor(V: QuadraticSpace) -> AlgebraTensor:
    """:func:`theta_tensor` without the Kronecker packing: the blade rows
    of the integer form D Q itself, so that on a form over Q[t] every
    product runs on ``Poly`` entries."""
    masks = even_blade_basis(V.m)
    index = {mask: k for k, mask in enumerate(masks)}
    D, S = V.scaled()
    steps = {}
    c = {}
    for i, ma in enumerate(masks):
        products = blade_row(S, steps, ma)
        for j, mb in enumerate(masks):
            if products[mb]:
                c[(i, j)] = {index[mask]: coeff for mask, coeff in products[mb].items()}
    return AlgebraTensor(dim=len(masks), identity=0, c=c, basis_masks=masks, scale=D)


def reference_encode_tensor(T: AlgebraTensor) -> dict:
    """The entries over Q of ``over_q``, each a ``Fraction`` (or a ``Poly``
    of them) divided by lambda_i lambda_j / lambda_k, lambda_a =
    D^(|a|/2), as it is encoded."""
    U = over_q(T)
    entries = [[i, j, k, encode_coeff(U.c[(i, j)][k])] for (i, j) in sorted(U.c) for k in sorted(U.c[(i, j)])]
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
        steps = {}
        for ma in range(1 << V.m):
            for terms in blade_row(S, steps, ma):
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
        steps = {}
        for ma in range(16):
            row = blade_row(V, steps, ma)
            assert len(row) == 16
            for b in range(16):
                want = geometric_product(
                    Multivector({ma: Fraction(1)}), Multivector({b: Fraction(1)}), V
                )
                assert row[b] == want.terms, (ma, b)
    with pytest.raises(BladeIndexError):
        blade_row(QuadraticSpace.diagonal([1, 1]), {}, 0b100)


def test_a_tensor_on_one_table_is_the_tensor_on_a_table_per_row(monkeypatch):
    """theta_tensor fills one table of steps and reads it for every row;
    with a fresh table for each row it builds the same tensor, entry for
    entry and byte for byte, over Q, Q[t] (packed), Q(t) and corank 1."""
    rng = random.Random("one-table")
    forms = [(form, m) for form in (dense_form, degenerate_form, poly_form) for m in (3, 5, 6)]
    forms += [(ratfun_form, 3), (ratfun_form, 4)]
    tables, packed = [], 0

    def recorded(S, steps, ma):
        tables.append(steps)
        return blade_row(S, steps, ma)

    for form, m in forms:
        V = form(rng, m)
        tables.clear()
        with monkeypatch.context() as patch:
            patch.setattr(liestructure, "blade_row", recorded)
            shared = theta_tensor(V)
        # one table per tensor, read by all of its 2^(m-1) rows
        assert len(tables) == 1 << (m - 1) and all(steps is tables[0] for steps in tables)
        with monkeypatch.context() as patch:
            patch.setattr(liestructure, "blade_row", lambda S, steps, ma: blade_row(S, {}, ma))
            fresh = theta_tensor(V)
        assert (shared.dim, shared.scale, shared.width) == (fresh.dim, fresh.scale, fresh.width)
        assert list(shared.c.items()) == list(fresh.c.items()), (form.__name__, m)
        assert json.dumps(encode_tensor(shared)) == json.dumps(encode_tensor(fresh)), (form.__name__, m)
        packed += shared.width > 0
    assert packed == 3


# -- the tensor over Z[t], packed at t = 2^N ------------------------------


def _coefficients(T: AlgebraTensor) -> dict:
    """Each entry as its tuple of coefficients over D Q: a packed one
    unpacked, a ``Poly``'s own, an ``int`` alone."""

    def coeffs(v):
        if T.width:
            return unpacked(v, T.width).coeffs
        return v.coeffs if type(v) is Poly else (v,)

    return {key: {k: coeffs(v) for k, v in row.items()} for key, row in T.c.items()}


def _zt_form(rng, m: int, kind: str) -> QuadraticSpace:
    """A form whose every entry is a ``Poly``: ``dense`` of degree 0..3 with
    negative and interior-zero coefficients, over denominators 1..3;
    ``constant``, entries such as Poly([-2]); ``zero``; or ``corank2``,
    P^T diag(p_1, ..., p_(m-2), 0, 0) P with P unit upper triangular."""

    def poly():
        coeffs = [_rat(rng) for _ in range(rng.randint(1, 4))]
        if len(coeffs) > 2 and rng.random() < 0.5:
            coeffs[1] = Fraction(0)
        return Poly(coeffs)

    if kind == "dense":
        return _symmetric(m, lambda i, j: poly())
    if kind == "constant":
        return _symmetric(m, lambda i, j: Poly([rng.randint(-4, 4)]))
    if kind == "zero":
        return _symmetric(m, lambda i, j: Poly())
    diag = [poly() for _ in range(m - 2)] + [Poly(), Poly()]
    P = [[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(m)] for i in range(m)]
    return _symmetric(m, lambda i, j: sum((P[k][i] * P[k][j] * diag[k] for k in range(m)), Poly()))


@pytest.mark.parametrize("kind", ["dense", "constant", "zero", "corank2"])
def test_the_packed_tensor_matches_the_poly_reference(kind):
    """Unpacked, every entry of the packed tensor is the reference's
    polynomial over D Q, each coefficient below 2^(N-2) as the width's
    bound says; printed, the tensor is byte for byte the reference's."""
    rng = random.Random(f"packed/{kind}")
    scales = set()
    for m in (1, 2, 3, 4, 5, 6) if kind != "corank2" else (2, 3, 4, 5, 6):
        V = _zt_form(rng, m, kind)
        T, want = theta_tensor(V), reference_poly_theta_tensor(V)
        assert T.width > 0 and T.scale == want.scale, (kind, m)
        coeffs = _coefficients(want)
        assert _coefficients(T) == coeffs, (kind, m)
        assert all(abs(a) < 1 << (T.width - 2) for row in coeffs.values() for cs in row.values() for a in cs)
        assert _printed(T) == json.dumps(reference_encode_tensor(want)), (kind, m)
        scales.add(T.scale)
    if kind in ("dense", "corank2"):
        assert len(scales) > 1  # some forms have D > 1


def test_the_digit_width_is_the_bound_and_one_bit_less_fails(monkeypatch):
    """N = bitlen(C(2m, m) m! B^m) + 2: here B = 18, the off-diagonal
    entry -4 + 5t^2 of L1 norm 9 doubled by beta, so N = bitlen(20 * 6 *
    18^3 = 699840) + 2 = 22.  With b the bit length of the largest
    coefficient (-42, so b = 6), width b + 1 is the least that the balanced
    digits allow, and width b reads the wrong tensor."""
    V = QuadraticSpace(
        [
            [Poly([5, 7]), Poly([0, 3]), Poly([-4, 0, 5])],
            [Poly([0, 3]), Poly([3, -2]), Poly([1])],
            [Poly([-4, 0, 5]), Poly([1]), Poly([6])],
        ]
    )
    assert theta_tensor(V).width == 22
    want = _coefficients(reference_poly_theta_tensor(V))
    top = max((a for row in want.values() for cs in row.values() for a in cs), key=abs)
    b = top.bit_length()
    assert (top, b) == (-42, 6)  # not -2^(b-1), which width b would still hold
    for N, agrees in ((b, False), (b + 1, True), (22, True)):
        monkeypatch.setattr(liestructure, "_digit_width", lambda S, N=N: N)
        T = theta_tensor(V)
        assert T.width == N and (_coefficients(T) == want) is agrees, N


def test_no_poly_arithmetic_runs_on_a_form_over_q_t(monkeypatch):
    V = _zt_form(random.Random(5), 5, "dense")
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        original = getattr(Poly, name)

        def counted(self, other, original=original):
            calls.append(original)
            return original(self, other)

        monkeypatch.setattr(Poly, name, counted)
    encode_tensor(theta_tensor(V))
    assert calls == []
    reference_poly_theta_tensor(V)  # the counter sees the products on Polys
    assert calls


def test_the_radical_refuses_a_packed_tensor():
    # the trace-form reference reads a packed int as no rational
    T = theta_tensor(QuadraticSpace.diagonal([Poly([1]), 1, Poly([0, 1])]))
    assert T.width > 0 and not is_rational(T)
    with pytest.raises(ValueError, match="rational coefficients"):
        reference_lambda_radical(T)


def _mixed_form(rng, m: int) -> QuadraticSpace:
    """A form over Q[t] with rational entries beside polynomial ones; entry
    (1,1) is a polynomial."""

    def entry(i, j):
        if (i, j) != (0, 0) and rng.random() < 0.4:
            return _rat(rng)
        return Poly([_rat(rng) for _ in range(rng.randint(1, 3))])

    return _symmetric(m, entry)


def test_a_mixed_form_prints_a_list_except_on_wedge_terms():
    """On a form over Q[t] with rational entries, an entry prints as a
    scalar exactly when h_i + h_j = h_k, and its value is the one of one
    geometric product per pair, over Q."""
    rng = random.Random("mixed")
    constant_lists = 0
    for m in (2, 3, 4, 4, 5, 5):
        V = _mixed_form(rng, m)
        want = reference_theta_tensor(V)
        h = [mask.bit_count() >> 1 for mask in want.basis_masks]
        printed = encode_tensor(theta_tensor(V))["c"]
        assert [e[:3] for e in printed] == [[i, j, k] for (i, j) in sorted(want.c) for k in sorted(want.c[(i, j)])]
        for i, j, k, v in printed:
            assert isinstance(v, str) is (h[i] + h[j] == h[k]), (m, i, j, k)
            assert decode_coeff(v) == want.c[(i, j)][k], (m, i, j, k)
            constant_lists += isinstance(v, list) and len(v) == 1
    assert constant_lists > 0


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


def _synthetic_tensor(rng, m: int, D: int, packed: bool) -> AlgebraTensor:
    """Random sparse entries on the even blades of m generators, of scale D:
    nonzero ``int``s of either sign, some of them multiples of powers of D.
    A ``packed`` tensor holds polynomials of them instead, with zero
    coefficients inside, packed at the least width N that their balanced
    digits allow, and +-1 on its wedge terms (h_k = h_i + h_j).  As in a
    Clifford tensor, e_a e_b has terms on blades c with |c| <= |a| + |b|
    only."""
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
                if not packed:
                    row[k] = number()
                elif h[k] == h[i] + h[j]:
                    row[k] = rng.choice([-1, 1])
                else:
                    row[k] = [number() if rng.random() < 0.6 else 0 for _ in range(rng.randint(0, 3))] + [number()]
            c[(i, j)] = row
    N = 0
    if packed:
        N = 1 + max((abs(a).bit_length() for row in c.values() for v in row.values() if type(v) is list for a in v), default=1)
        for row in c.values():
            for k, v in row.items():
                if type(v) is list:
                    row[k] = sum(a << (N * e) for e, a in enumerate(v))
    return AlgebraTensor(dim=d, identity=0, c=c, basis_masks=masks, scale=D, width=N)


@pytest.mark.parametrize("D", PRINT_SCALES)
def test_the_printed_tensor_matches_the_unscale_reference(D):
    """Byte for byte, on random ints and on packed polynomials of every
    sign, with zero coefficients inside; with D > 1 some entries are p/q
    after a cancellation (gcd neither 1 nor q), and some are divided by
    D^(h_i + h_j - h_k) != D^(h_k)."""
    for packed in (False, True):
        rng = random.Random(f"print/{D}/{packed}")
        cancelled = uneven = inner_zeros = 0
        for m in (2, 3, 4, 5, 6):
            T = _synthetic_tensor(rng, m, D, packed)
            assert _printed(T) == json.dumps(reference_encode_tensor(T)), (D, m, packed)
            h = [mask.bit_count() >> 1 for mask in T.basis_masks]
            for (i, j), row in T.c.items():
                for k, v in row.items():
                    q = D ** (h[i] + h[j] - h[k])
                    coeffs = unpacked(v, T.width).coeffs if T.width and h[i] + h[j] > h[k] else (v,)
                    cancelled += any(1 < gcd(a, q) < q for a in coeffs)
                    uneven += h[i] + h[j] - h[k] != h[k]
                    inner_zeros += 0 in coeffs[1:-1]
        assert inner_zeros > 0 if packed else inner_zeros == 0
        if D > 1:
            assert cancelled > 0 and uneven > 0, packed


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


# -- the radical against the dense trace form ------------------------------


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
        R, basis = jacobson_radical(V)
        kernel, index = reference_radical(over_q(T))
        assert len(basis) == len(kernel), (form.__name__, m)
        assert _same_span(kernel, basis), (form.__name__, m)
        # the certificate's dimension and index, from the corank of V, which
        # is dim R
        assert len(R) == m - echelon(V.gram).dim, (form.__name__, m)
        assert radical_shape(m, len(R)) == (len(kernel), index), (form.__name__, m)
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
    basis = reference_lambda_radical(T)
    kernel, index = reference_radical(T)
    assert len(basis) == len(kernel) == 3
    assert _same_span(kernel, basis)
    assert index == 3  # the library computes no radical off a Clifford algebra
