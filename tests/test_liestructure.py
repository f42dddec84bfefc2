"""Even Lie structure, the transcription oracle, form reconstruction, and
multiplication tensors."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import pytest

from cliffdegen import clifford, liestructure
from cliffdegen.clifford import Multivector, QuadraticSpace, geometric_product, indices_of
from cliffdegen.liestructure import (
    LieClosureError,
    QuotientLieAlgebra,
    ReconstructionError,
    build_even_lie,
    even_blade_basis,
    lie_pairs,
    reconstruct_form,
    structure_constants,
    theta_tensor,
    transcribe_constants,
    unscale,
)
from cliffdegen.rings import Poly, RatFun, axpy, regular_at

HALF = Fraction(1, 2)


def random_symmetric(rng, m, den=3):
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, den))
            g[i][j] = v
            g[j][i] = v
    return QuadraticSpace(g)


def lie_over_q(L):
    """L's table over Q, of scale 1: each stored constant divided by
    ``scale`` through ``unscale``, so rationals become ``Fraction``s."""
    return QuotientLieAlgebra(
        m=L.m,
        table={k: {p: unscale(v, L.scale) for p, v in exp.items()} for k, exp in L.table.items()},
    )


def quotient(brackets):
    """``reference_build_even_lie``'s brackets modulo e_0: the table of L'."""
    return {key: {p: v for p, v in exp.items() if p != "e0"} for key, exp in brackets.items()}


def test_even_lie_dimension_and_identity_bracket():
    L = build_even_lie(QuadraticSpace.diagonal([1, 1, 1]))
    assert L.scale == 1 and L.dimension == 3
    # [a12, a23] = 2 a13 for the identity form
    assert L.table[((1, 2), (2, 3))] == {(1, 3): 2}


def test_zero_form_brackets_vanish_in_quotient():
    L = structure_constants(QuadraticSpace.zero(4))
    assert all(not exp for exp in L.table.values())


def test_flat_dimension_under_degeneration():
    for diag in ([1, 2, 3], [1, 2, 0], [0, 0, 0]):
        L = structure_constants(QuadraticSpace.diagonal(diag))
        assert L.dimension == 3


def test_four_index_bracket_lands_on_the_cross_pair():
    # b(1,4) = 1, everything else zero.  Direct rewriting puts the b(1,4)
    # coefficient on the class of e2 e3 with coefficient 1 (not on the
    # class of e1 e4, and with no factor 2): [a12, a34] = a23.
    g = [[0, 0, 0, HALF], [0, 0, 0, 0], [0, 0, 0, 0], [HALF, 0, 0, 0]]
    L = structure_constants(QuadraticSpace(g))
    assert L.scale == 2
    got = lie_over_q(L).bracket((1, 2), (3, 4))
    assert got == {(2, 3): 1}
    assert got.get((1, 4), 0) == 0


def test_three_index_bracket_reads():
    # [a_ij, a_jl] = 2 q(e_j) a_il - b(j,l) a_ij - b(i,j) a_jl
    rng = random.Random(5)
    V = random_symmetric(rng, 4)
    L = structure_constants(V)
    got = lie_over_q(L).bracket((1, 2), (2, 4))
    assert got.get((1, 4), 0) == 2 * V.q(2)
    assert got.get((1, 2), 0) == -V.b(2, 4)
    assert got.get((2, 4), 0) == -V.b(1, 2)


def test_product_agrees_with_transcription_oracle():
    rng = random.Random(11)
    for m in range(2, 8):
        for _ in range(3):
            V = random_symmetric(rng, m)
            L, T = structure_constants(V), transcribe_constants(V)
            assert (L.scale, L.table) == (T.scale, T.table)


def test_jacobi_all_triples_small_and_random_large():
    rng = random.Random(3)
    for m in (3, 5, 7):
        structure_constants(random_symmetric(rng, m)).verify_jacobi()
    L = structure_constants(random_symmetric(rng, 12))
    npairs = len(lie_pairs(12))
    triples = [tuple(sorted(rng.sample(range(npairs), 3))) for _ in range(150)]
    L.verify_jacobi(triples)


def test_reconstruct_examples():
    V = QuadraticSpace.diagonal([1, 1, 1])
    assert reconstruct_form(structure_constants(V)).gram == V.gram
    V0 = QuadraticSpace.zero(4)
    assert reconstruct_form(structure_constants(V0)).gram == V0.gram


def test_reconstruct_round_trip_100_random():
    rng = random.Random(23)
    for _ in range(100):
        V = random_symmetric(rng, rng.choice([3, 4, 5]))
        assert reconstruct_form(structure_constants(V)).gram == V.gram


def test_reconstruct_rejects_inconsistent_constants():
    L = structure_constants(QuadraticSpace.diagonal([1, 2, 3]))
    key = ((1, 2), (2, 3))
    corrupted = dict(L.table)
    corrupted[key] = dict(corrupted[key])
    corrupted[key][(1, 2)] = corrupted[key].get((1, 2), 0) + 1
    bad = type(L)(m=3, table=corrupted, scale=L.scale)
    with pytest.raises(ReconstructionError):
        reconstruct_form(bad)


def test_reconstruct_needs_three_indices():
    with pytest.raises(ValueError):
        reconstruct_form(structure_constants(QuadraticSpace.diagonal([1, 2])))


def over_q(T: liestructure.AlgebraTensor) -> liestructure.AlgebraTensor:
    """T in the basis e_a, of scale 1: entry k of e_i e_j is entry k of
    f_i f_j divided by lambda_i lambda_j / lambda_k, through the same
    ``unscale`` that the encoder uses.  A ``RatFun`` entry, of a tensor of
    scale 1 that the encoder prints as it is, passes through unreduced."""
    lam = T.lambdas()

    def entry(v, Dk):
        return v if type(v) is RatFun else liestructure.unscale(v, Dk)

    c = {
        (i, j): {k: entry(v, lam[i] * lam[j] // lam[k]) for k, v in row.items()}
        for (i, j), row in T.c.items()
    }
    return liestructure.AlgebraTensor(dim=T.dim, identity=T.identity, c=c, basis_masks=T.basis_masks)


def test_theta_tensor_shape_and_unit():
    T = theta_tensor(QuadraticSpace.diagonal([1, 1, 1]))
    assert T.dim == 4
    T.verify_unital()
    assert T.basis_masks == even_blade_basis(3)


def _bivector_block_constants(T, m):
    """The constants of L' read off a tensor: the commutators of the
    bivector coordinates 1..m(m-1)/2, the identity coordinate 0 dropped."""
    pairs = lie_pairs(m)
    table = {}
    for ai in range(len(pairs)):
        for bi in range(ai + 1, len(pairs)):
            com = axpy(dict(T.entry(ai + 1, bi + 1)), -1, T.entry(bi + 1, ai + 1))
            table[(pairs[ai], pairs[bi])] = {pairs[k - 1]: v for k, v in com.items() if k}
    return QuotientLieAlgebra(m=m, table=table, scale=T.scale)


def test_theta_tensor_injectivity_via_reconstruction():
    A = QuadraticSpace.diagonal([1, 2, 3])
    B = QuadraticSpace.diagonal([1, 2, Fraction(4, 3)])
    TA, TB = theta_tensor(A), theta_tensor(B)
    assert TA != TB
    for V, T in ((A, TA), (B, TB)):
        recovered = reconstruct_form(_bivector_block_constants(T, 3))
        assert recovered.gram == V.gram


def test_theta_tensor_parametric_entries():
    t = Poly.t()
    T = theta_tensor(QuadraticSpace.diagonal([Poly.const(1), Poly.const(1), t]))
    degs = []
    for row in T.c.values():
        for v in row.values():
            if isinstance(v, Poly):
                degs.append(len(v.coeffs) - 1)
    assert degs and max(degs) <= 1


def _constants_regular_at_zero(V) -> bool:
    """Every structure constant of L' is regular at t = 0."""
    table = build_even_lie(V).table
    return all(regular_at(v, Fraction(0)) for exp in table.values() for v in exp.values())


def test_integrality_witness_examples():
    t = Poly.t()
    assert _constants_regular_at_zero(QuadraticSpace.diagonal([Poly.const(1), Poly.const(1), t]))
    bad = QuadraticSpace.diagonal(
        [RatFun.const(1), RatFun.const(1), RatFun(Poly.const(1), t)]
    )
    assert not _constants_regular_at_zero(bad)
    ok = QuadraticSpace.diagonal([RatFun.const(1), RatFun.const(1), RatFun(t, t + 1)])
    assert _constants_regular_at_zero(ok)


def test_integrality_witness_matches_gram_regularity_on_random_families():
    # the constants are linear in the entries of 2Q, so they are regular at
    # 0 exactly when the form is
    rng = random.Random(17)
    t = Poly.t()
    for _ in range(100):
        m = rng.choice([3, 4])
        regular = True
        g = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                num = Poly([rng.randint(-2, 2), rng.randint(-2, 2)])
                if rng.random() < 0.15:
                    den = t + 0  # forces a pole at 0 unless num(0) == 0
                else:
                    den = Poly([rng.randint(1, 3), rng.randint(0, 2)])
                v = RatFun(num, den)
                if not v.is_regular_at(0):
                    regular = False
                g[i][j] = v
                g[j][i] = v
        V = QuadraticSpace(g)
        assert _constants_regular_at_zero(V) == regular


# --- the Jacobi check -----------------------------------------------------


def reference_verify_jacobi(L, triples=None):
    """The dict-copying Jacobi loop that verify_jacobi replaced, kept as
    the oracle for verdict, message and first failing triple."""
    pairs = lie_pairs(L.m)
    if triples is None:
        triples = combinations(range(len(pairs)), 3)
    for ia, ib, ic in triples:
        a, b, c = pairs[ia], pairs[ib], pairs[ic]
        acc: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for p, v in L.bracket(x, y).items():
                axpy(acc, v, L.bracket(p, z))
        if acc:
            raise LieClosureError(f"Jacobi fails on {a},{b},{c}: {acc}")


def jacobi_outcome(check, L, triples=None):
    try:
        check(L, triples)
    except LieClosureError as exc:
        return str(exc)
    return None


def corrupt(L, key, label, delta):
    table = {k: dict(v) for k, v in L.table.items()}
    table[key][label] = table[key].get(label, 0) + delta
    return QuotientLieAlgebra(m=L.m, table=table, scale=L.scale)


@pytest.mark.parametrize("m", [4, 5])
def test_jacobi_catches_one_corrupted_constant(m):
    V = random_symmetric(random.Random(m), m)
    L = structure_constants(V)
    pairs = lie_pairs(m)
    # [s(1,2), s(2,3)] gains a term on s(1,2): not the bracket of any form
    bad = corrupt(L, (pairs[0], (2, 3)), pairs[0], Fraction(1, 3))
    with pytest.raises(LieClosureError) as info:
        bad.verify_jacobi()
    assert str(info.value) == jacobi_outcome(reference_verify_jacobi, lie_over_q(bad))
    assert str(info.value).startswith("Jacobi fails on ")


def random_table(rng, m, ring, density):
    """A random table: antisymmetric by construction of QuotientLieAlgebra,
    sparse, with values in ``ring`` and some explicit zeros."""
    pairs = lie_pairs(m)

    def value():
        if ring == "rational":
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        return Poly([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])

    table = {}
    for ai in range(len(pairs)):
        for bi in range(ai + 1, len(pairs)):
            table[(pairs[ai], pairs[bi])] = {
                p: value() for p in pairs if rng.random() < density
            }
    return QuotientLieAlgebra(m=m, table=table)


def scaled(L, lam):
    return QuotientLieAlgebra(
        m=L.m,
        table={k: {p: lam * v for p, v in exp.items()} for k, exp in L.table.items()},
        scale=L.scale,
    )


def to_poly(L):
    return QuotientLieAlgebra(
        m=L.m,
        table={k: {p: Poly.const(v) for p, v in exp.items()} for k, exp in L.table.items()},
        scale=L.scale,
    )


def test_jacobi_matches_the_reference_loop_on_random_tables(monkeypatch):
    # the held sum is divided over Q only to word a failure, so counting the
    # divisions shows that the kernel on the stored constants decided each
    # triple
    divided = []

    def counted(v, Dk):
        divided.append(v)
        return unscale(v, Dk)

    monkeypatch.setattr(liestructure, "unscale", counted)
    rng = random.Random(2024)
    t = Poly.t()
    verdicts = {True: 0, False: 0}
    for trial in range(120):
        m = rng.choice([3, 4, 5])
        kind = trial % 4
        if kind == 0:  # sparse random tables of every ring
            L = random_table(rng, m, rng.choice(["rational", "poly"]), rng.choice([0.02, 0.1, 0.3]))
        elif kind == 1:  # true tables: rational, scaled by a rational, over Q[t]
            if rng.random() < 0.6:
                L = build_even_lie(random_symmetric(rng, m))
                if rng.random() < 0.5:  # lam [,] is a Lie bracket too
                    lam = Fraction(rng.randint(1, 5), rng.randint(2, 7))
                    L = scaled(L, lam)
            else:
                diag = [Poly([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(m)]
                L = build_even_lie(QuadraticSpace.diagonal(diag))
        else:  # true tables with one constant changed
            L = build_even_lie(random_symmetric(rng, m))
            if kind == 3:
                L = to_poly(L)
            pairs = lie_pairs(m)
            key = rng.choice(sorted(L.table))
            delta = Fraction(rng.choice([-1, 1]), rng.randint(1, 3))
            L = corrupt(L, key, rng.choice(pairs), delta * t if kind == 3 else delta)
        npairs = len(lie_pairs(m))
        triples = None
        if rng.random() < 0.3:
            triples = [tuple(sorted(rng.sample(range(npairs), 3))) for _ in range(20)]
        want = jacobi_outcome(reference_verify_jacobi, lie_over_q(L), triples)
        divided.clear()
        got = jacobi_outcome(QuotientLieAlgebra.verify_jacobi, L, triples)
        assert got == want, (trial, m)
        assert bool(divided) == (want is not None), (trial, m)
        verdicts[want is None] += 1
    assert min(verdicts.values()) >= 20  # both verdicts are exercised


def test_jacobi_honours_explicit_triples_in_order_with_repeats():
    L = structure_constants(random_symmetric(random.Random(8), 4))
    pairs = lie_pairs(4)
    bad = corrupt(L, (pairs[0], pairs[3]), pairs[5], Fraction(2))
    every = list(combinations(range(len(pairs)), 3))
    ref = lie_over_q(bad)
    failing = [tr for tr in every if jacobi_outcome(reference_verify_jacobi, ref, [tr])]
    passing = [tr for tr in every if tr not in failing]
    assert len(failing) >= 2 and passing
    bad.verify_jacobi(passing + passing[::-1])  # only triples that hold
    bad.verify_jacobi([])
    order = [passing[0], passing[0], failing[-1], failing[0], failing[-1]]
    with pytest.raises(LieClosureError) as info:
        bad.verify_jacobi(order)
    assert str(info.value) == jacobi_outcome(reference_verify_jacobi, ref, [failing[-1]])
    with pytest.raises(LieClosureError) as info:
        bad.verify_jacobi(iter(failing))  # any iterable, read once
    assert str(info.value) == jacobi_outcome(reference_verify_jacobi, ref, [failing[0]])


# --- the integer-scaled bracket and transcription ---------------------------


def reference_build_even_lie(V):
    """The Fraction build that build_even_lie replaced: each bracket is the
    commutator of two bivector blades through geometric_product on Q
    itself."""
    pairs = lie_pairs(V.m)
    brackets = {}
    for ai in range(len(pairs)):
        for bi in range(ai + 1, len(pairs)):
            x, y = Multivector.blade(pairs[ai]), Multivector.blade(pairs[bi])
            com = geometric_product(x, y, V) - geometric_product(y, x, V)
            brackets[(pairs[ai], pairs[bi])] = {
                indices_of(mask) if mask else "e0": c for mask, c in com.terms.items()
            }
    return brackets


def reference_transcribe_constants(V):
    """The transcription that transcribe_constants replaced, on the entries
    of Q itself."""
    pairs = lie_pairs(V.m)
    table = {}

    def add(dst, x, y, coeff):
        if coeff == 0:
            return
        p, sign = ((x, y), 1) if x < y else ((y, x), -1)
        s = dst.get(p, 0) + sign * coeff
        if s == 0:
            dst.pop(p, None)
        else:
            dst[p] = s

    for ai in range(len(pairs)):
        for bi in range(ai + 1, len(pairs)):
            (a, b), (c, d) = pairs[ai], pairs[bi]
            exp = {}
            shared = {a, b} & {c, d}
            if not shared:
                add(exp, c, b, -V.b(a, d))
                add(exp, d, b, V.b(a, c))
                add(exp, a, c, -V.b(b, d))
                add(exp, a, d, V.b(b, c))
            elif len(shared) == 1:
                s = shared.pop()
                x = a if b == s else b
                y = c if d == s else d
                sign = (1 if b == s else -1) * (1 if c == s else -1)
                add(exp, x, y, sign * 2 * V.q(s))
                add(exp, x, s, -sign * V.b(s, y))
                add(exp, s, y, -sign * V.b(x, s))
            table[(pairs[ai], pairs[bi])] = exp
    return table


def assert_same_table(got, want):
    """Equal keys and values, and each value of the same type."""
    assert got == want
    for key, exp in want.items():
        for label, v in exp.items():
            assert type(got[key][label]) is type(v), (key, label)


PRIMES_TO_97 = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
PRIMORIAL_97 = prod(PRIMES_TO_97)


def form_with_lcm(rng, m, D, shape):
    """A symmetric rational form whose denominators have lcm exactly D:
    ``diagonal``, ``dense``, or ``degenerate`` (dense with e_m in the
    radical).  Entry (1,1) has denominator D and a numerator prime to it."""
    factors = [p for p in PRIMES_TO_97 for k in range(1, 3) if D % p**k == 0]
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if shape == "diagonal" and i != j or shape == "degenerate" and j == m - 1:
                continue
            den = prod(p for p in factors if rng.random() < 0.5)
            g[i][j] = g[j][i] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), den)
    g[0][0] = Fraction(rng.choice([1, -1, 101, -103]), D)
    return QuadraticSpace(g)


@pytest.mark.parametrize("D", [1, 2, 6, 60, PRIMORIAL_97], ids=["1", "2", "6", "60", "primorial97"])
@pytest.mark.parametrize("shape", ["diagonal", "dense", "degenerate"])
def test_scaled_brackets_match_the_fraction_reference(D, shape):
    rng = random.Random(D % 1000 + len(shape))
    for m in range(2, 7):
        V = form_with_lcm(rng, m, D, shape)
        assert V.scaled()[0] == D
        want = reference_build_even_lie(V)
        # the commutators have e_0 terms, which the quotient drops; a
        # diagonal form has none
        if shape == "dense" and m >= 3 or shape == "degenerate" and m >= 4:
            assert any("e0" in exp for exp in want.values())
        L = build_even_lie(V)
        assert L.scale == D
        assert_same_table(lie_over_q(L).table, quotient(want))
        T = transcribe_constants(V)
        assert T.scale == D
        assert_same_table(lie_over_q(T).table, reference_transcribe_constants(V))
        assert_same_table(structure_constants(V).table, T.table)


def test_scaled_brackets_on_the_zero_form():
    for m in range(2, 7):
        V = QuadraticSpace.zero(m)
        assert V.scaled()[0] == 1
        assert_same_table(lie_over_q(build_even_lie(V)).table, quotient(reference_build_even_lie(V)))
        assert_same_table(lie_over_q(transcribe_constants(V)).table, reference_transcribe_constants(V))


def parametric_forms(rng):
    """Poly and RatFun forms at m <= 6, diagonal and dense, with some
    rational zero entries."""
    t = Poly.t()

    def poly():
        return Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))])

    def ratfun():
        return RatFun(poly(), Poly([rng.randint(1, 3), rng.randint(-2, 2)]))

    for make in (poly, ratfun):
        for m in (2, 3, 4, 6):
            for dense in (False, True):
                g = [[Fraction(0)] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        if (i == j or dense) and rng.random() < 0.85:
                            g[i][j] = g[j][i] = make()
                g[0][0] = make() if make is not poly else poly() + t
                yield QuadraticSpace(g)


def test_scaled_path_passes_other_rings_through_unchanged():
    """Q[t] forms are scaled like rational ones, by the lcm of the
    denominators of every coefficient; RatFun forms run unscaled."""
    rings, poly_lcms = set(), set()
    for V in parametric_forms(random.Random(77)):
        D, S = V.scaled()
        ring = "ratfun_t" if any(isinstance(v, RatFun) for row in V.gram for v in row) else "poly_t"
        if ring == "poly_t":
            coeffs = [c for row in V.gram for v in row for c in (v.coeffs if isinstance(v, Poly) else (v,))]
            assert D == lcm(*(c.denominator for c in coeffs))
            poly_lcms.add(D)
            assert all(type(v) is int or all(type(c) is int for c in v.coeffs) for row in S.gram for v in row)
            assert S.gram == tuple(tuple(D * v for v in row) for row in V.gram)
            assert S is not V
        else:
            assert (D, S) == (1, V) and S is V
        rings.add(ring)
        assert_same_table(lie_over_q(build_even_lie(V)).table, quotient(reference_build_even_lie(V)))
        assert_same_table(lie_over_q(transcribe_constants(V)).table, reference_transcribe_constants(V))
    assert rings == {"poly_t", "ratfun_t"}
    assert len(poly_lcms) > 2 and 1 in poly_lcms


def test_transcription_shares_no_code_with_the_product(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("product code reached")

    # the transcription reads the gram of D Q from scaled(), which
    # multiplies no generators: the spaces it returns keep an empty product
    # cache
    returned = []
    scaled = QuadraticSpace.scaled

    def recorded(V):
        returned.append(scaled(V))
        return returned[-1]

    monkeypatch.setattr(QuadraticSpace, "scaled", recorded)
    for module in (clifford, liestructure):
        for name in ("geometric_product", "_terms_times_gen", "_blade_times_gen", "blade_row"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    rng = random.Random(4)
    for V in (form_with_lcm(rng, 5, 60, "dense"), QuadraticSpace.diagonal([Poly.t(), 1, 2])):
        assert lie_over_q(transcribe_constants(V)).table == reference_transcribe_constants(V)
    assert [D for D, _ in returned] == [60, 1]
    assert all(not S._gen_cache for _, S in returned)
    with pytest.raises(AssertionError):
        build_even_lie(form_with_lcm(rng, 3, 6, "dense"))
    assert not hasattr(liestructure, "geometric_product")


# --- the table over D Q, from product to reconstruction ---------------------


def reference_reconstruct_form(L):
    """The reconstruction that reconstruct_form replaced, on a table over Q:
    it halves the constants into the gram of Q and compares the table with
    the Fraction transcription of that gram."""
    m = L.m
    if m < 3:
        raise ValueError("reconstruction needs m >= 3")
    q = {}
    b = {}
    for j in range(2, m):
        coeffs = L.bracket((1, j), (j, m))
        q[j] = coeffs.get((1, m), 0) * HALF
    q[1] = -L.bracket((1, 2), (1, 3)).get((2, 3), 0) * HALF
    q[m] = -L.bracket((1, m), (2, m)).get((1, 2), 0) * HALF
    for j in range(1, m + 1):
        for l in range(j + 1, m + 1):
            if j >= 2:
                b[(j, l)] = -L.bracket((1, j), (j, l)).get((1, j), 0)
            else:
                u = 2 if l != 2 else 3
                key_u, key_l = (1, u), (1, l)
                b[(j, l)] = -L.bracket(key_u, key_l).get(key_u, 0)
    gram = [[None] * m for _ in range(m)]
    for i in range(1, m + 1):
        gram[i - 1][i - 1] = q[i]
    for (j, l), v in b.items():
        gram[j - 1][l - 1] = v * HALF
        gram[l - 1][j - 1] = v * HALF
    V = QuadraticSpace(gram)
    expected = reference_transcribe_constants(V)
    for key in set(expected) | set(L.table):
        got = L.table.get(key, {})
        want = expected.get(key, {})
        if set(got) != set(want) or any(got[p] != want[p] for p in got):
            raise ReconstructionError(f"constants at {key} are not those of any symmetric form")
    return V


def _poly_form():
    # rational entries are Fractions, so that the references over Q, which
    # compute on the entries as given, build Fractions where the table over
    # Q has them
    t = Poly.t()
    third = Fraction(1, 3)
    zero, two, three = Fraction(0), Fraction(2), Fraction(3)
    return QuadraticSpace(
        [
            [t * HALF + 1, zero, -third * t, two, zero],
            [zero, three, HALF, zero, t],
            [-third * t, HALF, t * t * Fraction(1, 4) - 1, zero, zero],
            [two, zero, zero, t, Fraction(5, 7)],
            [zero, t, zero, Fraction(5, 7), -t],
        ]
    )


def _ratfun_form():
    t = Poly.t()
    g = [[Fraction(0)] * 5 for _ in range(5)]
    g[0][0] = RatFun(Poly.const(1), t + 1)
    g[1][1] = RatFun(t, Poly([2, 0, 1]))
    g[2][2] = RatFun(Poly([1, -1]), Poly([3, 1]))
    g[3][3], g[4][4] = Fraction(1, 2), RatFun(t * t, Poly([1, 1]))
    g[0][2] = g[2][0] = RatFun(Poly.const(Fraction(2, 3)), Poly([1, 2]))
    g[1][4] = g[4][1] = Fraction(-3, 4)
    return QuadraticSpace(g)


FOUR_FORMS = {
    "rational-D1": lambda: form_with_lcm(random.Random(41), 5, 1, "dense"),
    "rational-primorial97": lambda: form_with_lcm(random.Random(42), 5, PRIMORIAL_97, "dense"),
    "poly": _poly_form,
    "ratfun": _ratfun_form,
}
FOUR_SCALES = {"rational-D1": 1, "rational-primorial97": PRIMORIAL_97, "poly": 84, "ratfun": 1}


@pytest.mark.parametrize("kind", sorted(FOUR_FORMS))
def test_scaled_table_matches_the_references_over_q(kind):
    V = FOUR_FORMS[kind]()
    L, T = structure_constants(V), transcribe_constants(V)
    assert L.scale == T.scale == FOUR_SCALES[kind]
    if kind != "ratfun":  # stored as built: ints, or Polys with int coefficients
        for exp in L.table.values():
            for v in exp.values():
                assert type(v) is int or all(type(c) is int for c in v.coeffs)
    want = reference_transcribe_constants(V)
    assert_same_table(lie_over_q(T).table, want)
    B = build_even_lie(V)
    assert B.scale == L.scale
    assert_same_table(lie_over_q(B).table, quotient(reference_build_even_lie(V)))
    assert lie_over_q(L).table == want
    R = reconstruct_form(L)
    assert R.gram == V.gram == reference_reconstruct_form(lie_over_q(L)).gram
    for row in R.gram:
        for v in row:
            if isinstance(v, RatFun):  # printed in lowest terms
                r = v.reduced()
                assert (v.num.coeffs, v.den.coeffs) == (r.num.coeffs, r.den.coeffs)
            else:
                assert type(v) is Fraction or all(type(c) is Fraction for c in v.coeffs)


@pytest.mark.parametrize("kind", sorted(FOUR_FORMS))
def test_a_corrupted_scaled_table_fails_as_over_q(kind):
    V = FOUR_FORMS[kind]()
    L = structure_constants(V)
    pairs = lie_pairs(V.m)
    # one more on the stored 2 q(e_2), which reconstruct_form reads from
    # [s(1,2), s(2,m)]: over D Q the recovered gram entry (2,2) is
    # half-integral
    m = V.m
    bad = corrupt(L, ((1, 2), (2, m)), (1, m), 1)
    with pytest.raises(ReconstructionError) as info:
        reconstruct_form(bad)
    with pytest.raises(ReconstructionError) as ref:
        reference_reconstruct_form(lie_over_q(bad))
    assert str(info.value) == str(ref.value)
    assert str(info.value).startswith("constants at ((")
    # a Jacobi failure is worded over Q, as by the reference loop
    bad = corrupt(L, (pairs[0], (2, 3)), pairs[0], 1)
    with pytest.raises(LieClosureError) as info:
        bad.verify_jacobi()
    assert str(info.value) == jacobi_outcome(reference_verify_jacobi, lie_over_q(bad))


def test_reconstruct_divides_a_ratfun_entry_into_lowest_terms():
    t = Poly.t()
    V = QuadraticSpace.diagonal([RatFun(Poly.const(1), t + 1), 1, 1])
    L = structure_constants(V)
    # the table's entry is unreduced: (1 + t)/(1 + t)^2 after the product
    assert reference_reconstruct_form(L).gram[0][0].den.coeffs == (1, 2, 1)
    R = reconstruct_form(L)
    assert (R.gram[0][0].num.coeffs, R.gram[0][0].den.coeffs) == ((1,), (1, 1))
