"""Core Clifford arithmetic: anchored examples plus the algebraic laws as
hypothesis properties.  The recursive, memoised rewriting that the closed-form
generator step replaced, and the per-generator loop that the word product
replaced, stay here as references."""

import gc
import inspect
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffdegen import clifford, jsonio, liestructure
from cliffdegen.clifford import (
    BladeIndexError,
    Multivector,
    QuadraticSpace,
    filtration_degree,
    geometric_product,
    is_even,
    is_odd,
    indices_of,
    mask_of,
    reverse,
    specialize_space,
)
from cliffdegen.rings import CoefficientRingMismatch, PoleError, Poly, RatFun, axpy, czero, eval_coeff

HALF = Fraction(1, 2)


def gp(x, y, V):
    return geometric_product(x, y, V)


# --- anchored examples -------------------------------------------------


def test_generator_square():
    V = QuadraticSpace([[3]])
    e1 = Multivector.basis_vector(1)
    assert gp(e1, e1, V) == Multivector.scalar(3)


def test_exterior_case_anticommutes():
    V = QuadraticSpace.zero(2)
    e1, e2 = Multivector.basis_vector(1), Multivector.basis_vector(2)
    assert gp(e1, e2, V) == Multivector({mask_of((1, 2)): 1})
    assert gp(e2, e1, V) == Multivector({mask_of((1, 2)): -1})


def test_hyperbolic_idempotent():
    # oracle: two-step rewriting e2 e1 = e0 - e1 e2, so
    # (e1 e2)(e1 e2) = e1 (e0 - e1 e2) e2 = e1 e2 - q(e1) q(e2) e0 = e1 e2
    V = QuadraticSpace([[0, HALF], [HALF, 0]])
    a = gp(Multivector.basis_vector(1), Multivector.basis_vector(2), V)
    assert a == Multivector({mask_of((1, 2)): 1})
    assert gp(a, a, V) == Multivector({mask_of((1, 2)): 1})


def test_reverse_examples():
    V = QuadraticSpace([[0, HALF], [HALF, 0]])
    assert reverse(Multivector.basis_vector(1), V) == Multivector.basis_vector(1)
    assert reverse(Multivector.scalar(1), V) == Multivector.scalar(1)
    # oracle: tau(e12) = e2 e1 = b(1,2) e0 - e1 e2 = e0 - e12
    want = Multivector.scalar(1) - Multivector({mask_of((1, 2)): 1})
    assert reverse(Multivector({mask_of((1, 2)): 1}), V) == want


def test_even_part_and_filtration():
    assert filtration_degree(Multivector.scalar(1)) == 0
    assert filtration_degree(Multivector()) == 0
    # m = 5: even blades number 2^4
    evens = [m for m in range(1 << 5) if bin(m).count("1") % 2 == 0]
    assert len(evens) == 16


def test_specialize_examples():
    t = Poly.t()
    V = QuadraticSpace([[t, 1], [1, t + 1]])
    assert specialize_space(V, 0).gram == ((0, 1), (1, 1))
    assert specialize_space(V, Fraction(1, 2)).gram == ((HALF, 1), (1, Fraction(3, 2)))
    pole = QuadraticSpace.diagonal([t, RatFun(Poly.const(1), Poly((1, -1)))])  # 1/(1-t)
    assert specialize_space(pole, 0).gram == ((0, 0), (0, 1))
    with pytest.raises(PoleError) as err:
        specialize_space(pole, 1)
    assert "(2,2)" in str(err.value)


def test_index_out_of_range_and_ring_mismatch():
    V = QuadraticSpace.zero(2)
    with pytest.raises(BladeIndexError):
        gp(Multivector({mask_of((3,)): 1}), Multivector.scalar(1), V)
    with pytest.raises(CoefficientRingMismatch):
        Multivector({0: 0.5})


# --- hypothesis properties ---------------------------------------------

small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
)


@st.composite
def space_and_elements(draw, nelems=2, max_m=4, max_terms=3):
    m = draw(st.integers(min_value=1, max_value=max_m))
    gram = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            v = draw(small_fraction)
            gram[i][j] = v
            gram[j][i] = v
    V = QuadraticSpace(gram)
    elems = []
    for _ in range(nelems):
        nterms = draw(st.integers(min_value=0, max_value=max_terms))
        terms = {}
        for _ in range(nterms):
            mask = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
            terms[mask] = draw(small_fraction)
        elems.append(Multivector(terms))
    return V, elems


@settings(max_examples=60, deadline=None)
@given(space_and_elements(nelems=3))
def test_associativity(data):
    V, (x, y, z) = data
    assert gp(gp(x, y, V), z, V) == gp(x, gp(y, z, V), V)


@settings(max_examples=40, deadline=None)
@given(space_and_elements(nelems=0, max_m=5))
def test_defining_relations(data):
    V, _ = data
    for i in range(1, V.m + 1):
        ei = Multivector.basis_vector(i)
        assert gp(ei, ei, V) == Multivector({0: V.q(i)})
        for j in range(1, V.m + 1):
            if i == j:
                continue
            ej = Multivector.basis_vector(j)
            anti = gp(ei, ej, V) + gp(ej, ei, V)
            assert anti == Multivector({0: V.b(i, j)})


@settings(max_examples=60, deadline=None)
@given(space_and_elements(nelems=2))
def test_filtration_and_parity(data):
    V, (x, y) = data
    p = gp(x, y, V)
    if not p.is_zero():
        assert filtration_degree(p) <= filtration_degree(x) + filtration_degree(y)
    if is_even(x) and is_even(y):
        assert is_even(p)
    if is_odd(x) and is_odd(y):
        assert is_even(p)
    if (is_even(x) and is_odd(y)) or (is_odd(x) and is_even(y)):
        assert is_odd(p)


@settings(max_examples=60, deadline=None)
@given(space_and_elements(nelems=2))
def test_reverse_antiautomorphism(data):
    V, (x, y) = data
    assert reverse(gp(x, y, V), V) == gp(reverse(y, V), reverse(x, V), V)
    assert reverse(reverse(x, V), V) == x
    lo = Multivector({m: c for m, c in x.terms.items() if bin(m).count("1") <= 1})
    assert reverse(lo, V) == lo


def _grade_involution(x):
    """Each blade of cardinality k scaled by (-1)^k."""
    return Multivector({m: (-c if m.bit_count() % 2 else c) for m, c in x.terms.items()})


@settings(max_examples=40, deadline=None)
@given(space_and_elements(nelems=2))
def test_grade_involution_automorphism(data):
    # the product is graded by parity, so the grade involution respects it
    V, (x, y) = data
    assert _grade_involution(gp(x, y, V)) == gp(
        _grade_involution(x), _grade_involution(y), V
    )


def _wedge(mask_a: int, mask_b: int):
    """Independent exterior-product oracle on blades."""
    if mask_a & mask_b:
        return None, 0
    sign = 1
    for i in indices_of(mask_b):
        crossings = bin(mask_a >> i).count("1")
        if crossings % 2:
            sign = -sign
    return mask_a | mask_b, sign


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_exterior_limit(m, data):
    V = QuadraticSpace.zero(m)
    a = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    got = gp(Multivector({a: Fraction(1)}), Multivector({b: Fraction(1)}), V)
    mask, sign = _wedge(a, b)
    want = Multivector() if sign == 0 else Multivector({mask: Fraction(sign)})
    assert got == want


@settings(max_examples=30, deadline=None)
@given(space_and_elements(nelems=0, max_m=4), st.data())
def test_generator_products_bound_filtration(data, rnd):
    V, _ = data
    k = rnd.draw(st.integers(min_value=1, max_value=4))
    x = Multivector.scalar(1)
    for _ in range(k):
        coords = [rnd.draw(small_fraction) for _ in range(V.m)]
        v = Multivector({1 << i: c for i, c in enumerate(coords) if c != 0})
        x = gp(x, v, V)
    assert filtration_degree(x) <= k


def test_parametric_product_stays_polynomial():
    t = Poly.t()
    V = QuadraticSpace.diagonal([Poly.const(1), t])
    e1, e2 = Multivector.basis_vector(1), Multivector.basis_vector(2)
    prod = gp(gp(e1, e2, V), gp(e1, e2, V), V)
    assert prod == Multivector({0: -t})


# --- the generator step against the recursive rewriting -----------------


def reference_blade_times_gen(space, mask, j, cache):
    """The recursive, memoised generator step that the closed form replaced
    (the cache was the space's own; here it is an argument)."""
    key = (mask, j)
    cached = cache.get(key)
    if cached is not None:
        return cached
    jbit = 1 << (j - 1)
    if mask == 0:
        out = {jbit: 1}
    else:
        t = mask.bit_length()  # largest 1-based index in the blade
        tbit = 1 << (t - 1)
        rest = mask ^ tbit
        if t < j:
            out = {mask | jbit: 1}
        elif t == j:
            qj = space.q(j)
            out = {} if czero(qj) else {rest: qj}
        else:
            btj = space.b(t, j)
            out = {} if czero(btj) else {rest: btj}
            # the blades of rest * e_j only involve indices < t, so appending
            # e_t keeps them canonical
            inner = reference_blade_times_gen(space, rest, j, cache)
            axpy(out, -1, {m2 | tbit: c for m2, c in inner.items()})
    cache[key] = out
    return out


def step_forms(m):
    """Dense rational, dense Q[t], Q(t), corank-1 and zero forms of rank m,
    with the integer forms D Q of the first two, and D Q over Z[t] packed
    into ``int``s at t = 2^N as ``theta_tensor`` packs it."""
    rng = random.Random(m)

    def symmetric(entry):
        g = [[None] * m for _ in range(m)]
        for i in range(m):
            for k in range(i, m):
                g[i][k] = g[k][i] = entry()
        return g

    def nonzero_fraction():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))

    def poly():
        return Poly([nonzero_fraction(), nonzero_fraction()])

    rational = QuadraticSpace(symmetric(nonzero_fraction))
    polynomial = QuadraticSpace(symmetric(poly))
    ratfun = QuadraticSpace(symmetric(lambda: RatFun(poly(), poly())))
    # P^T diag(d_1, ..., d_(m-1), 0) P with P unitriangular: corank exactly 1
    d = [nonzero_fraction() for _ in range(m - 1)] + [0]
    P = [[int(i == k) if k <= i else rng.randint(-3, 3) for k in range(m)] for i in range(m)]
    corank_one = QuadraticSpace(
        [[sum(P[r][i] * d[r] * P[r][k] for r in range(m)) for k in range(m)] for i in range(m)]
    )
    integral = polynomial.scaled()[1]
    N = liestructure._digit_width(integral)
    packed = QuadraticSpace([[sum(a << (N * e) for e, a in enumerate(v.coeffs)) for v in row]
                             for row in integral.gram])
    return [rational, rational.scaled()[1], polynomial, integral, packed, ratfun,
            corank_one, QuadraticSpace.zero(m)]


STEP_FORMS = [V for m in range(1, 7) for V in step_forms(m)]


def shape(terms):
    """Blades in order, with each value, its type and its print."""
    return [(mask, type(c), c, jsonio.encode_coeff(c)) for mask, c in terms.items()]


def step_mismatches(step):
    """Every (gram, mask, j) on STEP_FORMS where ``step`` differs from the
    reference in its blades and their order, its values, their types or
    their printed form."""
    bad = []
    for V in STEP_FORMS:
        cache = {}
        for mask in range(1 << V.m):
            for j in range(1, V.m + 1):
                if shape(step(V, mask, j)) != shape(reference_blade_times_gen(V, mask, j, cache)):
                    bad.append((V.gram, mask, j))
    return bad


def test_the_generator_step_is_the_recursive_rewriting():
    assert step_mismatches(clifford._blade_times_gen) == []
    # on a form over Z, such as D Q from scaled(), the step computes on ints
    ints = [V for V in STEP_FORMS if all(type(v) is int for row in V.gram for v in row)]
    assert {V.m for V in ints} == set(range(1, 7))
    for V in ints:
        for mask in range(1 << V.m):
            for j in range(1, V.m + 1):
                assert all(type(c) is int for c in clifford._blade_times_gen(V, mask, j).values())


def mutant(name, old, new):
    """The function ``name`` of clifford with the one occurrence of ``old``
    in its source replaced by ``new``, compiled in the namespace of
    clifford."""
    source = inspect.getsource(getattr(clifford, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(clifford))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize(
    "old, new",
    [("sign = -sign", "sign = sign"), ("c = 2 * c", "c = c")],
    ids=["sign-never-flips", "contraction-by-q"],
)
def test_the_step_test_fails_on_a_mutant_step(old, new):
    assert step_mismatches(mutant("_blade_times_gen", old, new))


# --- the generator word and the blade row against the per-generator loop --


def reference_terms_times_gen(space, terms, j):
    """(terms) * e_j, blade by blade: the one-generator product that
    ``geometric_product``, ``reverse`` and ``build_even_lie`` each looped
    over a word before ``_terms_times_word`` took the word."""
    out = {}
    for mask, c in terms.items():
        axpy(out, c, clifford._blade_times_gen(space, mask, j))
    return out


def reference_terms_times_word(space, terms, word):
    """The word product before it read a table of steps: one
    ``_blade_times_gen`` dict and one ``axpy`` per term and generator."""
    for j in word:
        terms = reference_terms_times_gen(space, terms, j)
    return terms


def is_ratfun_form(V):
    return any(isinstance(v, RatFun) for row in V.gram for v in row)


# b(e_2, e_1) b(e_3, e_2) = q(e_2) b(e_3, e_1): a 2 x 2 minor of beta
# vanishes, so the e_0 sums of (e_2 e_3)(e_1 e_2) cancel, where the random
# forms of STEP_FORMS cancel none
CANCELLING = QuadraticSpace([[1, 1, 2], [1, 1, 1], [2, 1, 1]])


def word_mismatches():
    """Every (gram, terms, word) where ``_terms_times_word``, on one table
    of steps per form shared by all its words, differs from the reference
    loop on random words (empty, with repeated generators, longer than m)
    and random terms over every form of STEP_FORMS (int, Fraction, Q[t],
    packed Q[t], Q(t), corank-1 and zero) and CANCELLING."""
    rng = random.Random("word-product")
    kinds = set()
    bad = []
    for V in STEP_FORMS + [CANCELLING]:
        steps = {}
        # Q(t) coefficients are never reduced, so their degrees grow with
        # every step: shorter words there
        longest = V.m + 1 if is_ratfun_form(V) else 2 * V.m + 2
        for _ in range(4):
            word = [rng.randint(1, V.m) for _ in range(rng.randint(0, longest))]
            kinds.add("empty" if not word else "longer than m" if len(word) > V.m
                      else "repeats" if len(set(word)) < len(word) else "distinct")
            terms = {rng.randrange(1 << V.m): Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                     for _ in range(rng.randint(1, 3))}
            if shape(clifford._terms_times_word(V, steps, terms, word)) != shape(reference_terms_times_word(V, terms, word)):
                bad.append((V.gram, terms, word))
    assert kinds == {"empty", "longer than m", "repeats", "distinct"}
    # (e_2 e_3) e_1 e_2 on CANCELLING
    want = reference_terms_times_word(CANCELLING, {0b110: 1}, (1, 2))
    if shape(clifford._terms_times_word(CANCELLING, {}, {0b110: 1}, (1, 2))) != shape(want):
        bad.append((CANCELLING.gram, {0b110: 1}, (1, 2)))
    return bad


def test_the_word_product_is_the_per_generator_loop():
    """The word product equals the loop blade for blade, in order, in
    value, type and print (:func:`word_mismatches`); and so do the product
    and reversion built on it."""
    assert word_mismatches() == []
    rng = random.Random("word-product/gp")
    for V in STEP_FORMS:
        x = Multivector({rng.randrange(1 << V.m): rng.randint(1, 3) for _ in range(3)})
        y = Multivector({rng.randrange(1 << V.m): rng.randint(1, 3) for _ in range(3)})
        want = {}
        for mb, cb in y.terms.items():
            axpy(want, cb, reference_terms_times_word(V, x.terms, indices_of(mb)))
        assert gp(x, y, V) == Multivector(want)
        want = {}
        for mask, c in x.terms.items():
            axpy(want, c, reference_terms_times_word(V, {0: 1}, indices_of(mask)[::-1]))
        assert reverse(x, V) == Multivector(want)


def row_mismatches():
    """Every (gram, ma, b) on STEP_FORMS and CANCELLING where ``blade_row``,
    on one table of steps per form shared by all its rows, differs from the
    reference walk: blade b is b minus its top generator e_t, times e_t by
    ``reference_terms_times_word`` on the word (t,).  Every row, except
    over Q(t) above m = 4, where the unreduced coefficients of all 2^m rows
    took 10 s: there the rows of e_0 and e_m."""
    bad = []
    for V in STEP_FORMS + [CANCELLING]:
        steps = {}
        rows = (0, 1 << (V.m - 1)) if is_ratfun_form(V) and V.m > 4 else range(1 << V.m)
        for ma in rows:
            got = clifford.blade_row(V, steps, ma)
            want = [{ma: 1}]
            for b in range(1, 1 << V.m):
                t = b.bit_length()
                want.append(reference_terms_times_word(V, want[b ^ (1 << (t - 1))], (t,)))
            bad += [(V.gram, ma, b) for b in range(1 << V.m) if shape(got[b]) != shape(want[b])]
    return bad


def test_the_blade_row_is_the_per_generator_walk():
    assert row_mismatches() == []


@pytest.mark.parametrize(
    "old, new",
    [("step = steps.get(j)", "step = steps.get(j % space.m + 1)"), ("if s:", "if s is not None:")],
    ids=["step-of-the-next-generator", "cancelled-sum-kept"],
)
@pytest.mark.parametrize(
    "mismatches", [row_mismatches, word_mismatches], ids=["row", "word"]
)
def test_the_walk_tests_fail_on_a_mutant_walk(monkeypatch, mismatches, old, new):
    monkeypatch.setattr(clifford, "_step_walk", mutant("_step_walk", old, new))
    assert mismatches()


def _specialize(x, c):
    """Coefficient-wise substitution t = c."""
    return Multivector({m: eval_coeff(v, Fraction(c)) for m, v in x.terms.items()})


def test_specialize_commutes_with_product():
    t = Poly.t()
    V = QuadraticSpace([[Poly.const(1), t], [t, Poly.const(2)]])
    x = Multivector({0b01: t, 0b11: Poly.const(3)})
    y = Multivector({0b10: t + 1, 0: Poly.const(-1)})
    for c in (0, 1, Fraction(5, 2)):
        Vc = specialize_space(V, c)
        lhs = _specialize(gp(x, y, V), c)
        rhs = gp(_specialize(x, c), _specialize(y, c), Vc)
        assert lhs == rhs


def test_scaled_space_is_the_integer_form():
    V = QuadraticSpace([[HALF, Fraction(1, 3)], [Fraction(1, 3), Fraction(-5, 4)]])
    D, S = V.scaled()
    assert D == 12
    assert S.gram == ((6, 4), (4, -15))
    assert all(type(v) is int for row in S.gram for v in row)
    assert S.scaled()[0] == 1
    # products of int multivectors on S have int coefficients
    x = Multivector({0b01: 1, 0b10: 2, 0b11: -1})
    for p in (gp(x, x, S), gp(Multivector({0b10: 1}), Multivector({0b01: 1}), S)):
        assert p.terms and all(type(c) is int for c in p.terms.values())
    assert QuadraticSpace.zero(3).scaled()[0] == 1
    # over Q[t], D is the lcm of the denominators of every coefficient
    t = Poly.t()
    P = QuadraticSpace([[Poly([HALF, Fraction(1, 3)]), Fraction(1, 4)], [Fraction(1, 4), t]])
    D, S = P.scaled()
    assert D == 12
    assert S.gram == ((Poly([6, 4]), 3), (3, Poly([0, 12])))
    # an ordinary space: the constructor keeps its ints as it found them
    assert [type(v) for row in S.gram for v in row] == [Poly, int, int, Poly]
    assert QuadraticSpace(S.gram).gram == S.gram
    assert [type(v) for row in QuadraticSpace(S.gram).gram for v in row] == [Poly, int, int, Poly]
    assert all(type(c) is int for v in (S.gram[0][0], S.gram[1][1]) for c in v.coeffs)
    assert S.scaled()[0] == 1
    p = gp(x, x, S)
    assert p.terms
    for c in p.terms.values():
        assert type(c) is int or type(c) is Poly and all(type(a) is int for a in c.coeffs)
    W = QuadraticSpace.diagonal([RatFun(Poly.const(1), Poly.t()), 1])
    assert W.scaled() == (1, W) and W.scaled()[1] is W


def test_scaled_space_is_freed_with_its_space_without_the_cycle_collector():
    for gram in ([[HALF, 0], [0, Fraction(2, 3)]], [[Poly([HALF, 1]), 0], [0, Fraction(2, 3)]]):
        V = QuadraticSpace(gram)
        gp(Multivector.basis_vector(2), Multivector.basis_vector(1), V.scaled()[1])
        ref = weakref.ref(V.scaled()[1])
        gc.disable()
        try:
            del V
            assert ref() is None  # no reference cycle keeps S and its cache alive
        finally:
            gc.enable()
