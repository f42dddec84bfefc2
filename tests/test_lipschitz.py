"""Lipschitz monoid membership, unit group, spin kernel, and the
infinitesimal theory."""

import inspect
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from cliffdegen import jsonio, linalg, lipschitz
from cliffdegen.clifford import (
    Multivector,
    QuadraticSpace,
    geometric_product,
    is_homogeneous,
    mask_of,
    reverse,
)
from cliffdegen.liestructure import even_blade_basis
from cliffdegen.linalg import SpanBasis, nullspace_dense
from cliffdegen.lipschitz import (
    infinitesimal_lipschitz,
    is_lipschitz,
    lipschitz_report,
    norm_scalar,
)
from cliffdegen.rings import HALF, Poly, RatFun, axpy


def gp(x, y, V):
    return geometric_product(x, y, V)


def blade(indices, c=1):
    return Multivector({mask_of(indices): c})


# --- the reference: the doubled Clifford algebra, multiplied out -------------
#
# The membership test of an earlier version of the library: every f/g blade
# is multiplied out in the Clifford algebra of q (+) -q in the delta/delta'
# system.  It is kept here to check the swap derivation against.


class ReferenceDoubledAlgebra:
    """The Clifford algebra of q (+) -q in the delta/delta' system, the
    images of the f's and g's there, and the cached blade conversion."""

    def __init__(self, V: QuadraticSpace):
        self.m = m = V.m
        # the gram of the delta/delta' system: both families isotropic, and
        # b(delta_i, delta'_j) = 2 b(e_i, e_j) = 4 Q[i][j]
        zero = [0] * m
        two_q = [[2 * v for v in row] for row in V.gram]
        self.dd_space = QuadraticSpace([zero + row for row in two_q] + [row + zero for row in two_q])
        self._delta_images = {}
        for i in range(1, m + 1):
            d, dp = 1 << (i - 1), 1 << (m + i - 1)
            self._delta_images[i] = Multivector({d: HALF, dp: HALF})  # image of f_i
            self._delta_images[m + i] = Multivector({d: HALF, dp: -HALF})  # image of g_i
        self._convert_cache = {0: Multivector.scalar(1)}
        self._unbalanced_cache: dict = {}

    def _convert_blade(self, mask: int) -> Multivector:
        cached = self._convert_cache.get(mask)
        if cached is not None:
            return cached
        top = mask.bit_length()
        rest = mask ^ (1 << (top - 1))
        conv = geometric_product(
            self._convert_blade(rest), self._delta_images[top], self.dd_space
        )
        self._convert_cache[mask] = conv
        return conv

    def _unbalanced_of_blade(self, mask: int) -> dict:
        """Unbalanced (delta-degree != delta'-degree) part of the conversion
        of one f/g blade; this is all the membership test consumes."""
        cached = self._unbalanced_cache.get(mask)
        if cached is not None:
            return cached
        m = self.m
        low = (1 << m) - 1
        conv = self._convert_blade(mask)
        unbal = {
            dmask: c
            for dmask, c in conv.terms.items()
            if (dmask & low).bit_count() != (dmask >> m).bit_count()
        }
        self._unbalanced_cache[mask] = unbal
        return unbal

    def unbalanced(self, x: Multivector) -> dict:
        """Unbalanced part, in delta/delta' blades, of an element written in
        the f/g presentation."""
        acc: dict = {}
        for mask, c in x.terms.items():
            axpy(acc, c, self._unbalanced_of_blade(mask))
        return acc


def embed_pair(x: Multivector, y: Multivector, D: ReferenceDoubledAlgebra) -> Multivector:
    """Image of x (x) y in the doubled algebra: the f-word of x times the
    g-word of y.  Since every f index precedes every g index, the product of
    the two blades is itself a canonical blade and no sign appears; the
    convention is validated by the calibration facts in the tests."""
    m = D.m
    out: dict = {}
    for ma, ca in x.terms.items():
        axpy(out, ca, {ma | (mb << m): cb for mb, cb in y.terms.items()})
    return Multivector(out)


def psi(x: Multivector) -> Multivector:
    """tau(x) read through the twisted opposite Cl(q)^to = Cl(-q): the
    canonical blade of k generators times (-1)^(k(k-1)/2)."""
    return Multivector({mask: (-1) ** (mask.bit_count() * (mask.bit_count() - 1) // 2) * c
                        for mask, c in x.terms.items()})


def reference_is_lipschitz(x: Multivector, V: QuadraticSpace, tau) -> bool:
    """Homogeneous, and the product-based image of x (x) tau(x) in the
    delta/delta' system has no unbalanced blade."""
    if not is_homogeneous(x):
        return False
    D = ReferenceDoubledAlgebra(V)
    return not D.unbalanced(embed_pair(x, tau(x), D))


def test_embed_pair_calibration():
    V = QuadraticSpace.diagonal([2, 3])
    D = ReferenceDoubledAlgebra(V)
    e1 = Multivector.basis_vector(1)
    one = Multivector.scalar(1)
    assert embed_pair(e1, one, D) == Multivector.basis_vector(1)
    assert embed_pair(one, e1, D) == Multivector.basis_vector(3)  # g_1 sits at m+1
    assert embed_pair(e1, e1, D) == blade((1, 3))
    # the extension contract on the diagonal: image of (a, a) = f_a + g_a
    both = embed_pair(e1, one, D) + embed_pair(one, e1, D)
    assert both == Multivector.basis_vector(1) + Multivector.basis_vector(3)


# --- the reference's doubled space, certified once ---------------------------


def monomial_form(m):
    """The m x m form over Q[t] whose upper-triangle entries are the distinct
    monomials t^0, t^1, ...: a relation with integer coefficients in the
    entries of Q that holds on it holds for every form of size m."""
    gram = [[None] * m for _ in range(m)]
    k = 0
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = Poly([0] * k + [1])
            k += 1
    return QuadraticSpace(gram)


DOUBLED_RELATION_FORMS = [monomial_form(m) for m in range(1, 7)] + [QuadraticSpace.zero(3)]


def doubled_relation_failures(algebra_class, V) -> list:
    """The pairs (a, b) of generator images, 1..m for the f's and m+1..2m
    for the g's, whose anticommutator in the delta/delta' space is not the
    scalar of q (+) -q: b(e_i, e_j) for two f's, -b(e_i, e_j) for two g's,
    0 for an f and a g."""
    D = algebra_class(V)
    m = V.m
    failures = []
    for a in range(1, 2 * m + 1):
        for b in range(a, 2 * m + 1):
            i, j = (a - 1) % m + 1, (b - 1) % m + 1
            if (a > m) != (b > m):
                want = 0
            else:
                want = V.b(i, j) if a <= m else -V.b(i, j)
            x, y = D._delta_images[a], D._delta_images[b]
            anti = gp(x, y, D.dd_space) + gp(y, x, D.dd_space)
            if anti != Multivector.scalar(want):
                failures.append((a, b))
    return failures


def test_delta_images_satisfy_the_doubled_relations():
    for V in DOUBLED_RELATION_FORMS:
        assert doubled_relation_failures(ReferenceDoubledAlgebra, V) == [], V


def mutant_class(owner, name, old, new):
    """The class ``name`` compiled from the source of ``owner`` (a module or
    a class) with its one occurrence of ``old`` replaced by ``new``, in the
    namespace the original was defined in."""
    source = inspect.getsource(owner)
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(owner)))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[name]


_DD_GRAM = "[zero + row for row in two_q] + [row + zero for row in two_q]"


@pytest.mark.parametrize(
    "old, new",
    [
        ("[[2 * v for v in row]", "[[v for v in row]"),
        (_DD_GRAM, "[row + row for row in two_q] + [row + zero for row in two_q]"),
        (f"QuadraticSpace({_DD_GRAM})", "QuadraticSpace.zero(2 * m)"),
    ],
    ids=["pairing-halved", "delta-not-isotropic", "zero-form"],
)
def test_the_doubled_relations_fail_on_a_mutant_doubled_space(old, new):
    mutant = mutant_class(ReferenceDoubledAlgebra, "ReferenceDoubledAlgebra", old, new)
    assert any(doubled_relation_failures(mutant, V) for V in DOUBLED_RELATION_FORMS)


# --- the swap derivation against the reference ------------------------------


def kernel_ranks(derivation_class, V) -> tuple:
    """rank U, rank H and rank [U; H], for U the reference's unbalanced map
    and H the derivation, each taken over all 4^m f/g monomials: equal
    ranks mean equal row spaces, so the two maps have the same kernel."""
    ref, H = ReferenceDoubledAlgebra(V), derivation_class(V)
    rows_u: dict = {}
    rows_h: dict = {}
    for key in range(4 ** V.m):
        for row, c in ref.unbalanced(Multivector({key: 1})).items():
            rows_u.setdefault(row, {})[key] = c
        for row, c in H.unbalanced({key: 1}).items():
            rows_h.setdefault(row, {})[key] = c
    U, Hs, both = SpanBasis(), SpanBasis(), SpanBasis()
    for span, rows in ((U, rows_u), (Hs, rows_h)):
        for row in rows.values():
            span.insert(row)
            both.insert(row)
    return U.dim, Hs.dim, both.dim


def dense_form(rng, m, corank=0):
    """A random dense rational m x m form; with ``corank=1`` its last row
    and column are changed so that e_1 + ... + e_{m-1} - e_m lies in the
    radical."""
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            g[i][j] = g[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if corank:
        for i in range(m - 1):
            g[i][m - 1] = g[m - 1][i] = sum(g[i][j] for j in range(m - 1))
        g[m - 1][m - 1] = sum(g[i][m - 1] for i in range(m - 1))
    return QuadraticSpace(g)


def kernel_forms():
    rng = random.Random(19)
    forms = []
    for m in range(1, 5):
        forms += [
            dense_form(rng, m),
            QuadraticSpace.diagonal([rng.randint(1, 3) * (-1) ** i for i in range(m)]),
            QuadraticSpace.diagonal([i % 2 for i in range(m)]),  # degenerate
            QuadraticSpace.zero(m),
        ]
        if m > 1:
            forms.append(dense_form(rng, m, corank=1))
    return forms


KERNEL_FORMS = kernel_forms()


def test_the_swap_derivation_has_the_kernel_of_the_reference():
    for V in KERNEL_FORMS:
        # 4^m monomials, C(2m, m) of them balanced
        unbalanced_dim = 4 ** V.m - comb(2 * V.m, V.m)
        assert kernel_ranks(lipschitz.DoubledAlgebra, V) == (unbalanced_dim,) * 3, V.gram


@pytest.mark.parametrize(
    "old, new",
    [
        (" + (b & (bit - 1)).bit_count()", ""),
        ("moved = a ^ b", "moved = a & ~b"),
    ],
    ids=["sign-without-the-g-term", "f-to-g-only"],
)
def test_the_kernel_test_fails_on_a_mutant_derivation(old, new):
    mutant = mutant_class(lipschitz, "DoubledAlgebra", old, new)
    assert any(len(set(kernel_ranks(mutant, V))) > 1 for V in KERNEL_FORMS)


def _diagonal_space(rng):
    m = rng.choice([2, 3, 4])
    return QuadraticSpace.diagonal([rng.randint(-2, 3) for _ in range(m)])


def _sample_generator(rng, V):
    m = V.m
    if rng.random() < 0.5:
        return Multivector({1 << i: Fraction(rng.randint(-3, 3)) for i in range(m)})
    a = Multivector({1 << i: Fraction(rng.randint(-2, 2)) for i in range(m)})
    b = Multivector({1 << i: Fraction(rng.randint(-2, 2)) for i in range(m)})
    return Multivector.scalar(rng.randint(-3, 3)) + gp(a, b, V)


def _sample_element(rng, V):
    """A product of 1-3 vectors or elements lambda + a b, or a random even
    or odd element."""
    kind = rng.choice(["product", "product", "even", "odd"])
    if kind == "product":
        x = _sample_generator(rng, V)
        for _ in range(rng.randint(0, 2)):
            x = gp(x, _sample_generator(rng, V), V)
        return x
    parity = kind == "odd"
    return Multivector({
        mask: Fraction(rng.randint(-2, 2))
        for mask in range(1 << V.m)
        if mask.bit_count() % 2 == parity and rng.random() < 0.5
    })


def test_reverse_is_psi_on_diagonal_forms():
    rng = random.Random(4)
    for _ in range(60):
        V = _diagonal_space(rng)
        x = _sample_element(rng, V)
        assert reverse(x, V) == psi(x)


def test_verdicts_match_the_product_reference():
    """On diagonal forms the reference reads tau(x) through ``reverse`` (as
    the library once did); on dense forms through psi."""
    rng = random.Random(6)
    verdicts = set()
    for k in range(160):
        if k % 2:
            V = dense_form(rng, rng.choice([2, 3, 4]), corank=rng.randint(0, 1))
            tau = psi
        else:
            V = _diagonal_space(rng)
            tau = lambda x, V=V: reverse(x, V)  # noqa: E731
        x = _sample_element(rng, V)
        member = is_lipschitz(x, V)
        assert member == reference_is_lipschitz(x, V, tau), (V.gram, x)
        verdicts.add((k % 2, member))
    assert len(verdicts) == 4  # members and non-members on both kinds of form


def axpy_is_lipschitz(x: Multivector, V: QuadraticSpace) -> bool:
    """The membership test as the library once wrote it: x (x) tau(x)
    accumulated one row at a time by ``axpy``, with its zero tests."""
    if not is_homogeneous(x):
        return False
    D = lipschitz.doubled_algebra(V)
    pair: dict = {}
    for ma, ca in x.terms.items():
        axpy(pair, ca, {ma | (mb << D.m): lipschitz._psi_sign(mb) * cb for mb, cb in x.terms.items()})
    return not D.unbalanced(pair)


def _ring_value(rng, ring):
    """A random value over Q, Q[t] or Q(t), zero now and then."""
    a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if ring == "Q":
        return a
    p = Poly([a, Fraction(rng.randint(-2, 2), rng.randint(1, 2))])
    return p if ring == "Q[t]" else RatFun(p, Poly([rng.randint(1, 3), rng.randint(1, 2)]))


def test_the_written_out_pair_gives_the_axpy_verdicts():
    """x (x) tau(x) written down as one dict gives the verdicts of the
    ``axpy`` accumulation, over Q, Q[t] and Q(t), m <= 4: on products of 1-3
    vectors (1-2 over Q(t)), on random even and odd elements, and on elements of both
    parities."""
    rng = random.Random(53)
    verdicts = set()
    for k in range(240):
        ring = ("Q", "Q[t]", "Q(t)")[k % 3]
        m = rng.randint(1, 4)
        g = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                g[i][j] = g[j][i] = _ring_value(rng, ring)
        V = QuadraticSpace(g)
        kind = rng.choice(["product", "product", "even", "odd", "mixed"])
        if kind == "product":
            x = Multivector.scalar(1)
            # over Q(t) the unreduced sums of three factors grow too long
            for _ in range(rng.randint(1, 2 if ring == "Q(t)" else 3)):
                x = gp(x, Multivector({1 << i: _ring_value(rng, ring) for i in range(m)}), V)
        else:
            parities = {"even": (0,), "odd": (1,), "mixed": (0, 1)}[kind]
            x = Multivector({
                mask: _ring_value(rng, ring)
                for mask in range(1 << m)
                if mask.bit_count() % 2 in parities and rng.random() < 0.6
            })
        member = is_lipschitz(x, V)
        assert member == axpy_is_lipschitz(x, V), (V.gram, x)
        verdicts.add((ring, member, is_homogeneous(x)))
    # members and non-members over each ring, and inhomogeneous elements
    assert {(r, v) for r, v, _ in verdicts} == {(r, v) for r in ("Q", "Q[t]", "Q(t)") for v in (True, False)}
    assert {r for r, _, h in verdicts if not h} == {"Q", "Q[t]", "Q(t)"}


# --- the integer form against the computation on the values as given -------
#
# The library clears denominators before it tests membership or multiplies
# out the norm (the module docstring of ``cliffdegen.lipschitz``).  The three
# functions below are the computation it replaced: x and Q as they are given,
# and one step dict per term of H, added by ``axpy``.


def reference_unbalanced(m: int, terms: dict) -> dict:
    """``DoubledAlgebra.unbalanced`` before its loop was written out."""
    low = (1 << m) - 1
    out: dict = {}
    for key, c in terms.items():
        a, b = key & low, key >> m
        moved = a ^ b
        step = {}
        while moved:
            bit = moved & -moved
            moved ^= bit
            odd = ((a & -(bit << 1)).bit_count() + (b & (bit - 1)).bit_count()) & 1
            step[key ^ bit ^ (bit << m)] = -1 if odd else 1
        axpy(out, c, step)
    return out


def reference_uncleared_is_lipschitz(x: Multivector, V: QuadraticSpace) -> bool:
    """The membership test on x as it is given."""
    if not is_homogeneous(x):
        return False
    terms = x.terms.items()
    pair = {ma | (mb << V.m): ca * (lipschitz._psi_sign(mb) * cb) for ma, ca in terms for mb, cb in terms}
    return not reference_unbalanced(V.m, pair)


def reference_norm_scalar(x: Multivector, V: QuadraticSpace):
    """x tau(x), multiplied out on x and V as they are given."""
    z = gp(x, reverse(x, V), V)
    if z.terms.keys() <= {0}:
        return z.terms.get(0, 0)
    return None


# pairwise coprime denominators, some of them large
COPRIME = (3, 7, 11, 101, 9973, 65537, 2**31 - 1)


def _coprime_value(rng, ring):
    """A rational with one of the ``COPRIME`` denominators, as a value of
    ``ring``: a ``RatFun`` over Q(t) one time in three."""
    a = Fraction(rng.randint(-9, 9), rng.choice(COPRIME))
    if ring == "Q" or ring == "Q(t)" and rng.random() < 2 / 3:
        return a
    p = Poly([a, rng.randint(-2, 2)])
    return p if ring == "Q[t]" else RatFun(p, Poly([rng.randint(1, 3), rng.randint(1, 2)]))


def _integer_form_case(rng, ring):
    """(V, x, labels): a dense or diagonal form over ``ring``, of corank 1
    now and then, or the zero form; x zero, a product of 1 to m - 2
    vectors, or an even, odd or mixed element.  A mixed element on a
    diagonal form with m >= 3 is s + c e_ijk: tau(e_ijk) is
    -e_ijk there, so its norm s^2 - c^2 e_ijk^2 is a scalar."""
    m = rng.randint(1, 6 if ring != "Q(t)" else 4)
    shape = rng.choice(["dense", "dense", "diagonal", "zero"])
    corank = m > 1 and shape != "zero" and rng.random() < 0.3
    g = [[0] * m for _ in range(m)]
    if shape != "zero":
        for i in range(m):
            for j in range(i, m) if shape == "dense" else (i,):
                g[i][j] = g[j][i] = _coprime_value(rng, ring) if rng.random() < 0.8 else 0
    if corank:  # e_1 + ... + e_(m-1) - e_m in the radical
        for i in range(m - 1):
            g[i][m - 1] = g[m - 1][i] = sum((g[i][j] for j in range(m - 1)), 0)
        g[m - 1][m - 1] = sum((g[i][m - 1] for i in range(m - 1)), 0)
    V = QuadraticSpace(g)
    kind = rng.choice(["zero", "product", "product", "even", "odd", "mixed", "mixed"])
    if kind == "zero":
        x = Multivector()
    elif kind == "product":
        x = Multivector.scalar(1)
        for _ in range(rng.randint(1, max(1, m - 2 if ring != "Q(t)" else 2))):
            x = gp(x, Multivector({1 << i: _coprime_value(rng, ring) for i in range(m) if rng.random() < 0.8}), V)
    elif kind == "mixed" and shape == "diagonal" and not corank and m >= 3:
        w = sum(1 << i for i in rng.sample(range(m), 3))
        x = Multivector({0: _coprime_value(rng, ring) or 1, w: _coprime_value(rng, ring) or 1})
    else:
        parities = {"even": (0,), "odd": (1,), "mixed": (0, 1)}[kind]
        x = Multivector({
            mask: _coprime_value(rng, ring)
            for mask in range(1 << m)
            if mask.bit_count() % 2 in parities and rng.random() < 0.5
        })
    return V, x, {kind, shape, "D != 1" if V.scaled()[0] != 1 else "D = 1", "corank" if corank else "corank 0"}


def test_the_integer_form_gives_the_verdicts_and_norms_of_the_values_as_given():
    """Over Q, Q[t] (m <= 6) and Q(t) (m <= 4): the same membership
    verdicts, and norms equal in value and in their printed encoding, which
    over Q(t) is the unreduced quotient the product gives.  Scalar norms of
    inhomogeneous elements are among them."""
    rng = random.Random(71)
    seen = set()
    for k in range(240):
        ring = ("Q", "Q[t]", "Q(t)")[k % 3]
        V, x, labels = _integer_form_case(rng, ring)
        member = is_lipschitz(x, V)
        assert member == reference_uncleared_is_lipschitz(x, V), (ring, V.gram, x)
        z, want = norm_scalar(x, V), reference_norm_scalar(x, V)
        assert (z is None) == (want is None) and z == want, (ring, V.gram, x)
        if z is not None:
            assert jsonio.encode_coeff(z) == jsonio.encode_coeff(want), (ring, V.gram, x)
        if not is_homogeneous(x) and z:
            labels.add("inhomogeneous scalar norm")
        seen |= {(ring, label) for label in labels | {member, z is None}}
    for ring in ("Q", "Q[t]", "Q(t)"):
        want = {"zero", "product", "even", "odd", "mixed", "dense", "diagonal", "corank", "corank 0",
                "inhomogeneous scalar norm", True, False}
        want |= {"D = 1"} if ring == "Q(t)" else {"D != 1"}
        assert {(ring, label) for label in want} <= seen, (ring, {(r, l) for r, l in seen if r == ring})


def test_the_written_out_swap_is_the_axpy_swap():
    """``DoubledAlgebra.unbalanced`` equals the ``axpy`` loop, key by key
    and in insertion order, on random terms over each ring, cancellations
    included."""
    rng = random.Random(72)
    for k in range(150):
        ring = ("Q", "Q[t]", "Q(t)")[k % 3]
        m = rng.randint(1, 4)
        keys = rng.sample(range(4 ** m), min(4 ** m, rng.randint(1, 12)))
        terms = {key: _ring_value(rng, ring) or 1 for key in keys}
        got = lipschitz.DoubledAlgebra(QuadraticSpace.zero(m)).unbalanced(terms)
        want = reference_unbalanced(m, terms)
        assert list(got) == list(want) and got == want
        assert [jsonio.encode_coeff(v) for v in got.values()] == [jsonio.encode_coeff(v) for v in want.values()]


def fraction_calls(fn, *args) -> int:
    """The calls of ``Fraction.__new__`` while fn(*args) runs."""
    count = 0
    new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is new:
            count += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
    return count


def test_no_fraction_is_made_inside_the_test_on_rational_input():
    """A dense rational m = 5 form with D != 1 and a product of three
    vectors with rational coordinates: membership makes no ``Fraction``,
    and the norm one, its final division.  The values as given make
    thousands."""
    rng = random.Random(73)
    V = dense_form(rng, 5)
    x = Multivector.scalar(1)
    for _ in range(3):
        x = gp(x, Multivector({1 << i: Fraction(rng.randint(1, 9), rng.choice(COPRIME[:4])) for i in range(5)}), V)
    assert V.scaled()[0] != 1 and lipschitz_report(x, V)["verdict"] == "group"
    assert fraction_calls(is_lipschitz, x, V) == 0
    assert fraction_calls(norm_scalar, x, V) <= 1
    assert fraction_calls(reference_norm_scalar, x, V) > 1000


def orthogonal_volume(V):
    """The product of a Q-orthogonal basis of V, found by Gram-Schmidt from
    e_1, ..., e_m, or None when a step meets an isotropic vector."""
    m, Q = V.m, V.gram

    def b(u, w):
        return sum(u[i] * Q[i][j] * w[j] for i in range(m) for j in range(m))

    basis = []
    for k in range(m):
        u = [Fraction(int(i == k)) for i in range(m)]
        for w in basis:
            c = b(u, w) / b(w, w)
            u = [ui - c * wi for ui, wi in zip(u, w)]
        if b(u, u) == 0:
            return None
        basis.append(u)
    out = Multivector.scalar(1)
    for u in basis:
        out = gp(out, Multivector({1 << i: c for i, c in enumerate(u)}), V)
    return out


def test_membership_of_units_on_dense_forms_is_x_v_tau_x_in_v():
    """For x with nonzero scalar norm on a nondegenerate form, x is
    Lipschitz exactly when it is homogeneous and x e_i tau(x) is a vector
    for every i.  Below m = 6 every such homogeneous x passes; 1 + c w, for
    w the volume of an orthogonal basis at m = 6, has the scalar norm
    1 - c^2 w^2 and fails."""
    rng = random.Random(8)
    seen = set()
    for k in range(240):
        V = dense_form(rng, 6 if k % 16 == 0 else rng.choice([2, 3, 4]))
        if nullspace_dense([list(row) for row in V.gram], V.m):
            continue
        if V.m == 6:
            w = orthogonal_volume(V)
            if w is None:
                continue
            c = rng.choice([-2, -1, 1, 2])
            x = Multivector.scalar(1) + Multivector({mask: c * v for mask, v in w.terms.items()})
        else:
            x = _sample_element(rng, V)
        if not norm_scalar(x, V):
            continue
        tx = reverse(x, V)
        twisted = all(
            all(mask.bit_count() == 1 for mask in gp(gp(x, Multivector.basis_vector(i), V), tx, V).terms)
            for i in range(1, V.m + 1)
        )
        member = is_homogeneous(x) and twisted
        assert is_lipschitz(x, V) == member, (V.gram, x)
        seen.add((V.m == 6, member))
    assert seen == {(False, True), (True, False)}


def test_membership_examples():
    V = QuadraticSpace.diagonal([1, 2, 3])
    assert is_lipschitz(Multivector.basis_vector(1), V)
    assert is_lipschitz(Multivector.scalar(1), V)
    assert is_lipschitz(Multivector.scalar(3) + blade((1, 2)), V)
    # non-homogeneous elements are rejected outright
    assert not is_lipschitz(Multivector.scalar(1) + Multivector.basis_vector(1), V)
    # 1 + quadrivector is homogeneous but fails the graded membership
    V4 = QuadraticSpace.diagonal([1, 1, 2, 3])
    assert not is_lipschitz(Multivector.scalar(1) + blade((1, 2, 3, 4)), V4)
    # a product of two invertible vectors on a non-diagonal form
    W = QuadraticSpace([[1, HALF], [HALF, 2]])
    x = Multivector.scalar(1) + blade((1, 2))
    assert x == gp(Multivector.basis_vector(1), Multivector.basis_vector(1) + Multivector.basis_vector(2), W)
    assert is_lipschitz(x, W) and norm_scalar(x, W) == 4


def test_unit_group_and_spin_kernel_examples():
    V3 = QuadraticSpace.diagonal([3])
    e1 = Multivector.basis_vector(1)
    assert norm_scalar(e1, V3) == 3
    assert lipschitz_report(e1, V3)["verdict"] == "group"  # a unit, but odd
    V = QuadraticSpace.diagonal([1, 2, 3])
    assert lipschitz_report(Multivector(), V)["verdict"] == "none"
    assert lipschitz_report(Multivector.scalar(1), V)["verdict"] == "spin"
    assert lipschitz_report(Multivector.scalar(1), V)["verdict"] == "spin"
    x = Multivector.basis_vector(3)  # q = 0 for the zero form: monoid only
    assert lipschitz_report(x, QuadraticSpace.zero(3))["verdict"] == "monoid"


def test_monoid_tau_and_norm_properties_sampled():
    rng = random.Random(2)
    spaces = [
        QuadraticSpace.diagonal([1, 2, 3]),
        QuadraticSpace.diagonal([1, 2, 0]),
        QuadraticSpace.zero(4),
        QuadraticSpace.diagonal([1, 1, 1, 1, 0]),
        QuadraticSpace([[1, HALF, 0], [HALF, 2, Fraction(1, 3)], [0, Fraction(1, 3), -1]]),
        dense_form(random.Random(3), 4, corank=1),
    ]
    for k in range(120):
        V = spaces[k % len(spaces)]
        x = _sample_generator(rng, V)
        y = _sample_generator(rng, V)
        assert is_lipschitz(x, V) and is_lipschitz(y, V)
        xy = gp(x, y, V)
        assert is_lipschitz(xy, V)
        assert is_lipschitz(reverse(xy, V), V)
        z = norm_scalar(xy, V)
        assert z is not None
        zr = gp(reverse(xy, V), xy, V)
        assert zr == (Multivector.scalar(z) if z != 0 else Multivector())


def test_glip_inverse_stays_lipschitz():
    rng = random.Random(9)
    found = 0
    for k in range(60):
        V = QuadraticSpace.diagonal([1, 2, 3]) if k % 2 else dense_form(rng, 3)
        x = _sample_generator(rng, V)
        if lipschitz_report(x, V)["verdict"] not in ("group", "spin"):
            continue
        z = norm_scalar(x, V)
        inv = Multivector({mask: Fraction(v) / z for mask, v in reverse(x, V).terms.items()})
        assert gp(x, inv, V) == Multivector.scalar(1)
        assert is_lipschitz(inv, V)
        found += 1
    assert found > 10


def test_infinitesimal_examples():
    r = infinitesimal_lipschitz(QuadraticSpace.diagonal([1, 1, 1]))
    assert r["spin_dim"] == 3 and r["equals_even_filtration_le2"]
    r = infinitesimal_lipschitz(QuadraticSpace.zero(4))
    assert r["spin_dim"] == 6 and r["equals_even_filtration_le2"]


def test_infinitesimal_identification_random_degenerate():
    rng = random.Random(31)
    for _ in range(200):
        m = rng.choice([2, 3, 4, 5])
        # force degeneracy: one basis direction in the radical
        diag = [Fraction(rng.randint(-3, 3)) for _ in range(m - 1)] + [0]
        g = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m - 1):
            g[i][i] = diag[i]
            for j in range(i + 1, m - 1):
                v = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                g[i][j] = v
                g[j][i] = v
        V = QuadraticSpace(g)
        r = infinitesimal_lipschitz(V)
        assert r["equals_even_filtration_le2"]
        assert r["spin_dim"] == m * (m - 1) // 2


# --- the infinitesimal solve by ranks against its old kernels ---------------


def reference_infinitesimal_lipschitz(V: QuadraticSpace) -> dict:
    """infinitesimal_lipschitz before it counted by ranks: the kernel of
    the system over Q, checked to lie in span(e_0, 2-blades) and to have
    its dimension, and the kernel of the system with the spin cut."""
    m = V.m
    D = lipschitz.doubled_algebra(V)
    masks = even_blade_basis(m)
    K = len(masks)
    index = {mask: k for k, mask in enumerate(masks)}
    unbal_cols = []
    spin_eqs = [[int(j == k) for k in range(K)] for j in range(K)]
    for k, mask in enumerate(masks):
        unbal_cols.append(D.unbalanced({mask: 1, mask << m: lipschitz._psi_sign(mask)}))
        for m2, c in reverse(Multivector({mask: 1}), V).terms.items():
            spin_eqs[index[m2]][k] += c
    keys = sorted(set().union(*unbal_cols))
    eq_rows = [[col.get(k, 0) for col in unbal_cols] for k in keys]
    solutions = nullspace_dense(eq_rows, K)
    low = {mask for mask in masks if mask.bit_count() <= 2}
    inside = all(all(vec[k] == 0 for k in range(K) if masks[k] not in low) for vec in solutions)
    return {
        "equals_even_filtration_le2": inside and len(solutions) == 1 + m * (m - 1) // 2,
        "spin_dim": len(nullspace_dense(eq_rows + spin_eqs, K)),
    }


def infinitesimal_forms():
    """(kind, V) for m <= 5: diagonal forms with zero and fractional
    entries, dense forms, and dense forms of corank 1."""
    rng = random.Random(47)
    for k in range(45):
        m, kind = rng.randint(1, 5), ("diagonal", "dense", "degenerate")[k % 3]
        if kind == "diagonal":
            yield kind, QuadraticSpace.diagonal([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m)])
        else:
            yield kind, dense_form(rng, m, corank=int(kind == "degenerate"))


@pytest.mark.parametrize("prime", [linalg._P, 3], ids=["mersenne-61", "three"])
def test_infinitesimal_lipschitz_equals_the_kernel_reference(prime):
    """At the library's prime and at 3, where the modular ranks often fall
    short and the ranks over Q decide."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_P", prime)
        for kind, V in infinitesimal_forms():
            assert infinitesimal_lipschitz(V) == reference_infinitesimal_lipschitz(V), (kind, V.gram)


def test_a_kernel_of_the_right_dimension_outside_span_e0_and_2_blades_is_refused(monkeypatch):
    """Exchange the columns of E_0 (zero) and of e_1234 in the system: its
    kernel keeps the dimension 1 + m(m-1)/2 but holds e_1234 in place of
    e_0, so the ranks, like the reference, must refuse it."""
    V = QuadraticSpace.diagonal([1, 2, 3, 4])
    assert infinitesimal_lipschitz(V)["equals_even_filtration_le2"]
    real, volume = lipschitz.doubled_algebra(V), mask_of([1, 2, 3, 4])

    def column(mask):
        return {mask: 1, mask << 4: lipschitz._psi_sign(mask)}

    class Swapped:
        m = 4

        def unbalanced(self, terms):
            mask = min(terms)  # the blade of the column
            return real.unbalanced({0: column(volume), volume: column(0)}.get(mask, terms))

    monkeypatch.setattr(lipschitz, "doubled_algebra", lambda V: Swapped())
    got = infinitesimal_lipschitz(V)
    assert got == reference_infinitesimal_lipschitz(V)
    assert not got["equals_even_filtration_le2"]
