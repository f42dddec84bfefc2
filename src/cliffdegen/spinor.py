"""Spinor modules on exterior algebras of a maximal isotropic subspace.

A split form of Witt index l is presented on the ordered basis
n_1..n_l, p_1..p_l (and u in the odd case), with b(n_i, p_j) = delta_ij,
all n's and p's isotropic, and q(u) = 1.  The spinor module S has basis the
subsets of {1..l} (wedge monomials in the n_i, stored as bitmasks);
dim S = 2^l.

Action conventions (fixed here, pinned by the requirement that the defining
relations x y + y x = b(x,y), x^2 = q(x) hold as operators):

* n_i acts by left wedge with Koszul sign, zero if i is already present;
* p_i contracts i away with the same Koszul sign, scaled by b(p_i, n_i) = 1;
* u acts on a monomial of degree k by (-1)^k.

S+ / S- are the even / odd exterior-degree halves (the empty monomial lies
in S+); each has dimension 2^(l-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import (
    Multivector,
    QuadraticSpace,
    geometric_product,
    indices_of,
    is_even,
    filtration_degree,
)
from .liestructure import even_blade_basis
from .linalg import SpanBasis
from .rings import HALF, axpy


@dataclass(frozen=True)
class WittDecomposition:
    ell: int
    odd: bool = False

    @property
    def m(self) -> int:
        return 2 * self.ell + (1 if self.odd else 0)

    def space(self) -> QuadraticSpace:
        m = self.m
        l = self.ell
        gram = [[Fraction(0)] * m for _ in range(m)]
        for i in range(l):
            gram[i][l + i] = HALF  # b(n_i, p_i) = 1
            gram[l + i][i] = HALF
        if self.odd:
            gram[m - 1][m - 1] = Fraction(1)  # q(u) = 1
        return QuadraticSpace(gram)

    def n(self, i: int) -> Multivector:
        return Multivector.basis_vector(i)

    def p(self, i: int) -> Multivector:
        return Multivector.basis_vector(self.ell + i)

    def u(self) -> Multivector:
        if not self.odd:
            raise ValueError("even decomposition has no u")
        return Multivector.basis_vector(self.m)


class UnknownGenerator(ValueError):
    pass


def clifford_action(gen, subset: int, W: WittDecomposition) -> dict:
    """Action of a Witt generator on a wedge monomial (bitmask over {1..l}).

    Returns a sparse spinor element {bitmask: coefficient}.
    """
    kind = gen[0]
    if kind == "n":
        i = gen[1]
        bit = 1 << (i - 1)
        if subset & bit:
            return {}
        sign = -1 if (subset & (bit - 1)).bit_count() % 2 else 1
        return {subset | bit: Fraction(sign)}
    if kind == "p":
        i = gen[1]
        bit = 1 << (i - 1)
        if not subset & bit:
            return {}
        sign = -1 if (subset & (bit - 1)).bit_count() % 2 else 1
        return {subset ^ bit: Fraction(sign)}
    if kind == "u":
        if not W.odd:
            raise UnknownGenerator("u is only present for odd m")
        sign = -1 if subset.bit_count() % 2 else 1
        return {subset: Fraction(sign)}
    raise UnknownGenerator(f"unknown generator {gen!r}")


def _gen_of_index(k: int, W: WittDecomposition):
    """Witt generator corresponding to basis index k of the ambient space."""
    if 1 <= k <= W.ell:
        return ("n", k)
    if W.ell < k <= 2 * W.ell:
        return ("p", k - W.ell)
    if W.odd and k == W.m:
        return ("u",)
    raise UnknownGenerator(f"index {k} outside the Witt basis")


def _apply_vector(k: int, vec: dict, W: WittDecomposition) -> dict:
    gen = _gen_of_index(k, W)
    out: dict = {}
    for subset, c in vec.items():
        axpy(out, c, clifford_action(gen, subset, W))
    return out


def spinor_matrix(x: Multivector, W: WittDecomposition) -> list:
    """Matrix of x on S, basis = subset bitmasks ascending (empty set first).

    A blade acts as the composite of its generators, rightmost first.
    """
    dim = 1 << W.ell
    cols = []
    for col in range(dim):
        acc: dict = {}
        for mask, coeff in x.terms.items():
            vec = {col: Fraction(1)}
            for k in reversed(indices_of(mask)):
                vec = _apply_vector(k, vec, W)
                if not vec:
                    break
            axpy(acc, coeff, vec)
        cols.append(acc)
    return [[cols[c].get(r, Fraction(0)) for c in range(dim)] for r in range(dim)]


def verify_action_relations(W: WittDecomposition):
    """Check x y + y x = b(x,y) id and x^2 = q(x) id for all Witt basis
    vectors, as operators on S.  Returns None or the first failure."""
    V = W.space()
    m = W.m
    dim = 1 << W.ell
    mats = [spinor_matrix(Multivector.basis_vector(k), W) for k in range(1, m + 1)]
    for a in range(m):
        for b in range(a, m):
            want = V.b(a + 1, b + 1) if a != b else V.q(a + 1)
            for r in range(dim):
                for c in range(dim):
                    lhs = sum(
                        mats[a][r][k] * mats[b][k][c] + mats[b][r][k] * mats[a][k][c]
                        for k in range(dim)
                    )
                    if a == b:
                        lhs /= 2
                    if lhs != (want if r == c else 0):
                        return {
                            "pair": (a + 1, b + 1),
                            "entry": (r, c),
                            "got": lhs,
                            "want": want if r == c else 0,
                        }
    return None


def even_algebra_isomorphism_check(W: WittDecomposition) -> dict:
    """Report on the induced map from the even Clifford algebra to
    endomorphisms of S (odd case) or of S+ (+) S- (even case)."""
    failure = verify_action_relations(W)
    dim = 1 << W.ell
    masks = even_blade_basis(W.m)
    report = {
        "case": "odd" if W.odd else "even",
        "ell": W.ell,
        "dim_even_algebra": len(masks),
        "relations_ok": failure is None,
        "first_failed_relation": failure,
    }
    if failure is not None:
        report["bijective"] = False
        return report
    span = SpanBasis()
    block_ok = True
    plus = [s for s in range(dim) if s.bit_count() % 2 == 0]
    minus = [s for s in range(dim) if s.bit_count() % 2 == 1]
    pos = {s: i for i, s in enumerate(plus)}
    neg = {s: i for i, s in enumerate(minus)}
    half = dim // 2
    for mask in masks:
        mat = spinor_matrix(Multivector({mask: Fraction(1)}), W)
        if W.odd:
            span.insert(
                {r * dim + c: mat[r][c] for r in range(dim) for c in range(dim) if mat[r][c] != 0}
            )
        else:
            # even elements must preserve the parity split
            vec = {}
            for r in range(dim):
                for c in range(dim):
                    v = mat[r][c]
                    if v == 0:
                        continue
                    rp, cp = r.bit_count() % 2, c.bit_count() % 2
                    if rp != cp:
                        block_ok = False
                    elif rp == 0:
                        vec[pos[r] * half + pos[c]] = v
                    else:
                        vec[half * half + neg[r] * half + neg[c]] = v
            span.insert(vec)
    target = dim * dim if W.odd else 2 * half * half
    report["block_structure_ok"] = block_ok if not W.odd else None
    report["operator_rank"] = span.dim
    report["target_dim"] = target
    report["bijective"] = (
        span.dim == target == len(masks) and (W.odd or block_ok)
    )
    return report


def cartan_element(i: int, W: WittDecomposition) -> Multivector:
    """h_i = (n_i p_i - p_i n_i) / 2, an element of the even Lie algebra."""
    V = W.space()
    ni, pi = W.n(i), W.p(i)
    h = (geometric_product(ni, pi, V) - geometric_product(pi, ni, V)).scale(HALF)
    assert is_even(h) and filtration_degree(h) <= 2
    return h


def spin_weights(ell: int) -> dict:
    """Weight multiset of the spin module: Cartan eigenvalues computed from
    the action of the h_i.  Returns {weight tuple: multiplicity}; the weight
    of a monomial has +1/2 in slot i when i is present, else -1/2."""
    W = WittDecomposition(ell, odd=False)
    dim = 1 << ell
    mats = [spinor_matrix(cartan_element(i, W), W) for i in range(1, ell + 1)]
    for mat in mats:
        for r in range(dim):
            for c in range(dim):
                if r != c and mat[r][c] != 0:
                    raise AssertionError("Cartan element acts non-diagonally")
    out: dict = {}
    for s in range(dim):
        wt = tuple(mats[i][s][s] for i in range(ell))
        out[wt] = out.get(wt, 0) + 1
    return out


def halfspin_split(ell: int) -> tuple:
    """(weights of S+, weights of S-) for the even split form; S+ is the
    even exterior-degree half (contains the empty monomial)."""
    W = WittDecomposition(ell, odd=False)
    dim = 1 << ell
    mats = [spinor_matrix(cartan_element(i, W), W) for i in range(1, ell + 1)]
    plus: dict = {}
    minus: dict = {}
    for s in range(dim):
        wt = tuple(mats[i][s][s] for i in range(ell))
        bucket = plus if s.bit_count() % 2 == 0 else minus
        bucket[wt] = bucket.get(wt, 0) + 1
    return plus, minus


def restrict_even_to_odd(ell: int) -> dict:
    """Forget the last Cartan coordinate of each half-spin weight of the
    even form of index l and compare with the spin multiset of the odd form
    of index l-1 (the embedding that extends the smaller space by one line)."""
    if ell < 2:
        raise ValueError("need ell >= 2 to restrict")
    plus, minus = halfspin_split(ell)
    spin_small = spin_weights(ell - 1)

    def forget(ws: dict) -> dict:
        out: dict = {}
        for wt, mult in ws.items():
            key = wt[:-1]
            out[key] = out.get(key, 0) + mult
        return out

    rp, rm = forget(plus), forget(minus)
    return {
        "ell": ell,
        "restricted_plus": rp,
        "restricted_minus": rm,
        "spin_target": spin_small,
        "plus_matches": rp == spin_small,
        "minus_matches": rm == spin_small,
    }


def central_involution_check(ell: int) -> dict:
    """Build w as the product over i of (n_i + p_i)(n_i - p_i), an orthogonal
    volume element for the even split form, and verify: w^2 = e_0, w
    anticommutes with every basis vector, and w acts as +c on S+ and -c on
    S- for a single scalar c."""
    W = WittDecomposition(ell, odd=False)
    V = W.space()
    w = Multivector.scalar(1)
    for i in range(1, ell + 1):
        x = W.n(i) + W.p(i)
        y = W.n(i) - W.p(i)
        w = geometric_product(w, geometric_product(x, y, V), V)
    sq = geometric_product(w, w, V)
    square_ok = sq == Multivector.scalar(1)
    anti_ok = True
    for k in range(1, W.m + 1):
        e = Multivector.basis_vector(k)
        if not (geometric_product(w, e, V) + geometric_product(e, w, V)).is_zero():
            anti_ok = False
            break
    mat = spinor_matrix(w, W)
    dim = 1 << ell
    c = mat[0][0]
    scalar_ok = True
    for r in range(dim):
        for col in range(dim):
            want = 0
            if r == col:
                want = c if r.bit_count() % 2 == 0 else -c
            if mat[r][col] != want:
                scalar_ok = False
    return {
        "ell": ell,
        "square_is_identity": square_ok,
        "anticommutes_with_vectors": anti_ok,
        "acts_by_plus_minus_scalar": scalar_ok,
        "scalar": c,
    }
