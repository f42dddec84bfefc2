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

Basis vector k of the ambient space (n_k, p_(k-l) or u) acts through one
bit-level step, :func:`_step`, which gives its signed partial permutation of
the monomials.  A blade acts as the blade without its top generator after
that generator's step, so once the smaller blade is known each blade costs
one step per monomial (:func:`_blade_actions`), and its action is again a
signed partial permutation, with ``int`` signs.

S+ / S- are the even / odd exterior-degree halves (the empty monomial lies
in S+); each has dimension 2^(l-1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import (
    Multivector,
    QuadraticSpace,
    _check_mask,
    geometric_product,
    is_even,
    filtration_degree,
)
from .liestructure import even_blade_basis
from .linalg import rank
from .rings import HALF, InvariantViolation, axpy


@dataclass(frozen=True)
class WittDecomposition:
    ell: int
    odd: bool

    @property
    def m(self) -> int:
        return 2 * self.ell + (1 if self.odd else 0)

    def space(self) -> QuadraticSpace:
        m = self.m
        l = self.ell
        gram = [[0] * m for _ in range(m)]
        for i in range(l):
            gram[i][l + i] = HALF  # b(n_i, p_i) = 1
            gram[l + i][i] = HALF
        if self.odd:
            gram[m - 1][m - 1] = 1  # q(u) = 1
        return QuadraticSpace(gram)

    def n(self, i: int) -> Multivector:
        return Multivector.basis_vector(i)

    def p(self, i: int) -> Multivector:
        return Multivector.basis_vector(self.ell + i)


def _step(k: int, subset: int, W: WittDecomposition):
    """Basis vector e_k of the ambient space on a wedge monomial (bitmask
    over {1..l}): (monomial, sign), or None when e_k kills it.  Each
    generator acts as a signed partial permutation of the monomials."""
    ell = W.ell
    if k > 2 * ell:  # u: the parity sign
        return subset, -1 if subset.bit_count() % 2 else 1
    bit = 1 << (k - 1 if k <= ell else k - ell - 1)
    if bool(subset & bit) == (k <= ell):
        return None  # n_i needs bit i absent, p_i needs it present
    # n_i wedges bit i on, p_i contracts it away: the same Koszul sign
    return subset ^ bit, -1 if (subset & (bit - 1)).bit_count() % 2 else 1


def _blade_actions(W: WittDecomposition):
    """The action on S of each blade, built on demand and memoized for one
    call: ``act(mask)`` is ``(rows, signs)``, the blade sending monomial c
    to ``signs[c]`` times monomial ``rows[c]`` (sign 0 where it kills c).

    As in ``clifford.blade_row``, blade b is b without its top generator
    e_t times e_t, so b sends c where the smaller blade sends the step of
    e_t from c: one lookup per monomial.  Only the blades asked for and
    their prefixes (the blades of their lowest generators) are built."""
    dim = 1 << W.ell
    memo = {0: (list(range(dim)), [1] * dim)}

    def act(mask: int) -> tuple:
        hit = memo.get(mask)
        if hit is None:
            t = mask.bit_length()
            top = 1 << (t - 1)
            if mask == top:
                steps = [_step(t, c, W) or (0, 0) for c in range(dim)]
                hit = [r for r, _ in steps], [s for _, s in steps]
            else:
                rest_rows, rest_signs = act(mask ^ top)
                rows, signs = act(top)
                hit = [rest_rows[r] for r in rows], [s * rest_signs[r] for r, s in zip(rows, signs)]
            # a blade with top generator e_m is no other blade's prefix, so
            # of those only e_m itself, a step table, is kept
            if t < W.m or mask == top:
                memo[mask] = hit
        return hit

    return act


def spinor_columns(x: Multivector, W: WittDecomposition) -> list:
    """Sparse columns {row: coeff} of the matrix of x on S, basis = subset
    bitmasks ascending (empty set first), from the action of each blade."""
    for mask in x.terms:
        _check_mask(mask, W.m)
    act = _blade_actions(W)
    cols = [{} for _ in range(1 << W.ell)]
    for mask, coeff in x.terms.items():
        rows, signs = act(mask)
        for col, r, s in zip(cols, rows, signs):
            if s:
                v = col.get(r, 0) + coeff * s
                if v:
                    col[r] = v
                else:
                    del col[r]
    return cols


def spinor_matrix(x: Multivector, W: WittDecomposition) -> list:
    """Dense matrix of x on S (rows and columns as in spinor_columns), for
    callers that need matrices, such as the spin image of local models."""
    dim = 1 << W.ell
    cols = spinor_columns(x, W)
    return [[cols[c].get(r, 0) for c in range(dim)] for r in range(dim)]


def _anticommutator_column(A: list, B: list, c: int) -> dict:
    """Column c of A B + B A, from sparse columns."""
    acc: dict = {}
    for k, v in B[c].items():
        axpy(acc, v, A[k])
    for k, v in A[c].items():
        axpy(acc, v, B[k])
    return acc


def verify_action_relations(W: WittDecomposition):
    """Check x y + y x = b(x,y) id and x^2 = q(x) id for all Witt basis
    vectors, as operators on S.  Returns None or the first failure: the
    first pair (a <= b), and its first wrong entry (r, c) in row-major order.

    Each generator acts as a signed partial permutation, so its sparse
    columns hold at most one entry and each column of an anticommutator is
    two column compositions."""
    V = W.space()
    m = W.m
    dim = 1 << W.ell
    cols = [spinor_columns(Multivector.basis_vector(k), W) for k in range(1, m + 1)]
    for a in range(m):
        for b in range(a, m):
            want = V.b(a + 1, b + 1) if a != b else V.q(a + 1)
            bad = []
            for c in range(dim):
                col = _anticommutator_column(cols[a], cols[b], c)
                for r in col.keys() | {c}:
                    got = col.get(r, 0)
                    if a == b:  # x x + x x = 2 x^2
                        got *= HALF
                    if got != (want if r == c else 0):
                        bad.append((r, c, got))
            if bad:
                r, c, got = min(bad)
                return {
                    "pair": (a + 1, b + 1),
                    "entry": (r, c),
                    "got": got,
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
    block_ok = True
    vecs = []
    # the operator entry (r, c) is coordinate r * dim + c of End(S); the
    # even case keeps those within End(S+) (+) End(S-), and a span's rank
    # does not depend on how its coordinates are labelled
    act = _blade_actions(W)
    for mask in masks:
        rows, signs = act(mask)
        vec = {}
        for c, (r, s) in enumerate(zip(rows, signs)):
            if not s:
                continue
            if not W.odd and (r ^ c).bit_count() % 2:
                # even elements must preserve the parity split
                block_ok = False
            else:
                vec[r * dim + c] = s
        vecs.append(vec)
    # |S+|^2 + |S-|^2 in the even case (|S-| = 0 when l = 0)
    target = dim * dim if W.odd else (dim - dim // 2) ** 2 + (dim // 2) ** 2
    # the kept coordinates span a space of dimension target
    r = rank(vecs, target)
    report["block_structure_ok"] = block_ok if not W.odd else None
    report["operator_rank"] = r
    report["target_dim"] = target
    report["bijective"] = r == target == len(masks) and (W.odd or block_ok)
    return report


def cartan_element(i: int, W: WittDecomposition) -> Multivector:
    """2 h_i = n_i p_i - p_i n_i, an element of the even Lie algebra with
    ``int`` coefficients: h_i doubled, so that its weights are ``int``s."""
    V = W.space()
    ni, pi = W.n(i), W.p(i)
    h = geometric_product(ni, pi, V) - geometric_product(pi, ni, V)
    if not (is_even(h) and filtration_degree(h) <= 2 and all(c.denominator == 1 for c in h.terms.values())):
        raise InvariantViolation("Cartan element is not even of degree <= 2 with integral coefficients")
    return Multivector({mask: c.numerator for mask, c in h.terms.items()})


def _cartan_weights(ell: int) -> list:
    """The doubled weight of each monomial of S (by bitmask): the
    eigenvalues of 2 h_1..2 h_l on it, read off their sparse columns once
    each is checked to be diagonal."""
    W = WittDecomposition(ell, odd=False)
    diagonals = []
    for i in range(1, ell + 1):
        cols = spinor_columns(cartan_element(i, W), W)
        if any(col.keys() - {s} for s, col in enumerate(cols)):
            raise InvariantViolation("Cartan element acts non-diagonally")
        diagonals.append([col.get(s, 0) for s, col in enumerate(cols)])
    return [tuple(diag[s] for diag in diagonals) for s in range(1 << ell)]


def spin_weights(ell: int) -> dict:
    """Weight multiset of the spin module: Cartan eigenvalues computed from
    the action of the 2 h_i.  Returns {doubled weight tuple: multiplicity};
    the doubled weight of a monomial has +1 in slot i when i is present,
    else -1."""
    out: dict = {}
    for wt in _cartan_weights(ell):
        out[wt] = out.get(wt, 0) + 1
    return out


def halfspin_split(ell: int) -> tuple:
    """(weights of S+, weights of S-), keyed by doubled weights, for the
    even split form; S+ is the even exterior-degree half (contains the
    empty monomial)."""
    plus: dict = {}
    minus: dict = {}
    for s, wt in enumerate(_cartan_weights(ell)):
        bucket = plus if s.bit_count() % 2 == 0 else minus
        bucket[wt] = bucket.get(wt, 0) + 1
    return plus, minus


def restrict_even_to_odd(ell: int) -> dict:
    """Forget the last Cartan coordinate of each half-spin weight of the
    even form of index l and compare with the spin multiset of the odd form
    of index l-1 (the embedding that extends the smaller space by one line).
    Weights are doubled, as in :func:`spin_weights`."""
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
