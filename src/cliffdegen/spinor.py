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

:func:`even_algebra_isomorphism_check` returns the ``spinor check``
payload itself, in JSON-native values; the weights here are doubled
``int`` tuples, halved only where ``jsonio`` prints them.
"""

from __future__ import annotations

from collections import Counter
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
from .rings import HALF, InvariantViolation


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


def verify_action_relations(W: WittDecomposition):
    """Check x y + y x = b(x,y) id and x^2 = q(x) id for all Witt basis
    vectors, as operators on S.  Returns None or the first failure: the
    first pair (a <= b), and its first wrong entry (r, c) in row-major order.

    Each generator acts by its step table, a signed partial permutation
    (:func:`_blade_actions`), so column c of x y + y x is two lookups: x
    after y sends monomial c to rows_x[rows_y[c]] with sign
    signs_y[c] signs_x[rows_y[c]], and y after x likewise."""
    V = W.space()
    m = W.m
    act = _blade_actions(W)
    steps = [act(1 << k) for k in range(m)]
    for a in range(m):
        rows_a, signs_a = steps[a]
        for b in range(a, m):
            rows_b, signs_b = steps[b]
            want = V.b(a + 1, b + 1) if a != b else V.q(a + 1)
            twice = 2 if a == b else 1  # x x + x x = 2 x^2
            bad = []
            for c in range(1 << W.ell):
                # x_a after x_b passes c through mid_b, x_b after x_a through
                # mid_a; a killed monomial has sign 0 at row 0
                mid_b, mid_a = rows_b[c], rows_a[c]
                col = {c: 0}
                r = rows_a[mid_b]
                col[r] = col.get(r, 0) + signs_b[c] * signs_a[mid_b]
                r = rows_b[mid_a]
                col[r] = col.get(r, 0) + signs_a[c] * signs_b[mid_a]
                for r, got in col.items():
                    if got != (twice * want if r == c else 0):
                        bad.append((r, c, got * HALF if a == b else got))
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
    """The ``spinor check`` payload: the induced map from the even Clifford
    algebra to endomorphisms of S (odd case) or of S+ (+) S- (even case).
    When the relations fail, the rank is not computed, and the first failed
    relation is reported with its pair and entry as lists and its values
    as exact strings."""
    failure = verify_action_relations(W)
    dim = 1 << W.ell
    masks = even_blade_basis(W.m)
    report = {
        "case": "odd" if W.odd else "even",
        "ell": W.ell,
        "dim_even_algebra": len(masks),
        "relations_ok": failure is None,
        "operator_rank": None,
        "target_dim": None,
        "bijective": False,
    }
    if failure is not None:
        report["first_failed_relation"] = {
            "pair": list(failure["pair"]),
            "entry": list(failure["entry"]),
            "got": str(failure["got"]),
            "want": str(failure["want"]),
        }
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
    report.update(operator_rank=r, target_dim=target, bijective=r == target == len(masks) and block_ok)
    return report


def cartan_element(i: int, W: WittDecomposition, V: QuadraticSpace) -> Multivector:
    """2 h_i = n_i p_i - p_i n_i, an element of the even Lie algebra with
    ``int`` coefficients: h_i doubled, so that its weights are ``int``s.
    V is ``W.space()``, built once by the caller for every i."""
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
    V = W.space()
    diagonals = []
    for i in range(1, ell + 1):
        cols = spinor_columns(cartan_element(i, W, V), W)
        if any(col.keys() - {s} for s, col in enumerate(cols)):
            raise InvariantViolation("Cartan element acts non-diagonally")
        diagonals.append([col.get(s, 0) for s, col in enumerate(cols)])
    return [tuple(diag[s] for diag in diagonals) for s in range(1 << ell)]


def spin_weights(ell: int) -> dict:
    """Weight multiset of the spin module: Cartan eigenvalues computed from
    the action of the 2 h_i.  Returns {doubled weight tuple: multiplicity};
    the doubled weight of a monomial has +1 in slot i when i is present,
    else -1."""
    return Counter(_cartan_weights(ell))


def halfspin_split(ell: int) -> tuple:
    """(weights of S+, weights of S-), keyed by doubled weights, for the
    even split form; S+ is the even exterior-degree half (contains the
    empty monomial)."""
    halves = Counter(), Counter()
    for s, wt in enumerate(_cartan_weights(ell)):
        halves[s.bit_count() % 2][wt] += 1
    return halves


def restrict_even_to_odd(ell: int) -> dict:
    """Forget the last Cartan coordinate of each half-spin weight of the
    even form of index l and compare with the spin multiset of the odd form
    of index l-1 (the embedding that extends the smaller space by one line).
    Weights are doubled, as in :func:`spin_weights`."""
    if ell < 2:
        raise ValueError("need ell >= 2 to restrict")
    plus, minus = halfspin_split(ell)
    spin_small = spin_weights(ell - 1)
    rp, rm = (Counter(wt[:-1] for wt in ws.elements()) for ws in (plus, minus))
    return {
        "ell": ell,
        "restricted_plus": rp,
        "restricted_minus": rm,
        "spin_target": spin_small,
        "plus_matches": rp == spin_small,
        "minus_matches": rm == spin_small,
    }
