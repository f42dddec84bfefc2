"""Even degree-<=2 Lie structure of a Clifford algebra and the recovery of
the quadratic form from its structure constants.

The even filtration piece L = span(e_0, e_i e_j for i < j) is closed under
commutators; the central quotient L' = L / <e_0> carries structure constants
that are linear in the entries of the bilinear form, and for m >= 3 they
determine the form exactly.  That round trip is the injectivity content this
module implements and tests.

Two independent paths compute the constants:

* :func:`structure_constants` expands actual commutators through the
  geometric product;
* :func:`transcribe_constants` writes them down directly from the rewriting
  relations (elementary index algebra, no product machinery).

The bracket of two basis bivectors, for distinct indices, is (writing s(x,y)
for the class of e_x e_y modulo e_0, so s(y,x) = -s(x,y)):

    [s(a,b), s(c,d)] = -b(a,d) s(c,b) + b(a,c) s(d,b)
                       - b(b,d) s(a,c) + b(b,c) s(a,d)

and for a single shared index s with leftovers x, y:

    [s(x,s), s(s,y)] = 2 q(e_s) s(x,y) - b(s,y) s(x,s) - b(x,s) s(s,y).

Both identities follow by pulling generators through each other with
e_u e_v = b(u,v) e_0 - e_v e_u.  Because sign conventions in this corner are
notoriously easy to drift on, the two paths are kept strictly separate and
must agree exactly: the product-derived table is compared entry by entry
with this transcription, and the round-trip reconstruction must return the
form on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .clifford import (
    Multivector,
    QuadraticSpace,
    geometric_product,
    indices_of,
    mask_of,
)
from .rings import HALF, axpy, czero, regular_at, join_rings, ring_of


class LieClosureError(ArithmeticError):
    """A bracket escaped the span of the declared basis."""


class ReconstructionError(ArithmeticError):
    """Structure constants do not arise from any symmetric form."""


def lie_pairs(m: int):
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def _oriented(x: int, y: int):
    """Return ((min,max), sign) so that s(x,y) = sign * s(min,max)."""
    return ((x, y), 1) if x < y else ((y, x), -1)


@dataclass
class EvenLieAlgebra:
    """Basis [e_0, e_i e_j (i<j)] of the even filtration-degree-<=2 piece,
    with every pairwise bracket expanded over that basis."""

    space: QuadraticSpace
    basis: list
    pairs: list
    brackets: dict  # (pair_a, pair_b), a < b lex -> {label: coeff}, labels "e0" or pair

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass
class QuotientLieAlgebra:
    """Structure constants of L' = L / <e_0> on the basis s(i,j), i < j."""

    m: int
    table: dict  # (pair_a, pair_b) with pair_a < pair_b lex -> {pair: coeff}

    @property
    def dimension(self) -> int:
        return self.m * (self.m - 1) // 2

    def bracket(self, pa, pb) -> dict:
        if pa == pb:
            return {}
        if pa < pb:
            return dict(self.table.get((pa, pb), {}))
        return {k: -v for k, v in self.table.get((pb, pa), {}).items()}

    def verify_jacobi(self, triples=None):
        pairs = lie_pairs(self.m)
        if triples is None:
            triples = combinations(range(len(pairs)), 3)
        for ia, ib, ic in triples:
            a, b, c = pairs[ia], pairs[ib], pairs[ic]
            acc: dict = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for p, v in self.bracket(x, y).items():
                    axpy(acc, v, self.bracket(p, z))
            if acc:
                raise LieClosureError(f"Jacobi fails on {a},{b},{c}: {acc}")


def _commutator(x: Multivector, y: Multivector, V: QuadraticSpace) -> Multivector:
    return geometric_product(x, y, V) - geometric_product(y, x, V)


def build_even_lie(V: QuadraticSpace) -> EvenLieAlgebra:
    """Construct the even Lie algebra from the product, verifying closure."""
    m = V.m
    pairs = lie_pairs(m)
    basis = [Multivector.scalar(1)] + [Multivector.blade(p) for p in pairs]
    brackets = {}
    for ai in range(len(pairs)):
        for bi in range(ai + 1, len(pairs)):
            pa, pb = pairs[ai], pairs[bi]
            com = _commutator(Multivector.blade(pa), Multivector.blade(pb), V)
            expansion = {}
            for mask, c in com.terms.items():
                k = mask.bit_count()
                if k == 0:
                    expansion["e0"] = c
                elif k == 2:
                    expansion[indices_of(mask)] = c
                else:
                    raise LieClosureError(
                        f"[{pa},{pb}] leaves the basis span at blade {indices_of(mask)}"
                    )
            brackets[(pa, pb)] = expansion
    return EvenLieAlgebra(space=V, basis=basis, pairs=pairs, brackets=brackets)


def structure_constants(V: QuadraticSpace, check_jacobi: bool = True) -> QuotientLieAlgebra:
    """Constants of L' computed from the geometric product (never from the
    transcription, which serves as an independent oracle)."""
    if V.m < 2:
        raise ValueError("need m >= 2 for bivectors to exist")
    lie = build_even_lie(V)
    table = {
        key: {p: c for p, c in exp.items() if p != "e0"}
        for key, exp in lie.brackets.items()
    }
    out = QuotientLieAlgebra(m=V.m, table=table)
    if check_jacobi:
        npairs = len(lie.pairs)
        if npairs <= 21:  # m <= 7: all triples
            out.verify_jacobi()
        else:
            import random

            rng = random.Random(20210 + V.m)
            sample = [
                tuple(sorted(rng.sample(range(npairs), 3))) for _ in range(200)
            ]
            out.verify_jacobi(sample)
    return out


def transcribe_constants(V: QuadraticSpace) -> QuotientLieAlgebra:
    """Direct transcription of the bracket identities in the module
    docstring; shares no code with the geometric product."""
    m = V.m
    pairs = lie_pairs(m)
    table = {}

    def add(dst, x, y, coeff):
        if czero(coeff):
            return
        (p, sign) = _oriented(x, y)
        s = dst.get(p, 0) + sign * coeff
        if czero(s):
            dst.pop(p, None)
        else:
            dst[p] = s

    for ai in range(len(pairs)):
        for bi in range(ai + 1, len(pairs)):
            (a, b), (c, d) = pairs[ai], pairs[bi]
            exp: dict = {}
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
            # two shared indices means identical pairs: bracket is zero
            table[(pairs[ai], pairs[bi])] = exp
    return QuotientLieAlgebra(m=m, table=table)


def reconstruct_form(L: QuotientLieAlgebra) -> QuadraticSpace:
    """Read the form off the bracket table and verify it reproduces the
    table exactly.  Requires m >= 3; below that the table carries no
    information about the form."""
    m = L.m
    if m < 3:
        raise ValueError("reconstruction needs m >= 3")
    q = {}
    b = {}
    # diagonal entries: 2 q(e_s) multiplies s(x,y) in [s(x,s), s(s,y)]
    for j in range(2, m):
        coeffs = L.bracket((1, j), (j, m))
        q[j] = coeffs.get((1, m), 0) * HALF
    q[1] = -L.bracket((1, 2), (1, 3)).get((2, 3), 0) * HALF
    q[m] = -L.bracket((1, m), (2, m)).get((1, 2), 0) * HALF
    # off-diagonal entries b(j,l): coefficient of s(i,j) in [s(i,j), s(j,l)]
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
    # consistency: the recovered form must reproduce every constant
    expected = transcribe_constants(V)
    for key in set(expected.table) | set(L.table):
        got = L.table.get(key, {})
        want = expected.table.get(key, {})
        if set(got) != set(want) or any(got[p] != want[p] for p in got):
            raise ReconstructionError(
                f"constants at {key} are not those of any symmetric form"
            )
    return V


# ---------------------------------------------------------------------------
# multiplication tensors


@dataclass
class AlgebraTensor:
    """Multiplication tensor c of a unital algebra in a fixed basis.

    ``c[(i, j)]`` is the sparse expansion of basis_i * basis_j; the basis
    order for Clifford tensors is blades by cardinality then lexicographic
    index tuple, so tensors compare bit-for-bit.
    """

    dim: int
    identity: int
    c: dict
    basis_masks: tuple = field(default=None)

    def entry(self, i: int, j: int) -> dict:
        return self.c.get((i, j), {})

    def multiply(self, u: list, v: list) -> list:
        out = [0] * self.dim
        for i, a in enumerate(u):
            if czero(a):
                continue
            for j, bv in enumerate(v):
                if czero(bv):
                    continue
                for k, coeff in self.entry(i, j).items():
                    out[k] = out[k] + a * bv * coeff
        return out

    def verify_unital(self):
        e = self.identity
        for j in range(self.dim):
            if self.entry(e, j) != {j: 1} and self.entry(e, j) != {j: Fraction(1)}:
                raise ValueError(f"identity fails on the left at {j}")
            if self.entry(j, e) != {j: 1} and self.entry(j, e) != {j: Fraction(1)}:
                raise ValueError(f"identity fails on the right at {j}")

    def ring(self) -> str:
        r = "rational"
        for row in self.c.values():
            for v in row.values():
                r = join_rings(r, ring_of(v))
        return r

    def __eq__(self, other):
        if not isinstance(other, AlgebraTensor):
            return NotImplemented
        if (self.dim, self.identity) != (other.dim, other.identity):
            return False
        keys = set(self.c) | set(other.c)
        for k in keys:
            a, bb = self.c.get(k, {}), other.c.get(k, {})
            if set(a) != set(bb) or any(a[p] != bb[p] for p in a):
                return False
        return True


def even_blade_basis(m: int) -> tuple:
    masks = [mask for mask in range(1 << m) if mask.bit_count() % 2 == 0]
    masks.sort(key=lambda mask: (mask.bit_count(), indices_of(mask)))
    return tuple(masks)


def theta_tensor(V: QuadraticSpace) -> AlgebraTensor:
    """Multiplication tensor of the even Clifford algebra in the canonical
    even-blade basis, with e_0 as the identity: a point of the variety of
    algebra structures with distinguished unit."""
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


def quotient_lie_from_tensor(T: AlgebraTensor, m: int) -> QuotientLieAlgebra:
    """Degree-<=2 shadow of an even-Clifford multiplication tensor: the
    commutators of the bivector coordinates, modulo the identity coordinate.
    This is the reconstruction witness for injectivity of the tensor map."""
    pairs = lie_pairs(m)
    npairs = len(pairs)
    if T.dim < 1 + npairs:
        raise ValueError("tensor too small to contain the bivector block")
    table = {}
    for ai in range(npairs):
        for bi in range(ai + 1, npairs):
            i, j = ai + 1, bi + 1  # tensor coordinates of the bivectors
            com = axpy({}, 1, T.entry(i, j))
            axpy(com, -1, T.entry(j, i))
            exp = {}
            for k, v in com.items():
                if k == 0:
                    continue
                if k > npairs:
                    raise LieClosureError(
                        "tensor commutator leaves the degree-<=2 block"
                    )
                exp[pairs[k - 1]] = v
            table[(pairs[ai], pairs[bi])] = exp
    return QuotientLieAlgebra(m=m, table=table)


def integrality_witness(V: QuadraticSpace) -> bool:
    """True iff every structure constant of L' is regular at t = 0.

    The constants are linear in the entries of the bilinear form, so this
    holds iff every entry of 2Q(t) is regular at 0; both criteria are
    computed and must agree.
    """
    if V.m < 3:
        raise ValueError("need m >= 3 so the constants determine the form")
    consts = structure_constants(V, check_jacobi=False)
    const_regular = all(
        regular_at(v, Fraction(0))
        for exp in consts.table.values()
        for v in exp.values()
    )
    gram_regular = all(
        regular_at(2 * v, Fraction(0)) for row in V.gram for v in row
    )
    if const_regular != gram_regular:
        raise AssertionError(
            "regularity of constants and of the form disagree; "
            "this contradicts their linear relation"
        )
    return const_regular
