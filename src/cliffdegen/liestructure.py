"""Even degree-<=2 Lie structure of a Clifford algebra and the recovery of
the quadratic form from its structure constants.

The even filtration piece L = span(e_0, e_i e_j for i < j) is closed under
commutators; the central quotient L' = L / <e_0> carries structure constants
that are linear in the entries of the bilinear form, and for m >= 3 they
determine the form exactly.  That round trip is the injectivity content this
module implements and tests.

Two independent paths compute the constants:

* :func:`build_even_lie` expands actual commutators through the blade
  product and returns the quotient algebra, its e_0 terms dropped;
* :func:`transcribe_constants` writes them down directly from the rewriting
  relations (elementary index algebra, no product machinery).

Both run on the integer form D Q of :meth:`QuadraticSpace.scaled`, a plain
space whose entries are ``int``s or ``Poly``s over Z (D the lcm of the
denominators of Q's coefficients; 1 for a form with a ``RatFun`` entry), and a
:class:`QuotientLieAlgebra` keeps its table there, with ``scale`` D.  The
constants are linear in the form, so each is D times the one of Q: the table
is that of Q in the basis D s(i,j), the bivector part of the basis change
of :class:`AlgebraTensor`.  :func:`reconstruct_form` reads the bilinear
form of D Q off them and divides the recovered entries by D once.

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

A table that :func:`reconstruct_form` accepts is the transcription of the
recovered symmetric form, so it satisfies Jacobi without a check at run
time.  A Jacobi sum of the transcription is a polynomial with integer
coefficients in the entries of the form; it involves at most 6 indices and
depends only on their relative order.  tests/test_liestructure.py expands
every such sum to zero on a generic symmetric 6 x 6 form, which covers
every m and every coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .clifford import QuadraticSpace, _terms_times_word, blade_row, indices_of
from .rings import InvariantViolation, Poly, RatFun, axpy, czero


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
class QuotientLieAlgebra:
    """Structure constants of L' = L / <e_0> on the basis s(i,j), i < j,
    each ``scale`` times the constant of the form (module docstring)."""

    m: int
    table: dict  # (pair_a, pair_b) with pair_a < pair_b lex -> {pair: coeff}
    scale: int = 1

    def bracket(self, pa, pb) -> dict:
        if pa == pb:
            return {}
        if pa < pb:
            return dict(self.table.get((pa, pb), {}))
        return {k: -v for k, v in self.table.get((pb, pa), {}).items()}

    def verify_jacobi(self):
        """Raise LieClosureError on the first triple of pairs, in
        lexicographic order, whose Jacobi sum [[a,b],c] + [[b,c],a] +
        [[c,a],b] is nonzero.  The sum is homogeneous quadratic in the
        constants, so on the stored ones it is scale^2 times the sum over Q
        and vanishes exactly when that does.  A failure is worded over Q,
        from the held sum divided by scale^2, with its keys in the order
        ``axpy`` gave them.

        :func:`reconstruct_form` needs no such check (module docstring);
        this one tests a table on its own, such as one built from the
        product without reconstruction."""
        for a, b, c in combinations(lie_pairs(self.m), 3):
            acc: dict = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for p, v in self.bracket(x, y).items():
                    axpy(acc, v, self.bracket(p, z))
            if acc:
                s2 = self.scale * self.scale
                over_q = {k: unscale(v, s2) for k, v in acc.items()}
                raise LieClosureError(f"Jacobi fails on {a},{b},{c}: {over_q}")


def unscale(v, Dk):
    """The coefficient over Q of v, a coefficient over the integer form
    D Q of :meth:`QuadraticSpace.scaled` that is Dk = D^k times it (k =
    (|a| + |b| - |c|)/2 for blades a b -> c): a ``Fraction`` for a rational
    (even when Dk = 1), a ``Poly`` of ``Fraction``s for a ``Poly``, and for
    a ``RatFun`` (whose spaces run unscaled, but whose recovered form is
    divided by 2) v / Dk in lowest terms.  One multiplication by 1/Dk
    divides each kind: a ``Poly`` scales coefficient by coefficient."""
    v = v * Fraction(1, Dk)
    return v.reduced() if isinstance(v, RatFun) else v


def build_even_lie(V: QuadraticSpace) -> QuotientLieAlgebra:
    """The quotient algebra L' of the integer form D Q of
    :meth:`QuadraticSpace.scaled`, with scale D, from the product (never
    from the transcription, which serves as an independent oracle).
    Closure is verified: a commutator of two basis bivectors with a term on
    a blade of cardinality other than 0 or 2 raises LieClosureError; its
    e_0 term is what the quotient drops.  Jacobi is not checked here:
    :func:`reconstruct_form` certifies the table against the transcription,
    and :meth:`QuotientLieAlgebra.verify_jacobi` checks a table directly.

    A product of four generators is homogeneous of degree (4 - c)/2 in Q on
    a blade of cardinality c, so each bivector coefficient is D times the
    one of Q.  The products share one table of steps (see
    :mod:`~cliffdegen.clifford`), filled as they read it: they take steps
    only from blades of at most 3 generators, 42825 of the 24 x 2^24 steps
    of a dense form at m = 24."""
    pairs = lie_pairs(V.m)
    D, S = V.scaled()
    masks = [(1 << (i - 1)) | (1 << (j - 1)) for i, j in pairs]
    steps: dict = {}
    table = {}
    for ai, pa in enumerate(pairs):
        for bi in range(ai + 1, len(pairs)):
            pb = pairs[bi]  # e_a e_b - e_b e_a: each blade times the other's word
            ab = _terms_times_word(S, steps, {masks[ai]: 1}, pb)
            com = axpy(ab, -1, _terms_times_word(S, steps, {masks[bi]: 1}, pa))
            expansion = {}
            for mask, c in com.items():
                k = mask.bit_count()
                if k == 2:
                    expansion[indices_of(mask)] = c
                elif k:
                    raise LieClosureError(
                        f"[{pa},{pb}] leaves the basis span at blade {indices_of(mask)}"
                    )
            table[(pa, pb)] = expansion
    return QuotientLieAlgebra(m=V.m, table=table, scale=D)


def _transcribe(bil) -> dict:
    """The table of the bracket identities in the module docstring on the
    bilinear form ``bil``: bil[i-1][j-1] = b(e_i, e_j), so bil[s-1][s-1] =
    2 q(e_s).  The constants are read off ``bil`` without a division."""
    pairs = lie_pairs(len(bil))
    table = {}

    def bform(i, j):
        return bil[i - 1][j - 1]

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
                add(exp, c, b, -bform(a, d))
                add(exp, d, b, bform(a, c))
                add(exp, a, c, -bform(b, d))
                add(exp, a, d, bform(b, c))
            elif len(shared) == 1:
                s = shared.pop()
                x = a if b == s else b
                y = c if d == s else d
                sign = (1 if b == s else -1) * (1 if c == s else -1)
                add(exp, x, y, sign * bform(s, s))
                add(exp, x, s, -sign * bform(s, y))
                add(exp, s, y, -sign * bform(x, s))
            # two shared indices means identical pairs: bracket is zero
            table[(pairs[ai], pairs[bi])] = exp
    return table


def transcribe_constants(V: QuadraticSpace) -> QuotientLieAlgebra:
    """Direct transcription of the bracket identities in the module
    docstring, on the gram of the integer form D Q that
    :meth:`QuadraticSpace.scaled` returns, with scale D; it multiplies no
    generators, so it shares no code with the geometric product."""
    D, S = V.scaled()
    bil = [[2 * v for v in row] for row in S.gram]
    return QuotientLieAlgebra(m=V.m, table=_transcribe(bil), scale=D)


def reconstruct_form(L: QuotientLieAlgebra) -> QuadraticSpace:
    """Read the form off the bracket table and verify it reproduces the
    table exactly, which also makes the table a Lie bracket (module
    docstring); a table that fails Jacobi fails here as
    ReconstructionError.  Requires m >= 3; below that the table carries no
    information about the form.

    The bilinear form of scale Q is read off the stored constants and
    transcribed back without a division; only the m^2 entries of the
    returned form are divided, by 2 scale."""
    m = L.m
    if m < 3:
        raise ValueError("reconstruction needs m >= 3")
    bil = [[0] * m for _ in range(m)]
    # diagonal entries: b(e_s, e_s) = 2 q(e_s) multiplies s(x,y) in [s(x,s), s(s,y)]
    for j in range(2, m):
        bil[j - 1][j - 1] = L.bracket((1, j), (j, m)).get((1, m), 0)
    bil[0][0] = -L.bracket((1, 2), (1, 3)).get((2, 3), 0)
    bil[m - 1][m - 1] = -L.bracket((1, m), (2, m)).get((1, 2), 0)
    # off-diagonal entries b(j,l): minus the coefficient of s(i,j) in [s(i,j), s(j,l)]
    for j in range(1, m + 1):
        for l in range(j + 1, m + 1):
            if j >= 2:
                v = -L.bracket((1, j), (j, l)).get((1, j), 0)
            else:
                u = 2 if l != 2 else 3
                key_u, key_l = (1, u), (1, l)
                v = -L.bracket(key_u, key_l).get(key_u, 0)
            bil[j - 1][l - 1] = bil[l - 1][j - 1] = v
    # consistency: the recovered form must reproduce every constant
    expected = _transcribe(bil)
    for key in set(expected) | set(L.table):
        if L.table.get(key, {}) != expected.get(key, {}):
            raise ReconstructionError(
                f"constants at {key} are not those of any symmetric form"
            )
    k = 2 * L.scale
    return QuadraticSpace([[unscale(v, k) for v in row] for row in bil])


# ---------------------------------------------------------------------------
# multiplication tensors


@dataclass
class AlgebraTensor:
    """Multiplication tensor c of a unital algebra in a fixed basis.

    ``c[(i, j)]`` is the sparse expansion of basis_i * basis_j; the basis
    order for Clifford tensors is blades by cardinality then lexicographic
    index tuple, so tensors compare bit-for-bit.

    A Clifford tensor of ``scale`` D is that of the integer form D Q
    (:func:`theta_tensor`): the even algebra of Q in the basis
    f_a = lambda_a e_a, lambda_a = D^(|a|/2).  Entry c of f_a f_b is
    lambda_a lambda_b / lambda_c times entry c of e_a e_b.

    A ``width`` N > 0 marks a tensor over Z[t] packed at t = 2^N: each
    entry is the ``int`` P(2^N) of the polynomial entry P over D Q, whose
    coefficients, each below 2^(N-2) in absolute value (:func:`_digit_width`),
    are its balanced base-2^N digits (:func:`packed_digits`).  Width 0
    means the entries are the ring values themselves.
    """

    dim: int
    identity: int
    c: dict
    basis_masks: tuple = field(default=None)
    scale: int = 1
    width: int = 0

    def entry(self, i: int, j: int) -> dict:
        return self.c.get((i, j), {})

    def multiply(self, u: dict, v: dict) -> dict:
        """Product of two sparse vectors {basis index: nonzero coeff}."""
        out: dict = {}
        table = self.c
        for i, a in u.items():
            for j, b in v.items():
                entry = table.get((i, j))
                if entry:
                    axpy(out, a * b, entry)
        return out

    def verify_unital(self):
        e = self.identity
        for j in range(self.dim):
            if self.entry(e, j) != {j: 1}:
                raise InvariantViolation(f"identity fails on the left at {j}")
            if self.entry(j, e) != {j: 1}:
                raise InvariantViolation(f"identity fails on the right at {j}")


def even_blade_basis(m: int) -> tuple:
    masks = [mask for mask in range(1 << m) if mask.bit_count() % 2 == 0]
    masks.sort(key=lambda mask: (mask.bit_count(), indices_of(mask)))
    return tuple(masks)


def _digit_width(S: QuadraticSpace) -> int:
    """The digit width N that packs the tensor of S, a form over Z[t], at
    t = 2^N: every coefficient of every entry is below 2^(N-2).

    By the cliffordization formula (Rota and Stein, PNAS 91, 1994), the
    coefficient of blade c in e_a e_b is a signed sum of minors
    det beta[S', T'] of size k = (|a| + |b| - |c|)/2 <= m, one for each way
    of splitting k indices off a and k off b: C(|a|, k) C(|b|, k) ways, and
    over all k at most C(|a| + |b|, |a|) <= C(2m, m) (Vandermonde).
    beta(e_t, e_j) is 2 S_tj for t > j, S_jj on the diagonal and 0 above,
    so with B >= 1 the largest L1 norm of a beta entry (1 when all
    vanish), a minor's coefficient vector has L1 norm at most k! B^k <=
    m! B^m.  Every coefficient is thus at most C(2m, m) m! B^m < 2^(N-2)
    for N = bitlen(C(2m, m) m! B^m) + 2.

    The blade product takes one generator at a time, and each of its
    intermediate sums is a sum of some terms of those minors, over all k
    at once, so it obeys the same bound: a packed value is 0 exactly when
    its polynomial is, and the zero tests of the product stay exact."""
    m = S.m

    def l1(v):
        return sum(map(abs, v.coeffs)) if type(v) is Poly else abs(v)

    B = max(1, *((2 if i > j else 1) * l1(S.gram[i][j]) for i in range(m) for j in range(i + 1)))
    return (comb(2 * m, m) * factorial(m) * B**m).bit_length() + 2


def packed_digits(v: int, N: int) -> list:
    """The balanced base-2^N digits of v, lowest first, each in
    [-2^(N-1), 2^(N-1)): the coefficients of the polynomial that
    :func:`theta_tensor` packed into v at ``width`` N."""
    half, low = 1 << (N - 1), (1 << N) - 1
    out = []
    while v:  # v - d = ((v + half) >> N) << N for the digit d
        v += half
        out.append((v & low) - half)
        v >>= N
    return out


def theta_tensor(V: QuadraticSpace) -> AlgebraTensor:
    """Multiplication tensor of the even Clifford algebra in the canonical
    even-blade basis, with e_0 as the identity: a point of the variety of
    algebra structures with distinguished unit.

    The products are taken on the integer form D Q of
    :meth:`QuadraticSpace.scaled`, and the tensor has ``scale`` D;
    :func:`cliffdegen.jsonio.encode_tensor` prints it over Q.  On a form
    over Q the entries are ``int``s.  A form over Q[t] (D Q has ``Poly``
    entries and no ``RatFun``) is packed by Kronecker substitution
    (Kronecker 1882; Harvey, J. Symb. Comput. 44, 2009): each entry P of
    D Q becomes the ``int`` P(2^N), N = :func:`_digit_width`, the products
    run on those ``int``s, and the tensor has ``width`` N.  No ``Poly``
    arithmetic runs.  A form over Q(t) runs unscaled on its ring values.

    Each of the 2^(m-1) rows is a :func:`~cliffdegen.clifford.blade_row`,
    and every row reads one table of steps of the space it runs on, filled
    once as the rows read it: m 2^m steps at most, 8 x 256 under the CLI's
    cap of m = 8."""
    masks = even_blade_basis(V.m)
    index = {mask: k for k, mask in enumerate(masks)}
    D, S = V.scaled()
    N = 0
    kinds = {type(v) for row in S.gram for v in row}
    if Poly in kinds and kinds <= {int, Poly}:
        N = _digit_width(S)
        S = QuadraticSpace(
            [[sum(a << (N * e) for e, a in enumerate(v.coeffs)) if type(v) is Poly else v for v in row]
             for row in S.gram]
        )
    steps: dict = {}
    c = {}
    for i, ma in enumerate(masks):
        products = blade_row(S, steps, ma)
        for j, mb in enumerate(masks):
            terms = products[mb]
            if terms:
                c[(i, j)] = {index[mask]: coeff for mask, coeff in terms.items()}
    return AlgebraTensor(dim=len(masks), identity=0, c=c, basis_masks=masks, scale=D, width=N)
