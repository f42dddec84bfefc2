"""The echelon core against sympy as an independent oracle: reduced row
echelon forms, nullspaces and ranks on random rational matrices must
agree exactly, with the modular pass of ``rank`` at its own prime and at
the prime 3, where it often falls short and the pass over Q decides, and
with its echelon-form certificate, which must fire on distinct leads and
on nothing else."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffdegen import linalg
from cliffdegen.acceptance import _random_unimodular
from cliffdegen.linalg import _P, SpanBasis, echelon, identity_matrix, mat_mul, nullspace_dense, rank
from cliffdegen.rings import axpy

sympy = pytest.importorskip("sympy")

# zeros are drawn often so that rank deficiency and free columns occur
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=1, max_size=max_rows)), ncols


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_sympy(case):
    rows, ncols = case
    pivots = echelon(rows).rref()
    R, pivot_cols = to_sympy(rows).rref()
    assert sorted(pivots) == list(pivot_cols)
    for i, col in enumerate(pivot_cols):
        want = {j: from_sympy(R[i, j]) for j in range(ncols) if R[i, j] != 0}
        assert pivots[col] == want


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_and_rank_match_sympy(case):
    rows, ncols = case
    M = to_sympy(rows)
    want = [[from_sympy(x) for x in vec] for vec in M.nullspace()]
    got = nullspace_dense(rows, ncols)
    assert got == want
    assert all(isinstance(x, Fraction) for vec in got for x in vec)
    assert echelon(rows).dim == M.rank()


def test_random_unimodular_returns_its_inverse():
    rng = random.Random(5)
    for n in (2, 3, 4) * 10:
        g, ginv = _random_unimodular(rng, n)
        assert mat_mul(g, ginv) == identity_matrix(n)


int_entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**30), 10**30))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_nullspace_of_a_square_int_matrix_matches_sympy(rows):
    """Square int matrices, with entries up to 10^30, get their exact
    kernel over Q, empty when the matrix is invertible."""
    n = len(rows)
    want = [[from_sympy(x) for x in vec] for vec in sympy.Matrix(rows).nullspace()]
    got = nullspace_dense(rows, n)
    assert got == want
    assert all(type(x) is Fraction for vec in got for x in vec)


def test_an_int_matrix_singular_only_modulo_the_prime_gets_its_kernel_exactly():
    # invertible over Q with determinant 2 * _P, so singular modulo _P
    assert nullspace_dense([[_P, 0], [0, 2]], 2) == []
    assert nullspace_dense([[_P, _P], [1, 1]], 2) == [[Fraction(-1), Fraction(1)]]


def test_span_basis_keeps_int_rows_exact():
    span = SpanBasis()
    assert span.insert({0: 2, 1: 3})
    assert span.pivots[0] == {0: 1, 1: Fraction(3, 2)}
    assert all(type(v) is Fraction for v in span.pivots[0].values())
    assert span.insert({1: 6, 2: -4}) and not span.insert({0: 4, 1: 12, 2: -4})
    assert span.contains({0: 2, 1: 9, 2: -4})
    rows = span.rref()
    assert all(type(v) is Fraction for row in rows.values() for v in row.values())
    assert rows == {0: {0: 1, 2: 1}, 1: {1: 1, 2: Fraction(-2, 3)}}



class ReferenceSpanBasis(SpanBasis):
    """The span with the elimination as it ran before Q and Z/p shared one
    loop: ``axpy`` over Q, an inline update modulo p."""

    def reduce(self, vec: dict) -> dict:
        p, pivots = self.p, self.pivots
        if p is None:
            out = {c: v for c, v in vec.items() if v != 0}
        else:
            out = {c: v % p for c, v in vec.items() if v % p}
        while True:
            col = min((c for c in out if c in pivots), default=None)
            if col is None:
                return out if p is None else {c: r for c, v in out.items() if (r := v % p)}
            if p is None:
                axpy(out, -out[col], pivots[col])
                continue
            f = -out[col] % p
            if f:
                for c, v in pivots[col].items():
                    out[c] = out.get(c, 0) + f * v
            del out[col]


@st.composite
def span_sequences(draw):
    """(p, vectors): p None, a small prime or ``_P``, and sparse vectors
    over 6 columns with explicit zeros; ``Fraction`` entries over Q, and
    over Z/p ``int`` entries among which some are nonzero multiples of p."""
    p = draw(st.sampled_from([None, 3, 5, _P]))
    if p is None:
        value = st.one_of(entries, st.just(0), st.integers(-3, 3))
    else:
        value = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-3, 3).map(lambda k: k * p), int_entries)
    return p, draw(st.lists(st.dictionaries(st.integers(0, 5), value, max_size=6), max_size=10))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(span_sequences())
@example((None, [{0: 0, 1: 2}, {1: 1, 2: Fraction(0)}, {0: 0}, {1: 4, 2: 1}, {2: 3}]))
@example((3, [{0: 3, 1: 1}, {1: 6, 2: 1}, {0: 1, 1: -2}, {1: 1, 2: 7}, {0: 9}]))
def test_one_elimination_loop_gives_the_two_branch_residues(case):
    """Each residue (its values and their types), each insert's verdict,
    the stored rows and ``dim`` equal the two-branch reference's, vector by
    vector."""
    p, vectors = case
    span, ref = SpanBasis(p), ReferenceSpanBasis(p)

    def typed(residue):
        return {c: (v, type(v)) for c, v in residue.items()}

    for vec in vectors:
        assert typed(span.reduce(vec)) == typed(ref.reduce(vec))
        assert span.insert(vec) == ref.insert(vec)
    assert span.pivots == ref.pivots and span.dim == ref.dim

@st.composite
def vector_families(draw):
    """(vectors, ncols, slack): sparse vectors over ncols columns with int
    and ``Fraction`` entries, zero vectors and repeats among them; the test
    passes ``full`` = rank + slack, so full falls both below and above the
    number of vectors."""
    ncols = draw(st.integers(1, 6))
    value = st.one_of(entries, st.integers(-3, 3), st.sampled_from([3, 6, Fraction(3, 2), Fraction(1, 3)]))
    vectors = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), value, max_size=ncols), max_size=8))
    vectors += draw(st.lists(st.sampled_from(vectors or [{}]), max_size=3))
    return vectors, ncols, draw(st.integers(0, 4))


def sympy_rank(vectors, ncols) -> int:
    if not vectors:
        return 0
    return to_sympy([[Fraction(vec.get(c, 0)) for c in range(ncols)] for vec in vectors]).rank()


RANK_EXAMPLES = [
    # full below the count: four vectors in the plane, two of them repeats
    ([{0: 3}, {1: Fraction(1, 3)}, {0: 3}, {}], 2, 0),
    # full above the count; modulo 3 the first vector vanishes
    ([{0: 3, 1: 6}, {1: Fraction(1, 2), 2: 1}], 3, 4),
    ([], 1, 2),
]


def _check_rank(case):
    vectors, ncols, slack = case
    want = sympy_rank(vectors, ncols)
    assert rank(vectors, want + slack) == want
    assert rank(iter(vectors), want + slack) == want  # any iterable


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(vector_families())
@example(RANK_EXAMPLES[0])
@example(RANK_EXAMPLES[1])
@example(RANK_EXAMPLES[2])
def test_rank_matches_sympy(case):
    _check_rank(case)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(vector_families())
@example(RANK_EXAMPLES[0])
@example(RANK_EXAMPLES[1])
def test_rank_modulo_3_falls_back_to_the_rank_over_q(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_P", 3)
        _check_rank(case)


def test_a_rank_short_modulo_the_prime_is_recomputed_over_q():
    # 3 e_0 + 6 e_1 vanishes modulo 3, and e_2 / 3 is e_2 once cleared
    vectors = [{0: 3, 1: 6}, {2: Fraction(1, 3)}]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_P", 3)
        assert list(linalg._grows_modulo_p(vectors)) == [False, True]
        assert rank(vectors, 3) == 2
        # every vector vanishes modulo 3: the pass over Q gives the rank
        assert rank([{0: 3}], 1) == 1 and rank([{0: 3}, {0: 6}], 2) == 1


# --- the echelon certificate: nonzero vectors with pairwise distinct
# minimal nonzero columns are ranked by their count, before any pass ---

nonzero = st.one_of(st.integers(-3, 3).filter(bool), st.builds(Fraction, st.integers(1, 3), st.integers(1, 3)))


@st.composite
def echelon_families(draw):
    """(vectors, ncols): nonzero vectors with pairwise distinct leads, in
    any order; below its lead a vector may hold explicit zeros (``int`` or
    ``Fraction``), and past it any entries, zeros among them."""
    ncols = draw(st.integers(1, 7))
    vectors = []
    for lead in draw(st.lists(st.integers(0, ncols - 1), unique=True, min_size=1, max_size=ncols)):
        zeros = draw(st.lists(st.sampled_from([None, 0, Fraction(0)]), min_size=lead, max_size=lead))
        vec = {c: z for c, z in enumerate(zeros) if z is not None}
        vec[lead] = draw(nonzero)
        tail = draw(st.lists(st.one_of(st.none(), entries), min_size=ncols - lead - 1, max_size=ncols - lead - 1))
        vec.update({lead + 1 + k: v for k, v in enumerate(tail) if v is not None})
        vectors.append(vec)
    return vectors, ncols


class _NoElimination(SpanBasis):
    def __init__(self, p=None):
        raise AssertionError("vectors in echelon form were eliminated")


ECHELON = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@ECHELON
@given(echelon_families())
@example(([{0: 0, 1: 1}, {0: 1}], 2))  # the explicit zero is not the first one's lead
@example(([{0: Fraction(0), 2: 5}, {1: -1, 2: 1}, {0: 2}], 3))
def test_vectors_with_distinct_leads_are_ranked_without_elimination(case):
    vectors, ncols = case
    assert sympy_rank(vectors, ncols) == len(vectors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "SpanBasis", _NoElimination)
        assert rank(vectors, len(vectors)) == len(vectors)


@st.composite
def colliding_families(draw):
    """(vectors, ncols, rank): an echelon family and, among it, a nonzero
    combination of two of its vectors (or a multiple of one), which leads
    where one of them does."""
    vectors, ncols = draw(echelon_families())
    a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
    k = draw(nonzero)
    extra = {c: a.get(c, 0) + k * b.get(c, 0) for c in a.keys() | b.keys()}
    if not any(extra.values()):
        extra = {c: 2 * v for c, v in a.items()}
    at = draw(st.integers(0, len(vectors)))
    return vectors[:at] + [extra] + vectors[at:], ncols, len(vectors)


@ECHELON
@given(colliding_families())
@example(([{0: 0, 1: 1}, {1: 2}], 2, 1))  # both lead at 1, past the explicit zero
def test_colliding_leads_still_eliminate(case):
    vectors, ncols, want = case
    assert sympy_rank(vectors, ncols) == want
    for prime in (_P, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_P", prime)
            assert rank(vectors, want) == want


@st.composite
def with_a_zero_vector(draw):
    """(vectors, ncols, rank): an echelon family and, among it, a zero
    vector: empty, or of explicit ``int`` and ``Fraction`` zeros."""
    vectors, ncols = draw(echelon_families())
    zero = draw(st.sampled_from([{}, {0: 0}, {0: Fraction(0), 1: 0}]))
    at = draw(st.integers(0, len(vectors)))
    return vectors[:at] + [zero] + vectors[at:], ncols, len(vectors)


@ECHELON
@given(with_a_zero_vector())
@example(([{}], 1, 0))
@example(([{0: 1}, {0: 0}, {1: 1}], 2, 2))
def test_zero_vectors_are_not_counted(case):
    """A zero vector has no lead, so the family is not in echelon form."""
    vectors, ncols, want = case
    assert sympy_rank(vectors, ncols) == want
    assert rank(vectors, len(vectors)) == want
