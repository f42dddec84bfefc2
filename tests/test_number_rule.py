"""The number rule of ``cliffdegen.rings``: an integer stays an ``int`` from
the parser to the payload, and a ``Fraction`` is made only where a
division, or a non-integral input, makes one.

Two lints keep it, on the AST only, in the style of ``test_imports.py``:
no one-argument ``Fraction(x)`` outside the parser and a short allowlist,
and no true division ``/``, which turns two ``int``s into a ``float``.
Derandomized hypothesis tests then check the evaluations that used to
divide or to wrap their inputs: on ``int`` inputs at ``int`` points each
returns an ``int`` or a ``Fraction``, never a ``float``, and the value of
the ``Fraction`` path this library ran before the rule, kept here as the
reference.
"""

import ast
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from cliffdegen.clifford import Multivector, QuadraticSpace, specialize_space
from cliffdegen.linalg import mat_mul, mat_trace
from cliffdegen.lipschitz import norm_scalar
from cliffdegen.rings import PoleError, Poly, RatFun, eval_coeff
from cliffdegen.spinor import WittDecomposition, spinor_matrix, verify_action_relations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cliffdegen"

# the parser: text becomes an int, or a Fraction when it is not integral
PARSER = ("jsonio.py", "decode_rational")

# (module, function) -> why a one-argument Fraction is made there
ALLOWED = {
    ("rings.py", "as_rational"): "the one normaliser: a rational that is neither an int nor a "
    "Fraction (a bool, say) becomes a Fraction",
    ("linalg.py", "nullspace_dense"): "kernel vectors are lists of Fractions, the zeros and the "
    "free 1 included, and tests pin their type",
    ("degeneration.py", "jacobson_radical"): "the radical basis that a witness prints is dense lists "
    "of Fractions, zeros included, and tests pin their type",
}


def _is_fraction(func) -> bool:
    return (isinstance(func, ast.Name) and func.id == "Fraction") or (
        isinstance(func, ast.Attribute) and func.attr == "Fraction"
    )


def one_argument_fractions(source: str) -> list:
    """(line, enclosing function's qualified name or None) of each call of
    ``Fraction`` with exactly one argument."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and _is_fraction(child.func) and len(child.args) + len(child.keywords) == 1:
                found.append((child.lineno, scope))
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda hit: hit[0])


def true_divisions(source: str) -> list:
    """Line of each ``/`` or ``/=``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_the_scan_finds_a_one_argument_fraction():
    source = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "HALF = Fraction(1, 2)\n"
        "ONE = fractions.Fraction(1)\n"
        "class C:\n"
        "    def f(self, x):\n"
        "        return [Fraction(0)] * x, Fraction(x, 3), Fraction(numerator=x)\n"
        "def g(pq):\n"
        "    return Fraction(*pq)\n"
    )
    assert one_argument_fractions(source) == [(4, None), (7, "C.f"), (7, "C.f"), (9, "g")]
    assert true_divisions("a = 1 / 2\nb //= 2\nc /= d\ne = f // 2\n") == [1, 3]


def test_a_fraction_is_made_only_by_a_division_the_parser_or_the_allowlist():
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for line, scope in one_argument_fractions(path.read_text()):
            sites.setdefault((path.name, scope), []).append(line)
    assert PARSER in sites
    assert {site: lines for site, lines in sites.items() if site != PARSER and site not in ALLOWED} == {}
    # every allowlist entry still names a site that makes one
    assert sorted(set(ALLOWED) - set(sites)) == []


def test_the_library_has_no_true_division():
    found = {path.name: lines for path in sorted(SRC.glob("*.py")) if (lines := true_divisions(path.read_text()))}
    assert found == {}


# --- exactness on int inputs -------------------------------------------------

DERANDOMIZED = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ints = st.integers(-50, 50)
points = st.integers(-6, 6)
int_polys = st.lists(ints, max_size=4).map(Poly)
int_ratfuns = st.tuples(int_polys, int_polys.filter(bool)).map(lambda nd: RatFun(*nd))


def exact(v) -> bool:
    return type(v) is int or type(v) is Fraction


# the Fraction path the library ran before the rule: every point and every
# rational wrapped in a Fraction, and the one division of a RatFun value


def ref_poly_value(p: Poly, c) -> Fraction:
    c, acc = Fraction(c), Fraction(0)
    for a in reversed(p.coeffs):
        acc = acc * c + a
    return acc


def ref_ratfun_value(r: RatFun, c) -> Fraction:
    num, d = r.num, ref_poly_value(r.den, c)
    if d == 0:
        lowest = r.reduced()
        num, d = lowest.num, ref_poly_value(lowest.den, c)
        if d == 0:
            raise PoleError(f"pole at t = {c}")
    return ref_poly_value(num, c) / d


def ref_eval_coeff(v, c) -> Fraction:
    if isinstance(v, Poly):
        return ref_poly_value(v, c)
    if isinstance(v, RatFun):
        return ref_ratfun_value(v, c)
    return Fraction(v)


def ref_mat_trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def same_or_pole(got, want_fn):
    """got() and want_fn() give the same value, or both raise PoleError."""
    try:
        want = want_fn()
    except PoleError:
        try:
            got()
        except PoleError:
            return None
        raise AssertionError("the reference has a pole here, the library does not")
    value = got()
    assert value == want
    return value


@DERANDOMIZED
@given(int_polys, points)
def test_a_polynomial_over_z_at_an_int_point_is_an_int(p, c):
    v = p(c)
    assert type(v) is int and v == ref_poly_value(p, c)
    assert exact(p(Fraction(c, 3))) and p(Fraction(c, 3)) == ref_poly_value(p, Fraction(c, 3))


@DERANDOMIZED
@given(int_ratfuns, int_polys, points, points)
@example(RatFun(Poly([1]), Poly([1])), Poly([0, 1]), 0, 1)
def test_a_rational_function_value_is_exact_at_regular_points_and_common_roots(r, extra, root, c):
    v = same_or_pole(lambda: r(c), lambda: ref_ratfun_value(r, c))
    assert v is None or exact(v)
    # num and den share (t - root) and extra: the denominator vanishes at
    # root, which is a pole only if r's lowest terms say so
    common = Poly([-root, 1]) * (extra or Poly([1]))
    unreduced = RatFun(r.num * common, r.den * common)
    for x in (root, c):
        v = same_or_pole(lambda: unreduced(x), lambda: ref_ratfun_value(unreduced, x))
        assert v is None or exact(v)


@DERANDOMIZED
@given(st.one_of(ints, int_polys, int_ratfuns), points)
def test_eval_coeff_keeps_an_int_and_evaluates_exactly(v, c):
    got = same_or_pole(lambda: eval_coeff(v, c), lambda: ref_eval_coeff(v, c))
    assert got is None or exact(got)
    if type(v) is int:
        assert eval_coeff(v, c) is v


@st.composite
def symmetric(draw, entries, max_m=3):
    m = draw(st.integers(1, max_m))
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = draw(entries)
    return rows


@DERANDOMIZED
@given(symmetric(st.one_of(ints, int_polys, int_ratfuns)), points)
def test_specialize_space_at_an_int_point_is_exact(rows, c):
    V = QuadraticSpace(rows)
    gram = same_or_pole(
        lambda: specialize_space(V, c).gram,
        lambda: tuple(tuple(ref_eval_coeff(v, c) for v in row) for row in rows),
    )
    if gram is not None:
        assert all(exact(v) for row in gram for v in row)
        assert all(type(v) is int for row, src in zip(gram, rows) for v, w in zip(row, src) if not isinstance(w, RatFun))


@DERANDOMIZED
@given(symmetric(st.integers(-3, 3), max_m=4), st.data())
def test_norm_scalar_on_int_inputs_is_exact(rows, data):
    m = len(rows)
    terms = data.draw(st.dictionaries(st.integers(0, (1 << m) - 1), st.integers(-3, 3), max_size=4))
    x, V = Multivector(terms), QuadraticSpace(rows)
    z = norm_scalar(x, V)
    # the reference: the same product on Fractions, as the parser gave them
    want = norm_scalar(
        Multivector({k: Fraction(v) for k, v in terms.items()}),
        QuadraticSpace([[Fraction(v) for v in row] for row in rows]),
    )
    assert z == want
    assert z is None or type(z) is int


@DERANDOMIZED
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_mat_trace_of_an_int_matrix_is_an_int(a):
    for mat in (a, mat_mul(a, a)):
        v = mat_trace(mat)
        assert type(v) is int and v == ref_mat_trace(mat)


@dataclass(frozen=True)
class _Perturbed(WittDecomposition):
    """The Witt form with entry (i, j) (and (j, i)) replaced by k: the
    spinor operators stay those of the split form, so some relation fails
    unless k is what the split form has there."""

    i: int = 0
    j: int = 0
    k: int = 0

    def space(self) -> QuadraticSpace:
        gram = [list(row) for row in super().space().gram]
        gram[self.i][self.j] = gram[self.j][self.i] = self.k
        return QuadraticSpace(gram)


def ref_action_failure(W):
    """verify_action_relations over dense Fraction matrices, the entry of
    x^2 read as (x x + x x) / 2."""
    V, m, dim = W.space(), W.m, 1 << W.ell
    mats = [
        [[Fraction(v) for v in row] for row in spinor_matrix(Multivector.basis_vector(k), W)]
        for k in range(1, m + 1)
    ]
    for a in range(m):
        for b in range(a, m):
            want = V.b(a + 1, b + 1) if a != b else V.q(a + 1)
            ab, ba = mat_mul(mats[a], mats[b]), mat_mul(mats[b], mats[a])
            bad = []
            for r in range(dim):
                for c in range(dim):
                    got = ab[r][c] + ba[r][c]
                    if a == b:
                        got = got / 2
                    if got != (want if r == c else 0):
                        bad.append((r, c, got))
            if bad:
                r, c, got = min(bad)
                return {"pair": (a + 1, b + 1), "entry": (r, c), "got": got, "want": want if r == c else 0}
    return None


@st.composite
def perturbed_witt(draw):
    ell, odd = draw(st.integers(1, 3)), draw(st.booleans())
    m = 2 * ell + odd
    i, j = sorted(draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))))
    return _Perturbed(ell, odd, i, j, draw(st.integers(-3, 3)))


@DERANDOMIZED
@given(perturbed_witt())
@example(_Perturbed(1, True, 2, 2, 2))  # q(u) = 2: u^2 = 1 fails with got = 1
def test_a_failed_action_relation_reports_exact_values(W):
    got, want = verify_action_relations(W), ref_action_failure(W)
    assert got == want
    if got is not None:
        assert exact(got["got"]) and exact(got["want"])
    assert verify_action_relations(WittDecomposition(W.ell, W.odd)) is None
