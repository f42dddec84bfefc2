"""Root systems, Freudenthal weights, restriction, and the three branching
identifications.

The library takes and returns every root and weight doubled: an int tuple
equal to twice the vector.  The references below work in whichever
coordinates they are given, except the Fraction pipeline, which works in
natural coordinates and is compared with the library's output halved."""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product as iproduct
from math import lcm

import pytest

from cliffdegen import plethysm
from cliffdegen.cli import main
from cliffdegen.linalg import echelon
from cliffdegen.plethysm import (
    CASES,
    EmbeddingError,
    NonDominantWeight,
    NotACharacter,
    build_embedding,
    dot,
    identify_irreducible,
    irrep_weights,
    restrict_weights,
    root_system,
    vadd,
    verify_plethysm,
    vscale,
    vsub,
    weyl_dim,
    _highest_root,
)
from cliffdegen.rings import InvariantViolation, axpy

HALF = Fraction(1, 2)


# --- reference: the natural-coordinate pipeline, Fractions in and out ----
# the branching code as it was before every root and weight became a
# doubled int tuple, verbatim but for the names and shorter docstrings: the
# public functions carry a ref_ prefix, and RootSystemData is RefRootSystem


def _tup(v):
    return tuple(Fraction(x) for x in v)


def _doubled(v, exc_type=ValueError):
    """2v as ints, for v in (1/2)Z^n."""
    v = _tup(v)
    if any(x.denominator > 2 for x in v):
        raise exc_type(f"{v} does not lie in (1/2)Z^{len(v)}")
    return tuple(2 * x.numerator // x.denominator for x in v)


def _halved(v):
    return tuple(Fraction(x, 2) for x in v)


@dataclass(frozen=True)
class RefRootSystem:
    label: str
    simple_roots: tuple
    positive_roots: tuple
    rho: tuple

    def coroot_pairing(self, lam, alpha) -> Fraction:
        return Fraction(2 * dot(lam, alpha), dot(alpha, alpha))

    def is_dominant(self, lam) -> bool:
        return all(dot(lam, a) >= 0 for a in self.simple_roots)


def _eps(i, n):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def _eps_pairs(n):
    """The roots eps_i - eps_j and eps_i + eps_j for i < j, in that order."""
    return [
        root
        for i in range(n)
        for j in range(i + 1, n)
        for root in (vsub(_eps(i, n), _eps(j, n)), vadd(_eps(i, n), _eps(j, n)))
    ]


def ref_root_system(label: str, rank: int = None) -> RefRootSystem:
    label = label.upper()
    if label in ("G2", "F4"):
        rank = {"G2": 2, "F4": 4}[label]
    if rank is None:
        raise ValueError("rank required for classical types")
    n = rank
    if label == "B":
        simple = [vsub(_eps(i, n), _eps(i + 1, n)) for i in range(n - 1)] + [_eps(n - 1, n)]
        pos = [_eps(i, n) for i in range(n)] + _eps_pairs(n)
    elif label == "C":
        simple = [vsub(_eps(i, n), _eps(i + 1, n)) for i in range(n - 1)] + [vscale(2, _eps(n - 1, n))]
        pos = [vscale(2, _eps(i, n)) for i in range(n)] + _eps_pairs(n)
    elif label == "D":
        simple = [vsub(_eps(i, n), _eps(i + 1, n)) for i in range(n - 1)] + [
            vadd(_eps(n - 2, n), _eps(n - 1, n))
        ]
        pos = _eps_pairs(n)
    elif label == "G2":
        simple = [_tup((1, -1, 0)), _tup((-2, 1, 1))]
        steps = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
        pos = [vadd(vscale(i, simple[0]), vscale(j, simple[1])) for i, j in steps]
    elif label == "F4":
        simple = [
            vsub(_eps(1, n), _eps(2, n)),
            vsub(_eps(2, n), _eps(3, n)),
            _eps(3, n),
            vscale(HALF, _tup((1, -1, -1, -1))),
        ]
        pos = [_eps(i, n) for i in range(n)] + _eps_pairs(n)
        pos += [vscale(HALF, _tup((1, *signs))) for signs in iproduct((1, -1), repeat=3)]
    else:
        raise ValueError(f"unsupported type {label}")
    rho = vscale(HALF, reduce(vadd, pos))
    R = RefRootSystem(
        label=label if label in ("G2", "F4") else f"{label}{rank}",
        simple_roots=tuple(simple),
        positive_roots=tuple(pos),
        rho=rho,
    )
    for a in R.simple_roots:
        if R.coroot_pairing(R.rho, a) != 1:
            raise InvariantViolation("rho fails to pair to 1 with a simple coroot")
    return R


def ref_weyl_dim(R: RefRootSystem, lam) -> int:
    """Exact dimension by the product formula."""
    lam = _tup(lam)
    if not R.is_dominant(lam):
        raise NonDominantWeight(f"{lam} is not dominant for {R.label}")
    num = Fraction(1)
    lr = vadd(lam, R.rho)
    for a in R.positive_roots:
        num *= Fraction(dot(lr, a), dot(R.rho, a))
    if num.denominator != 1:
        raise InvariantViolation("Weyl dimension did not come out integral")
    return int(num)


def _orbit(mu, simple) -> set:
    """Weyl orbit of the dominant (doubled) weight mu: every conjugate is
    reached from mu by simple reflections that lower the weight."""
    coroots = [(a, dot(a, a)) for a in simple]
    orbit, frontier = {mu}, {mu}
    while frontier:
        lower = set()
        for v in frontier:
            for a, norm in coroots:
                pairing = 2 * dot(v, a) // norm
                if pairing > 0:
                    lower.add(vsub(v, vscale(pairing, a)))
        frontier = lower - orbit
        orbit |= frontier
    return orbit


def _character(R: RefRootSystem, lam, exc_type=NonDominantWeight) -> dict:
    """Weight multiset of the irreducible with doubled highest weight lam,
    keyed by doubled weights."""
    simple = [_doubled(a) for a in R.simple_roots]
    pos = [_doubled(a) for a in R.positive_roots]
    rho = _doubled(R.rho)
    if any(dot(lam, a) < 0 or 2 * dot(lam, a) % dot(a, a) for a in simple):
        raise exc_type(f"{_halved(lam)} is not dominant integral for {R.label}")
    dominant, frontier = {lam}, {lam}
    while frontier:
        lower = {vsub(nu, a) for nu in frontier for a in pos} - dominant
        frontier = {mu for mu in lower if all(dot(mu, a) >= 0 for a in simple)}
        dominant |= frontier
    lr = vadd(lam, rho)
    top = dot(lr, lr)
    mult = {}
    for mu in sorted(dominant, key=lambda w: (-dot(w, rho), w)):
        m = 1
        if mu != lam:
            acc = 0
            for a in pos:
                up = vadd(mu, a)
                while up in mult:
                    acc += mult[up] * dot(up, a)
                    up = vadd(up, a)
            mr = vadd(mu, rho)
            den = top - dot(mr, mr)
            if acc <= 0 or den <= 0 or 2 * acc % den:
                raise InvariantViolation("Freudenthal recursion produced a non-multiplicity")
            m = 2 * acc // den
        for w in _orbit(mu, simple):
            mult[w] = m
    total = sum(mult.values())
    if total != ref_weyl_dim(R, _halved(lam)):
        raise InvariantViolation(
            f"weight total {total} disagrees with Weyl dimension for {_halved(lam)}"
        )
    return mult


def ref_irrep_weights(R: RefRootSystem, lam) -> dict:
    """Full weight multiset of the irreducible with highest weight lam."""
    char = _character(R, _doubled(lam, NonDominantWeight))
    return {_halved(w): m for w, m in char.items()}


def ref_restrict_weights(mu: tuple) -> tuple:
    """Both half-spin multisets of so(2l) pushed through the embedding mu,
    folded on the ints D mu_i, D the lcm of the denominators."""
    if not mu:
        raise EmbeddingError("embedding has no weights to restrict along")
    width = len(mu[0])
    if any(len(m) != width for m in mu):
        raise EmbeddingError("embedding weights have unequal lengths")
    mu = [_tup(m) for m in mu]
    D = lcm(*(x.denominator for m in mu for x in m))
    states = {((0,) * width, 0): 1}
    for m in mu:
        step = tuple(x.numerator * (D // x.denominator) for x in m)
        folded: dict = {}
        for (wt, parity), mult in states.items():
            for key in ((vadd(wt, step), parity), (vsub(wt, step), parity ^ 1)):
                folded[key] = folded.get(key, 0) + mult
        states = folded
    halves = ({}, {})
    for (wt, parity), mult in states.items():
        halves[parity][tuple(Fraction(x, 2 * D) for x in wt)] = mult
    return halves


def ref_identify_irreducible(W: dict, R: RefRootSystem):
    """Greedy character peel-off."""
    rho = _doubled(R.rho)
    remaining = {_doubled(w, NotACharacter): m for w, m in W.items() if m}
    constituents = []
    while remaining:
        lam = max(remaining, key=lambda w: (dot(w, rho), w))
        hw = _halved(lam)
        mult = remaining[lam]
        char = _character(R, lam, NotACharacter)
        axpy(remaining, -mult, char)
        for w in char:
            if remaining.get(w, 0) < 0:
                raise NotACharacter(
                    f"multiplicity of {_halved(w)} drops below zero peeling {hw}"
                )
        constituents.append(
            {"highest_weight": hw, "dim": ref_weyl_dim(R, hw), "multiplicity": mult}
        )
    return constituents


# --- reference: the defining weights as they were found before -----------
# by a search over the fundamental weights, from a linear solve


def solve_augmented(rows: list, n: int) -> list:
    """Rows of X with A X = B, for augmented dense rows [A | B] whose left
    n x n block A is invertible."""
    pivots = echelon(rows).rref()
    if any(k not in pivots for k in range(n)):
        raise ZeroDivisionError("singular system")
    width = len(rows[0])
    return [[pivots[k].get(j, Fraction(0)) for j in range(n, width)] for k in range(n)]


def _cartan_augmented(R) -> list:
    n = len(R.simple_roots)
    simple = R.simple_roots
    return [
        [R.coroot_pairing(simple[k], simple[j]) for k in range(n)]
        + [Fraction(1 if i == j else 0) for i in range(n)]
        for j in range(n)
    ]


def fundamental_weights(R) -> tuple:
    """omega_i in the span of the roots, <omega_i, alpha_j^v> = delta_ij:
    omega_i = sum_k x_ki alpha_k, where X solves the Cartan-type system
    sum_k x_ki <alpha_k, alpha_j^v> = delta_ij, one column per weight."""
    n = len(R.simple_roots)
    simple = R.simple_roots
    X = solve_augmented(_cartan_augmented(R), n)
    omegas = [reduce(vadd, (vscale(X[k][i], simple[k]) for k in range(n))) for i in range(n)]
    # doubled, every fundamental weight of these realizations is integral
    assert all(x.denominator == 1 for w in omegas for x in w)
    return tuple(tuple(map(int, w)) for w in omegas)


def _fundamental_of_dim(R, dim: int, orthogonal_only: bool = False):
    """Pin a fundamental representation by its dimension (and, for type C,
    by orthogonality: the epsilon-coordinate sum of the highest weight must
    be even, since odd weight sums give symplectic representations; doubled,
    the sum must be 0 mod 4)."""
    hits = []
    for w in fundamental_weights(R):
        if weyl_dim(R, w) == dim:
            if orthogonal_only and sum(w) % 4 != 0:
                continue
            hits.append(w)
    if len(hits) != 1:
        raise EmbeddingError(
            f"{R.label}: fundamental of dimension {dim} not pinned uniquely ({len(hits)} hits)"
        )
    return hits[0]


def _adjoint_highest_weight(R):
    """Highest root = the dominant long root."""
    longest = max(dot(a, a) for a in R.positive_roots)
    hits = [a for a in R.positive_roots if dot(a, a) == longest and R.is_dominant(a)]
    if len(hits) != 1:
        raise EmbeddingError("highest root not unique")
    return hits[0]


def reference_defining_weight(case: str):
    if case == "g2":
        return _adjoint_highest_weight(root_system("G2"))
    if case == "f4":
        return _fundamental_of_dim(root_system("F4"), 26)
    return _fundamental_of_dim(root_system("C", 3), 14, orthogonal_only=True)


# --- enumeration reference: the restriction as it was before the fold ---


def halfspin_weights(ell: int, sign: str = "+") -> dict:
    """Half-spin weight multiset of the even orthogonal algebra of rank ell:
    all (+-1/2, ..., +-1/2) with an even (+) or odd (-) number of negative
    entries; cardinality 2^(ell-1)."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    want = 0 if sign == "+" else 1
    out = {}
    for signs in iproduct((HALF, -HALF), repeat=ell):
        neg = sum(1 for s in signs if s < 0)
        if neg % 2 == want:
            out[tuple(signs)] = 1
    return out


def reference_restrict(W: dict, mu: tuple) -> dict:
    """Push a half-spin multiset of so(2l) through the embedding: the weight
    (s_1..s_l) with s_i = +-1/2 goes to sum_i s_i mu_i; multiplicities add."""
    out: dict = {}
    for wt, mult in W.items():
        if len(wt) != len(mu):
            raise EmbeddingError(
                f"weight length {len(wt)} does not match embedding size {len(mu)}"
            )
        if any(abs(s) != HALF for s in wt):
            raise EmbeddingError("restriction expects +-1/2 coordinates")
        acc = tuple(Fraction(0) for _ in mu[0])
        for s, m in zip(wt, mu):
            acc = vadd(acc, vscale(s, m))
        out[acc] = out.get(acc, 0) + mult
    return out


def reference_halves(mu: tuple) -> tuple:
    return tuple(reference_restrict(halfspin_weights(len(mu), sign), mu) for sign in "+-")


# --- reference: Freudenthal over the whole weight diagram ----------------


def reference_irrep_weights(R, lam) -> dict:
    """Full weight multiset by the Freudenthal recursion over every weight.

    Candidates are explored downward by simple-root steps from lam (the
    weight diagram is connected under such steps); a candidate with
    vanishing Freudenthal numerator/denominator is not a weight and spawns
    no children.  The total multiplicity is checked against the Weyl
    dimension formula before returning.
    """
    lam = tuple(Fraction(x) for x in lam)
    lr = vadd(lam, R.rho)
    norm_top = dot(lr, lr)
    mult = {lam: 1}
    frontier = [lam]
    while frontier:
        candidates = set()
        for mu in frontier:
            for a in R.simple_roots:
                candidates.add(vsub(mu, a))
        frontier = []
        for mu in sorted(candidates):
            if mu in mult:
                continue
            mr = vadd(mu, R.rho)
            denom = norm_top - dot(mr, mr)
            if denom <= 0:
                continue
            acc = Fraction(0)
            for a in R.positive_roots:
                k = 1
                while True:
                    up = vadd(mu, vscale(k, a))
                    m_up = mult.get(up, 0)
                    if m_up == 0:
                        break
                    acc += m_up * dot(up, a)
                    k += 1
            if acc == 0:
                continue
            m_mu = 2 * acc / denom
            assert m_mu.denominator == 1 and m_mu > 0
            mult[mu] = int(m_mu)
            frontier.append(mu)
    assert sum(mult.values()) == weyl_dim(R, lam)
    return mult


def _case_embedding(case: str) -> tuple:
    R = root_system(*CASES[case]["type"])
    return build_embedding(irrep_weights(R, reference_defining_weight(case)))


@pytest.mark.parametrize(
    "args,count",
    [(("G2",), 6), (("F4",), 24), (("C", 3), 9), (("B", 4), 16), (("D", 5), 20)],
)
def test_positive_root_counts(args, count):
    assert len(root_system(*args).positive_roots) == count


@pytest.mark.parametrize(
    "args",
    [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("G2",), ("F4",)],
    ids=lambda args: "".join(map(str, args)),
)
def test_fundamental_weights_pair_to_the_kronecker_delta(args):
    R = root_system(*args)
    omegas = fundamental_weights(R)
    assert len(omegas) == (args[1] if len(args) > 1 else {"G2": 2, "F4": 4}[args[0]])
    for i, omega in enumerate(omegas):
        assert len(omega) == len(R.rho)
        for j, alpha in enumerate(R.simple_roots):
            assert R.coroot_pairing(omega, alpha) == (1 if i == j else 0)
    # the reference solve against sympy's inverse of the Cartan-type matrix
    sympy = pytest.importorskip("sympy")
    n = len(omegas)
    aug = _cartan_augmented(R)
    inv = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row[:n]] for row in aug]).inv()
    assert solve_augmented(aug, n) == [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)] for i in range(n)]


def test_weyl_dim_examples():
    G2 = root_system("G2")
    assert weyl_dim(G2, G2.rho) == 64
    assert weyl_dim(G2, vscale(0, G2.rho)) == 1
    C3 = root_system("C", 3)
    assert weyl_dim(C3, C3.rho) == 512
    # -eps_1 is not dominant, and eps_1 / 2 is dominant but not integral
    for lam in ((-2, 0, 0), (1, 0, 0)):
        with pytest.raises(NonDominantWeight):
            weyl_dim(C3, lam)


def test_rho_consistency_all_types():
    for args in (("G2",), ("F4",), ("C", 3), ("B", 2), ("B", 3), ("D", 4), ("D", 7)):
        R = root_system(*args)
        assert weyl_dim(R, R.rho) == 2 ** len(R.positive_roots)


def test_g2_adjoint_weights():
    R = root_system("G2")
    adj = _adjoint_highest_weight(R)
    w = irrep_weights(R, adj)
    assert sum(w.values()) == 14
    zero = (0, 0, 0)
    assert w[zero] == 2
    roots = set(R.positive_roots) | {vscale(-1, a) for a in R.positive_roots}
    assert set(w) - {zero} == roots


def test_trivial_and_f4_fundamental():
    R = root_system("F4")
    assert irrep_weights(R, (0, 0, 0, 0)) == {(0, 0, 0, 0): 1}
    hw = _fundamental_of_dim(R, 26)
    w = irrep_weights(R, hw)
    assert sum(w.values()) == 26


def test_weyl_invariance_spot_checks():
    for args, lam_of in ((("G2",), lambda R: R.rho), (("C", 3), lambda R: R.rho)):
        R = root_system(*args)
        w = irrep_weights(R, lam_of(R))
        for a in R.simple_roots:
            reflected = {}
            for wt, m in w.items():
                s_wt = vsub(wt, vscale(R.coroot_pairing(wt, a), a))  # s_a(wt)
                reflected[s_wt] = reflected.get(s_wt, 0) + m
            assert reflected == w


def test_halfspin_counts_and_examples():
    assert sum(halfspin_weights(7, "+").values()) == 64
    assert sum(halfspin_weights(13, "+").values()) == 4096
    assert halfspin_weights(1, "+") == {(HALF,): 1}
    assert halfspin_weights(1, "-") == {(-HALF,): 1}


def test_halfspin_negation_symmetry():
    for ell in (2, 3, 4, 5):
        plus = halfspin_weights(ell, "+")
        minus = halfspin_weights(ell, "-")
        union = dict(plus)
        for k, v in minus.items():
            union[k] = union.get(k, 0) + v
        assert {vscale(-1, w): m for w, m in union.items()} == union
        if ell % 2 == 0:
            assert {vscale(-1, w): m for w, m in plus.items()} == plus
            assert {vscale(-1, w): m for w, m in minus.items()} == minus


def test_restrict_zero_embedding_preserves_multiplicity():
    E = ((0,),) * 3
    W = halfspin_weights(3, "+")
    out = reference_restrict(W, E)
    assert out == {(0,): sum(W.values())}
    assert restrict_weights(E) == ({(0,): 4}, {(0,): 4})


def test_restrict_validates_shapes():
    E = ((Fraction(1),),)
    with pytest.raises(EmbeddingError):
        reference_restrict({(HALF, HALF): 1}, E)
    with pytest.raises(EmbeddingError):
        reference_restrict({(Fraction(1),): 1}, E)
    # the fold reads only the embedding: it refuses one with no weights or
    # with weights of unequal lengths
    with pytest.raises(EmbeddingError, match="no weights"):
        restrict_weights(())
    for mu in (((2,), (2, 0)), ((1, 1), (2,))):
        with pytest.raises(EmbeddingError, match="unequal lengths"):
            restrict_weights(mu)


def test_build_embedding_structure():
    R = root_system("G2")
    w = irrep_weights(R, _adjoint_highest_weight(R))
    E = build_embedding(w)
    assert len(E) == 7
    assert sum(1 for mu in E if mu == (0, 0, 0)) == 1
    with pytest.raises(EmbeddingError):
        build_embedding({(2, 0, 0): 1})


def test_g2_restriction_top_weight_is_rho():
    R = root_system("G2")
    E = build_embedding(irrep_weights(R, _adjoint_highest_weight(R)))
    res = reference_restrict(halfspin_weights(7, "+"), E)
    assert sum(res.values()) == 64
    top = max(res, key=lambda w: (dot(w, R.rho), w))
    assert top == R.rho


def test_identify_round_trip_and_reducible():
    R = root_system("G2")
    w = irrep_weights(R, R.rho)
    out = identify_irreducible(w, R)
    assert len(out) == 1 and out[0]["highest_weight"] == R.rho and out[0]["multiplicity"] == 1
    zero = (0, 0, 0)
    out2 = identify_irreducible({zero: 2}, R)
    assert out2 == [{"highest_weight": zero, "dim": 1, "multiplicity": 2}]


def test_identify_rejects_non_characters():
    R = root_system("C", 3)
    # a top weight that is not dominant integral is refused before any
    # character is built (irrep_weights would raise NonDominantWeight):
    # -eps_1, then eps_1 / 2 and (eps_1 + eps_2) / 2, dominant but not
    # integral for C3
    for top in ((-2, 0, 0), (1, 0, 0), (1, 1, 0)):
        with pytest.raises(NotACharacter, match="is not dominant integral"):
            identify_irreducible({top: 1}, R)
        with pytest.raises(NonDominantWeight):
            irrep_weights(R, top)
    # a dominant weight alone is not a full character unless it is a 1-dim rep
    with pytest.raises(NotACharacter, match="below zero"):
        identify_irreducible({(4, 2, 0): 1}, R)
    # below a dominant top, the first non-dominant top is refused as well
    with pytest.raises(NotACharacter, match=r"top weight \(-1, 0, 0\)"):
        identify_irreducible({**irrep_weights(R, (2, 0, 0)), (-2, 0, 0): 2}, R)


def test_peel_off_soundness_random_dominant():
    rng = random.Random(77)
    for args in (("G2",), ("C", 3), ("B", 3), ("D", 4), ("F4",)):
        R = root_system(*args)
        fw = fundamental_weights(R)
        done = 0
        attempts = 0
        while done < 20 and attempts < 200:
            attempts += 1
            lam = tuple(0 for _ in R.rho)
            for w in fw:
                if rng.random() < 0.5:
                    lam = tuple(a + b for a, b in zip(lam, w))
            if weyl_dim(R, lam) > 1600:
                continue
            out = identify_irreducible(irrep_weights(R, lam), R)
            assert len(out) == 1 and out[0]["highest_weight"] == lam
            done += 1
        assert done >= 6  # F4 has few small-dimension draws; the rest reach 20


def test_representative_choice_invariance():
    # flipping pair representatives changes the restriction by a Weyl
    # element of so(2l); identified constituents must not change
    R = root_system("G2")
    E = build_embedding(irrep_weights(R, _adjoint_highest_weight(R)))
    flipped = list(E)
    flipped[0] = vscale(-1, flipped[0])
    flipped[3] = vscale(-1, flipped[3])
    E2 = tuple(flipped)
    out1 = identify_irreducible(reference_restrict(halfspin_weights(7, "+"), E), R)
    out2 = identify_irreducible(reference_restrict(halfspin_weights(7, "+"), E2), R)
    assert out1 == out2
    assert [identify_irreducible(h, R) for h in restrict_weights(E2)] == [out1, out1]


def test_c3_fundamental_pinning_uses_orthogonality():
    R = root_system("C", 3)
    # both the second and third fundamental have dimension 14; the
    # orthogonality filter must pick the one with even coordinate sum
    dims = sorted(weyl_dim(R, w) for w in fundamental_weights(R))
    assert dims == [6, 14, 14]
    hw = _fundamental_of_dim(R, 14, orthogonal_only=True)
    assert hw == (2, 2, 0)
    # the coordinate-sum rule (the natural coordinates are w / 2) is the
    # parity of <lambda, 2 rho^v> on both
    for w in fundamental_weights(R):
        assert sum(w) // 2 % 2 == _two_rho_vee(R, w) % 2


def _two_rho_vee(R, lam):
    """<lam, 2 rho^v>: the pairing of lam summed over the positive coroots."""
    return sum(R.coroot_pairing(lam, a) for a in R.positive_roots)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_highest_root_is_the_defining_weight_the_search_found(case):
    spec = CASES[case]
    R = root_system(*spec["type"])
    hw = _highest_root(R, spec["long"])
    assert hw == reference_defining_weight(case)
    assert weyl_dim(R, hw) == spec["dim"]
    assert _two_rho_vee(R, hw) % 2 == 0


def _squares(W: dict) -> tuple:
    """Weight multisets of S^2 V and Lambda^2 V from that of V: a weight
    basis v_1..v_n gives v_i v_j (i <= j) and v_i ^ v_j (i < j)."""
    slots = [w for w, m in W.items() for _ in range(m)]
    sym, alt = {}, {}
    for i, u in enumerate(slots):
        for j in range(i, len(slots)):
            w = vadd(u, slots[j])
            sym[w] = sym.get(w, 0) + 1
            if j > i:
                alt[w] = alt.get(w, 0) + 1
    return sym, alt


SMALL_TYPES = (("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G2",), ("F4",))


@lru_cache(maxsize=None)
def _small_self_dual_fundamentals() -> tuple:
    """(type, lam, weights of V(lam)) for every self-dual fundamental weight
    lam of dimension at most 100 of the SMALL_TYPES."""
    found = []
    for args in SMALL_TYPES:
        R = root_system(*args)
        for lam in fundamental_weights(R):
            if weyl_dim(R, lam) > 100:
                continue
            W = irrep_weights(R, lam)
            if {vscale(-1, w): m for w, m in W.items()} != W:
                continue  # D5's half-spins are dual to each other
            found.append((args, lam, W))
    return tuple(found)


def test_the_parity_of_lambda_two_rho_vee_puts_the_invariant_form_in_the_right_square():
    # a self-dual irreducible V has one invariant bilinear form: it is
    # symmetric (in S^2 V*) exactly when <lambda, 2 rho^v> is even; the
    # squares are peeled independently of the parity rule
    checked = symplectic = 0
    for args, lam, W in _small_self_dual_fundamentals():
        R = root_system(*args)
        zero = tuple(0 for _ in R.rho)
        trivial = [
            sum(c["multiplicity"] for c in identify_irreducible(square, R) if c["highest_weight"] == zero)
            for square in _squares(W)
        ]
        odd = _two_rho_vee(R, lam) % 2
        assert trivial == ([0, 1] if odd else [1, 0]), (R.label, lam)
        checked += 1
        symplectic += odd
    assert (checked, symplectic) == (28, 6)


# eps1 + eps2 + eps3 of C3, doubled: 14-dimensional like the defining
# weight, but with <lambda, 2 rho^v> = 9 its representation is symplectic
C3_SYMPLECTIC = (2, 2, 2)


def test_a_symplectic_defining_weight_is_refused(capsys, monkeypatch):
    R = root_system("C", 3)
    assert weyl_dim(R, C3_SYMPLECTIC) == 14 and _two_rho_vee(R, C3_SYMPLECTIC) == 9
    highest_root = plethysm._highest_root
    monkeypatch.setattr(
        plethysm, "_highest_root", lambda R, long: C3_SYMPLECTIC if R.label == "C3" else highest_root(R, long)
    )
    with pytest.raises(InvariantViolation, match="not orthogonal"):
        verify_plethysm("c3")
    code = main(["plethysm", "verify", "c3"])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["payload"] == {"counterexample": "C3: V(1, 1, 1) is not orthogonal: <lambda, 2 rho^v> = 9"}
    assert main(["plethysm", "verify", "g2"]) == 0


def test_verify_plethysm_g2():
    rep = verify_plethysm("g2")
    assert rep["is_single_irreducible"]
    assert rep["matches_rho_module"]
    assert rep["halfspin_agree"]
    assert rep["constituents"]["+"][0]["dim"] == 64


def test_verify_plethysm_c3():
    rep = verify_plethysm("c3")
    assert rep["is_single_irreducible"]
    assert rep["halfspin_agree"]
    assert rep["constituents"]["+"][0]["dim"] == 64
    # computed highest weight 2 eps1 + eps2; the 64-element multiset forces
    # the dimension
    assert rep["constituents"]["+"][0]["highest_weight"] == ["2", "1", "0"]


def test_verify_plethysm_f4():
    rep = verify_plethysm("f4")
    assert rep["is_single_irreducible"]
    assert rep["halfspin_agree"]
    assert rep["constituents"]["+"][0]["dim"] == 4096
    assert rep["constituents"]["+"][0]["highest_weight"] == ["5/2", "1/2", "1/2", "1/2"]


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        verify_plethysm("e8")


def _count_identifications(monkeypatch) -> list:
    """A list that grows by one on each call of ``identify_irreducible``
    from ``verify_plethysm``."""
    calls = []
    identify = plethysm.identify_irreducible
    monkeypatch.setattr(plethysm, "identify_irreducible", lambda W, R: calls.append(1) or identify(W, R))
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_equal_halves_are_identified_once(case, monkeypatch):
    """Both halves restrict to one multiset in every case: one
    identification serves both, and the payload does not change."""
    want = verify_plethysm(case)
    calls = _count_identifications(monkeypatch)
    assert verify_plethysm(case) == want and want["halfspin_agree"]
    assert len(calls) == 1


def test_unequal_halves_are_identified_apart(monkeypatch):
    """A stand-in restriction that adds the zero weight to the - half: the
    two multisets differ, so each is identified, and the - half gains the
    trivial constituent."""
    want = verify_plethysm("g2")
    restrict = plethysm.restrict_weights

    def with_a_trivial_minus(E):
        plus, minus = restrict(E)
        zero = (0,) * len(E[0])
        return plus, {**minus, zero: minus.get(zero, 0) + 1}

    monkeypatch.setattr(plethysm, "restrict_weights", with_a_trivial_minus)
    calls = _count_identifications(monkeypatch)
    rep = verify_plethysm("g2")
    assert len(calls) == 2
    assert rep["constituents"]["+"] == want["constituents"]["+"]
    assert rep["constituents"]["-"] == want["constituents"]["-"] + [
        {"highest_weight": ["0", "0", "0"], "dim": 1, "multiplicity": 1}
    ]
    assert not rep["halfspin_agree"] and not rep["is_single_irreducible"]


# --- the fold against the enumeration ------------------------------------


def test_fold_matches_the_enumeration_on_random_embeddings():
    # doubled mu_i; the Fraction fold, on the halves, says whether the
    # restricted weights lie in (1/2)Z^n, and so whether the fold refuses
    rng = random.Random(2024)
    cancelling = refused = 0
    for _ in range(80):
        ell = rng.randint(1, 8)
        width = rng.randint(1, 3)
        pool = [tuple(rng.randint(-6, 6) for _ in range(width)) for _ in range(3)]
        # draws from a small pool repeat, so distinct sign vectors collide
        mu = tuple(rng.choice(pool) for _ in range(ell))
        natural = ref_restrict_weights(tuple(_halved(m) for m in mu))
        if any(x.denominator > 2 for w in natural[0] for x in w):
            with pytest.raises(NotACharacter, match="do not lie in"):
                restrict_weights(mu)
            refused += 1
            continue
        plus, minus = restrict_weights(mu)
        assert (plus, minus) == reference_halves(mu)
        assert (plus, minus) == tuple({_doubled(w): m for w, m in half.items()} for half in natural)
        assert sum(plus.values()) == sum(minus.values()) == 2 ** (ell - 1)
        assert all(type(x) is int for w in plus for x in w)
        cancelling += len(plus) < 2 ** (ell - 1)
    assert cancelling >= 20 and refused >= 20


@pytest.mark.parametrize("case", ["g2", "c3", "f4"])
def test_fold_matches_the_enumeration_on_the_three_cases(case):
    E = _case_embedding(case)
    plus, minus = restrict_weights(E)
    want_plus, want_minus = reference_halves(E)
    assert plus == want_plus
    assert minus == want_minus


def test_fold_keeps_the_halves_apart():
    # one weight per sign vector: the halves are the two parity classes
    # (mu_i = eps_i, doubled; each half-spin weight comes out doubled)
    mu = tuple(tuple(2 * (i == j) for j in range(3)) for i in range(3))
    plus, minus = restrict_weights(mu)
    for half, sign in ((plus, "+"), (minus, "-")):
        assert half == {vscale(2, w): m for w, m in halfspin_weights(3, sign).items()}


def _kostant(label, rank=None):
    """Both half-spin modules of the adjoint representation, restricted, as
    identified constituents."""
    R = root_system(label, rank)
    E = build_embedding(irrep_weights(R, _adjoint_highest_weight(R)))
    return R, E, [identify_irreducible(half, R) for half in restrict_weights(E)]


# Kostant (Adv. Math. 125, 1997): the spin module of the adjoint
# representation restricts to 2^floor(r/2) copies of V_rho, r the rank, so
# each half holds 2^(floor(r/2) - 1) of them


def test_kostant_rho_decomposition_b2():
    R, E, out = _kostant("B", 2)
    assert len(E) == 5
    assert out == [[{"highest_weight": R.rho, "dim": 16, "multiplicity": 1}]] * 2


def test_kostant_rho_decomposition_d4():
    # 2^13 spin weights per half; the restriction and the V_rho character
    # dominate
    R, E, out = _kostant("D", 4)
    assert len(E) == 14
    assert out == [[{"highest_weight": R.rho, "dim": 4096, "multiplicity": 2}]] * 2


def test_kostant_rho_decomposition_b4():
    R, E, out = _kostant("B", 4)
    assert len(E) == 18
    assert out == [[{"highest_weight": R.rho, "dim": 2**16, "multiplicity": 2}]] * 2


def test_kostant_rho_decomposition_f4():
    # 2^25 spin weights per half in 15145 distinct ones, 58 of them dominant
    R, E, out = _kostant("F4")
    assert len(E) == 26
    assert out == [[{"highest_weight": R.rho, "dim": 2**24, "multiplicity": 2}]] * 2


# --- the dominant-weight recursion against the full diagram ----------------


@pytest.mark.parametrize(
    "args",
    [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("G2",), ("F4",)],
    ids=lambda args: "".join(map(str, args)),
)
def test_dominant_recursion_matches_the_full_diagram(args):
    # the full diagram of rho at rank 4 (1.5 s for D4, 9 s for B4 and C4)
    # and of F4's second fundamental (1.8 s) is left out
    R = root_system(*args)
    lams = list(fundamental_weights(R))
    if len(lams) < 4:
        lams.append(R.rho)
    if R.label == "F4":
        del lams[1]
    for lam in lams:
        assert irrep_weights(R, lam) == reference_irrep_weights(R, lam)


# --- the doubled pipeline against the Fraction pipeline -------------------


def _halved_constituents(constituents: list) -> list:
    return [{**c, "highest_weight": _halved(c["highest_weight"])} for c in constituents]


@pytest.mark.parametrize("args", SMALL_TYPES, ids=lambda args: "".join(map(str, args)))
def test_the_root_systems_are_the_natural_ones_doubled(args):
    R, natural = root_system(*args), ref_root_system(*args)
    assert R.label == natural.label
    assert tuple(map(_halved, R.simple_roots)) == natural.simple_roots
    assert tuple(map(_halved, R.positive_roots)) == natural.positive_roots
    assert _halved(R.rho) == natural.rho
    assert all(type(x) is int for v in R.positive_roots + R.simple_roots + (R.rho,) for x in v)


def test_the_doubled_pipeline_agrees_with_the_fraction_pipeline_on_the_fundamentals():
    cases = _small_self_dual_fundamentals()
    assert len(cases) == 28
    for args, lam, W in cases:
        R, natural = root_system(*args), ref_root_system(*args)
        want = ref_irrep_weights(natural, _halved(lam))
        assert {_halved(w): m for w, m in W.items()} == want
        assert weyl_dim(R, lam) == ref_weyl_dim(natural, _halved(lam))
        got = identify_irreducible(W, R)
        assert got == [{"highest_weight": lam, "dim": weyl_dim(R, lam), "multiplicity": 1}]
        assert _halved_constituents(got) == ref_identify_irreducible(want, natural)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_doubled_pipeline_agrees_with_the_fraction_pipeline_on_the_three_cases(case):
    spec = CASES[case]
    R, natural = root_system(*spec["type"]), ref_root_system(*spec["type"])
    E = build_embedding(irrep_weights(R, _highest_root(R, spec["long"])))
    E_natural = build_embedding(ref_irrep_weights(natural, _highest_root(natural, spec["long"])))
    assert tuple(map(_halved, E)) == E_natural
    for half, want in zip(restrict_weights(E), ref_restrict_weights(E_natural)):
        assert {_halved(w): m for w, m in half.items()} == want
        got = identify_irreducible(half, R)
        assert _halved_constituents(got) == ref_identify_irreducible(want, natural)


def test_an_odd_column_sum_is_not_a_character(capsys, monkeypatch):
    # mu = (eps_1, (eps_1 + eps_2) / 2), doubled: column sums (3, 1), so
    # every restricted weight has a coordinate in 1/4 + (1/2)Z
    mu = ((2, 0), (1, 1))
    with pytest.raises(NotACharacter, match=r"do not lie in \(1/2\)Z\^2"):
        restrict_weights(mu)
    natural = ref_restrict_weights(tuple(map(_halved, mu)))
    assert all(any(x.denominator == 4 for x in w) for half in natural for w in half)
    # one odd column is enough, and it reaches the CLI as exit 2
    with pytest.raises(NotACharacter):
        restrict_weights(((2, 0, 0), (0, 2, 1), (0, 0, 2)))
    embedding = plethysm.build_embedding
    monkeypatch.setattr(
        plethysm, "build_embedding", lambda W: (vadd(embedding(W)[0], (1, 1, 0)),) + embedding(W)[1:]
    )
    with pytest.raises(NotACharacter):
        verify_plethysm("g2")
    code = main(["plethysm", "verify", "g2"])
    out, err = capsys.readouterr()
    assert code == 2 and "Traceback" not in err
    assert json.loads(out)["payload"] == {"counterexample": "the restricted weights do not lie in (1/2)Z^3"}
