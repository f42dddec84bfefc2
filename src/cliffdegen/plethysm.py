"""Root-system and weight machinery for the half-spin branching checks.

Every root and weight of these systems lies in (1/2)Z^n, so each is an int
tuple equal to twice the vector, in a standard realization of each root
system (B/C/D in their natural coordinates; G2 inside the sum-zero
hyperplane of Q^3; F4 in Q^4).  Roots, rho and the weights the public
functions take and return are all doubled; halves are written out only in
the ``verify_plethysm`` payload and in error messages.  Weight multisets
are dicts weight -> positive multiplicity.

The restriction machinery: an orthogonal representation of H with weight
multiset closed under negation determines an embedding of Cartans
h(H) -> h(so(2l)) once the 2l weights are organized into l pairs (mu, -mu)
(zero weights pair among themselves) and a representative per pair is
chosen.  A half-spin weight (s_1..s_l), s_i = +-1/2, then restricts to
sum_i s_i mu_i.  Changing representatives moves the result by an element of
the Weyl group of so(2l) fixing H's image, so identified constituents do not
depend on the choice; that invariance is asserted in the tests.

Identification of a multiset as a sum of irreducible characters is by greedy
peel-off: repeatedly take the weight maximizing <., rho> (any maximizer of
that functional over a character's support is a highest weight), subtract
its full character, and demand nonnegative remainders.  Characteristic-0
character separation makes this sound and canonical.  A character comes
from the Freudenthal recursion run on its dominant weights only, each
result spread over its Weyl orbit; the total is checked against the Weyl
dimension formula.

The branching cases restrict along V(theta), theta the highest root of one
length, whose orthogonality is the parity of <theta, 2 rho^v>.  Each
distinct half-spin multiset is identified once: in all three cases the two
halves restrict to the same multiset, and the - half reuses the + result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from operator import add, mul, sub

from .rings import InvariantViolation, axpy


def _show(v) -> str:
    """The vector of doubled coordinates v, written out in halves."""
    return f"({', '.join(str(Fraction(x, 2)) for x in v)})"


def vadd(a, b):
    return tuple(map(add, a, b))


def vsub(a, b):
    return tuple(map(sub, a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def dot(a, b):
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class RootSystemData:
    """A root system in doubled coordinates: ``simple_roots`` and
    ``positive_roots`` hold 2 alpha, and ``rho`` holds 2 rho, as int tuples.
    A pairing <lam, alpha^v> is the same on doubled vectors as on halves."""

    label: str
    simple_roots: tuple
    positive_roots: tuple
    rho: tuple

    def coroot_pairing(self, lam, alpha) -> Fraction:
        return Fraction(2 * dot(lam, alpha), dot(alpha, alpha))

    def is_dominant(self, lam) -> bool:
        """Dominant integral: <lam, alpha^v> is a nonnegative integer for
        every simple root alpha."""
        return all(
            dot(lam, a) >= 0 and 2 * dot(lam, a) % dot(a, a) == 0 for a in self.simple_roots
        )


def _eps(i, n):
    """2 eps_i."""
    return tuple(2 if j == i else 0 for j in range(n))


def _eps_pairs(n):
    """The roots eps_i - eps_j and eps_i + eps_j for i < j, in that order."""
    return [
        root
        for i in range(n)
        for j in range(i + 1, n)
        for root in (vsub(_eps(i, n), _eps(j, n)), vadd(_eps(i, n), _eps(j, n)))
    ]


def root_system(label: str, rank: int = None) -> RootSystemData:
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
        simple = [(2, -2, 0), (-4, 2, 2)]
        steps = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
        pos = [vadd(vscale(i, simple[0]), vscale(j, simple[1])) for i, j in steps]
    elif label == "F4":
        simple = [vsub(_eps(1, n), _eps(2, n)), vsub(_eps(2, n), _eps(3, n)), _eps(3, n), (1, -1, -1, -1)]
        pos = [_eps(i, n) for i in range(n)] + _eps_pairs(n)
        pos += [(1, *signs) for signs in iproduct((1, -1), repeat=3)]
    else:
        raise ValueError(f"unsupported type {label}")
    R = RootSystemData(
        label=label if label in ("G2", "F4") else f"{label}{rank}",
        simple_roots=tuple(simple),
        positive_roots=tuple(pos),
        rho=tuple(x // 2 for x in reduce(vadd, pos)),
    )
    for a in R.simple_roots:
        if R.coroot_pairing(R.rho, a) != 1:
            raise InvariantViolation("rho fails to pair to 1 with a simple coroot")
    return R


class NonDominantWeight(ValueError):
    pass


class NotACharacter(ArithmeticError):
    """The multiset is not a nonnegative sum of irreducible characters."""


def weyl_dim(R: RootSystemData, lam) -> int:
    """Exact dimension of the irreducible with doubled highest weight lam,
    by the product formula."""
    if not R.is_dominant(lam):
        raise NonDominantWeight(f"{_show(lam)} is not dominant integral for {R.label}")
    lr = vadd(lam, R.rho)
    num = den = 1
    for a in R.positive_roots:
        num *= dot(lr, a)
        den *= dot(R.rho, a)
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantViolation("Weyl dimension did not come out integral")
    return dim


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


def irrep_weights(R: RootSystemData, lam) -> dict:
    """Full weight multiset of the irreducible with doubled highest weight
    lam, keyed by doubled weights.

    The dominant weights below lam are reached from lam by positive-root
    steps between dominant weights (Stembridge, Adv. Math. 136, 1998).  The
    Freudenthal recursion runs on them in decreasing <., rho> (Moody and
    Patera, Bull. AMS 7, 1982): every mu + k alpha it reads is conjugate to
    a higher dominant weight, whose orbit is already filled.  The total is
    checked against the Weyl dimension, which also catches a dominant weight
    the walk missed.
    """
    dim = weyl_dim(R, lam)
    pos, rho = R.positive_roots, R.rho
    dominant, frontier = {lam}, {lam}
    while frontier:
        lower = {vsub(nu, a) for nu in frontier for a in pos} - dominant
        frontier = {mu for mu in lower if R.is_dominant(mu)}
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
        for w in _orbit(mu, R.simple_roots):
            mult[w] = m
    total = sum(mult.values())
    if total != dim:
        raise InvariantViolation(f"weight total {total} disagrees with Weyl dimension for {_show(lam)}")
    return mult


class EmbeddingError(ValueError):
    pass


def build_embedding(weights: dict) -> tuple:
    """Cartan embedding data from an orthogonal representation: one
    representative weight per coordinate of the ambient so(2l).

    Organize the weight multiset into +-pairs and pick the lexicographically
    positive representative of each; zero weights (necessarily of even
    multiplicity) pair among themselves."""
    rem = dict(weights)
    mu = []
    zerow = next((w for w in rem if all(x == 0 for x in w)), None)
    if zerow is not None:
        zmult = rem.pop(zerow)
        if zmult % 2:
            raise EmbeddingError("odd multiplicity of the zero weight cannot pair")
        mu.extend([zerow] * (zmult // 2))
    for w in sorted(rem, reverse=True):
        if rem.get(w, 0) == 0:
            continue
        neg = vscale(-1, w)
        if rem.get(neg, 0) != rem[w]:
            raise EmbeddingError(f"weights not closed under negation at {_show(w)}")
        if w > neg:
            mu.extend([w] * rem[w])
        rem[w] = 0
        rem[neg] = 0
    return tuple(sorted(mu, reverse=True))


def restrict_weights(mu: tuple) -> tuple:
    """Both half-spin multisets of so(2l) pushed through the embedding mu (l
    doubled weights), as (S+, S-) keyed by doubled weights; S+ holds the
    weights (s_1..s_l), s_i = +-1/2, with an even number of negative
    entries.  Each goes to sum_i s_i mu_i, and multiplicities add.

    The image is the product over i of ({+mu_i/2} + {-mu_i/2}), so the
    factors are folded in one at a time into multiplicities keyed by
    (partial sum of the +-mu_i, parity of the minus signs so far); each sum
    is halved when the weights are written out.  Every sum is congruent to
    sum_i mu_i mod 2, so one parity check on it decides, before the fold,
    whether the restricted weights lie in (1/2)Z^n; ``NotACharacter`` if
    not."""
    if not mu:
        raise EmbeddingError("embedding has no weights to restrict along")
    width = len(mu[0])
    if any(len(m) != width for m in mu):
        raise EmbeddingError("embedding weights have unequal lengths")
    if any(x % 2 for x in reduce(vadd, mu)):
        raise NotACharacter(f"the restricted weights do not lie in (1/2)Z^{width}")
    states = {((0,) * width, 0): 1}
    for m in mu:
        folded: dict = {}
        for (wt, parity), mult in states.items():
            for key in ((vadd(wt, m), parity), (vsub(wt, m), parity ^ 1)):
                folded[key] = folded.get(key, 0) + mult
        states = folded
    halves = ({}, {})
    for (wt, parity), mult in states.items():
        halves[parity][tuple(x // 2 for x in wt)] = mult
    return halves


def identify_irreducible(W: dict, R: RootSystemData):
    """Greedy character peel-off of a multiset keyed by doubled weights.

    Returns a list of constituents [{"highest_weight", "dim",
    "multiplicity"}], each highest weight doubled; a single entry of
    multiplicity 1 means W is itself an irreducible character.  A top
    weight that is not dominant integral raises ``NotACharacter``.
    """
    remaining = {w: m for w, m in W.items() if m}
    constituents = []
    while remaining:
        lam = max(remaining, key=lambda w: (dot(w, R.rho), w))
        if not R.is_dominant(lam):
            raise NotACharacter(f"top weight {_show(lam)} is not dominant integral for {R.label}")
        mult = remaining[lam]
        char = irrep_weights(R, lam)
        axpy(remaining, -mult, char)
        for w in char:
            if remaining.get(w, 0) < 0:
                raise NotACharacter(
                    f"multiplicity of {_show(w)} drops below zero peeling {_show(lam)}"
                )
        constituents.append(
            {"highest_weight": lam, "dim": sum(char.values()), "multiplicity": mult}
        )
    return constituents


# ---------------------------------------------------------------------------
# the three branching cases


def _highest_root(R: RootSystemData, long: bool):
    """The highest root of the longest (or the shortest) length: the one
    dominant root of that length."""
    norm = (max if long else min)(dot(a, a) for a in R.positive_roots)
    (root,) = [a for a in R.positive_roots if dot(a, a) == norm and R.is_dominant(a)]
    return root


CASES = {
    "g2": {"type": ("G2",), "long": True, "dim": 14, "ell": 7},
    "f4": {"type": ("F4",), "long": False, "dim": 26, "ell": 13},
    "c3": {"type": ("C", 3), "long": False, "dim": 14, "ell": 7},
}


def verify_plethysm(case: str) -> dict:
    """Restrict both half-spin modules along the case's defining orthogonal
    representation V(lam), lam the highest root of the case's length, and
    identify the constituents.

    A self-dual V(lam) is orthogonal exactly when <lam, 2 rho^v> is even
    (Bourbaki, Lie Groups and Lie Algebras, ch. VIII, 7.5).  An odd value,
    or a dimension or Witt index other than the case's, raises
    ``InvariantViolation``; ``build_embedding`` refuses a V(lam) that is
    not self-dual.

    For G2 the identified constituent is asserted (in the callers/tests) to
    be the irreducible with highest weight rho and dimension 64; for F4 and
    C3 the computed highest weights and dimensions are reported as found.
    """
    case = case.lower()
    if case not in CASES:
        raise ValueError(f"unknown case {case}; expected one of {sorted(CASES)}")
    spec = CASES[case]
    R = root_system(*spec["type"])
    hw = _highest_root(R, spec["long"])
    pairing = sum(R.coroot_pairing(hw, a) for a in R.positive_roots)
    if pairing % 2:
        raise InvariantViolation(
            f"{R.label}: V{_show(hw)} is not orthogonal: <lambda, 2 rho^v> = {pairing}"
        )
    defining = irrep_weights(R, hw)
    if sum(defining.values()) != spec["dim"]:
        raise InvariantViolation("defining representation has unexpected dimension")
    E = build_embedding(defining)
    if len(E) != spec["ell"]:
        raise InvariantViolation("embedding size differs from the expected Witt index")
    out = {"case": case, "type": R.label, "defining_dim": spec["dim"], "ell": len(E)}
    plus, minus = restrict_weights(E)
    results = {"+": identify_irreducible(plus, R)}
    results["-"] = results["+"] if minus == plus else identify_irreducible(minus, R)
    out["constituents"] = {
        sign: [
            {
                "highest_weight": [str(Fraction(x, 2)) for x in c["highest_weight"]],
                "dim": c["dim"],
                "multiplicity": c["multiplicity"],
            }
            for c in results[sign]
        ]
        for sign in ("+", "-")
    }
    out["halfspin_agree"] = results["+"] == results["-"]
    out["rho"] = [str(Fraction(x, 2)) for x in R.rho]
    out["is_single_irreducible"] = all(
        len(results[s]) == 1 and results[s][0]["multiplicity"] == 1 for s in ("+", "-")
    )
    out["matches_rho_module"] = all(
        len(results[s]) == 1 and results[s][0]["highest_weight"] == R.rho
        for s in ("+", "-")
    )
    return out
