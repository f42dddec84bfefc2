"""Root-system and weight machinery for the half-spin branching checks.

Weights are tuples of Fractions in a standard rational realization of each
root system (B/C/D in their natural coordinates; G2 inside the sum-zero
hyperplane of Q^3; F4 in Q^4).  Weight multisets are dicts weight -> positive
multiplicity.

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
the full character computed by the Freudenthal recursion, and demand
nonnegative remainders.  Characteristic-0 character separation makes this
sound and canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .linalg import solve_augmented
from .rings import HALF, axpy


def _tup(v):
    return tuple(Fraction(x) for x in v)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class RootSystemData:
    label: str
    rank: int
    ambient: int
    simple_roots: tuple
    positive_roots: tuple
    rho: tuple

    def coroot_pairing(self, lam, alpha) -> Fraction:
        return 2 * dot(lam, alpha) / dot(alpha, alpha)

    def is_dominant(self, lam) -> bool:
        return all(dot(lam, a) >= 0 for a in self.simple_roots)

    def reflect(self, v, alpha):
        return vsub(v, vscale(self.coroot_pairing(v, alpha), alpha))

    def fundamental_weights(self) -> tuple:
        """omega_i in the span of the roots, <omega_i, alpha_j^v> = delta_ij."""
        n = self.rank
        # solve omega = sum_k x_k alpha_k from the Cartan-type system
        outs = []
        for i in range(n):
            # rows: sum_k x_k <alpha_k, alpha_j^v> = delta_ij, as an
            # inhomogeneous system solved by elimination
            rows = [
                [self.coroot_pairing(self.simple_roots[k], self.simple_roots[j]) for k in range(n)]
                + [Fraction(1 if j == i else 0)]
                for j in range(n)
            ]
            # gaussian solve
            x = _solve_square(rows, n)
            w = tuple(Fraction(0) for _ in range(self.ambient))
            for k, coef in enumerate(x):
                w = vadd(w, vscale(coef, self.simple_roots[k]))
            outs.append(w)
        return tuple(outs)


def _solve_square(aug_rows, n):
    return [row[0] for row in solve_augmented(aug_rows, n)]


def _eps(i, n):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def root_system(label: str, rank: int = None) -> RootSystemData:
    label = label.upper()
    if label in ("G2", "F4"):
        rank = {"G2": 2, "F4": 4}[label]
    if rank is None:
        raise ValueError("rank required for classical types")
    if label == "B":
        n = rank
        simple = [vsub(_eps(i, n), _eps(i + 1, n)) for i in range(n - 1)] + [_eps(n - 1, n)]
        pos = [_eps(i, n) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(vsub(_eps(i, n), _eps(j, n)))
                pos.append(vadd(_eps(i, n), _eps(j, n)))
        ambient = n
    elif label == "C":
        n = rank
        simple = [vsub(_eps(i, n), _eps(i + 1, n)) for i in range(n - 1)] + [vscale(2, _eps(n - 1, n))]
        pos = [vscale(2, _eps(i, n)) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(vsub(_eps(i, n), _eps(j, n)))
                pos.append(vadd(_eps(i, n), _eps(j, n)))
        ambient = n
    elif label == "D":
        n = rank
        simple = [vsub(_eps(i, n), _eps(i + 1, n)) for i in range(n - 1)] + [
            vadd(_eps(n - 2, n), _eps(n - 1, n))
        ]
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(vsub(_eps(i, n), _eps(j, n)))
                pos.append(vadd(_eps(i, n), _eps(j, n)))
        ambient = n
    elif label == "G2":
        simple = [_tup((1, -1, 0)), _tup((-2, 1, 1))]
        a1, a2 = simple
        pos = [
            a1,
            a2,
            vadd(a1, a2),
            vadd(vscale(2, a1), a2),
            vadd(vscale(3, a1), a2),
            vadd(vscale(3, a1), vscale(2, a2)),
        ]
        ambient = 3
    elif label == "F4":
        n = 4
        simple = [
            vsub(_eps(1, n), _eps(2, n)),
            vsub(_eps(2, n), _eps(3, n)),
            _eps(3, n),
            vscale(HALF, _tup((1, -1, -1, -1))),
        ]
        pos = [_eps(i, n) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                pos.append(vsub(_eps(i, n), _eps(j, n)))
                pos.append(vadd(_eps(i, n), _eps(j, n)))
        for signs in iproduct((1, -1), repeat=3):
            pos.append(
                vscale(HALF, _tup((1, signs[0], signs[1], signs[2])))
            )
        ambient = n
    else:
        raise ValueError(f"unsupported type {label}")
    rho = tuple(
        sum((a[k] for a in pos), Fraction(0)) * HALF for k in range(ambient)
    )
    R = RootSystemData(
        label=label if label in ("G2", "F4") else f"{label}{rank}",
        rank=rank,
        ambient=ambient,
        simple_roots=tuple(simple),
        positive_roots=tuple(pos),
        rho=rho,
    )
    for a in R.simple_roots:
        if R.coroot_pairing(R.rho, a) != 1:
            raise AssertionError("rho fails to pair to 1 with a simple coroot")
    return R


class NonDominantWeight(ValueError):
    pass


def weyl_dim(R: RootSystemData, lam) -> int:
    """Exact dimension by the product formula."""
    lam = _tup(lam)
    if not R.is_dominant(lam):
        raise NonDominantWeight(f"{lam} is not dominant for {R.label}")
    num = Fraction(1)
    lr = vadd(lam, R.rho)
    for a in R.positive_roots:
        num *= dot(lr, a) / dot(R.rho, a)
    if num.denominator != 1:
        raise AssertionError("Weyl dimension did not come out integral")
    return int(num)


_irrep_cache: dict = {}


def irrep_weights(R: RootSystemData, lam) -> dict:
    """Full weight multiset of the irreducible with highest weight lam, by
    the Freudenthal multiplicity recursion.

    Candidates are explored downward by simple-root steps from lam (the
    weight diagram is connected under such steps); a candidate with
    vanishing Freudenthal numerator/denominator is not a weight and spawns
    no children.  The total multiplicity is checked against the Weyl
    dimension formula before returning.
    """
    lam = _tup(lam)
    key = (R.label, R.rank, lam)
    cached = _irrep_cache.get(key)
    if cached is not None:
        return dict(cached)
    if not R.is_dominant(lam):
        raise NonDominantWeight(f"{lam} is not dominant for {R.label}")
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
            if m_mu.denominator != 1 or m_mu <= 0:
                raise AssertionError("Freudenthal recursion produced a non-multiplicity")
            mult[mu] = int(m_mu)
            frontier.append(mu)
    total = sum(mult.values())
    if total != weyl_dim(R, lam):
        raise AssertionError(
            f"weight total {total} disagrees with Weyl dimension for {lam}"
        )
    _irrep_cache[key] = dict(mult)
    return dict(mult)


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


class EmbeddingError(ValueError):
    pass


@dataclass
class EmbeddingData:
    """Cartan embedding data from an orthogonal representation: one
    representative weight per coordinate of the ambient so(2l)."""

    subalgebra: str
    mu: tuple  # length l, one representative per +- pair (zeros allowed)

    @property
    def ell(self) -> int:
        return len(self.mu)


def build_embedding(label: str, weights: dict) -> EmbeddingData:
    """Organize the weight multiset of an orthogonal representation into
    +-pairs and pick the lexicographically positive representative of each;
    zero weights (necessarily of even multiplicity) pair among themselves."""
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
            raise EmbeddingError(f"weights not closed under negation at {w}")
        if w > neg:
            mu.extend([w] * rem[w])
        rem[w] = 0
        rem[neg] = 0
    return EmbeddingData(subalgebra=label, mu=tuple(sorted(mu, reverse=True)))


def restrict_weights(W: dict, E: EmbeddingData) -> dict:
    """Push a half-spin multiset of so(2l) through the embedding: the weight
    (s_1..s_l) with s_i = +-1/2 goes to sum_i s_i mu_i; multiplicities add."""
    out: dict = {}
    for wt, mult in W.items():
        if len(wt) != E.ell:
            raise EmbeddingError(
                f"weight length {len(wt)} does not match embedding size {E.ell}"
            )
        if any(abs(s) != HALF for s in wt):
            raise EmbeddingError("restriction expects +-1/2 coordinates")
        acc = tuple(Fraction(0) for _ in E.mu[0])
        for s, m in zip(wt, E.mu):
            acc = vadd(acc, vscale(s, m))
        out[acc] = out.get(acc, 0) + mult
    return out


class NotACharacter(ArithmeticError):
    """The multiset is not a nonnegative sum of irreducible characters."""


def identify_irreducible(W: dict, R: RootSystemData):
    """Greedy character peel-off.

    Returns a list of constituents [{"highest_weight", "dim",
    "multiplicity"}]; a single entry of multiplicity 1 means W is itself an
    irreducible character.
    """
    remaining = {w: m for w, m in W.items() if m}
    constituents = []
    while remaining:
        lam = max(remaining, key=lambda w: (dot(w, R.rho), w))
        if not R.is_dominant(lam):
            raise NotACharacter(
                f"maximal weight {lam} is not dominant for {R.label}"
            )
        mult = remaining[lam]
        char = irrep_weights(R, lam)
        axpy(remaining, -mult, char)
        for w in char:
            if remaining.get(w, 0) < 0:
                raise NotACharacter(
                    f"multiplicity of {w} drops below zero peeling {lam}"
                )
        constituents.append(
            {
                "highest_weight": lam,
                "dim": weyl_dim(R, lam),
                "multiplicity": mult,
            }
        )
    return constituents


# ---------------------------------------------------------------------------
# the three branching cases


def _fundamental_of_dim(R: RootSystemData, dim: int, orthogonal_only: bool = False):
    """Pin a fundamental representation by its dimension (and, for type C,
    by orthogonality: the epsilon-coordinate sum of the highest weight must
    be even, since odd weight sums give symplectic representations)."""
    hits = []
    for w in R.fundamental_weights():
        if weyl_dim(R, w) == dim:
            if orthogonal_only and sum(w) % 2 != 0:
                continue
            hits.append(w)
    if len(hits) != 1:
        raise EmbeddingError(
            f"{R.label}: fundamental of dimension {dim} not pinned uniquely ({len(hits)} hits)"
        )
    return hits[0]


def _adjoint_highest_weight(R: RootSystemData):
    """Highest root = the dominant long root."""
    longest = max(dot(a, a) for a in R.positive_roots)
    hits = [a for a in R.positive_roots if dot(a, a) == longest and R.is_dominant(a)]
    if len(hits) != 1:
        raise EmbeddingError("highest root not unique")
    return hits[0]


CASES = {
    "g2": {"type": "G2", "defining": "adjoint", "dim": 14, "ell": 7},
    "f4": {"type": "F4", "defining": "fundamental", "dim": 26, "ell": 13},
    "c3": {"type": ("C", 3), "defining": "fundamental", "dim": 14, "ell": 7},
}


def verify_plethysm(case: str) -> dict:
    """Restrict both half-spin modules along the case's defining orthogonal
    representation and identify the constituents.

    For G2 the identified constituent is asserted (in the callers/tests) to
    be the irreducible with highest weight rho and dimension 64; for F4 and
    C3 the computed highest weights and dimensions are reported as found.
    """
    case = case.lower()
    if case not in CASES:
        raise ValueError(f"unknown case {case}; expected one of {sorted(CASES)}")
    spec = CASES[case]
    t = spec["type"]
    R = root_system(t) if isinstance(t, str) else root_system(*t)
    if spec["defining"] == "adjoint":
        hw = _adjoint_highest_weight(R)
    else:
        hw = _fundamental_of_dim(R, spec["dim"], orthogonal_only=R.label.startswith("C"))
    defining = irrep_weights(R, hw)
    if sum(defining.values()) != spec["dim"]:
        raise AssertionError("defining representation has unexpected dimension")
    E = build_embedding(R.label, defining)
    if E.ell != spec["ell"]:
        raise AssertionError("embedding size differs from the expected Witt index")
    out = {"case": case, "type": R.label, "defining_dim": spec["dim"], "ell": E.ell}
    results = {}
    for sign in ("+", "-"):
        restricted = restrict_weights(halfspin_weights(E.ell, sign), E)
        results[sign] = identify_irreducible(restricted, R)
    out["constituents"] = {
        sign: [
            {
                "highest_weight": [str(x) for x in c["highest_weight"]],
                "dim": c["dim"],
                "multiplicity": c["multiplicity"],
            }
            for c in results[sign]
        ]
        for sign in ("+", "-")
    }
    out["halfspin_agree"] = results["+"] == results["-"]
    out["rho"] = [str(x) for x in R.rho]
    out["is_single_irreducible"] = all(
        len(results[s]) == 1 and results[s][0]["multiplicity"] == 1 for s in ("+", "-")
    )
    out["matches_rho_module"] = all(
        len(results[s]) == 1 and results[s][0]["highest_weight"] == R.rho
        for s in ("+", "-")
    )
    return out
