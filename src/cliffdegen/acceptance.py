"""The acceptance battery: one callable per criterion, each returning a
deterministic result dict {"name", "ok", "details"}.

Shared by the command-line ``selftest`` and the pytest acceptance module.
Randomized criteria take an explicit seed and echo it in their details.
Details are JSON-native (str, int, bool, None, lists, tuples and dicts with
str keys): ``selftest`` prints each result as returned.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .clifford import (
    Multivector,
    QuadraticSpace,
    geometric_product,
    mask_of,
    reverse,
)
from .degeneration import QuadraticFamily, certify_specialization
from .linalg import identity_matrix, mat_mul, mat_sub, nullspace_dense
from .liestructure import (
    build_even_lie,
    lie_pairs,
    reconstruct_form,
    transcribe_constants,
)
from .lipschitz import infinitesimal_lipschitz, is_lipschitz, norm_scalar
from .localmodels import (
    MatrixTuple,
    centralizer_dim,
    generates_full_algebra,
    is_cyclic_vector,
    s_equivalent,
    spin_image_tuple,
)
from .plethysm import root_system, verify_plethysm, weyl_dim
from .rings import Poly
from .spinor import WittDecomposition, even_algebra_isomorphism_check, restrict_even_to_odd

RECONSTRUCTION_TRIALS = 200  # random forms in criterion 1
LIPSCHITZ_SAMPLES = 500  # sampled products in criterion 5


def _random_symmetric(rng: random.Random, m: int) -> QuadraticSpace:
    g = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            g[i][j] = g[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return QuadraticSpace(g)


def criterion_form_reconstruction(seed: int) -> dict:
    """1: round-trip reconstruct(constants(Q)) = Q for random Q, m in 3..9."""
    rng = random.Random(seed)
    failures = 0
    for k in range(RECONSTRUCTION_TRIALS):
        m = 3 + k % 7
        V = _random_symmetric(rng, m)
        R = reconstruct_form(build_even_lie(V))
        if R.gram != V.gram:
            failures += 1
    return {
        "name": "form-reconstruction-round-trip",
        "ok": failures == 0,
        "details": {"seed": seed, "trials": RECONSTRUCTION_TRIALS, "failures": failures},
    }


def criterion_structure_constant_oracle(seed: int) -> dict:
    """2: product-derived constants satisfy Jacobi on every triple and
    equal the independent transcription of the bracket identities, every
    index pattern, m <= 7, exactly."""
    rng = random.Random(seed)
    checked = 0
    failures = 0
    for m in range(2, 8):
        spaces = [
            QuadraticSpace.zero(m),
            QuadraticSpace.diagonal(list(range(1, m + 1))),
            _random_symmetric(rng, m),
            _random_symmetric(rng, m),
        ]
        for V in spaces:
            L = build_even_lie(V)
            L.verify_jacobi()
            got = L.table
            want = transcribe_constants(V).table
            keys = set(got) | set(want)
            checked += len(keys)
            for key in keys:
                if got.get(key, {}) != want.get(key, {}):
                    failures += 1
    return {
        "name": "structure-constant-oracle-agreement",
        "ok": failures == 0,
        "details": {"seed": seed, "bracket_entries_checked": checked, "failures": failures},
    }


def criterion_matrix_identification() -> dict:
    """3: even algebra -> endomorphisms of the (half-)spin modules is a
    bijective algebra map for l <= 4, both parities."""
    reports = []
    ok = True
    for ell in range(1, 5):
        for odd in (True, False):
            rep = even_algebra_isomorphism_check(WittDecomposition(ell, odd=odd))
            reports.append(
                {
                    "ell": ell,
                    "case": rep["case"],
                    "bijective": rep["bijective"],
                    "rank": rep["operator_rank"],
                }
            )
            ok = ok and rep["bijective"]
    return {"name": "even-algebra-matrix-identification", "ok": ok, "details": {"cases": reports}}


def criterion_even_to_odd_restriction() -> dict:
    """4: restricted half-spin multisets of the even form equal the spin
    multiset one rank down, 2 <= l <= 7."""
    ok = True
    rows = []
    for ell in range(2, 8):
        rep = restrict_even_to_odd(ell)
        good = rep["plus_matches"] and rep["minus_matches"]
        rows.append({"ell": ell, "both_match": good})
        ok = ok and good
    return {"name": "even-to-odd-spin-restriction", "ok": ok, "details": {"cases": rows}}


def _sample_lipschitz_generator(rng: random.Random, V: QuadraticSpace) -> Multivector:
    m = V.m
    kind = rng.choice(("vector", "scalar_plus_ab"))
    if kind == "vector":
        return Multivector({1 << i: rng.randint(-3, 3) for i in range(m)})
    a = Multivector({1 << i: rng.randint(-2, 2) for i in range(m)})
    b = Multivector({1 << i: rng.randint(-2, 2) for i in range(m)})
    lam = rng.randint(-3, 3)
    return Multivector.scalar(lam) + geometric_product(a, b, V)


def criterion_lipschitz_axioms(seed: int) -> dict:
    """5: membership of vectors and lambda+ab; tau-stability, scalar norm and
    monoid closure on sampled products, over diagonal, corank-1, zero and
    dense rational forms of m = 3..5; infinitesimal spaces for
    nondegenerate, corank-1 and zero forms up to m = 6."""
    rng = random.Random(seed)
    spaces = {}
    for m in (3, 4, 5):
        spaces[(m, "nondeg")] = QuadraticSpace.diagonal(list(range(1, m + 1)))
        spaces[(m, "corank1")] = QuadraticSpace.diagonal(list(range(1, m)) + [0])
        spaces[(m, "zero")] = QuadraticSpace.zero(m)
        spaces[(m, "dense")] = QuadraticSpace(
            [[Fraction(1 + i * j % 3, 1 + i + j) for j in range(m)] for i in range(m)]
        )
    failures = []
    # structured membership: every basis vector and every 1 + e_i e_j
    for key, V in spaces.items():
        for i in range(1, V.m + 1):
            if not is_lipschitz(Multivector.basis_vector(i), V):
                failures.append(("basis-vector", key, i))
        for i in range(1, V.m + 1):
            for j in range(1, V.m + 1):
                if i == j:
                    continue
                x = Multivector.scalar(1) + geometric_product(
                    Multivector.basis_vector(i), Multivector.basis_vector(j), V
                )
                if not is_lipschitz(x, V):
                    failures.append(("one-plus-ab", key, (i, j)))
    keys = sorted(spaces)
    for k in range(LIPSCHITZ_SAMPLES):
        V = spaces[keys[k % len(keys)]]
        nfac = rng.randint(1, 3)
        x = _sample_lipschitz_generator(rng, V)
        for _ in range(nfac - 1):
            x = geometric_product(x, _sample_lipschitz_generator(rng, V), V)
        if not is_lipschitz(x, V):
            failures.append(("monoid-closure", k))
            continue
        if not is_lipschitz(reverse(x, V), V):
            failures.append(("tau-stability", k))
        z = norm_scalar(x, V)
        if z is None:
            failures.append(("norm-not-scalar", k))
        elif geometric_product(reverse(x, V), x, V) != Multivector.scalar(z):
            failures.append(("norm-two-sided", k))
    infinitesimal = []
    for m in range(2, 7):
        for label, V in (
            ("nondeg", QuadraticSpace.diagonal(list(range(1, m + 1)))),
            ("corank1", QuadraticSpace.diagonal(list(range(1, m)) + [0])),
            ("zero", QuadraticSpace.zero(m)),
        ):
            r = infinitesimal_lipschitz(V)
            good = (
                r["equals_even_filtration_le2"]
                and r["spin_dim"] == m * (m - 1) // 2
            )
            infinitesimal.append({"m": m, "form": label, "ok": good})
            if not good:
                failures.append(("infinitesimal", m, label))
    return {
        "name": "lipschitz-monoid-axioms",
        "ok": not failures,
        "details": {
            "seed": seed,
            "samples": LIPSCHITZ_SAMPLES,
            "failures": failures[:10],
            "infinitesimal_cases": len(infinitesimal),
        },
    }


def criterion_degeneration() -> dict:
    """6: witnesses for diag(1,..,1,t), m in {3,5,7}; positive special
    radical matching an independently computed trace-form kernel, with the
    structure theorem's nilpotency index."""
    t = Poly.t()
    rows = []
    ok = True
    for m in (3, 5, 7):
        F = QuadraticFamily.diagonal([1] * (m - 1) + [t])
        w = certify_specialization(F)
        T = w.special_fiber
        # independent trace-form kernel: operators applied via tensor products
        d = T.dim
        gram = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                gram[i][j] = gram[j][i] = sum(
                    T.multiply({i: 1}, T.multiply({j: 1}, {k: 1})).get(k, 0) for k in range(d)
                )
        indep_dim = len(nullspace_dense(gram, d))
        dim = len(w.radical_basis)
        good = dim > 0 and dim == indep_dim and w.nilpotency_index <= T.dim
        rows.append(
            {
                "m": m,
                "radical_dim": dim,
                "independent_kernel_dim": indep_dim,
                "nilpotency_index": w.nilpotency_index,
            }
        )
        ok = ok and good
    return {"name": "matrix-algebra-degeneration", "ok": ok, "details": {"cases": rows}}


def criterion_plethysm_g2() -> dict:
    """7: both half-spin restrictions along the adjoint embedding are the
    irreducible with highest weight rho and dimension 64."""
    rep = verify_plethysm("g2")
    ok = (
        rep["is_single_irreducible"]
        and rep["matches_rho_module"]
        and all(rep["constituents"][s][0]["dim"] == 64 for s in ("+", "-"))
        and rep["halfspin_agree"]
    )
    return {"name": "plethysm-g2", "ok": ok, "details": rep}


def criterion_plethysm_f4_c3() -> dict:
    """8: single irreducible of the forced dimension in each case, stable
    across the half-spin choice."""
    ok = True
    details = {}
    for case, dim in (("f4", 4096), ("c3", 64)):
        rep = verify_plethysm(case)
        good = (
            rep["is_single_irreducible"]
            and rep["halfspin_agree"]
            and all(rep["constituents"][s][0]["dim"] == dim for s in ("+", "-"))
        )
        details[case] = rep
        ok = ok and good
    return {"name": "plethysm-f4-c3", "ok": ok, "details": details}


def criterion_local_models(seed: int) -> dict:
    """9: the listed generation/cyclic/equivalence examples, conjugation
    invariance, generic sl2 centralizer, spin-image bracket compatibility."""
    rng = random.Random(seed)
    failures = []
    nil = MatrixTuple.of([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    if not generates_full_algebra(nil):
        failures.append("nilpotent-pair-generates")
    ident = MatrixTuple.of([[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    if generates_full_algebra(ident):
        failures.append("identity-pair-generates")
    diags = MatrixTuple.of([[[1, 0], [0, 2]], [[3, 0], [0, 4]]])
    if generates_full_algebra(diags):
        failures.append("diagonal-pair-generates")
    if not is_cyclic_vector(nil, [1, 0]):
        failures.append("cyclic-nilpotent")
    if is_cyclic_vector(nil, [0, 0]):
        failures.append("cyclic-zero-vector")
    if is_cyclic_vector(diags, [1, 0]):
        failures.append("cyclic-diagonal")
    a = MatrixTuple.of([[[1, 0], [0, 2]], [[0, 0], [0, 0]]])
    b = MatrixTuple.of([[[2, 0], [0, 1]], [[0, 0], [0, 0]]])
    if not s_equivalent(a, b):
        failures.append("sequiv-permuted-diagonal")
    c1 = MatrixTuple.of([[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    c2 = MatrixTuple.of([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    if not s_equivalent(c1, c2):
        failures.append("sequiv-nilpotent-zero")
    # conjugation invariance over random unimodular conjugators
    conj_trials = 0
    for n in (2, 3):
        base = MatrixTuple.of(
            [
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                for _ in range(2)
            ]
        )
        for _ in range(25):
            g, ginv = _random_unimodular(rng, n)
            conj = MatrixTuple.of(
                [mat_mul(g, mat_mul(m, ginv)) for m in base.X]
            )
            conj_trials += 1
            if not s_equivalent(base, conj):
                failures.append(("conjugation", n))
                break
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    h = [[1, 0], [0, -1]]
    if centralizer_dim(nil, [e, f, h]) != 0:
        failures.append("centralizer-generic-sl2")
    # spin image: zero tuple, h_1 action, bracket compatibility, generation
    img0 = spin_image_tuple([[0, 0, 0]], 1, odd=True)
    if any(v != 0 for m in img0.X for row in m for v in row):
        failures.append("spin-image-zero")
    h1 = spin_image_tuple([[1, 0, 0]], 1, odd=True).X[0]
    if sorted([h1[0][0], h1[1][1]]) != [Fraction(-1, 2), Fraction(1, 2)] or h1[0][1] != 0:
        failures.append("spin-image-cartan")
    if not generates_full_algebra(spin_image_tuple([[1, 0, 0], [0, 1, 1]], 1, odd=True)):
        failures.append("spin-image-generates")
    for ell, odd in ((1, True), (2, False)):
        W = WittDecomposition(ell, odd=odd)
        npairs = len(lie_pairs(W.m))
        u = [rng.randint(-2, 2) for _ in range(npairs)]
        v = [rng.randint(-2, 2) for _ in range(npairs)]
        img = spin_image_tuple([u, v], ell, odd=odd)
        x, y = img.X
        lhs = mat_sub(mat_mul(x, y), mat_mul(y, x))
        bracket = _lie_bracket_coeffs(u, v, W)
        rhs = spin_image_tuple([bracket], ell, odd=odd).X[0]
        if lhs != [list(row) for row in rhs]:
            failures.append(("spin-image-bracket", ell, odd))
    return {
        "name": "local-models",
        "ok": not failures,
        "details": {"seed": seed, "conjugation_trials": conj_trials, "failures": failures},
    }


def _lie_bracket_coeffs(u, v, W):
    """Coefficients of [u, v] in the quotient Lie algebra of the Witt space."""
    V = W.space()
    pairs = lie_pairs(W.m)
    xu = Multivector({mask_of(p): c for c, p in zip(u, pairs)})
    xv = Multivector({mask_of(p): c for c, p in zip(v, pairs)})
    com = geometric_product(xu, xv, V) - geometric_product(xv, xu, V)
    return [com.coefficient(p) for p in pairs]


def _random_unimodular(rng: random.Random, n: int):
    """A product of elementary integer shears, and its inverse: the inverse
    shears (entry -c) multiplied in reverse order."""
    g, ginv = identity_matrix(n), identity_matrix(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        e, einv = identity_matrix(n), identity_matrix(n)
        e[i][j], einv[i][j] = c, -c
        g, ginv = mat_mul(g, e), mat_mul(einv, ginv)
    return g, ginv


def criterion_weyl_dim_consistency() -> dict:
    """10: dim V_rho = 2^{number of positive roots} for every supported type."""
    rows = []
    ok = True
    for args in (("G2",), ("F4",), ("C", 3), ("B", 2), ("B", 3), ("B", 4), ("D", 4), ("D", 5)):
        R = root_system(*args)
        dim = weyl_dim(R, R.rho)
        want = 2 ** len(R.positive_roots)
        rows.append({"type": R.label, "dim_v_rho": dim, "expected": want})
        ok = ok and dim == want
    return {"name": "weyl-dimension-self-consistency", "ok": ok, "details": {"cases": rows}}


ALL_CRITERIA = [
    criterion_form_reconstruction,
    criterion_structure_constant_oracle,
    criterion_matrix_identification,
    criterion_even_to_odd_restriction,
    criterion_lipschitz_axioms,
    criterion_degeneration,
    criterion_plethysm_g2,
    criterion_plethysm_f4_c3,
    criterion_local_models,
    criterion_weyl_dim_consistency,
]


def run_criterion(fn, seed: int) -> dict:
    """Run one criterion, passing the seed if it takes one."""
    try:
        if "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            return fn(seed=seed)
        return fn()
    except Exception as exc:  # a crash is a failed criterion, not a crash of the battery
        return {"name": fn.__name__, "ok": False, "details": {"error": repr(exc)}}
