"""Lipschitz monoid membership, unit group, spin kernel, and the
infinitesimal theory, including genuine dual-number runs."""

import gc
import random
import weakref
from fractions import Fraction
from math import comb

import pytest

from cliffdegen.clifford import (
    Multivector,
    QuadraticSpace,
    geometric_product,
    reverse,
)
from cliffdegen.lipschitz import (
    Cl0Subspace,
    DoubledAlgebra,
    doubled_algebra,
    embed_pair,
    infinitesimal_lipschitz,
    is_glip,
    is_lipschitz,
    is_spin_kernel,
    lipschitz_report,
    norm_scalar,
)
from cliffdegen.rings import Dual

HALF = Fraction(1, 2)


def gp(x, y, V):
    return geometric_product(x, y, V)


def test_cl0_dimension_counts():
    for m in range(1, 7):
        D = DoubledAlgebra(QuadraticSpace.diagonal(list(range(1, m + 1))))
        cl0 = Cl0Subspace(D)
        n_balanced = sum(1 for _ in cl0.basis_blades())
        assert n_balanced == cl0.dimension == comb(2 * m, m)
        assert cl0.dimension == sum(comb(m, j) ** 2 for j in range(m + 1))


def test_embed_pair_calibration():
    V = QuadraticSpace.diagonal([2, 3])
    D = doubled_algebra(V)
    e1 = Multivector.basis_vector(1)
    one = Multivector.scalar(1)
    assert embed_pair(e1, one, D) == Multivector.basis_vector(1)
    assert embed_pair(one, e1, D) == Multivector.basis_vector(3)  # g_1 sits at m+1
    assert embed_pair(e1, e1, D) == Multivector.blade((1, 3))
    # the extension contract on the diagonal: image of (a, a) = f_a + g_a
    both = embed_pair(e1, one, D) + embed_pair(one, e1, D)
    assert both == Multivector.basis_vector(1) + Multivector.basis_vector(3)


def test_membership_examples():
    V = QuadraticSpace.diagonal([1, 2, 3])
    assert is_lipschitz(Multivector.basis_vector(1), V)
    assert is_lipschitz(Multivector.scalar(1), V)
    assert is_lipschitz(Multivector.scalar(3) + Multivector.blade((1, 2)), V)
    # non-homogeneous elements are rejected outright
    assert not is_lipschitz(Multivector.scalar(1) + Multivector.basis_vector(1), V)
    # 1 + quadrivector is homogeneous but fails the graded membership
    V4 = QuadraticSpace.diagonal([1, 1, 2, 3])
    assert not is_lipschitz(Multivector.scalar(1) + Multivector.blade((1, 2, 3, 4)), V4)


def test_doubled_algebra_does_not_outlive_its_space():
    V = QuadraticSpace.diagonal([1, 2, 3])
    assert is_lipschitz(Multivector.basis_vector(1), V)
    assert doubled_algebra(V) is doubled_algebra(V)
    ref = weakref.ref(V)
    del V
    gc.collect()
    assert ref() is None


def test_unit_group_and_spin_kernel_examples():
    V3 = QuadraticSpace.diagonal([3])
    e1 = Multivector.basis_vector(1)
    assert norm_scalar(e1, V3) == 3
    assert is_glip(e1, V3)
    assert not is_spin_kernel(e1, V3)  # odd
    V = QuadraticSpace.diagonal([1, 2, 3])
    assert not is_glip(Multivector.zero(), V)
    assert is_spin_kernel(Multivector.scalar(1), V)
    assert lipschitz_report(Multivector.zero(), V)["verdict"] == "none"
    assert lipschitz_report(e1, V3)["verdict"] == "group"
    assert lipschitz_report(Multivector.scalar(1), V)["verdict"] == "spin"
    x = Multivector.basis_vector(3)  # q = 0 for the zero form: monoid only
    assert lipschitz_report(x, QuadraticSpace.zero(3))["verdict"] == "monoid"


def _sample_generator(rng, V):
    m = V.m
    if rng.random() < 0.5:
        return Multivector({1 << i: Fraction(rng.randint(-3, 3)) for i in range(m)})
    a = Multivector({1 << i: Fraction(rng.randint(-2, 2)) for i in range(m)})
    b = Multivector({1 << i: Fraction(rng.randint(-2, 2)) for i in range(m)})
    return Multivector.scalar(rng.randint(-3, 3)) + gp(a, b, V)


def test_monoid_tau_and_norm_properties_sampled():
    rng = random.Random(2)
    spaces = [
        QuadraticSpace.diagonal([1, 2, 3]),
        QuadraticSpace.diagonal([1, 2, 0]),
        QuadraticSpace.zero(4),
        QuadraticSpace.diagonal([1, 1, 1, 1, 0]),
    ]
    for k in range(120):
        V = spaces[k % len(spaces)]
        x = _sample_generator(rng, V)
        y = _sample_generator(rng, V)
        assert is_lipschitz(x, V) and is_lipschitz(y, V)
        xy = gp(x, y, V)
        assert is_lipschitz(xy, V)
        assert is_lipschitz(reverse(xy, V), V)
        z = norm_scalar(xy, V)
        assert z is not None
        zr = gp(reverse(xy, V), xy, V)
        assert zr == (Multivector.scalar(z) if z != 0 else Multivector.zero())


def test_glip_inverse_stays_lipschitz():
    rng = random.Random(9)
    V = QuadraticSpace.diagonal([1, 2, 3])
    found = 0
    for _ in range(60):
        x = _sample_generator(rng, V)
        if not is_glip(x, V):
            continue
        z = norm_scalar(x, V)
        inv = reverse(x, V).scale(1 / z)
        assert gp(x, inv, V) == Multivector.scalar(1)
        assert is_lipschitz(inv, V)
        found += 1
    assert found > 10


def test_infinitesimal_examples():
    r = infinitesimal_lipschitz(QuadraticSpace.diagonal([1, 1, 1]))
    assert r["spin_dim"] == 3 and r["equals_even_filtration_le2"]
    r = infinitesimal_lipschitz(QuadraticSpace.zero(4))
    assert r["spin_dim"] == 6 and r["equals_even_filtration_le2"]


def test_dual_number_directions():
    V = QuadraticSpace.diagonal([1, 2, 3, 4])
    eps = Dual.eps()
    # 1 + eps e12 is an infinitesimal Lipschitz direction
    x = Multivector({0: Dual.of(1, 0), 0b0011: eps})
    assert is_lipschitz(x, V)
    # 1 + eps e1234 is not: the quadrivector direction is outside degree <= 2
    y = Multivector({0: Dual.of(1, 0), 0b1111: eps})
    assert not is_lipschitz(y, V)
    # 1 + eps e0 is Lipschitz but has norm 1 + 2 eps, so it is cut by the
    # spin condition
    z = Multivector({0: Dual.of(1, 1)})
    assert is_lipschitz(z, V)
    assert norm_scalar(z, V) == Dual.of(1, 2)
    assert not is_spin_kernel(z, V)


def test_infinitesimal_identification_random_degenerate():
    rng = random.Random(31)
    for _ in range(200):
        m = rng.choice([2, 3, 4, 5])
        # force degeneracy: one basis direction in the radical
        diag = [Fraction(rng.randint(-3, 3)) for _ in range(m - 1)] + [0]
        g = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m - 1):
            g[i][i] = diag[i]
            for j in range(i + 1, m - 1):
                v = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                g[i][j] = v
                g[j][i] = v
        V = QuadraticSpace(g)
        r = infinitesimal_lipschitz(V)
        assert r["equals_even_filtration_le2"]
        assert r["spin_dim"] == m * (m - 1) // 2
