"""Tests for the three degree-4 cochains and the boundary pairing integral.

Reference values are frozen from two independent sources: closed-form
constants (multiples of 1/pi^2) and the brute-force antisymmetrization
oracles in oracles.py.
"""

import math

import numpy as np
import pytest

from nervecheck.matrixgroup import (
    GroupPoint,
    Tangent,
    basis_element,
    exp_matrix,
    identity_point,
)
from nervecheck.eulercocycle import (
    COMPONENTS,
    _coords,
    _pf,
    cocycle,
    eval_E13,
    eval_E22,
    eval_alpha,
    eval_mu,
    polynomial_path,
)

from nervecheck.harness import CheckConfig, trial_rows

from helpers import rand_point, rand_tangent, random_skew
from oracles import eps_contract, oracle_alpha, oracle_e13, oracle_e22, oracle_mu

E12 = basis_element(1, 2)
E13 = basis_element(1, 3)
E14 = basis_element(1, 4)
E23 = basis_element(2, 3)
E34 = basis_element(3, 4)

PI2 = math.pi ** 2

# frozen closed-form reference values
MU_GOLDEN = -1.0 / (4.0 * PI2)        # mu(E12) at identity on E34
E22_GOLDEN = -1.0 / (8.0 * PI2)       # E(2,2) at (I, I) on ((E12,0),(0,E34))
ALPHA_GOLDEN = -1.0 / (8.0 * PI2)     # alpha(t*E12, E34)
E13_GOLDEN = -1.0 / (8.0 * PI2)       # E(1,3) at I on (E12, E13, E14)


# ---------------------------------------------------------------------------
# golden values


def test_mu_golden_value():
    pt = identity_point(1)
    v = Tangent(pt, (E34,))
    got = eval_mu(E12, pt, v)
    assert abs(got - MU_GOLDEN) < 1e-12
    assert abs(got - oracle_mu(E12, pt, v)) < 1e-14


def test_e22_golden_value():
    pt = identity_point(2)
    zero = np.zeros((4, 4))
    t1 = Tangent(pt, (E12, zero))
    t2 = Tangent(pt, (zero, E34))
    got = eval_E22(pt, t1, t2)
    assert abs(got - E22_GOLDEN) < 1e-12
    assert abs(got - oracle_e22(pt, t1, t2)) < 1e-14
    # swapping the tangents flips the sign
    assert abs(eval_E22(pt, t2, t1) + E22_GOLDEN) < 1e-12


def test_e13_golden_values():
    pt = identity_point(1)
    trip = (Tangent(pt, (E12,)), Tangent(pt, (E13,)), Tangent(pt, (E23,)))
    got = eval_E13(pt, *trip)
    assert got == 0.0  # eps pairing never matches three indices from {1,2,3}
    quad = (Tangent(pt, (E12,)), Tangent(pt, (E13,)), Tangent(pt, (E14,)))
    got = eval_E13(pt, *quad)
    assert abs(got - E13_GOLDEN) < 1e-12
    assert abs(got - oracle_e13(pt, *quad)) < 1e-14


def test_alpha_golden_value():
    c1 = [np.zeros((4, 4)), E12]                     # t -> t * E12
    c2 = [E34]                                       # constant
    got = eval_alpha(polynomial_path(c1), polynomial_path(c2))
    assert abs(got - ALPHA_GOLDEN) < 1e-12
    assert abs(got - oracle_alpha(c1, c2)) < 1e-14


# ---------------------------------------------------------------------------
# agreement with the antisymmetrization oracles at random points


def test_e13_matches_oracle_at_random_points():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pt = rand_point(rng)
        ts = [rand_tangent(rng, pt) for _ in range(3)]
        assert abs(eval_E13(pt, *ts) - oracle_e13(pt, *ts)) < 1e-13


def test_e22_matches_oracle_at_random_points():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pt = rand_point(rng, 2)
        ts = [rand_tangent(rng, pt) for _ in range(2)]
        assert abs(eval_E22(pt, *ts) - oracle_e22(pt, *ts)) < 1e-13


def test_mu_matches_oracle_at_random_points():
    rng = np.random.default_rng(2)
    for _ in range(10):
        X = random_skew(rng, 1.0)
        pt = rand_point(rng)
        v = rand_tangent(rng, pt)
        assert abs(eval_mu(X, pt, v) - oracle_mu(X, pt, v)) < 1e-13


def test_pair_sum_matches_levi_civita_on_general_matrices():
    # the inputs are not skew: the Pfaffian pairing must use their skew parts
    # exactly as the permutation sum does
    rng = np.random.default_rng(10)
    for _ in range(20):
        m1, m2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        want = eps_contract(m1, m2) + eps_contract(m2, m1)
        assert abs(2.0 * _pf(_coords(m1), _coords(m2)) - want) < 1e-13
        sym = m1 + m1.T
        assert 2.0 * _pf(_coords(sym), _coords(m2)) == 0.0


# ---------------------------------------------------------------------------
# multilinearity / alternation / equivariance


def test_e13_alternating_and_multilinear():
    rng = np.random.default_rng(3)
    pt = rand_point(rng)
    a, b, c = (rand_tangent(rng, pt) for _ in range(3))
    base = eval_E13(pt, a, b, c)
    assert eval_E13(pt, b, a, c) == -base
    assert eval_E13(pt, a, a, c) == 0.0
    zero = Tangent(pt, (np.zeros((4, 4)),))
    assert eval_E13(pt, zero, b, c) == 0.0
    scaled = Tangent(pt, (3.0 * a.reps[0],))
    assert abs(eval_E13(pt, scaled, b, c) - 3.0 * base) < 1e-10 * max(1, abs(base))


def test_mu_is_bilinear_in_x_and_tangent():
    rng = np.random.default_rng(4)
    X, Y = random_skew(rng, 1.0), random_skew(rng, 1.0)
    pt = rand_point(rng)
    v = rand_tangent(rng, pt)
    assert abs(eval_mu(X + Y, pt, v)
               - eval_mu(X, pt, v) - eval_mu(Y, pt, v)) < 1e-13
    assert eval_mu(np.zeros((4, 4)), pt, v) == 0.0
    assert eval_mu(2.0 * X, pt, v) == 2.0 * eval_mu(X, pt, v)


def test_cochains_are_conjugation_equivariant():
    rng = np.random.default_rng(5)
    g = exp_matrix(random_skew(rng, 2.0))

    def move_pt(pt):
        return GroupPoint(tuple(g @ h @ g.T for h in pt.factors))

    def move_t(t, mpt):
        return Tangent(mpt, tuple(g @ r @ g.T for r in t.reps))

    for _ in range(20):
        pt = rand_point(rng)
        ts = [rand_tangent(rng, pt) for _ in range(3)]
        mpt = move_pt(pt)
        mts = [move_t(t, mpt) for t in ts]
        assert abs(eval_E13(mpt, *mts) - eval_E13(pt, *ts)) < 1e-10
        pt2 = rand_point(rng, 2)
        us = [rand_tangent(rng, pt2) for _ in range(2)]
        mpt2 = move_pt(pt2)
        mus = [move_t(u, mpt2) for u in us]
        assert abs(eval_E22(mpt2, *mus) - eval_E22(pt2, *us)) < 1e-10
        X = random_skew(rng, 1.0)
        v = rand_tangent(rng, pt)
        assert abs(eval_mu(g @ X @ g.T, mpt, move_t(v, mpt))
                   - eval_mu(X, pt, v)) < 1e-10


# ---------------------------------------------------------------------------
# error contracts


def test_level_validation():
    pt2 = identity_point(2)
    t = Tangent(pt2, (E12, E34))
    with pytest.raises(ValueError):
        eval_E13(pt2, t, t, t)
    pt1 = identity_point(1)
    v = Tangent(pt1, (E12,))
    with pytest.raises(ValueError):
        eval_E22(pt1, v, v)
    with pytest.raises(ValueError):
        eval_mu(E12, pt2, t)


def test_base_point_mismatch_rejected():
    rng = np.random.default_rng(6)
    pt = rand_point(rng)
    other = rand_point(rng)
    stray = rand_tangent(rng, other)
    ok = rand_tangent(rng, pt)
    with pytest.raises(ValueError):
        eval_E13(pt, ok, ok, stray)
    with pytest.raises(ValueError):
        eval_mu(E12, pt, stray)
    # a base 5e-6 away is a different point too
    moved = np.eye(4)
    moved[0, 0] += 5e-6
    near = Tangent(GroupPoint((moved,)), (E12,))
    with pytest.raises(ValueError):
        eval_mu(E12, identity_point(1), near)


# ---------------------------------------------------------------------------
# boundary pairing integral


def test_alpha_vanishes_on_equal_and_constant_paths():
    rng = np.random.default_rng(7)
    coeffs = [random_skew(rng, 1.0) for _ in range(3)]
    xi = polynomial_path(coeffs)
    assert eval_alpha(xi, xi) == 0.0
    c1 = polynomial_path([random_skew(rng, 1.0)])
    c2 = polynomial_path([random_skew(rng, 1.0)])
    # both derivatives vanish, so the integrand is identically zero
    assert eval_alpha(c1, c2) == 0.0
    # the empty path is the zero path
    empty = polynomial_path([])
    assert eval_alpha(empty, empty) == 0.0
    assert eval_alpha(empty, xi) == 0.0
    assert eval_alpha(xi, empty) == 0.0


def test_alpha_antisymmetry_random_paths():
    rng = np.random.default_rng(8)
    for _ in range(5):
        xi1 = polynomial_path([random_skew(rng, 1.0) for _ in range(3)])
        xi2 = polynomial_path([random_skew(rng, 1.0) for _ in range(2)])
        a = eval_alpha(xi1, xi2)
        b = eval_alpha(xi2, xi1)
        assert abs(a + b) < 1e-12 * max(1.0, abs(a))


def test_alpha_matches_gauss_legendre_oracle():
    rng = np.random.default_rng(9)
    # quadratic paths (cubic integrand), cubic paths (quintic integrand) and
    # paths of different degrees
    for n1, n2 in [(3, 3)] * 5 + [(4, 4)] * 5 + [(4, 2), (1, 4)]:
        c1 = [random_skew(rng, 1.0) for _ in range(n1)]
        c2 = [random_skew(rng, 1.0) for _ in range(n2)]
        a = eval_alpha(polynomial_path(c1), polynomial_path(c2))
        assert abs(a - oracle_alpha(c1, c2)) < 1e-14 * max(1.0, abs(a))
    # a stack of 6 cubic paths against a stack of 6 quadratic ones
    c1 = [np.stack([random_skew(rng, 1.0) for _ in range(6)])
          for _ in range(4)]
    c2 = [np.stack([random_skew(rng, 1.0) for _ in range(6)])
          for _ in range(3)]
    got = eval_alpha(polynomial_path(c1), polynomial_path(c2))
    assert got.shape == (6,)
    for n, a in enumerate(got):
        want = oracle_alpha([c[n] for c in c1], [c[n] for c in c2])
        assert abs(a - want) < 1e-14 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# the forms of cocycle


def test_form_wrappers_validate_arity():
    e13 = cocycle(np.zeros((4, 4)))[(1, 0)][3]
    pt = identity_point(1)
    v = Tangent(pt, (E12,))
    with pytest.raises(ValueError):
        e13(pt, v)  # needs three tangents
    mu = cocycle(E12)[(1, 0)][1]
    assert abs(mu(pt, Tangent(pt, (E34,))) - MU_GOLDEN) < 1e-12


def test_component_table_lists_the_components_of_cocycle_in_order():
    # ad-invariance and dsl-oracle read COMPONENTS of c, so they read every
    # component of c, and each at its own form's level and degree
    c = cocycle(E12)
    assert list(COMPONENTS.values()) == [
        (key, degree) for key, forms in c.items() for degree in forms]
    for key, degree in COMPONENTS.values():
        form = c[key][degree]
        assert (form.level, 0, form.degree) == (*key, degree)
    for check_id in ("ad-invariance", "dsl-oracle"):
        rows = trial_rows(CheckConfig(check_id, trials=2), range(2))
        assert list(rows) == list(COMPONENTS), check_id
