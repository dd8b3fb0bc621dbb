"""Tests for the SO(4) point/tangent layer, skew basis and exponential."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from nervecheck.matrixgroup import (
    BASIS_PAIRS,
    DIM,
    GroupPoint,
    Tangent,
    basis_element,
    basis_so4,
    exp_coords,
    exp_matrix,
    identity_point,
    skew_coords,
    skew_from_coords,
)

from helpers import (exp_two_halves, random_skew, same_bits, sample_so4,
                     validate_point, validate_tangent)


def test_basis_pairs_order_and_count():
    assert BASIS_PAIRS == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert len(basis_so4()) == 6


def test_basis_element_entries():
    e = basis_element(1, 2)
    assert e[0, 1] == 1.0 and e[1, 0] == -1.0
    assert np.count_nonzero(e) == 2
    e34 = basis_element(3, 4)
    assert e34[2, 3] == 1.0 and e34[3, 2] == -1.0


def test_basis_element_rejects_bad_pairs():
    with pytest.raises(ValueError):
        basis_element(2, 1)
    with pytest.raises(ValueError):
        basis_element(1, 5)
    with pytest.raises(ValueError):
        basis_element(3, 3)


def test_skew_from_coords_roundtrip():
    coords = np.array([1.0, -2.0, 0.5, 3.0, -1.5, 0.25])
    m = skew_from_coords(coords)
    assert np.allclose(m, -m.T)
    # upper-triangle entries follow the BASIS_PAIRS order
    got = [m[a - 1, b - 1] for (a, b) in BASIS_PAIRS]
    assert np.allclose(got, coords)


def test_exp_of_zero_is_identity():
    assert np.array_equal(exp_matrix(np.zeros((DIM, DIM))), np.eye(DIM))


def test_exp_of_planar_rotation_matches_closed_form():
    theta = 0.3
    g = exp_matrix(theta * basis_element(1, 2))
    expect = np.eye(DIM)
    expect[0, 0] = expect[1, 1] = math.cos(theta)
    expect[0, 1] = math.sin(theta)
    expect[1, 0] = -math.sin(theta)
    assert np.max(np.abs(g - expect)) < 1e-14
    # quarter turn: the (1,2) block becomes [[0,1],[-1,0]], rows 3,4 untouched
    q = exp_matrix((math.pi / 2.0) * basis_element(1, 2))
    want = np.eye(DIM)
    want[0, 0] = want[1, 1] = 0.0
    want[0, 1], want[1, 0] = 1.0, -1.0
    assert np.max(np.abs(q - want)) < 1e-14


def test_exp_matrix_lands_in_so4():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = exp_matrix(random_skew(rng, scale=2.0))
        assert np.max(np.abs(g.T @ g - np.eye(DIM))) < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


def _exp_cases():
    """Random skews over six scales, plus skews built from their self-dual
    part u (on E12+E34, E13-E24, E14+E23) and anti-self-dual part v (on
    E12-E34, E13+E24, E14-E23) with one half zero or of length near pi."""
    rng = np.random.default_rng(31)
    cases = [random_skew(rng, scale) for scale in (1e-9, 1e-5, 1e-3, 1.0, 2.0, 5.0)
             for _ in range(20)]

    def from_halves(u, v):
        a12, a34 = u[0] + v[0], u[0] - v[0]
        a13, a24 = u[1] + v[1], v[1] - u[1]
        a14, a23 = u[2] + v[2], u[2] - v[2]
        return skew_from_coords([a12, a13, a14, a23, a24, a34])

    def direction():
        d = rng.normal(size=3)
        return d / np.linalg.norm(d)

    zero = np.zeros(3)
    for theta in (1e-9, 0.5, math.pi - 1e-6, math.pi, math.pi + 1e-6):
        cases.append(from_halves(theta * direction(), zero))
        cases.append(from_halves(zero, theta * direction()))
        cases.append(from_halves(theta * direction(), rng.uniform(-1, 1, 3)))
        cases.append(from_halves(rng.uniform(-1, 1, 3), theta * direction()))
    return cases


def test_exp_matrix_matches_pade_exponential():
    # scipy's scaling-and-squaring Pade exponential is the reference; its own
    # error reaches about 7e-14 at scale 5, the closed form's stays near 1e-15
    for a in _exp_cases():
        assert np.max(np.abs(exp_matrix(a) - expm(a))) <= 1e-13


def test_stacked_exp_matrix_matches_pade_exponential_slice_by_slice():
    cases = np.stack(_exp_cases())
    got = exp_matrix(cases)
    assert got.shape == cases.shape
    for a, g in zip(cases, got):
        assert np.max(np.abs(g - expm(a))) <= 1e-13
    # any number of stack axes, and the same numbers as one at a time
    grid = cases[:40].reshape(2, 20, DIM, DIM)
    assert np.array_equal(exp_matrix(grid).reshape(40, DIM, DIM), got[:40])
    assert np.array_equal(np.stack([exp_matrix(a) for a in cases]), got)


def test_stacked_exp_matrix_rejects_one_bad_member():
    stack = np.stack([0.3 * basis_element(1, 2)] * 5)
    for k, bad in ((3, np.eye(DIM)), (2, np.full((DIM, DIM), math.nan))):
        members = stack.copy()
        members[k] = bad
        with pytest.raises(ValueError, match="skew-symmetric"):
            exp_matrix(members)
    members = stack.copy()
    members[4, 0, 1] = math.nan
    with pytest.raises(ValueError, match="skew-symmetric"):
        exp_matrix(members)
    for shape in ((5, 3, 3), (DIM,), (DIM, 3)):
        with pytest.raises(ValueError, match="need a 4x4 matrix"):
            exp_matrix(np.zeros(shape))


def _both_entry_points_match_the_two_halves(coords):
    """exp_coords(c) and exp_matrix of the skew matrix of c give the bits of
    the half-at-a-time reference."""
    want = exp_two_halves(skew_from_coords(coords))
    assert same_bits(exp_coords(coords), want)
    assert same_bits(exp_matrix(skew_from_coords(coords)), want)


@pytest.mark.parametrize("shape", [(6,), (3, 6), (2, 5, 6)])
@pytest.mark.parametrize("scale", [1e-9, 1e-5, 1e-3, 1.0, 2.0, 5.0])
def test_exp_entry_points_equal_the_two_half_reference(shape, scale):
    # scale 1e-5 is that of exterior_d's charts, 2 that of the samplers
    rng = np.random.default_rng(7)
    _both_entry_points_match_the_two_halves(
        scale * rng.uniform(-1.0, 1.0, shape))


def test_exp_entry_points_equal_the_reference_at_the_sinc_switch():
    # 2t E12 has both halves of length t, exactly: t runs from the last
    # doubles below the 1e-4 switch of the sinc series to those above it,
    # alone and mixed with random directions of the same length
    ts = [1e-4]
    for _ in range(3):
        ts = [np.nextafter(ts[0], 0.0)] + ts + [np.nextafter(ts[-1], 1.0)]
    ts = np.array(ts + [0.99e-4, 1.01e-4])
    planar = np.zeros((ts.size, 6))
    planar[:, 0] = 2.0 * ts
    _both_entry_points_match_the_two_halves(planar)
    rng = np.random.default_rng(13)
    d = rng.normal(size=(ts.size, 6))
    d *= (2.0 * ts / np.linalg.norm(d, axis=-1))[:, None]
    _both_entry_points_match_the_two_halves(d)
    _both_entry_points_match_the_two_halves(np.stack([planar, d]))


def test_exp_entry_points_of_zero_are_the_identity():
    for shape in [(6,), (3, 6), (2, 5, 6)]:
        _both_entry_points_match_the_two_halves(np.zeros(shape))
        assert same_bits(exp_coords(np.zeros(shape)),
                         np.broadcast_to(np.eye(DIM), shape[:-1] + (4, 4)))


def test_exp_entry_points_reject_bad_arguments_with_their_messages():
    with pytest.raises(ValueError) as err:
        exp_matrix(np.eye(DIM))
    assert str(err.value) == "exp_matrix expects a skew-symmetric argument"
    nan = np.zeros((3, DIM, DIM))
    nan[1, 2, 3] = math.nan
    with pytest.raises(ValueError) as err:
        exp_matrix(nan)
    assert str(err.value) == "exp_matrix expects a skew-symmetric argument"
    with pytest.raises(ValueError) as err:
        exp_matrix(np.zeros((2, DIM, 3)))
    assert str(err.value) == "need a 4x4 matrix, got shape (2, 4, 3)"
    for shape in [(5,), (2, 7), (DIM, DIM)]:
        with pytest.raises(ValueError) as err:
            exp_coords(np.zeros(shape))
        assert str(err.value) == "need exactly six coordinates"


def test_stacked_points_and_tangents_validate():
    rng = np.random.default_rng(21)
    h = exp_matrix(np.stack([random_skew(rng, 2.0) for _ in range(6)]))
    pt = validate_point(GroupPoint((h, h[::-1])))
    validate_tangent(Tangent(pt, (h @ basis_element(1, 3),
                                  h[::-1] @ basis_element(2, 4))))
    bad = h.copy()
    bad[2] *= 2.0
    with pytest.raises(ValueError):
        validate_point(GroupPoint((h, bad)))
    rep = h @ basis_element(1, 3)
    rep[5] = np.eye(DIM)
    with pytest.raises(ValueError):
        validate_tangent(Tangent(GroupPoint((h,)), (rep,)))


def test_skew_from_coords_on_a_stack():
    coords = np.arange(12.0).reshape(2, 6)
    m = skew_from_coords(coords)
    assert m.shape == (2, DIM, DIM)
    for c, one in zip(coords, m):
        assert np.array_equal(one, skew_from_coords(c))
    with pytest.raises(ValueError):
        skew_from_coords(np.zeros((2, 5)))


def test_skew_coords_inverts_skew_from_coords_on_a_stack():
    coords = np.arange(36.0).reshape(2, 3, 6) - 17.5
    assert np.array_equal(skew_coords(skew_from_coords(coords)), coords)


def test_exp_matrix_orthogonality_defect_is_roundoff():
    for a in _exp_cases():
        g = exp_matrix(a)
        assert np.max(np.abs(g.T @ g - np.eye(DIM))) <= 4e-15


def test_exp_matrix_rejects_non_skew():
    with pytest.raises(ValueError):
        exp_matrix(np.eye(DIM))


def test_group_point_validation():
    validate_point(identity_point(3))
    assert identity_point(3).level == 3
    # level 0 (the one-point space) is legal
    assert validate_point(GroupPoint(())).level == 0
    with pytest.raises(ValueError):
        validate_point(GroupPoint((np.eye(DIM) * 2.0,)))
    with pytest.raises(ValueError):
        validate_point(GroupPoint((np.eye(3),)))


def test_tangent_validation():
    pt = sample_so4(9)
    h = pt.factors[0]
    validate_tangent(Tangent(pt, (h @ basis_element(1, 3),)))
    with pytest.raises(ValueError):
        # identity rep is not tangent to SO(4) at h
        validate_tangent(Tangent(pt, (np.eye(DIM),)))
    with pytest.raises(ValueError):
        validate_tangent(Tangent(pt, (h @ basis_element(1, 3),
                                      h @ basis_element(1, 2))))


def test_sample_so4_is_deterministic():
    a = sample_so4(42)
    b = sample_so4(42)
    c = sample_so4(43)
    assert a.level == 1
    assert np.array_equal(a.factors[0], b.factors[0])
    assert np.max(np.abs(a.factors[0] - c.factors[0])) > 1e-3
    validate_point(a)


def _bracket(x, y):
    return x @ y - y @ x


def test_commutator_table():
    e12 = basis_element(1, 2)
    e13 = basis_element(1, 3)
    e14 = basis_element(1, 4)
    e23 = basis_element(2, 3)
    e34 = basis_element(3, 4)
    assert np.array_equal(_bracket(e12, e23), e13)
    assert np.array_equal(_bracket(e12, e13), -e23)
    assert np.array_equal(_bracket(e13, e23), -e12)
    assert np.array_equal(_bracket(e13, e14), -e34)
    assert np.array_equal(_bracket(e12, e34), np.zeros((DIM, DIM)))


def test_adjoint_derivative_is_commutator():
    # d/dt|_0  exp(tY) X exp(-tY)  =  [Y, X]
    rng = np.random.default_rng(23)
    step = 1e-5
    for _ in range(5):
        x = random_skew(rng, scale=1.0)
        y = random_skew(rng, scale=1.0)
        plus, minus = exp_matrix(step * y), exp_matrix(-step * y)
        fd = (plus @ x @ plus.T - minus @ x @ minus.T) / (2.0 * step)
        assert np.max(np.abs(fd - _bracket(y, x))) < 1e-8


def test_sample_so4_seeds_give_distinct_points():
    points = [sample_so4(seed).factors[0] for seed in range(1, 101)]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            assert np.linalg.norm(points[i] - points[j]) > 1e-6


def test_random_skew_scale_and_shape():
    rng = np.random.default_rng(1)
    m = random_skew(rng, scale=0.5)
    assert m.shape == (DIM, DIM)
    assert np.allclose(m, -m.T)
    assert np.max(np.abs(m)) <= 0.5 + 1e-12
