"""Tests for scalar forms on SO(4)^n: Maurer-Cartan entries, wedge, d, pullback."""

import itertools

import numpy as np
import pytest

import nervecheck.formcalc as formcalc
from nervecheck.matrixgroup import (
    GroupPoint,
    Tangent,
    basis_element,
    exp_matrix,
    identity_point,
)
from nervecheck.formcalc import (
    FormEval,
    SmoothMap,
    contract,
    entry,
    exterior_d,
    matrix_wedge_square,
    mc_left,
    mc_right,
    pullback,
    wedge,
)
from nervecheck.eulercocycle import eval_E13

from helpers import (constant_form, left_invariant_field, rand_point,
                     rand_tangent, random_skew, sample_so4, zero_form)
from oracles import fd_directional, fd_map_differential, wedge_oracle

E12 = basis_element(1, 2)
E13 = basis_element(1, 3)
E23 = basis_element(2, 3)
E34 = basis_element(3, 4)


# ---------------------------------------------------------------------------
# Maurer-Cartan matrix forms


def test_mc_left_at_identity_returns_rep():
    pt = identity_point(1)
    t = Tangent(pt, (E12,))
    assert np.array_equal(mc_left(1, 1)(pt, t), E12)
    assert np.array_equal(mc_right(1, 1)(pt, t), E12)


def test_mc_left_strips_left_translation():
    h = sample_so4(11).factors[0]
    pt = GroupPoint((h,))
    x = basis_element(2, 4)
    t = Tangent(pt, (h @ x,))
    assert np.max(np.abs(mc_left(1, 1)(pt, t) - x)) < 1e-13


def test_mc_left_conjugates_right_translation():
    h = sample_so4(12).factors[0]
    pt = GroupPoint((h,))
    x = basis_element(1, 4)
    t = Tangent(pt, (x @ h,))
    assert np.max(np.abs(mc_left(1, 1)(pt, t) - h.T @ x @ h)) < 1e-13


def test_mc_right_strips_right_translation():
    h = sample_so4(13).factors[0]
    pt = GroupPoint((h,))
    x = basis_element(1, 3)
    t = Tangent(pt, (x @ h,))
    assert np.max(np.abs(mc_right(1, 1)(pt, t) - x)) < 1e-13


def test_mc_right_conjugates_left_translation():
    h = sample_so4(14).factors[0]
    pt = GroupPoint((h,))
    x = basis_element(2, 3)
    t = Tangent(pt, (h @ x,))
    assert np.max(np.abs(mc_right(1, 1)(pt, t) - h @ x @ h.T)) < 1e-13


def test_mc_values_are_skew():
    rng = np.random.default_rng(15)
    for _ in range(10):
        pt = rand_point(rng, 2)
        t = rand_tangent(rng, pt)
        for k in (1, 2):
            left = mc_left(k, 2)(pt, t)
            right = mc_right(k, 2)(pt, t)
            assert np.max(np.abs(left + left.T)) < 1e-13
            assert np.max(np.abs(right + right.T)) < 1e-13


def test_mc_factor_selection_on_products():
    rng = np.random.default_rng(3)
    pt = rand_point(rng, 3)
    x = basis_element(2, 3)
    reps = [np.zeros((4, 4)) for _ in range(3)]
    reps[1] = pt.factors[1] @ x
    t = Tangent(pt, tuple(reps))
    assert np.max(np.abs(mc_left(2, 3)(pt, t) - x)) < 1e-13
    assert np.max(np.abs(mc_left(1, 3)(pt, t))) < 1e-15


def test_mc_factor_index_validation():
    with pytest.raises(ValueError):
        mc_left(0, 2)
    with pytest.raises(ValueError):
        mc_left(3, 2)
    with pytest.raises(ValueError):
        mc_right(1, 0)


def test_entry_values_at_identity():
    pt = identity_point(1)
    t = Tangent(pt, (E12,))
    om = mc_left(1, 1)
    assert entry(om, 1, 2)(pt, t) == 1.0
    assert entry(om, 2, 1)(pt, t) == -1.0
    assert entry(om, 3, 4)(pt, t) == 0.0
    with pytest.raises(ValueError):
        entry(om, 0, 2)
    with pytest.raises(ValueError):
        entry(om, 1, 5)


# ---------------------------------------------------------------------------
# wedge


def test_wedge_vanishes_on_repeated_tangent():
    f = entry(mc_left(1, 1), 1, 2)
    g = entry(mc_left(1, 1), 3, 4)
    w = wedge(f, g)
    rng = np.random.default_rng(7)
    pt = rand_point(rng)
    v = rand_tangent(rng, pt)
    assert w(pt, v, v) == 0.0


def test_wedge_of_orthogonal_entries():
    f = entry(mc_left(1, 1), 1, 2)
    g = entry(mc_left(1, 1), 3, 4)
    pt = identity_point(1)
    v = Tangent(pt, (E12,))
    w = Tangent(pt, (E34,))
    assert wedge(f, g)(pt, v, w) == 1.0
    assert wedge(f, g)(pt, w, v) == -1.0


def test_wedge_graded_commutativity():
    om = mc_left(1, 1)
    one_a = entry(om, 1, 2)
    one_b = entry(om, 1, 3)
    two = wedge(entry(om, 2, 3), entry(om, 2, 4))
    rng = np.random.default_rng(8)
    pt = rand_point(rng)
    ts = [rand_tangent(rng, pt) for _ in range(4)]
    # (1,1): anti-commute
    assert abs(wedge(one_a, one_b)(pt, *ts[:2])
               + wedge(one_b, one_a)(pt, *ts[:2])) < 1e-15
    # (1,2): commute
    assert abs(wedge(one_a, two)(pt, *ts[:3])
               - wedge(two, one_a)(pt, *ts[:3])) < 1e-15
    # (2,2): commute
    assert abs(wedge(two, two)(pt, *ts)
               - wedge(two, two)(pt, *ts)) < 1e-15


def test_wedge_matches_antisymmetrization_oracle():
    om = mc_left(1, 1)
    cases = [
        (entry(om, 1, 2), 1, entry(om, 3, 4), 1),
        (entry(om, 1, 3), 1, wedge(entry(om, 1, 2), entry(om, 2, 4)), 2),
        (wedge(entry(om, 1, 2), entry(om, 1, 3)), 2,
         wedge(entry(om, 2, 3), entry(om, 3, 4)), 2),
    ]
    rng = np.random.default_rng(9)
    for f, r, g, s in cases:
        w = wedge(f, g)
        for _ in range(5):
            pt = rand_point(rng)
            ts = [rand_tangent(rng, pt) for _ in range(r + s)]
            got = w(pt, *ts)
            want = wedge_oracle(lambda p, *v: f(p, *v), r,
                                lambda p, *v: g(p, *v), s)(pt, *ts)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_wedge_degree_bookkeeping():
    om = mc_left(1, 1)
    w = wedge(entry(om, 1, 2), entry(om, 3, 4))
    assert w.degree == 2
    with pytest.raises(ValueError):
        wedge(entry(om, 1, 2), entry(mc_left(1, 2), 1, 2))  # level mismatch


def test_matrix_wedge_square_commutator_entry():
    om = mc_left(1, 1)
    sq = matrix_wedge_square(om)
    pt = identity_point(1)
    v = Tangent(pt, (E12,))
    w = Tangent(pt, (E23,))
    val = sq(pt, v, w)
    # [E12, E23] has a single upper-triangle entry at (1,3)
    assert val[0, 2] == 1.0
    assert np.array_equal(val, -val.T)
    assert np.max(np.abs(sq(pt, v, v))) == 0.0


def test_matrix_wedge_square_bilinear():
    om = mc_left(1, 1)
    sq = matrix_wedge_square(om)
    rng = np.random.default_rng(10)
    pt = rand_point(rng)
    a = rand_tangent(rng, pt)
    b = rand_tangent(rng, pt)
    scaled = Tangent(pt, tuple(2.0 * r for r in a.reps))
    assert np.allclose(sq(pt, scaled, b), 2.0 * sq(pt, a, b), atol=1e-14)
    summed = Tangent(pt, tuple(x + y for x, y in zip(a.reps, b.reps)))
    assert np.allclose(sq(pt, summed, b), sq(pt, a, b) + sq(pt, b, b),
                       atol=1e-13)


# ---------------------------------------------------------------------------
# alternation / multilinearity probes


def _check_alternating_multilinear(form, level, rng, rel_tol=1e-10, probes=20):
    for _ in range(probes):
        pt = rand_point(rng, level)
        ts = [rand_tangent(rng, pt) for _ in range(form.degree)]
        base = form(pt, *ts)
        scale = max(1.0, abs(base))
        if form.degree >= 2:
            swapped = [ts[1], ts[0]] + ts[2:]
            assert abs(form(pt, *swapped) + base) < rel_tol * scale
        lam = 1.7
        scaled = [Tangent(pt, tuple(lam * r for r in ts[0].reps))] + ts[1:]
        assert abs(form(pt, *scaled) - lam * base) < rel_tol * scale


def test_wedge_products_are_alternating_multilinear():
    om = mc_left(1, 1)
    rng = np.random.default_rng(21)
    _check_alternating_multilinear(wedge(entry(om, 1, 2), entry(om, 3, 4)), 1, rng)
    _check_alternating_multilinear(
        wedge(entry(om, 1, 3), wedge(entry(om, 1, 2), entry(om, 2, 4))), 1, rng)


def test_every_fold_value_starts_from_a_positive_term():
    # `_fold_step` never negates a value's first term: it takes the first
    # sorted r-subset of the value's tangents, their r smallest, so the
    # shuffle is even.  Checked over the 5,015 plans of 2-6 factors of
    # degrees 0-3 with total degree n <= 12.  A step of a plan depends on
    # it only through n and the step's (r, s), so each plan that reaches a
    # new (n, r, s) is built, uncached; they reach all 290 of them.
    seen = set()
    for k in range(2, 7):
        for degrees in itertools.product(range(4), repeat=k):
            n = sum(degrees)
            steps = {(n, r, s) for r, s in zip(itertools.accumulate(degrees),
                                                degrees[1:])}
            if n > 12 or steps <= seen:
                continue
            seen |= steps
            for values in formcalc._fold_steps.__wrapped__(degrees):
                assert not any(negative for (_, _, negative), *_ in values), \
                    degrees
    assert len(seen) == 290


# ---------------------------------------------------------------------------
# exterior derivative


def test_exterior_d_of_zero_is_zero():
    d = exterior_d(zero_form(1, 1), 1e-5)
    rng = np.random.default_rng(14)
    pt = rand_point(rng)
    assert d(pt, rand_tangent(rng, pt), rand_tangent(rng, pt)) == 0.0


def test_exterior_d_degree0_analytic():
    # f(h) = h[1,1]^2 has df(v) = 2 h[1,1] v[1,1]
    f = FormEval(0, 1, lambda pt, ts: pt.factors[0][..., 0, 0] ** 2)
    df = exterior_d(f, 1e-5)
    rng = np.random.default_rng(15)
    for _ in range(5):
        pt = rand_point(rng)
        t = rand_tangent(rng, pt)
        want = 2.0 * pt.factors[0][0, 0] * t.reps[0][0, 0]
        assert abs(df(pt, t) - want) < 1e-9


def test_exterior_d_structural_equation():
    # d omega + omega wedge omega = 0 entrywise for the left MC form
    om = mc_left(1, 1)
    sq = matrix_wedge_square(om)
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(10):
        pt = rand_point(rng)
        v = rand_tangent(rng, pt)
        w = rand_tangent(rng, pt)
        for (a, b) in ((1, 2), (1, 3), (2, 4), (3, 4)):
            d_ab = exterior_d(entry(om, a, b), 1e-5)
            resid = abs(d_ab(pt, v, w) + sq(pt, v, w)[a - 1, b - 1])
            worst = max(worst, resid)
    assert worst < 1e-6


def test_exterior_d_halving_ratio():
    om = mc_left(1, 1)
    sq = matrix_wedge_square(om)
    d_base = exterior_d(entry(om, 1, 2), 1e-4)
    d_half = exterior_d(entry(om, 1, 2), 5e-5)
    rng = np.random.default_rng(17)
    e_base, e_half = 0.0, 0.0
    for _ in range(20):
        pt = rand_point(rng)
        v = rand_tangent(rng, pt)
        w = rand_tangent(rng, pt)
        truth = -sq(pt, v, w)[0, 1]
        e_base = max(e_base, abs(d_base(pt, v, w) - truth))
        e_half = max(e_half, abs(d_half(pt, v, w) - truth))
    assert 2.5 <= e_base / e_half <= 6.0


def test_exterior_d_of_a_bi_invariant_form_is_second_order():
    # the bi-invariant 3-form is closed; in the chart of exterior_d its
    # central differences keep their O(h^2) truncation, so the residual
    # falls by 4 at each halving of the step
    e13 = FormEval(3, 1, lambda pt, ts: eval_E13(pt, *ts))
    pt, ts = _stacked_sample(np.random.default_rng(70), 1, 4, 100)
    errs = [np.max(np.abs(exterior_d(e13, h)(pt, *ts)))
            for h in (1e-3, 5e-4, 2.5e-4)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_exterior_d_squared_small():
    f = entry(mc_left(1, 1), 1, 2)
    dd = exterior_d(exterior_d(f, 1e-5), 1e-5)
    rng = np.random.default_rng(18)
    pt = rand_point(rng)
    ts = [rand_tangent(rng, pt) for _ in range(3)]
    assert abs(dd(pt, *ts)) < 1e-4


def test_exterior_d_rejects_bad_step():
    f = entry(mc_left(1, 1), 1, 2)
    with pytest.raises(ValueError):
        exterior_d(f, 1e-8)
    with pytest.raises(ValueError):
        exterior_d(f, 1e-2)


# ---------------------------------------------------------------------------
# contraction


def test_contract_left_invariant_field_gives_constant():
    fld = left_invariant_field(E34, 1)
    om = mc_left(1, 1)
    rng = np.random.default_rng(19)
    for _ in range(5):
        pt = rand_point(rng)
        assert abs(contract(entry(om, 3, 4), fld)(pt) - 1.0) < 1e-12
        assert abs(contract(entry(om, 1, 2), fld)(pt)) < 1e-12


def test_contract_repeated_slot_vanishes():
    om = mc_left(1, 1)
    w = wedge(entry(om, 1, 2), entry(om, 1, 3))
    fld = left_invariant_field(E12, 1)
    g = contract(contract(w, fld), fld)
    rng = np.random.default_rng(20)
    pt = rand_point(rng)
    assert g(pt) == 0.0


def test_contract_linear_in_field():
    om = mc_left(1, 1)
    f = entry(om, 2, 3)
    fa = left_invariant_field(E12, 1)
    fb = left_invariant_field(E23, 1)

    def fsum(pt):
        ta, tb = fa(pt), fb(pt)
        return Tangent(pt, tuple(x + y for x, y in zip(ta.reps, tb.reps)))

    rng = np.random.default_rng(22)
    pt = rand_point(rng)
    got = contract(f, fsum)(pt)
    want = contract(f, fa)(pt) + contract(f, fb)(pt)
    assert abs(got - want) < 1e-13


def test_contract_rejects_degree_zero():
    with pytest.raises(ValueError):
        contract(constant_form(1.0, 1), left_invariant_field(E12, 1))


# ---------------------------------------------------------------------------
# pullback


def _mul_map():
    def apply(p):
        return GroupPoint((p.factors[0] @ p.factors[1],))

    def diff(p, t):
        return (t.reps[0] @ p.factors[1] + p.factors[0] @ t.reps[1],)

    return SmoothMap(2, 1, apply, diff)


def test_pullback_identity_map_is_identity():
    ident = SmoothMap(1, 1, lambda p: p, lambda p, t: t.reps)
    f = wedge(entry(mc_left(1, 1), 1, 2), entry(mc_left(1, 1), 3, 4))
    pb = pullback(f, ident)
    rng = np.random.default_rng(23)
    pt = rand_point(rng)
    v, w = rand_tangent(rng, pt), rand_tangent(rng, pt)
    assert pb(pt, v, w) == f(pt, v, w)


def test_multiplication_diff_matches_fd_oracle():
    m = _mul_map()
    rng = np.random.default_rng(24)
    for _ in range(5):
        pt = rand_point(rng, 2)
        t = rand_tangent(rng, pt)
        got = m.diff(pt, t)
        want = fd_map_differential(m, t, 1e-5)
        err = max(np.max(np.abs(a - b)) for a, b in zip(got, want.reps))
        assert err < 1e-7


def test_pullback_through_multiplication():
    m = _mul_map()
    f = entry(mc_left(1, 1), 1, 3)
    pb = pullback(f, m)
    rng = np.random.default_rng(25)
    pt = rand_point(rng, 2)
    t = rand_tangent(rng, pt)
    image = m.apply(pt)
    assert abs(pb(pt, t) - f(image, Tangent(image, m.diff(pt, t)))) < 1e-15


def test_pullback_functoriality():
    m = _mul_map()

    def inv_apply(p):
        return GroupPoint((p.factors[0].T,))

    def inv_diff(p, t):
        return (t.reps[0].T,)

    inv = SmoothMap(1, 1, inv_apply, inv_diff)
    comp = SmoothMap(2, 1,
                     lambda p: inv_apply(m.apply(p)),
                     lambda p, t: inv_diff(m.apply(p),
                                           Tangent(m.apply(p), m.diff(p, t))))
    f = wedge(entry(mc_left(1, 1), 1, 2), entry(mc_left(1, 1), 2, 3))
    lhs = pullback(f, comp)
    rhs = pullback(pullback(f, inv), m)
    rng = np.random.default_rng(26)
    pt = rand_point(rng, 2)
    v, w = rand_tangent(rng, pt), rand_tangent(rng, pt)
    assert abs(lhs(pt, v, w) - rhs(pt, v, w)) < 1e-12


def test_pullback_commutes_with_wedge():
    m = _mul_map()
    f = entry(mc_left(1, 1), 1, 2)
    g = entry(mc_right(1, 1), 3, 4)
    lhs = pullback(wedge(f, g), m)
    rhs = wedge(pullback(f, m), pullback(g, m))
    rng = np.random.default_rng(27)
    pt = rand_point(rng, 2)
    v, w = rand_tangent(rng, pt), rand_tangent(rng, pt)
    assert abs(lhs(pt, v, w) - rhs(pt, v, w)) < 1e-12


def test_pullback_level_mismatch():
    m = _mul_map()
    with pytest.raises(ValueError):
        pullback(entry(mc_left(1, 2), 1, 2), m)  # form lives on level 2, map lands on 1


# ---------------------------------------------------------------------------
# FormEval arithmetic


def test_form_arithmetic_and_errors():
    om = mc_left(1, 1)
    f = entry(om, 1, 2)
    g = entry(om, 1, 3)
    rng = np.random.default_rng(28)
    pt = rand_point(rng)
    t = rand_tangent(rng, pt)
    assert (f + g)(pt, t) == f(pt, t) + g(pt, t)
    assert (f - g)(pt, t) == f(pt, t) - g(pt, t)
    assert (-f)(pt, t) == -f(pt, t)
    assert (2.5 * f)(pt, t) == 2.5 * f(pt, t)
    with pytest.raises(ValueError):
        _ = f + wedge(f, g)  # degree mismatch
    with pytest.raises(ValueError):
        f(pt, t, t)  # arity mismatch


# ---------------------------------------------------------------------------
# stacked points


def _oracle_d(form, factors, coords, step=1e-5):
    """d form at one point on the right-invariant fields with per-factor
    coordinates `coords` (one tuple per slot): the field derivatives by
    oracles.fd_directional, the bracket terms exactly."""

    def value(fs, slots):
        pt = GroupPoint(tuple(fs))
        return form.fn(pt, tuple(
            Tangent(pt, tuple(x @ h for x, h in zip(c, fs))) for c in slots))

    total = 0.0
    for i, xi in enumerate(coords):
        others = coords[:i] + coords[i + 1:]
        total += (-1) ** i * fd_directional(
            lambda fs: value(fs, others), factors, xi, step)
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            bracket = tuple(xj @ xi - xi @ xj
                            for xi, xj in zip(coords[i], coords[j]))
            rest = [c for k, c in enumerate(coords) if k not in (i, j)]
            total += (-1) ** (i + j) * value(factors, [bracket] + rest)
    return total


def _checked_forms():
    """(level, the form as a function of X) for forms the checks differentiate."""
    from nervecheck.eulercocycle import cocycle
    from nervecheck.nerve import d_triple_complex

    omega = mc_left(1, 1)
    return [
        (1, lambda X: entry(omega, 1, 2)),
        (1, lambda X: entry(omega, 3, 1)),
        (1, lambda X: cocycle(X)[(1, 0)][1]),
        (1, lambda X: cocycle(X)[(1, 0)][3]),
        (2, lambda X: cocycle(X)[(2, 0)][2]),
        (2, lambda X: d_triple_complex(entry(omega, 1, 2), 1, "d'")),
        (2, lambda X: entry(mc_left(1, 2), 1, 2)
         + 2.0 * entry(mc_right(2, 2), 1, 3)),
    ]


@pytest.mark.parametrize("case", range(7))
def test_stacked_exterior_d_matches_fd_oracle_slice_by_slice(case):
    level, make = _checked_forms()[case]
    rng = np.random.default_rng(40 + case)
    n = 5
    factors = tuple(exp_matrix(np.stack([random_skew(rng, 2.0)
                                         for _ in range(n)]))
                    for _ in range(level))
    X = np.stack([random_skew(rng, 1.0) for _ in range(n)])
    pt = GroupPoint(factors)
    form = make(X)
    coords = [tuple(np.stack([random_skew(rng, 1.0) for _ in range(n)])
                    for _ in range(level)) for _ in range(form.degree + 1)]
    ts = [Tangent(pt, tuple(x @ h for x, h in zip(c, factors)))
          for c in coords]
    got = exterior_d(form, 1e-5)(pt, *ts)
    assert got.shape == (n,)
    for k in range(n):
        want = _oracle_d(make(X[k]), tuple(h[k] for h in factors),
                         [tuple(x[k] for x in c) for c in coords])
        assert abs(got[k] - want) <= 1e-8 * max(1.0, abs(want)), (k, got[k],
                                                                   want)


def test_stacked_forms_check_the_base_point():
    rng = np.random.default_rng(47)
    stack = exp_matrix(np.stack([random_skew(rng, 2.0) for _ in range(4)]))
    pt = GroupPoint((stack,))
    t = Tangent(pt, (stack @ E12,))
    form = entry(mc_left(1, 1), 1, 2)
    assert form(pt, t).shape == (4,)
    moved = stack.copy()
    moved[2] = moved[1]
    with pytest.raises(ValueError, match="based at the evaluation point"):
        form(GroupPoint((moved,)), t)


def test_base_point_check_has_no_relative_tolerance():
    # a base 5e-6 away from the evaluation point is rejected, though it
    # lies within a relative tolerance of 1e-5 of an entry of size 1
    pt = identity_point(1)
    moved = np.eye(4)
    moved[0, 0] += 5e-6
    t = Tangent(GroupPoint((moved,)), (E12,))
    form = entry(mc_left(1, 1), 1, 2)
    with pytest.raises(ValueError, match="based at the evaluation point"):
        form(pt, t)
    # within the 1e-9 absolute tolerance it is the same point
    moved[0, 0] = 1.0 + 1e-10
    assert form(pt, t) == 1.0


# ---------------------------------------------------------------------------
# exterior_d evaluates the form once, on all its steps stacked


def _degree_forms(level: int):
    """A real form of each degree 0..3 on SO(4)^level."""
    a = entry(mc_left(1, level), 1, 2) + entry(mc_right(level, level), 2, 3)
    b = entry(mc_left(level, level), 3, 4)
    c = entry(mc_right(1, level), 1, 4)
    return [
        FormEval(0, level, lambda pt, ts: (pt.factors[0] @ pt.factors[-1])
                 [..., 0, 1]),
        a,
        wedge(a, b),
        wedge(wedge(a, b), c),
    ]


def _stacked_sample(rng, level: int, count: int, stack):
    """A point of SO(4)^level and `count` tangents there, each factor and
    rep of shape (stack, 4, 4), or (4, 4) when stack is None."""
    shape = () if stack is None else (stack,)
    factors = tuple(exp_matrix(np.stack([random_skew(rng, 2.0)
                                         for _ in range(stack or 1)])
                               .reshape(shape + (4, 4)))
                    for _ in range(level))
    pt = GroupPoint(factors)
    ts = [Tangent(pt, tuple(h @ np.stack([random_skew(rng, 1.0)
                                          for _ in range(stack or 1)])
                            .reshape(shape + (4, 4)) for h in factors))
          for _ in range(count)]
    return pt, ts


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("stack", [None, 3])
def test_exterior_d_evaluates_its_form_once(degree, stack):
    # the chart's coordinate fields commute, so no bracket term evaluates
    # the form: one call, at the 2(r+1) steps stacked
    level = 2
    form = _degree_forms(level)[degree]
    calls = []

    def counted(pt, ts):
        calls.append(pt.factors[0].shape)
        return form.fn(pt, ts)

    pt, ts = _stacked_sample(np.random.default_rng(68 + degree), level,
                             degree + 1, stack)
    shape = () if stack is None else (stack,)
    got = exterior_d(FormEval(degree, level, counted), 1e-5)(pt, *ts)
    assert calls == [(2 * (degree + 1),) + shape + (4, 4)]
    assert np.array_equal(got, exterior_d(form, 1e-5)(pt, *ts))


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("stack", [None, 3])
def test_exterior_d_makes_one_exponential_per_factor(monkeypatch, degree,
                                                     stack):
    import nervecheck.formcalc as formcalc

    real = formcalc.exp_matrix
    calls = []

    def counted(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(formcalc, "exp_matrix", counted)
    rng = np.random.default_rng(60 + degree)
    level = 2
    shape = () if stack is None else (stack,)
    pt, ts = _stacked_sample(rng, level, degree + 1, stack)
    factors = pt.factors
    form = _degree_forms(level)[degree]
    got = exterior_d(form, 1e-5)(pt, *ts)
    # one call per factor, on the r+1 steps +h X_i only: the -h steps are
    # their transposes
    assert calls == [(degree + 1,) + shape + (4, 4)] * level
    assert np.shape(got) == shape
    for k in range(stack or 1):
        pick = (lambda m: m) if stack is None else (lambda m: m[k])
        want = _oracle_d(form, tuple(pick(h) for h in factors),
                         [tuple(pick(v) @ pick(h).T
                                for v, h in zip(t.reps, factors))
                          for t in ts])
        value = got if stack is None else got[k]
        assert abs(value - want) <= 1e-8 * max(1.0, abs(want))


def _recording(form, seen):
    """form, recording the stepped point and tangents of every call."""
    def fn(pt, ts):
        seen.append((pt, ts))
        return form.fn(pt, ts)

    return FormEval(form.degree, form.level, fn)


def _evaluation(body):
    """A 0-form on SO(4)^2 whose one evaluation returns body(pt): every
    form that body calls joins that evaluation and shares its cache."""
    return FormEval(0, 2, lambda pt, ts: body(pt))


def test_a_chart_is_shared_within_a_scope_and_rejects_writes():
    # a chart is shared only at the same factor, tangent reps and step
    rng = np.random.default_rng(69)
    pt, ts = _stacked_sample(rng, 2, 4, 3)
    cases = [(1e-5, ts[:2]), (1e-5, ts[:2]), (1e-5, ts[2:]), (2e-5, ts[:2])]
    form = mc_left(2, 2)
    unshared = [exterior_d(form, step)(pt, *pair) for step, pair in cases]
    seen = []
    recorded = _recording(form, seen)

    def body(pt):
        shared = [exterior_d(recorded, step)(pt, *pair)
                  for step, pair in cases]
        assert len(formcalc._cache.get()) == 2 * 3
        return shared

    shared = _evaluation(body)(pt)
    assert formcalc._cache.get() is None
    assert all(np.array_equal(a, b) for a, b in zip(shared, unshared))
    (at, (t,)), (again, (u,)) = seen[:2]
    assert all(a is b for a, b in zip(at.factors, again.factors))
    assert all(a is b for a, b in zip(t.reps, u.reps))
    for a in at.factors + t.reps:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0, 0] = 0.0


def _counted_exponentials(monkeypatch) -> list:
    """The shapes of every exp_matrix call that formcalc makes from now."""
    real = formcalc.exp_matrix
    calls = []

    def counted(x):
        calls.append(x.shape)
        return real(x)

    monkeypatch.setattr(formcalc, "exp_matrix", counted)
    return calls


def test_exterior_d_outside_a_scope_caches_nothing(monkeypatch):
    calls = _counted_exponentials(monkeypatch)
    rng = np.random.default_rng(70)
    pt, ts = _stacked_sample(rng, 2, 2, 3)
    seen = []
    form = exterior_d(_recording(mc_left(2, 2), seen), 1e-5)
    # composition calls .fn, which opens no cache
    form.fn(pt, tuple(ts))
    form.fn(pt, tuple(ts))
    assert formcalc._cache.get() is None
    # each evaluation builds both factors' charts anew
    assert len(calls) == 4
    (at, _), (again, _) = seen
    assert not any(a is b for a, b in zip(at.factors, again.factors))


def test_a_nested_call_joins_the_outer_evaluation(monkeypatch):
    # two nested calls of one derivative share the outer call's cache and
    # build each factor's chart once; two outer calls build them twice
    calls = _counted_exponentials(monkeypatch)
    rng = np.random.default_rng(71)
    pt, ts = _stacked_sample(rng, 2, 2, 3)
    d = exterior_d(mc_left(2, 2), 1e-5)
    caches = []

    def body(pt):
        caches.append(formcalc._cache.get())
        first = d(pt, *ts)
        caches.append(formcalc._cache.get())
        return first, d(pt, *ts)

    first, second = _evaluation(body)(pt)
    assert len(calls) == 2
    assert caches[0] is caches[1] and len(caches[0]) == 2
    assert formcalc._cache.get() is None
    alone = d(pt, *ts)
    assert len(calls) == 4
    assert np.array_equal(first, alone) and np.array_equal(second, alone)


def test_the_cache_is_none_after_a_nested_call_raises():
    # a nested call that raises leaves the outer cache in place; the outer
    # call that it raises through drops it
    rng = np.random.default_rng(72)
    pt, ts = _stacked_sample(rng, 2, 2, 3)
    d = exterior_d(mc_left(2, 2), 1e-5)
    held = []

    def failing(pt, _):
        d(pt, *ts)
        held.append(len(formcalc._cache.get()))
        raise RuntimeError("nested call failed")

    inner = FormEval(0, 2, failing)

    def body(pt):
        outer = formcalc._cache.get()
        with pytest.raises(RuntimeError, match="nested call failed"):
            inner(pt)
        assert formcalc._cache.get() is outer
        inner(pt)

    with pytest.raises(RuntimeError, match="nested call failed"):
        _evaluation(body)(pt)
    assert held == [2, 2]
    assert formcalc._cache.get() is None


@pytest.mark.parametrize("stack", [None, 4])
def test_exterior_d_of_point_independent_forms(stack):
    # a constant or zero form returns a scalar whatever the point's stack;
    # the step axis is broadcast, and the derivative is exactly zero
    rng = np.random.default_rng(66)
    n = stack or 1
    h = exp_matrix(np.stack([random_skew(rng, 2.0) for _ in range(n)]))
    h = h if stack else h[0]
    pt = GroupPoint((h, h.mT))
    t = Tangent(pt, (h @ E12, h.mT @ E34))
    for form in (constant_form(2.5, 2), zero_form(0, 2)):
        got = exterior_d(form, 1e-5)(pt, t)
        assert np.all(np.asarray(got) == 0.0)
    u = Tangent(pt, (h @ E13, h.mT @ E23))
    assert np.all(np.asarray(exterior_d(zero_form(1, 2), 1e-5)(pt, t, u))
                  == 0.0)


def test_exterior_d_of_a_matrix_form_matches_its_entries():
    # the matrix-valued route carries the 4x4 axes behind the step axis:
    # each entry equals the scalar route bit for bit, and the structural
    # equation d omega + omega^2 = 0 holds
    rng = np.random.default_rng(67)
    stack = exp_matrix(np.stack([random_skew(rng, 2.0) for _ in range(3)]))
    pt = GroupPoint((stack,))
    v = Tangent(pt, (stack @ np.stack([random_skew(rng, 1.0)
                                       for _ in range(3)]),))
    w = Tangent(pt, (stack @ np.stack([random_skew(rng, 1.0)
                                       for _ in range(3)]),))
    omega = mc_left(1, 1)
    d_omega = exterior_d(omega, 1e-5)(pt, v, w)
    assert d_omega.shape == (3, 4, 4)
    for a in range(4):
        for b in range(4):
            scalar = exterior_d(entry(omega, a + 1, b + 1), 1e-5)(pt, v, w)
            assert np.array_equal(d_omega[..., a, b], scalar)
    square = matrix_wedge_square(omega)(pt, v, w)
    assert np.max(np.abs(d_omega + square)) < 1e-8
