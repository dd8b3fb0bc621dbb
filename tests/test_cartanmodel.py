"""Tests for the fundamental field, X-twisted differential, and total check."""

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
from nervecheck.formcalc import FormEval, contract, entry, exterior_d, mc_left
from nervecheck.harness import (CheckConfig, DrawTape, run_check,
                                sample_algebra, sample_point, sample_tangents,
                                trial_draws, trial_rows)
from nervecheck.nerve import total_d3
import nervecheck.eulercocycle as eulercocycle
from nervecheck.cartanmodel import (
    equivariant_total_check,
    fundamental_field,
    total_d,
)
from nervecheck.eulercocycle import cocycle

from helpers import (constant_form, digest, nerve_d_prime, rand_point,
                     rand_tangent, random_skew, same_bits,
                     skip_unless_recorded_platform, validate_tangent)

E12 = basis_element(1, 2)
E13 = basis_element(1, 3)
E34 = basis_element(3, 4)


# ---------------------------------------------------------------------------
# fundamental field


def test_fundamental_field_vanishes_at_identity():
    fld = fundamental_field(E12, 2)
    t = fld(identity_point(2))
    for r in t.reps:
        assert np.array_equal(r, np.zeros((4, 4)))


def test_fundamental_field_zero_generator():
    rng = np.random.default_rng(0)
    pt = rand_point(rng, 1)
    t = fundamental_field(np.zeros((4, 4)), 1)(pt)
    assert np.array_equal(t.reps[0], np.zeros((4, 4)))


def test_fundamental_field_value_and_validity():
    rng = np.random.default_rng(1)
    X = random_skew(rng)
    pt = rand_point(rng, 2)
    t = fundamental_field(X, 2)(pt)
    for h, r in zip(pt.factors, t.reps):
        assert np.allclose(r, h @ X - X @ h, atol=1e-15)
    validate_tangent(t)
    with pytest.raises(ValueError):
        fundamental_field(X, 2)(rand_point(rng, 1))


def test_contraction_with_left_mc_form():
    # i_{X#}(left MC entry) = (X - h^T X h)[a, b]
    rng = np.random.default_rng(2)
    X = random_skew(rng)
    fld = fundamental_field(X, 1)
    for (a, b) in ((1, 2), (1, 4), (2, 3)):
        f = contract(entry(mc_left(1, 1), a, b), fld)
        for _ in range(5):
            pt = rand_point(rng, 1)
            h = pt.factors[0]
            want = (X - h.T @ X @ h)[a - 1, b - 1]
            assert abs(f(pt) - want) < 1e-12


def test_fundamental_field_is_conjugation_equivariant():
    # pushing the point by conjugation maps the field of X to the field of gXg^T
    rng = np.random.default_rng(3)
    X = random_skew(rng)
    g = exp_matrix(random_skew(rng, 2.0))
    pt = rand_point(rng, 1)
    moved = GroupPoint(tuple(g @ h @ g.T for h in pt.factors))
    lhs = fundamental_field(g @ X @ g.T, 1)(moved)
    rhs = fundamental_field(X, 1)(pt)
    pushed = tuple(g @ r @ g.T for r in rhs.reps)
    assert max(np.max(np.abs(a - b)) for a, b in zip(lhs.reps, pushed)) < 1e-12


# ---------------------------------------------------------------------------
# the components of the degree-4 cochain c as families in X


def mu(X):
    return cocycle(X)[(1, 0)][1]


def e13(X):
    return cocycle(X)[(1, 0)][3]


def e22(X):
    return cocycle(X)[(2, 0)][2]


def test_equivariant_form_shapes():
    rng = np.random.default_rng(4)
    X = random_skew(rng)
    c, c2 = cocycle(X), cocycle(2.0 * X)
    shapes = {}
    for (p, q), forms in c.items():
        pt = rand_point(rng, p)
        for degree, form in forms.items():
            ts = [rand_tangent(rng, pt) for _ in range(degree)]
            # the polynomial degree k in X from c(2X) = 2^k c(X)
            k = round(np.log2(c2[(p, q)][degree](pt, *ts) / form(pt, *ts)))
            shapes[(p, q), degree] = (form.level, form.degree, k)
    assert shapes == {((1, 0), 3): (1, 3, 0), ((2, 0), 2): (2, 2, 0),
                      ((1, 0), 1): (1, 1, 1)}
    # all three sit in total degree level + form degree + 2 poly degree = 4
    assert {p + d + 2 * k for p, d, k in shapes.values()} == {4}


def test_equivariant_form_polynomial_homogeneity():
    rng = np.random.default_rng(4)
    X = random_skew(rng)
    pt = rand_point(rng, 1)
    t = rand_tangent(rng, pt)
    assert mu(2.0 * X)(pt, t) == 2.0 * mu(X)(pt, t)
    ts = [rand_tangent(rng, pt) for _ in range(3)]
    assert e13(2.0 * X)(pt, *ts) == e13(X)(pt, *ts)  # degree 0 in X


def test_equivariant_forms_are_conjugation_equivariant():
    rng = np.random.default_rng(5)
    X = random_skew(rng)
    g = exp_matrix(random_skew(rng, 2.0))
    pt = rand_point(rng, 1)
    t = rand_tangent(rng, pt)
    moved_pt = GroupPoint(tuple(g @ h @ g.T for h in pt.factors))
    moved_t = Tangent(moved_pt, tuple(g @ r @ g.T for r in t.reps))
    lhs = mu(g @ X @ g.T)(moved_pt, moved_t)
    rhs = mu(X)(pt, t)
    assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# the X-twisted differential: D on a cochain of one level (p, 0), read at
# (p, 0), is (-1)^p (d - i_{X#})


def test_cartan_d_of_constant_vanishes():
    rng = np.random.default_rng(6)
    X = random_skew(rng)
    g = total_d({(1, 0): {0: constant_form(2.0, 1)}}, X)[(1, 0)]
    pt = rand_point(rng, 1)
    t = rand_tangent(rng, pt)
    assert sorted(g) == [1]  # a 0-form has no contraction
    assert abs(g[1](pt, t)) < 1e-9  # d part: FD of a constant


def test_cartan_d_component_degrees():
    rng = np.random.default_rng(7)
    X = random_skew(rng)
    D = total_d({(1, 0): {1: mu(X)}}, X)
    # the degree-k component is keyed k; d' of mu lands on (2, 0)
    assert {k: (f.degree, f.level) for k, f in D[(1, 0)].items()} == {
        0: (0, 1), 2: (2, 1)}
    assert {k: (f.degree, f.level) for k, f in D[(2, 0)].items()} == {
        1: (1, 2)}


def test_cartan_d_raising_part_matches_exterior_d():
    # on a polynomial-degree-0 form the raising part is (-1)^p d
    rng = np.random.default_rng(8)
    X = random_skew(rng)
    g = total_d({(1, 0): {3: e13(X)}}, X, fd_step=1e-5)[(1, 0)]
    d_direct = exterior_d(e13(X), 1e-5)
    pt = rand_point(rng, 1)
    ts = [rand_tangent(rng, pt) for _ in range(4)]
    assert same_bits(g[4](pt, *ts), -d_direct(pt, *ts))


def test_cartan_d_lowering_part_is_minus_contraction():
    # the lowering part is -(-1)^p i_{X#}: +i at p = 1, -i at p = 2
    rng = np.random.default_rng(9)
    X = random_skew(rng)
    for p, form in ((1, e13(X)), (2, e22(X))):
        g = total_d({(p, 0): {form.degree: form}}, X)[(p, 0)]
        want = contract(form, fundamental_field(X, p))
        pt = rand_point(rng, p)
        ts = [rand_tangent(rng, pt) for _ in range(form.degree - 1)]
        sign = 1.0 if p % 2 else -1.0
        assert same_bits(g[form.degree - 1](pt, *ts), sign * want(pt, *ts))


def test_cartan_d_squares_to_zero_on_invariant_forms():
    # D^2 of one level (1, 0), read at (1, 0), is (d - i_{X#})^2
    rng = np.random.default_rng(10)
    X = random_skew(rng)
    for form in (mu(X), e13(X)):
        once = total_d({(1, 0): {form.degree: form}}, X, 1e-5)
        dd = total_d(once, X, 1e-5)[(1, 0)]
        for deg, comp in sorted(dd.items()):
            for _ in range(2):
                pt = rand_point(rng, 1)
                ts = [rand_tangent(rng, pt) for _ in range(deg)]
                assert abs(comp(pt, *ts)) < 1e-4, (deg,)


def test_twisted_d_of_mu_reproduces_contraction_of_e13():
    # degree-2 component of the twisted d of mu equals i_{X#} E(1,3); at
    # p = 1 D reads it as -(d - i_{X#}) mu
    rng = np.random.default_rng(11)
    X = random_skew(rng)
    lhs = total_d({(1, 0): {1: mu(X)}}, X, fd_step=1e-5)[(1, 0)]
    rhs = contract(e13(X), fundamental_field(X, 1))
    worst = 0.0
    for _ in range(5):
        pt = rand_point(rng, 1)
        ts = [rand_tangent(rng, pt) for _ in range(2)]
        worst = max(worst, abs(-lhs[2](pt, *ts) - rhs(pt, *ts)))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# the total differential D = d' + (-1)^p (d - i_{X#})


def test_total_d_is_d_prime_plus_signed_cartan_d():
    # a stacked sample of 8 trials, X stacked alike; d' by the nerve faces
    # of `nerve_d_prime`, d and i_{X#} straight from formcalc
    tape = DrawTape(trial_draws(
        5, "total-d", range(8),
        1 + 1 * (1 + 4 + 2) + 2 * (1 + 3 + 1) + 3 * (1 + 2)))
    X = sample_algebra(tape)
    c = cocycle(X)
    D = total_d(c, X, 1e-5)
    e13, mu, e22 = c[(1, 0)][3], c[(1, 0)][1], c[(2, 0)][2]

    def d(f):
        return exterior_d(f, 1e-5)

    def i(f):
        return contract(f, fundamental_field(X, f.level))

    # level 1: (-1)^1 (d - i) of e13 + mu(X), and nothing from level 0;
    # level 2: d' of e13 + mu(X) plus (d - i) e22; level 3: d' e22 alone
    by_hand = {
        (1, 0): {4: lambda pt, ts: -d(e13)(pt, *ts),
                 2: lambda pt, ts: i(e13)(pt, *ts) - d(mu)(pt, *ts),
                 0: lambda pt, ts: i(mu)(pt, *ts)},
        (2, 0): {3: lambda pt, ts: (nerve_d_prime(e13)(pt, *ts)
                                    + d(e22)(pt, *ts)),
                 1: lambda pt, ts: (nerve_d_prime(mu)(pt, *ts)
                                    - i(e22)(pt, *ts))},
        (3, 0): {2: lambda pt, ts: nerve_d_prime(e22)(pt, *ts)},
    }
    assert sorted(D) == [(1, 0), (2, 0), (3, 0)]
    for key, parts in by_hand.items():
        assert sorted(D[key]) == sorted(parts), key
        pt = sample_point(tape, key[0])
        for degree, want in parts.items():
            ts = sample_tangents(tape, pt, degree)
            got = D[key][degree](pt, *ts)
            assert np.shape(got) == (8,)
            assert same_bits(got, want(pt, ts)), (key, degree)


def test_total_d_is_the_q0_row_of_d3():
    # at X = 0 the contraction vanishes, so every (p, 0) component of D3 c
    # is the component of D c; those of D c that D3 c lacks are
    # contractions and read 0
    tape = DrawTape(trial_draws(6, "total-d", range(8),
                                1 * (1 + 4) + 2 * (1 + 3) + 3 * (1 + 2)))
    X = np.zeros((4, 4))
    c = {(1, 0): {1: entry(mc_left(1, 1), 1, 2), 3: e13(X)},
         (2, 0): {2: e22(X)}}
    D3, D = total_d3(c, 1e-5), total_d(c, X, 1e-5)
    rows = {key: forms for key, forms in D3.items() if key[1] == 0}
    assert sorted(rows) == sorted(D) == [(1, 0), (2, 0), (3, 0)]
    assert sorted((key, deg) for key in D3 if key[1] for deg in D3[key]) == [
        ((1, 1), 1), ((1, 1), 3), ((2, 1), 2)]
    for key, forms in D.items():
        pt = sample_point(tape, key[0])
        ts = sample_tangents(tape, pt, max(forms))
        for degree, form in forms.items():
            got = form(pt, *ts[:degree])
            assert np.shape(got) == (8,)
            if degree in rows[key]:
                assert np.array_equal(
                    got, rows[key][degree](pt, *ts[:degree])), (key, degree)
            else:
                assert np.array_equal(got, np.zeros(8)), (key, degree)


def test_total_d_rejects_keys_off_the_row_and_forms_off_their_level():
    X = random_skew(np.random.default_rng(19))
    omega = entry(mc_left(1, 2), 1, 2)
    with pytest.raises(ValueError, match="keyed"):
        total_d({(1, 1): {1: omega}}, X)
    with pytest.raises(ValueError, match="needs level 1"):
        total_d({(1, 0): {1: omega}}, X)


def test_total_d_evaluates_nothing_until_a_component_is_read():
    def never(pt, ts):
        raise AssertionError("a form was evaluated")

    X = random_skew(np.random.default_rng(18))
    cochain = {(1, 0): {3: FormEval(3, 1, never)},
               (2, 0): {2: FormEval(2, 2, never)}}
    D = total_d(cochain, X)
    assert {key: sorted(forms) for key, forms in D.items()} == {
        (1, 0): [2, 4], (2, 0): [1, 3], (3, 0): [2]}
    with pytest.raises(ValueError):
        total_d({(2, 0): cochain[(1, 0)]}, X)


# ---------------------------------------------------------------------------
# total degree-4 check


# the components a-e of D c on levels 1 and 2, as equivariant-cocycle reads them
COMPONENTS = {"a": ((1, 0), 4), "b": ((1, 0), 2), "c": ((1, 0), 0),
              "d": ((2, 0), 3), "e": ((2, 0), 1)}


def _fixed(rng, points=None, counts=(4, 3)):
    """A sample that hands out one fixed point and tangents per level
    (p, 0), at random points unless `points` gives them by p."""
    drawn = {}
    for level, count in zip((1, 2), counts):
        pt = rand_point(rng, level) if points is None else points[level]
        drawn[(level, 0)] = (pt, tuple(rand_tangent(rng, pt)
                                       for _ in range(count)))
    return lambda key, count: drawn[key]


def _check(X, sample):
    return equivariant_total_check(total_d(cocycle(X), X), sample, COMPONENTS)


def test_total_check_passes_with_unique_signs(monkeypatch):
    rng = np.random.default_rng(12)
    X = random_skew(rng)
    samples = [_fixed(rng) for _ in range(5)]

    def columns():
        results = [_check(X, s) for s in samples]
        return {k: np.array([r[k] for r in results]) for k in results[0]}

    cols = columns()
    tols = {"a": 1e-6, "b": 1e-6, "c": 1e-12, "d": 1e-6, "e": 1e-10}
    assert set(cols) == set(tols)
    for key, tol in tols.items():
        assert cols[key].max() <= tol, (key, cols[key].max())
    # e22 of the other sign is catastrophically worse, not borderline
    real = eulercocycle.eval_E22
    monkeypatch.setattr(eulercocycle, "eval_E22",
                        lambda pt, *ts: -real(pt, *ts))
    wrong = columns()
    for key in "de":
        assert wrong[key].max() > 1e-3, (key, wrong[key].max())


def test_total_check_identity_points_kill_field_terms():
    rng = np.random.default_rng(13)
    X = random_skew(rng)
    s = _fixed(rng, {1: identity_point(1), 2: identity_point(2)})
    res = _check(X, s)
    # the pure-contraction residual is exactly zero at the identity
    assert res["c"] == 0.0
    # (e) cancels by linearity of mu in the tangent slot, up to roundoff
    assert res["e"] < 1e-14
    # (b) is limited only by the FD step in d(mu)
    assert res["b"] < 1e-9


def test_total_check_residuals_scale_homogeneously_in_x():
    rng = np.random.default_rng(14)
    X = random_skew(rng)
    s = _fixed(rng)
    base = _check(X, s)
    double = _check(2.0 * X, s)
    # doubling X doubles the linear-in-X residuals and quadruples (c)
    assert double["b"] == pytest.approx(2.0 * base["b"], rel=1e-9, abs=1e-18)
    assert double["c"] == pytest.approx(4.0 * base["c"], rel=1e-9, abs=1e-18)
    assert double["e"] == pytest.approx(2.0 * base["e"], rel=1e-9, abs=1e-18)
    # the X-free residuals are untouched
    assert double["a"] == base["a"]
    assert double["d"] == base["d"]


def test_total_check_rejects_malformed_samples():
    rng = np.random.default_rng(15)
    X = random_skew(rng)
    bad = _fixed(rng, counts=(3, 3))  # one tangent short at level 1
    with pytest.raises(ValueError):
        _check(X, bad)


def test_total_check_draws_each_level_once_before_the_next():
    # levels in order of first use, each with its highest degree's tangents,
    # and a level's components read before the next level is drawn
    log = []
    real = _fixed(np.random.default_rng(16))

    def sample(level, count):
        log.append(("draw", level, count))
        return real(level, count)

    def form(degree, level):
        def fn(pt, ts):
            log.append(("eval", level, degree))
            return 0.0
        return FormEval(degree, level, fn)

    D = {(1, 0): {d: form(d, 1) for d in (0, 2, 4)},
         (2, 0): {d: form(d, 2) for d in (1, 3)}}
    out = equivariant_total_check(D, sample, {
        "d": ((2, 0), 3), "b": ((1, 0), 2), "e": ((2, 0), 1),
        "a": ((1, 0), 4)})
    assert out == {"d": 0.0, "e": 0.0, "b": 0.0, "a": 0.0}
    assert log == [("draw", (2, 0), 3), ("eval", 2, 3), ("eval", 2, 1),
                   ("draw", (1, 0), 4), ("eval", 1, 2), ("eval", 1, 4)]


# ---------------------------------------------------------------------------
# one chart per factor and tangents within a component read

_FD_IDS = ("mc-structure", "lemma-4.1", "euler-cocycle", "equivariant-cocycle",
           "d-squared")

# sha256 of _columns(check_id, seed), recorded with every chart built anew
# (as under _unscoped), on the platform that gave
# helpers.PLATFORM_PROBE_DIGEST
_FD_DIGESTS = {
    ("mc-structure", 0):
        "40b39eaa7ec215bd5cc0e482abd657678e9bcdd572f2b940dcf6cb119cc2ae5e",
    ("mc-structure", 1):
        "1a3378b820b327c6e82d12fd1b3ffb2bb53a98ca5b036ec0ae956b2cea400b0b",
    ("mc-structure", 2):
        "8585b6f845ba5be2e12cbbd964501a78dcbe5a7945112ecd627a639104277bb1",
    ("mc-structure", 3):
        "0833b5a3dddb9db0d64890209b28e55df6ddf9d9dc89a4a63ea14e3ed9a3c217",
    ("lemma-4.1", 0):
        "3afa24aaaa3ef46517d80613d15277e852cb09b956bb5b2d28177e25ffaca2a5",
    ("lemma-4.1", 1):
        "102c6b4e0e2deff321cbc19eaba4ec7b4fa7b6f2f93e82871758881151f75d0b",
    ("lemma-4.1", 2):
        "29ed532c2590e9213692f56b05a18ecfe5f43ffe8c690ed064962243acb2d00d",
    ("lemma-4.1", 3):
        "3e6da62aef34f67deec5dc889aee12aabc07f690eb6e0064c5935512840700bc",
    ("euler-cocycle", 0):
        "097152d2e6a82a2966f2a98495d9abe10f07c7f4c8ef967c0e611e4bfeb5ed54",
    ("euler-cocycle", 1):
        "1f5fdc4703d40362ec5e4e5da79996a578a36d9cd915c15ea8718d601bae9d8f",
    ("euler-cocycle", 2):
        "59fb09ce3179caf80de5645c754e28d9d5453b69c81cf1f243000dc4e9880c58",
    ("euler-cocycle", 3):
        "1c593704700ac6855933e27ebc40e89c2cdc28732698e2cb615fbe7661aa1823",
    ("equivariant-cocycle", 0):
        "3c14c590c0912b7875e5f4acdb2a773f2226e42f34b4f93f265fb8b912f19b05",
    ("equivariant-cocycle", 1):
        "a27d7f4d37fb9fe8efa99931dbb0148826754baaa411f1c470f8506fa5336899",
    ("equivariant-cocycle", 2):
        "84364ae7a55af7945799089c939f229d3dbcbe74086cc4b1b7d8e200403327de",
    ("equivariant-cocycle", 3):
        "0ffc4864e4edda598652a553d69ede0db3bbd58ff736d578d8803c569a3a4f28",
    ("d-squared", 0):
        "915cc5088c3ac9728b4e81e59690aba05076719d507c4439d44dd46d30df34b9",
    ("d-squared", 1):
        "61e818be61d0f30db53f4124ff6e81f4ac92addcfc69b7888b8fea18c25b4e0f",
    ("d-squared", 2):
        "5976daf04ae880a0abddeadb8a92c55c358cad992dfb1245f610d1380b5d420b",
    ("d-squared", 3):
        "9130ba009216cc89322d75a9cc4f38822c9f3eb9f4f5e9a3776ba5c8f9c8b6c4",
}


def _columns(check_id, seed):
    """The trial_rows columns of a 200-trial run, stacked in sorted order."""
    cols = trial_rows(CheckConfig(check_id, seed=seed), range(200))
    return np.stack([cols[k] for k in sorted(cols)])


def _unscoped(monkeypatch):
    """Read every component with a cache that keeps nothing: no chart is
    shared."""
    monkeypatch.setattr(formcalc, "cached",
                        lambda tag, arrays, compute, *args: compute(*args))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("check_id", _FD_IDS)
def test_shared_charts_give_the_unshared_columns(monkeypatch, check_id,
                                                 seed):
    shared = _columns(check_id, seed)
    _unscoped(monkeypatch)
    assert same_bits(shared, _columns(check_id, seed))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("check_id", _FD_IDS)
def test_fd_check_columns_match_recorded_digests(check_id, seed):
    # where the platform rounds differently, the test above still compares
    # bit for bit
    skip_unless_recorded_platform()
    assert digest(_columns(check_id, seed)) == _FD_DIGESTS[check_id, seed]


@pytest.mark.parametrize("check_id, shared, unshared", [
    ("mc-structure", 1, 1), ("lemma-4.1", 1, 1), ("euler-cocycle", 3, 3),
    ("equivariant-cocycle", 4, 4), ("d-squared", 14, 25)])
def test_chart_exponentials_of_a_run(monkeypatch, check_id, shared,
                                     unshared):
    # one per distinct factor and tangents of each component: in d-squared
    # the terms d'(d w) and d(d' w) of a component differentiate the
    # factors that a face passes through unchanged at the same arrays
    real = formcalc.exp_coords
    calls = []

    def counted(c):
        calls.append(c.shape)
        return real(c)

    monkeypatch.setattr(formcalc, "exp_coords", counted)
    run_check(CheckConfig(check_id, seed=7, trials=200))
    assert len(calls) == shared
    calls.clear()
    _unscoped(monkeypatch)
    run_check(CheckConfig(check_id, seed=7, trials=200))
    assert len(calls) == unshared


def test_chart_memo_is_empty_after_a_run():
    run_check(CheckConfig("d-squared", trials=20))
    assert formcalc._cache.get() is None


def test_chart_memo_is_emptied_when_a_component_raises():
    # the component fills the cache, then raises inside its evaluation
    rng = np.random.default_rng(17)
    d = exterior_d(mc_left(1, 1), 1e-5).fn
    held = []

    def failing(pt, ts):
        d(pt, ts)
        held.append(len(formcalc._cache.get()))
        raise RuntimeError("component failed")

    with pytest.raises(RuntimeError, match="component failed"):
        equivariant_total_check({(1, 0): {2: FormEval(2, 1, failing)}},
                                _fixed(rng), {"x": ((1, 0), 2)})
    assert held == [1]
    assert formcalc._cache.get() is None
