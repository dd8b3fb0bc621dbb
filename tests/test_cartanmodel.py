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
    fld = fundamental_field(E12)
    t = fld(identity_point(2))
    for r in t.reps:
        assert np.array_equal(r, np.zeros((4, 4)))


def test_fundamental_field_zero_generator():
    rng = np.random.default_rng(0)
    pt = rand_point(rng, 1)
    t = fundamental_field(np.zeros((4, 4)))(pt)
    assert np.array_equal(t.reps[0], np.zeros((4, 4)))


def test_fundamental_field_value_and_validity():
    rng = np.random.default_rng(1)
    X = random_skew(rng)
    pt = rand_point(rng, 2)
    t = fundamental_field(X)(pt)
    for h, r in zip(pt.factors, t.reps):
        assert np.allclose(r, h @ X - X @ h, atol=1e-15)
    validate_tangent(t)
    # the field takes the level of the point; a form contracted with it
    # refuses a point of another level
    one = rand_point(rng, 1)
    assert len(fundamental_field(X)(one).reps) == 1
    with pytest.raises(ValueError, match="level-2 form"):
        contract(entry(mc_left(1, 2), 1, 2), fundamental_field(X))(one)


def test_contraction_with_left_mc_form():
    # i_{X#}(left MC entry) = (X - h^T X h)[a, b]
    rng = np.random.default_rng(2)
    X = random_skew(rng)
    fld = fundamental_field(X)
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
    lhs = fundamental_field(g @ X @ g.T)(moved)
    rhs = fundamental_field(X)(pt)
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
        want = contract(form, fundamental_field(X))
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
    rhs = contract(e13(X), fundamental_field(X))
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
    tape = DrawTape(trial_draws(5, "total-d", range(8)))
    X = sample_algebra(tape)
    c = cocycle(X)
    D = total_d(c, X, 1e-5)
    e13, mu, e22 = c[(1, 0)][3], c[(1, 0)][1], c[(2, 0)][2]

    def d(f):
        return exterior_d(f, 1e-5)

    def i(f):
        return contract(f, fundamental_field(X))

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
    tape = DrawTape(trial_draws(6, "total-d", range(8)))
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
    """A sample that hands out one fixed point and tangents per level 1 and
    2, at random points unless `points` gives them by level."""
    drawn = {}
    for level, count in zip((1, 2), counts):
        pt = rand_point(rng, level) if points is None else points[level]
        drawn[level] = (pt, tuple(rand_tangent(rng, pt)
                                  for _ in range(count)))
    return lambda level, count: drawn[level]


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


def test_total_check_draws_the_level_its_forms_name_not_the_key():
    # a key only groups components: e22 keyed (0, 0) is drawn at level 2
    # and mu keyed (5, 3) at level 1, and each reads its own form there
    rng = np.random.default_rng(18)
    X = random_skew(rng)
    drawn = []

    def sample(level, count):
        pt = rand_point(rng, level)
        drawn.append((pt, tuple(rand_tangent(rng, pt) for _ in range(count))))
        return drawn[-1]

    cochain = {(0, 0): {2: e22(X)}, (5, 3): {1: mu(X)}}
    out = equivariant_total_check(cochain, sample, {
        "e22": ((0, 0), 2), "mu": ((5, 3), 1)})
    assert [pt.level for pt, _ in drawn] == [2, 1]
    assert out == {"e22": abs(e22(X)(drawn[0][0], *drawn[0][1])),
                   "mu": abs(mu(X)(drawn[1][0], *drawn[1][1]))}
    # a form of another level than the one drawn for its key is refused
    cochain[(0, 0)][1] = mu(X)
    with pytest.raises(ValueError, match="level-1 form called at a point "
                                         "of level 2"):
        equivariant_total_check(cochain, sample, {
            "e22": ((0, 0), 2), "mu": ((0, 0), 1)})


def test_total_check_draws_each_level_once_before_the_next():
    # keys in order of first use, each drawn at the level of its forms with
    # its highest degree's tangents, and a key's components read before the
    # next key is drawn
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
    assert log == [("draw", 2, 3), ("eval", 2, 3), ("eval", 2, 1),
                   ("draw", 1, 4), ("eval", 1, 2), ("eval", 1, 4)]


# ---------------------------------------------------------------------------
# one chart per factor and tangents within a component read

_FD_IDS = ("mc-structure", "lemma-4.1", "euler-cocycle", "equivariant-cocycle",
           "d-squared")

# sha256 of _columns(check_id, seed), recorded with every chart built anew
# (as under _unscoped), on the platform that gave
# helpers.PLATFORM_PROBE_DIGEST
_FD_DIGESTS = {
    ("mc-structure", 0):
        "8f1e371dd4d987e24e9526ded58d0a22ae13475b55e28f0136766566db174718",
    ("mc-structure", 1):
        "8cb876e113bc95019853dce56d1cae6aaafbb8b53f4c310cce88b36f6b73a91a",
    ("mc-structure", 2):
        "3c42db30c92ee7cf191a55d27e2ddef97df28aa9819512f392bbec4dba0f2ef7",
    ("mc-structure", 3):
        "2b41010336fabf29876ac79e1a9532cb40c5da78adf47a36d85dc6a0f9c224ba",
    ("lemma-4.1", 0):
        "c6db322c3b55c62e70db379fca0bd82e13395591b6edc13d09919a85e01fd9f0",
    ("lemma-4.1", 1):
        "e352f8c8f973b568764fdd7122c73cb7d87c02af5a3456508c16a4859e0de17d",
    ("lemma-4.1", 2):
        "d3d27aea2e87ea5ff8ef94bfc016ea7287e1f743c59a089fcf20a87b66f853ce",
    ("lemma-4.1", 3):
        "98358d588312ff4a079a234e5f737fba276fb8d53ca178166e5496606e3716db",
    ("euler-cocycle", 0):
        "c79d5f1605d1e0cc5d023292117dc58af0cf987b784a3c5608c8f3c5a34722ca",
    ("euler-cocycle", 1):
        "2972b70f4fadf65757c65137440b19ee01062bb997e9594722d59be96efa8762",
    ("euler-cocycle", 2):
        "516ab34caa09339b99ef7ab9f29a4495607a236baf1a0a34963fc08402e8af64",
    ("euler-cocycle", 3):
        "9c78fb9eab604ee1a815953ebb133d5cac4ff11f172e55f246ba4f6d6b95fec0",
    ("equivariant-cocycle", 0):
        "a0c5d7f7c4819fbdf15a88d01675d5c6e791bcfbeaec18661ade4fe719024134",
    ("equivariant-cocycle", 1):
        "ce778e300a059c68bd159720474986a77ffcb12a0f2040ca7df800b3081b8149",
    ("equivariant-cocycle", 2):
        "04cec4ecd469f0b1be478be6b99654cde8af007f601a77bfd8f9f296d580973c",
    ("equivariant-cocycle", 3):
        "51f15f5c8b94ff55d55eee818eb9ec97ae350a5d117c7c35282c77c058235678",
    ("d-squared", 0):
        "42fc2e3626dc86bceab454916f00c9a91011f7e413d53a6ade1b5abb41fecca9",
    ("d-squared", 1):
        "6141d69d1706ad14bb56b24959faaf897994f43262a51048fa447bed46f3c8c2",
    ("d-squared", 2):
        "b45435040180abd7dfd561778ec92f5ee1dec6e032d557f913f25aca367f2653",
    ("d-squared", 3):
        "47908e9b7679095092f26b1a66994e3f49bfedb42c9de5848b008c68d4036dac",
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
