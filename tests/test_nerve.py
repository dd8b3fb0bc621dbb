"""Tests for nerve face/degeneracy maps and the double/triple complex."""

import itertools
from functools import partial

import numpy as np
import pytest

from nervecheck.matrixgroup import (
    GroupPoint,
    Tangent,
    basis_element,
    exp_matrix,
    identity_point,
)
from nervecheck.formcalc import FormEval, SmoothMap, entry, mc_left, mc_right
import nervecheck.nerve as nerve
from nervecheck.nerve import (
    bi_form_from_flat,
    d_triple_complex,
    degeneracy_ng,
    face_ng,
    face_ng_diff,
    face_pg,
    gamma,
    horizontal_face,
    horizontal_face_diff,
    total_d3,
    vertical_face,
    vertical_face_diff,
)
from nervecheck.formcalc import exterior_d

from helpers import (constant_form, nerve_d_prime, rand_point, rand_tangent,
                     random_skew, same_bits, validate_tangent)
from oracles import fd_map_differential


def _max_dev(reps, t):
    """The largest entry deviation of the reps of a differential from the
    tangent t."""
    return max(np.max(np.abs(a - b)) for a, b in zip(reps, t.reps))


# ---------------------------------------------------------------------------
# faces and degeneracies of the multiplicative nerve


def test_face_examples_level2():
    rng = np.random.default_rng(0)
    pt = rand_point(rng, 2)
    g1, g2 = pt.factors
    assert np.array_equal(face_ng(0, pt).factors[0], g2)
    assert np.array_equal(face_ng(1, pt).factors[0], g1 @ g2)
    assert np.array_equal(face_ng(2, pt).factors[0], g1)
    with pytest.raises(ValueError):
        face_ng(3, pt)
    with pytest.raises(ValueError):
        face_ng(-1, pt)


def test_face_diff_at_identity():
    pt = identity_point(2)
    x = basis_element(1, 2)
    y = basis_element(3, 4)
    zero = np.zeros((4, 4))
    reps = face_ng_diff(1, pt, Tangent(pt, (x, zero)))
    assert np.array_equal(reps[0], x)
    reps = face_ng_diff(1, pt, Tangent(pt, (x, y)))
    assert np.array_equal(reps[0], x + y)


def test_face_diff_matches_fd_oracle():
    rng = np.random.default_rng(1)
    for level in (2, 3):
        for i in range(level + 1):
            m = SmoothMap(level, level - 1, partial(face_ng, i),
                          partial(face_ng_diff, i))
            pt = rand_point(rng, level)
            t = rand_tangent(rng, pt)
            got = m.diff(pt, t)
            want = fd_map_differential(m, t, 1e-5)
            assert _max_dev(got, want) < 1e-7


def test_degeneracy_inserts_identity():
    rng = np.random.default_rng(2)
    pt = rand_point(rng, 2)
    up = degeneracy_ng(1, pt)
    assert up.level == 3
    assert np.array_equal(up.factors[0], pt.factors[0])
    assert np.array_equal(up.factors[1], np.eye(4))
    assert np.array_equal(up.factors[2], pt.factors[1])


def test_degeneracies_of_one_stack_shape_share_a_read_only_identity():
    # the harness skips factors that are one array on both sides, so two
    # degeneracies must insert the very same identity into points of a shape
    stack = GroupPoint((np.stack([np.eye(4)] * 5),) * 2)
    one = degeneracy_ng(0, stack).factors[0]
    assert one.shape == (5, 4, 4) and not one.flags.writeable
    assert np.array_equal(one, np.broadcast_to(np.eye(4), (5, 4, 4)))
    assert degeneracy_ng(2, degeneracy_ng(1, stack)).factors[1] is one
    assert degeneracy_ng(2, degeneracy_ng(1, stack)).factors[2] is one
    bare = degeneracy_ng(0, GroupPoint(()))
    assert bare.factors[0].shape == (4, 4)
    assert degeneracy_ng(1, bare).factors[1] is bare.factors[0]


def test_face_degeneracy_identities():
    # eps_i o eta_i = id = eps_{i+1} o eta_i
    rng = np.random.default_rng(3)
    for q in (1, 2, 3):
        pt = rand_point(rng, q)
        for i in range(q + 1):
            up = degeneracy_ng(i, pt)
            for j in (i, i + 1):
                back = face_ng(j, up)
                dev = max(np.max(np.abs(a - b))
                          for a, b in zip(back.factors, pt.factors))
                assert dev < 1e-13


def test_simplicial_face_face_identity():
    # eps_i o eps_j = eps_{j-1} o eps_i for i < j
    rng = np.random.default_rng(4)
    for q in (2, 3, 4):
        pt = rand_point(rng, q)
        for j in range(1, q + 1):
            for i in range(j):
                lhs = face_ng(i, face_ng(j, pt))
                rhs = face_ng(j - 1, face_ng(i, pt))
                devs = [np.max(np.abs(a - b))
                        for a, b in zip(lhs.factors, rhs.factors)]
                assert max(devs, default=0.0) < 1e-13


def test_faces_commute_with_conjugation():
    rng = np.random.default_rng(5)
    h = exp_matrix(random_skew(rng, 2.0))
    for q in (2, 3):
        pt = rand_point(rng, q)
        conj = GroupPoint(tuple(h @ g @ h.T for g in pt.factors))
        for i in range(q + 1):
            lhs = face_ng(i, conj)
            rhs = GroupPoint(tuple(h @ g @ h.T for g in face_ng(i, pt).factors))
            dev = max(np.max(np.abs(a - b))
                      for a, b in zip(lhs.factors, rhs.factors))
            assert dev < 1e-13


# ---------------------------------------------------------------------------
# the group-element model and the comparison map


def test_face_pg_deletes_factor():
    rng = np.random.default_rng(6)
    pt = rand_point(rng, 2)
    g1, g2 = pt.factors
    assert np.array_equal(face_pg(0, pt).factors[0], g2)
    assert np.array_equal(face_pg(1, pt).factors[0], g1)
    with pytest.raises(ValueError):
        face_pg(2, pt)


def test_gamma_values():
    rng = np.random.default_rng(7)
    g = exp_matrix(random_skew(rng, 2.0))
    out = gamma(GroupPoint((g, g)))
    assert out.level == 1
    assert np.max(np.abs(out.factors[0] - np.eye(4))) < 1e-13
    pt = rand_point(rng, 2)
    out = gamma(pt)
    assert np.max(np.abs(out.factors[0]
                         - pt.factors[0] @ pt.factors[1].T)) < 1e-13


def test_gamma_intertwines_faces():
    # gamma o (delete factor i) = eps_i o gamma
    rng = np.random.default_rng(8)
    for q in (1, 2, 3):
        pt = rand_point(rng, q + 1)
        for i in range(q + 1):
            lhs = gamma(face_pg(i, pt))
            rhs = face_ng(i, gamma(pt))
            devs = [np.max(np.abs(a - b))
                    for a, b in zip(lhs.factors, rhs.factors)]
            assert max(devs, default=0.0) < 1e-13


# ---------------------------------------------------------------------------
# the nerve maps, exhaustively and exactly: on signed permutation matrices
# every product and transpose is exact in float64, so the simplicial
# identities hold bit for bit and need no tolerance


def _signed_permutations() -> np.ndarray:
    """The 192 signed 4x4 permutation matrices of determinant +1."""
    mats = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            m = np.zeros((4, 4))
            m[range(4), perm] = signs
            if round(np.linalg.det(m)) == 1:
                mats.append(m)
    return np.array(mats)


def _exact_mismatches() -> tuple[int, list]:
    """(comparisons, mismatches) of the nerve maps of `nerve`, looked up
    at call time, on stacks of 16 points whose factors are drawn from the
    signed permutations: every face, degeneracy and gamma identity of
    every index, starting at every level up to 6, and each face
    and gamma image against its factors."""
    mats = _signed_permutations()
    assert len(mats) == 192
    rng = np.random.default_rng(12)
    face, degeneracy = nerve.face_ng, nerve.degeneracy_ng
    count, bad = 0, []

    def point(level):
        return GroupPoint(tuple(mats[rng.integers(len(mats), size=16)]
                                for _ in range(level)))

    def same(a, b, *what):
        # by broadcasting: a level-0 point has no stack shape, so a
        # degeneracy of it inserts one 4x4 identity
        nonlocal count
        count += 1
        if a.level != b.level or not all(
                np.all(x == y) for x, y in zip(a.factors, b.factors)):
            bad.append(what)

    for q in range(7):
        pt = point(q)
        g = pt.factors
        # each face: an end dropped, or the middle product g_{i-1} g_i
        for i in range(q + 1 if q else 0):
            want = (g[1:] if i == 0 else g[:-1] if i == q
                    else g[:i - 1] + (g[i - 1] @ g[i],) + g[i + 1:])
            same(face(i, pt), GroupPoint(want), "face", q, i)
        # gamma: the quotients g_k g_{k+1}^T
        if q:
            same(nerve.gamma(pt), GroupPoint(tuple(
                g[k] @ g[k + 1].mT for k in range(q - 1))), "gamma", q)
        # eps_i eps_j = eps_{j-1} eps_i for i < j
        for j in range(1, q + 1 if q >= 2 else 0):
            for i in range(j):
                same(face(i, face(j, pt)), face(j - 1, face(i, pt)),
                     "face-face", q, i, j)
        # eta_i eta_j = eta_{j+1} eta_i for i <= j
        for j in range(q + 1):
            for i in range(j + 1):
                same(degeneracy(i, degeneracy(j, pt)),
                     degeneracy(j + 1, degeneracy(i, pt)),
                     "degeneracy-degeneracy", q, i, j)
        # eps_i eta_j in every index position
        for j in range(q + 1):
            lifted = degeneracy(j, pt)
            for i in range(q + 2):
                if i in (j, j + 1):
                    want = pt
                elif i < j:
                    want = degeneracy(j - 1, face(i, pt))
                else:
                    want = degeneracy(j, face(i - 1, pt))
                same(face(i, lifted), want, "face-degeneracy", q, i, j)
        # gamma o (delete factor i) = eps_i o gamma on the path level q,
        # which has q + 1 factors
        if q:
            path = point(q + 1)
            for i in range(q + 1):
                same(nerve.gamma(nerve.face_pg(i, path)),
                     face(i, nerve.gamma(path)), "gamma-face", q, i)
    return count, bad


def test_nerve_maps_are_exact_on_signed_permutations():
    count, bad = _exact_mismatches()
    # over q = 0..6: 27 face and 6 gamma images, 55 face/face, 84
    # degeneracy/degeneracy, 168 face/degeneracy and 27 gamma/face pairs
    assert count == 367
    assert bad == []


def _swapped_face(i, pt):
    g = pt.factors
    if 0 < i < pt.level:
        return GroupPoint(g[:i - 1] + (g[i] @ g[i - 1],) + g[i + 1:])
    return face_ng(i, pt)


def _shifted_face(i, pt):
    # the middle face i multiplies g_i g_{i+1}, where there is a g_{i+1}
    return face_ng(i + 1 if 0 < i < pt.level - 1 else i, pt)


def _degeneracy_one_up(i, pt):
    return degeneracy_ng(min(i + 1, pt.level), pt)


def _other_gamma(pt):
    g = pt.factors
    return GroupPoint(tuple(g[k].mT @ g[k + 1] for k in range(pt.level - 1)))


@pytest.mark.parametrize("name, defect", [
    ("face_ng", _swapped_face), ("face_ng", _shifted_face),
    ("degeneracy_ng", _degeneracy_one_up), ("gamma", _other_gamma)],
    ids=["swapped-product", "shifted-middle-face", "degeneracy-at-i+1",
         "gamma-inverse-first"])
def test_a_defect_in_the_nerve_maps_fails_the_exact_test(monkeypatch, name,
                                                         defect):
    monkeypatch.setattr(nerve, name, defect)
    _, bad = _exact_mismatches()
    assert bad


# ---------------------------------------------------------------------------
# bisimplicial structure: level (p, q) is the flat point SO(4)^(p+q)


def test_vertical_face_drop_and_multiply():
    rng = np.random.default_rng(9)
    bp = rand_point(rng, 3)  # (p, q) = (1, 2)
    x, g1, g2 = bp.factors
    out0 = vertical_face(0, 1, bp)
    assert np.array_equal(out0.factors[1], g2)
    assert np.array_equal(out0.factors[0], x)
    out1 = vertical_face(1, 1, bp)
    assert np.array_equal(out1.factors[1], g1 @ g2)


def test_vertical_face_top_acts_by_conjugation():
    rng = np.random.default_rng(10)
    bp = rand_point(rng, 2)  # (p, q) = (1, 1)
    x, g = bp.factors
    out = vertical_face(1, 1, bp)
    assert out.level == 1  # q = 0
    assert np.max(np.abs(out.factors[0] - g @ x @ g.T)) < 1e-14


def test_vertical_face_identity_actors_fix_point():
    rng = np.random.default_rng(12)
    x = rand_point(rng, 1)
    bp = GroupPoint(x.factors + identity_point(1).factors)
    out = vertical_face(1, 1, bp)
    assert np.max(np.abs(out.factors[0] - x.factors[0])) < 1e-14


def test_vertical_face_diff_matches_fd():
    rng = np.random.default_rng(13)
    for (p, q) in ((1, 1), (1, 2), (2, 2)):
        bp = rand_point(rng, p + q)
        t = rand_tangent(rng, bp)
        for i in range(q + 1):
            got = vertical_face_diff(i, p, bp, t)

            def curve(s):
                return vertical_face(i, p, GroupPoint(tuple(
                    exp_matrix(s * (r @ h.T)) @ h
                    for r, h in zip(t.reps, bp.factors))))

            eps = 1e-5
            plus, minus = curve(eps), curve(-eps)
            fd = tuple((a - b) / (2 * eps)
                       for a, b in zip(plus.factors, minus.factors))
            dev = max([np.max(np.abs(a - b)) for a, b in zip(got, fd)]
                      or [0.0])
            assert dev < 1e-7


def test_bisimplicial_face_diffs_match_fd_oracle():
    # every horizontal and vertical face, as a SmoothMap on the flat point,
    # against central differences along scipy's expm
    rng = np.random.default_rng(23)
    for (p, q) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        level = p + q
        faces = [SmoothMap(level, level - 1,
                           partial(horizontal_face, i, p),
                           partial(horizontal_face_diff, i, p))
                 for i in range(p + 1)]
        faces += [SmoothMap(level, level - 1, partial(vertical_face, i, p),
                            partial(vertical_face_diff, i, p))
                  for i in range(q + 1)]
        pt = rand_point(rng, level)
        t = rand_tangent(rng, pt)
        for m in faces:
            got = m.diff(pt, t)
            image = m.apply(pt)
            assert len(got) == image.level == level - 1
            validate_tangent(Tangent(image, got), 1e-12)
            want = fd_map_differential(m, t, 1e-5)
            assert _max_dev(got, want) < 1e-7


def test_bisimplicial_faces_reject_bad_indices_and_splits():
    rng = np.random.default_rng(25)
    pt = rand_point(rng, 3)
    with pytest.raises(ValueError):
        horizontal_face(0, 4, pt)  # split beyond the level
    with pytest.raises(ValueError):
        horizontal_face(2, 1, pt)  # nerve face index beyond p
    with pytest.raises(ValueError):
        vertical_face(0, 3, pt)  # no actors
    with pytest.raises(ValueError):
        vertical_face(3, 1, pt)  # vertical face index beyond q


# ---------------------------------------------------------------------------
# double complex


def test_d_prime_of_constant_vanishes():
    # d' on the nerve is d' of the triple complex on the row q = 0
    c = constant_form(3.25, 0)
    dc = d_triple_complex(c, 0, "d'")
    rng = np.random.default_rng(15)
    pt = rand_point(rng, 1)
    assert dc(pt) == 0.0
    assert dc(pt) == nerve_d_prime(c)(pt)


def test_d_prime_squared_vanishes():
    f = entry(mc_left(1, 1), 1, 2)
    ddf = d_triple_complex(d_triple_complex(f, 1, "d'"), 2, "d'")
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(5):
        pt = rand_point(rng, 3)
        t = rand_tangent(rng, pt)
        worst = max(worst, abs(ddf(pt, t)))
        assert same_bits(ddf(pt, t), nerve_d_prime(nerve_d_prime(f))(pt, t))
    assert worst < 1e-12


def test_d_double_prime_parity():
    # the de Rham differential d''' of the triple complex is (-1)^(p+q) d,
    # whatever the split p; on the nerve (q = 0) it is the vertical
    # differential of the double complex
    rng = np.random.default_rng(17)
    # even level: +d
    f0 = entry(mc_left(1, 2), 1, 2) + entry(mc_right(2, 2), 1, 3)
    pt = rand_point(rng, 2)
    v, w = rand_tangent(rng, pt), rand_tangent(rng, pt)
    for p in (0, 1, 2):
        assert (d_triple_complex(f0, p, "d'''")(pt, v, w)
                == exterior_d(f0, 1e-5)(pt, v, w))
    # odd level: -d
    f1 = entry(mc_left(1, 1), 2, 3)
    pt1 = rand_point(rng, 1)
    v1, w1 = rand_tangent(rng, pt1), rand_tangent(rng, pt1)
    for p in (0, 1):
        assert (d_triple_complex(f1, p, "d'''")(pt1, v1, w1)
                == -exterior_d(f1, 1e-5)(pt1, v1, w1))


def test_double_complex_total_differential_squares_to_zero():
    # on the nerve (q = 0) D3^2 holds the blocks of (d' + d'')^2: d'd' at
    # (3, 0), the mixed block d'd''' + d'''d' at (2, 0) and d'''d''' at
    # (1, 0)
    f = entry(mc_left(1, 1), 1, 2)
    sq = total_d3(total_d3({(1, 0): {1: f}}))
    mixed, dd = sq[(2, 0)][2], sq[(1, 0)][3]
    rng = np.random.default_rng(18)
    worst_mixed, worst_dd = 0.0, 0.0
    for _ in range(5):
        pt = rand_point(rng, 2)
        v, w = rand_tangent(rng, pt), rand_tangent(rng, pt)
        worst_mixed = max(worst_mixed, abs(mixed(pt, v, w)))
        pt1 = rand_point(rng, 1)
        ts = [rand_tangent(rng, pt1) for _ in range(3)]
        worst_dd = max(worst_dd, abs(dd(pt1, *ts)))
    assert worst_mixed < 1e-4
    assert worst_dd < 1e-4


# ---------------------------------------------------------------------------
# triple complex

# how far each differential moves p
_P_STEP = {"d'": 1, "d''": 0, "d'''": 0}


def _flat_probe():
    return entry(mc_left(1, 2), 1, 2) + 2.0 * entry(mc_right(2, 2), 1, 3)


def _compose(f, p, first, second):
    """second applied after first to the form f at (p, level - p)."""
    return d_triple_complex(d_triple_complex(f, p, first),
                            p + _P_STEP[first], second)


def test_bi_form_roundtrip_and_validation():
    flat = _flat_probe()
    bi = bi_form_from_flat(flat, 1, 1)
    assert bi is flat
    rng = np.random.default_rng(19)
    bp = rand_point(rng, 2)
    t = rand_tangent(rng, bp)
    assert bi(bp, t) == flat(bp, t)
    with pytest.raises(ValueError):
        bi_form_from_flat(_flat_probe(), 2, 1)  # 2 + 1 != form level
    with pytest.raises(ValueError):
        bi(bp, t, t)
    with pytest.raises(ValueError, match=r"keyed \(2, 1\) needs level 3"):
        total_d3({(2, 1): {1: flat}})


def test_triple_forms_check_the_base_point():
    bi = bi_form_from_flat(_flat_probe(), 1, 1)
    rng = np.random.default_rng(24)
    for which in ("d'", "d''", "d'''"):
        g = d_triple_complex(bi, 1, which)
        bp = rand_point(rng, g.level)
        ts = [rand_tangent(rng, bp) for _ in range(g.degree)]
        g(bp, *ts)
        elsewhere = rand_tangent(rng, rand_point(rng, g.level))
        with pytest.raises(ValueError, match="not based"):
            g(bp, *ts[:-1], elsewhere)


def test_triple_differentials_pairwise_anticommute():
    bi = bi_form_from_flat(_flat_probe(), 1, 1)
    rng = np.random.default_rng(20)
    pairs = [("d'", "d''"), ("d'", "d'''"), ("d''", "d'''")]
    for first, second in pairs:
        ab = _compose(bi, 1, first, second)
        ba = _compose(bi, 1, second, first)
        bp = rand_point(rng, ab.level)
        ts = [rand_tangent(rng, bp) for _ in range(ab.degree)]
        assert abs(ab(bp, *ts) + ba(bp, *ts)) < 1e-4


def test_triple_total_differential_squares_to_zero():
    # the nine second-order blocks of (d' + d'' + d''')^2 on a (1,1) probe
    # land in six (p, q, degree) components of total_d3 applied twice; each
    # is the sum of its hand-composed blocks, bit for bit, and vanishes
    probe = _flat_probe()
    sq = total_d3(total_d3({(1, 1): {1: probe}}))
    kinds = ("d'", "d''", "d'''")
    blocks = {}
    for a in kinds:
        for b in kinds:
            g = _compose(probe, 1, a, b)
            p = 1 + _P_STEP[a] + _P_STEP[b]
            blocks.setdefault(((p, g.level - p), g.degree), []).append(g)
    assert {(key, deg) for key, forms in sq.items() for deg in forms} == set(
        blocks)
    assert sorted(len(forms) for forms in blocks.values()) == [1, 1, 1, 2, 2, 2]
    rng = np.random.default_rng(21)
    for ((p, q), deg), forms in blocks.items():
        bp = rand_point(rng, p + q)
        ts = [rand_tangent(rng, bp) for _ in range(deg)]
        value = sq[(p, q)][deg](bp, *ts)
        assert value == sum(f(bp, *ts) for f in forms), (p, q, deg)
        assert abs(value) < 1e-4, (p, q, deg)


def test_triple_vertical_with_trivial_action(monkeypatch):
    # With the conjugation replaced by the trivial action every vertical
    # face leaves the base point alone, so a 0-form depending only on the
    # base telescopes: the q+2 alternating terms cancel pairwise for even
    # source level q and leave (-1)^p * f for odd q.
    monkeypatch.setattr(nerve, "_conj_apply", lambda g, x: x)
    monkeypatch.setattr(nerve, "_conj_diff", lambda g, vg, x, vx: tuple(vx))
    rng = np.random.default_rng(22)

    def base_only(bp, ts):
        return bp.factors[0][0, 0] ** 2

    odd = FormEval(0, 2, base_only)  # at (1, 1)
    dv = d_triple_complex(odd, 1, "d''")
    assert (dv.degree, dv.level) == (0, 3)  # at (1, 2)
    bp = rand_point(rng, 3)
    want = -base_only(bp, ())  # three terms + - +, outer sign (-1)^1
    assert abs(dv(bp) - want) < 1e-14

    even = FormEval(0, 3, base_only)  # at (1, 2)
    dv0 = d_triple_complex(even, 1, "d''")
    bp3 = rand_point(rng, 4)
    assert abs(dv0(bp3)) < 1e-14


def test_d_triple_complex_rejects_unknown_kind():
    bi = bi_form_from_flat(_flat_probe(), 1, 1)
    with pytest.raises(ValueError):
        d_triple_complex(bi, 1, "sideways")
    for p in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            d_triple_complex(bi, p, "d'")


def _count_face_ng(monkeypatch):
    import nervecheck.nerve as nerve

    real = nerve.face_ng
    calls = []

    def counted(i, pt):
        calls.append(i)
        return real(i, pt)

    monkeypatch.setattr(nerve, "face_ng", counted)
    return calls


@pytest.mark.parametrize("stack", [None, 5])
def test_d_prime_computes_each_face_image_once(monkeypatch, stack):
    # one face_ng call per face and evaluation, however many tangents the
    # form takes (recomputing the image per tangent made 12 calls for e13)
    from nervecheck.eulercocycle import e13_form

    rng = np.random.default_rng(31)
    if stack is None:
        pt = rand_point(rng, 2)
    else:
        pt = GroupPoint(tuple(exp_matrix(np.stack([random_skew(rng, 2.0)
                                                   for _ in range(stack)]))
                              for _ in range(2)))
    ts = [rand_tangent(rng, pt) if stack is None else Tangent(pt, tuple(
        h @ np.stack([random_skew(rng, 1.0) for _ in range(stack)])
        for h in pt.factors)) for _ in range(3)]
    calls = _count_face_ng(monkeypatch)
    form = d_triple_complex(e13_form()(np.zeros((4, 4))), 1, "d'")
    value = form(pt, *ts)
    assert sorted(calls) == [0, 1, 2]
    assert np.shape(value) == (() if stack is None else (stack,))


def test_triple_complex_faces_compute_each_image_once(monkeypatch):
    # d' and d'' of a 2-form at (p, q) = (1, 1): the horizontal faces call
    # face_ng once each, the vertical faces once for each non-top face
    rng = np.random.default_rng(32)
    probe = bi_form_from_flat(
        entry(mc_left(1, 2), 1, 2) + entry(mc_right(2, 2), 1, 3), 1, 1)
    calls = _count_face_ng(monkeypatch)
    for which, faces in (("d'", 3), ("d''", 2)):
        d = d_triple_complex(probe, 1, which)
        pt = rand_point(rng, d.level)
        calls.clear()
        d(pt, rand_tangent(rng, pt))
        assert len(calls) == faces, (which, calls)
