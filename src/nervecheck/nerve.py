"""Simplicial structure of SO(4) nerves and the associated complexes.

Level q of the nerve is the product SO(4)^q.  Face maps multiply adjacent
factors or drop an end factor; degeneracies insert an identity factor.  The
path-space model at level q is SO(4)^(q+1) with faces deleting one factor,
and gamma maps it onto the nerve by consecutive quotients g_i g_{i+1}^-1.

Every map works factor by factor on stacked points too: a factor of shape
(N, 4, 4) holds N points, and faces, gamma and the actions are stacked
matrix products.

The action-twisted (bisimplicial) levels pair a nerve point with a tuple of
group elements acting on it; the top vertical face applies the action.  The
default action is componentwise conjugation, and a trivial action is
available for the degenerate instance.

Complex differentials:
  d_prime         alternating sum of nerve face pullbacks        (level +1)
  d_double_prime  (-1)^level times the exterior derivative       (degree +1)
  d_triple_complex  the three differentials of the action-twisted
                    double-nerve complex (horizontal, vertical, de Rham)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .formcalc import FormEval, SmoothMap, exterior_d, pullback
from .matrixgroup import DIM, GroupPoint, Tangent

# ---------------------------------------------------------------------------
# nerve face and degeneracy maps


def face_ng(i: int, pt: GroupPoint) -> GroupPoint:
    """i-th face SO(4)^q -> SO(4)^(q-1): drop an end or multiply neighbors."""
    q = pt.level
    if q < 1:
        raise ValueError("faces need level >= 1")
    if not 0 <= i <= q:
        raise ValueError(f"face index {i} out of range for level {q}")
    g = pt.factors
    if i == 0:
        return GroupPoint(g[1:])
    if i == q:
        return GroupPoint(g[:-1])
    return GroupPoint(g[:i - 1] + (g[i - 1] @ g[i],) + g[i + 1:])


def face_ng_diff(i: int, pt: GroupPoint, t: Tangent) -> Tangent:
    """Differential of face_ng(i, .) by the product rule."""
    q = pt.level
    if not 0 <= i <= q:
        raise ValueError(f"face index {i} out of range for level {q}")
    g = pt.factors
    v = t.reps
    image = face_ng(i, pt)
    if i == 0:
        return Tangent(image, v[1:])
    if i == q:
        return Tangent(image, v[:-1])
    mid = v[i - 1] @ g[i] + g[i - 1] @ v[i]
    return Tangent(image, v[:i - 1] + (mid,) + v[i + 1:])


def degeneracy_ng(i: int, pt: GroupPoint) -> GroupPoint:
    """i-th degeneracy SO(4)^q -> SO(4)^(q+1): insert the identity factor."""
    q = pt.level
    if not 0 <= i <= q:
        raise ValueError(f"degeneracy index {i} out of range for level {q}")
    g = pt.factors
    # the identity takes the stack shape of the other factors
    one = np.broadcast_to(np.eye(DIM), g[0].shape) if g else np.eye(DIM)
    return GroupPoint(g[:i] + (one,) + g[i:])


def face_map_ng(i: int, level: int) -> SmoothMap:
    """face_ng(i, .) from `level` to `level`-1 packaged with its differential."""
    return SmoothMap(
        source_level=level,
        target_level=level - 1,
        apply=lambda pt: face_ng(i, pt),
        diff=lambda pt, t: face_ng_diff(i, pt, t),
    )


# ---------------------------------------------------------------------------
# path-space model


def face_pg(i: int, pt: GroupPoint) -> GroupPoint:
    """i-th face of the path-space model: delete factor i+1 (of q+1)."""
    n = pt.level  # = q + 1
    if n < 2:
        raise ValueError("path-space faces need at least two factors")
    q = n - 1
    if not 0 <= i <= q:
        raise ValueError(f"face index {i} out of range for path level {q}")
    g = pt.factors
    return GroupPoint(g[:i] + g[i + 1:])


def gamma(pt: GroupPoint) -> GroupPoint:
    """Consecutive quotients (g_1 g_2^-1, ..., g_q g_{q+1}^-1)."""
    n = pt.level
    if n < 1:
        raise ValueError("gamma needs at least one factor")
    g = pt.factors
    return GroupPoint(tuple(g[k] @ g[k + 1].mT for k in range(n - 1)))


# ---------------------------------------------------------------------------
# group actions on nerve levels (for the action-twisted vertical faces)


@dataclass(frozen=True)
class GroupAction:
    """An SO(4) action on nerve levels with its differential.

    apply(g, x) acts on every factor of x; diff is the joint differential in
    (g, x), taking the acting element, its tangent rep, the point, and the
    point's tangent reps.
    """

    name: str
    apply: Callable[[np.ndarray, GroupPoint], GroupPoint]
    diff: Callable[[np.ndarray, np.ndarray, GroupPoint, tuple], tuple]


def _conj_apply(g: np.ndarray, x: GroupPoint) -> GroupPoint:
    return GroupPoint(tuple(g @ m @ g.mT for m in x.factors))


def _conj_diff(g, vg, x, vx):
    ginv = g.mT
    out = []
    for m, vm in zip(x.factors, vx):
        out.append(vg @ m @ ginv + g @ vm @ ginv - g @ m @ ginv @ vg @ ginv)
    return tuple(out)


CONJUGATION = GroupAction("conjugation", _conj_apply, _conj_diff)

TRIVIAL = GroupAction(
    "trivial",
    lambda g, x: x,
    lambda g, vg, x, vx: tuple(vx),
)


# ---------------------------------------------------------------------------
# action-twisted bisimplicial levels: a nerve point x paired with q actors


@dataclass(frozen=True, eq=False)
class BisimplicialPoint:
    """A point of (nerve level p) x SO(4)^q."""

    x: GroupPoint
    gs: tuple[np.ndarray, ...]

    @property
    def p(self) -> int:
        return self.x.level

    @property
    def q(self) -> int:
        return len(self.gs)


@dataclass(frozen=True, eq=False)
class BiTangent:
    base: BisimplicialPoint
    x_reps: tuple[np.ndarray, ...]
    g_reps: tuple[np.ndarray, ...]


def flatten_point(pt: BisimplicialPoint) -> GroupPoint:
    """View (x, gs) as a point of SO(4)^(p+q)."""
    return GroupPoint(pt.x.factors + pt.gs)


def unflatten_point(pt: GroupPoint, p: int, q: int) -> BisimplicialPoint:
    if pt.level != p + q:
        raise ValueError("level mismatch when splitting a flattened point")
    return BisimplicialPoint(GroupPoint(pt.factors[:p]), pt.factors[p:])


def flatten_tangent(flat_base: GroupPoint, t: BiTangent) -> Tangent:
    return Tangent(flat_base, t.x_reps + t.g_reps)


def unflatten_tangent(base: BisimplicialPoint, t: Tangent) -> BiTangent:
    p = base.p
    return BiTangent(base, t.reps[:p], t.reps[p:])


def horizontal_face(i: int, pt: BisimplicialPoint) -> BisimplicialPoint:
    """Horizontal face: the nerve face on x; the actors pass through."""
    return BisimplicialPoint(face_ng(i, pt.x), pt.gs)


def horizontal_face_diff(i: int, pt: BisimplicialPoint, t: BiTangent) -> BiTangent:
    image = horizontal_face(i, pt)
    moved = face_ng_diff(i, pt.x, Tangent(pt.x, t.x_reps))
    return BiTangent(image, moved.reps, t.g_reps)


def vertical_face(i: int, pt: BisimplicialPoint,
                  action: GroupAction = CONJUGATION) -> BisimplicialPoint:
    """Vertical face: nerve-style on the actor tuple, with the action twist.

    i = 0 drops the first actor, 0 < i < q multiplies neighbors, and i = q
    lets the last actor act on x before being dropped.
    """
    q = pt.q
    if q < 1:
        raise ValueError("vertical faces need at least one actor")
    if not 0 <= i <= q:
        raise ValueError(f"vertical face index {i} out of range for q={q}")
    g = pt.gs
    if i == 0:
        return BisimplicialPoint(pt.x, g[1:])
    if i == q:
        return BisimplicialPoint(action.apply(g[q - 1], pt.x), g[:-1])
    return BisimplicialPoint(pt.x, g[:i - 1] + (g[i - 1] @ g[i],) + g[i + 1:])


def vertical_face_diff(i: int, pt: BisimplicialPoint, t: BiTangent,
                       action: GroupAction = CONJUGATION) -> BiTangent:
    q = pt.q
    if not 0 <= i <= q:
        raise ValueError(f"vertical face index {i} out of range for q={q}")
    image = vertical_face(i, pt, action)
    g, vg = pt.gs, t.g_reps
    if i == 0:
        return BiTangent(image, t.x_reps, vg[1:])
    if i == q:
        moved = action.diff(g[q - 1], vg[q - 1], pt.x, t.x_reps)
        return BiTangent(image, moved, vg[:-1])
    mid = vg[i - 1] @ g[i] + g[i - 1] @ vg[i]
    return BiTangent(image, t.x_reps, vg[:i - 1] + (mid,) + vg[i + 1:])


# ---------------------------------------------------------------------------
# forms on bisimplicial levels


@dataclass(frozen=True, eq=False)
class BiFormEval:
    """A real-valued form on (nerve level p) x SO(4)^q."""

    degree: int
    p: int
    q: int
    fn: Callable[[BisimplicialPoint, tuple[BiTangent, ...]], float]

    def __call__(self, pt: BisimplicialPoint, *tangents: BiTangent) -> float:
        if len(tangents) != self.degree:
            raise ValueError(
                f"degree-{self.degree} form called with {len(tangents)} tangents")
        return self.fn(pt, tangents)


def bi_form_from_flat(f: FormEval, p: int, q: int) -> BiFormEval:
    """Reinterpret a form on SO(4)^(p+q) as a form on the (p, q) level."""
    if f.level != p + q:
        raise ValueError("flattened level mismatch")
    fn = f.fn

    def bfn(pt, ts):
        flat = flatten_point(pt)
        return fn(flat, tuple(flatten_tangent(flat, t) for t in ts))

    return BiFormEval(f.degree, p, q, bfn)


def flat_form_from_bi(f: BiFormEval) -> FormEval:
    """Inverse reinterpretation, onto SO(4)^(p+q)."""
    p, q = f.p, f.q
    fn = f.fn

    def ffn(pt, ts):
        base = unflatten_point(pt, p, q)
        return fn(base, tuple(unflatten_tangent(base, t) for t in ts))

    return FormEval(f.degree, p + q, ffn)


# ---------------------------------------------------------------------------
# complex differentials


def d_prime(f: FormEval) -> FormEval:
    """Alternating sum of nerve face pullbacks, raising the level by one."""
    p = f.level
    terms = [pullback(f, face_map_ng(i, p + 1)) for i in range(p + 2)]
    total = terms[0]
    for i, term in enumerate(terms[1:], start=1):
        total = total + term if i % 2 == 0 else total - term
    return total


def d_double_prime(f: FormEval, fd_step: float = 1e-5) -> FormEval:
    """(-1)^level times the exterior derivative (double-complex vertical)."""
    d = exterior_d(f, fd_step)
    return d if f.level % 2 == 0 else -d


def _bi_pullback(f: BiFormEval, apply_fn, diff_fn, p: int, q: int) -> BiFormEval:
    fn = f.fn

    def pfn(pt, ts):
        image = apply_fn(pt)
        moved = []
        for t in ts:
            d = diff_fn(pt, t)
            moved.append(BiTangent(image, d.x_reps, d.g_reps))
        return fn(image, tuple(moved))

    return BiFormEval(f.degree, p, q, pfn)


def d_triple_complex(f: BiFormEval, which: str, fd_step: float = 1e-5,
                     action: GroupAction = CONJUGATION) -> BiFormEval:
    """One of the three differentials of the action-twisted complex.

    which = "d'"  : alternating horizontal-face pullbacks,    (p+1, q)
    which = "d''" : (-1)^p alternating vertical-face pullbacks, (p, q+1)
    which = "d'''": (-1)^(p+q) exterior derivative,           degree + 1
    """
    p, q = f.p, f.q
    if which == "d'":
        total = None
        for i in range(p + 2):
            term = _bi_pullback(
                f,
                lambda pt, i=i: horizontal_face(i, pt),
                lambda pt, t, i=i: horizontal_face_diff(i, pt, t),
                p + 1, q)
            sign = 1.0 if i % 2 == 0 else -1.0
            total = _bi_scale_add(total, sign, term)
        return total
    if which == "d''":
        outer = 1.0 if p % 2 == 0 else -1.0
        total = None
        for i in range(q + 2):
            term = _bi_pullback(
                f,
                lambda pt, i=i: vertical_face(i, pt, action),
                lambda pt, t, i=i: vertical_face_diff(i, pt, t, action),
                p, q + 1)
            sign = outer * (1.0 if i % 2 == 0 else -1.0)
            total = _bi_scale_add(total, sign, term)
        return total
    if which == "d'''":
        sign = 1.0 if (p + q) % 2 == 0 else -1.0
        d = exterior_d(flat_form_from_bi(f), fd_step)
        flat = bi_form_from_flat(d, p, q)
        fn = flat.fn
        return BiFormEval(flat.degree, p, q,
                          lambda pt, ts: sign * fn(pt, ts))
    raise ValueError("which must be one of \"d'\", \"d''\", \"d'''\"")


def _bi_scale_add(acc: BiFormEval | None, sign: float, term: BiFormEval) -> BiFormEval:
    if acc is None:
        fn = term.fn
        return BiFormEval(term.degree, term.p, term.q,
                          lambda pt, ts: sign * fn(pt, ts))
    a, b = acc.fn, term.fn
    return BiFormEval(term.degree, term.p, term.q,
                      lambda pt, ts: a(pt, ts) + sign * b(pt, ts))
