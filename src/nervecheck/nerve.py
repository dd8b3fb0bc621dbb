"""Simplicial structure of SO(4) nerves and the associated complexes.

Level q of the nerve is the product SO(4)^q.  Face maps multiply adjacent
factors or drop an end factor; degeneracies insert an identity factor.  The
path-space model at level q is SO(4)^(q+1) with faces deleting one factor,
and gamma maps it onto the nerve by consecutive quotients g_i g_{i+1}^-1.

Every map works factor by factor on stacked points too: a factor of shape
(N, 4, 4) holds N points, and faces, gamma and the action are stacked
matrix products.

The action-twisted (bisimplicial) level (p, q) pairs a nerve point of level
p with q group elements acting on it, so it is the product SO(4)^(p+q): a
point is a flat GroupPoint of p+q factors, the nerve point first and then
the q actors; its tangents and forms are plain Tangents and FormEvals, and
a cochain is a dict {(p, q): {degree: form}}.  The faces take the split
p; horizontal faces are nerve faces of the nerve point, vertical faces are
nerve faces of the actors whose top face lets the last actor act on the
nerve point by componentwise conjugation.  Packaged with their
differentials, the faces are SmoothMaps, so the differentials below are
formcalc pullbacks and exterior derivatives.

Complex differentials:
  d_triple_complex  one of the three differentials of the action-twisted
                    complex at (p, q): horizontal, vertical, de Rham
  total_d3          D3 = d' + d'' + d''' on a cochain {(p, q): forms}

On the row q = 0 the horizontal faces are the nerve faces, so d' there is
the nerve's alternating face sum.  The Cartan total differential
`cartanmodel.total_d` is that row with the contraction in place of d'';
it and `total_d3` walk a cochain with the one `_total`.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .formcalc import FD_STEP_DEFAULT, FormEval, SmoothMap, exterior_d, pullback
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


def face_ng_diff(i: int, pt: GroupPoint, t: Tangent) -> tuple[np.ndarray, ...]:
    """Differential of face_ng(i, .) by the product rule: the reps of the
    image tangent, which is based at face_ng(i, pt)."""
    q = pt.level
    if q < 1:
        raise ValueError("faces need level >= 1")
    if not 0 <= i <= q:
        raise ValueError(f"face index {i} out of range for level {q}")
    g = pt.factors
    v = t.reps
    if i == 0:
        return v[1:]
    if i == q:
        return v[:-1]
    mid = v[i - 1] @ g[i] + g[i - 1] @ v[i]
    return v[:i - 1] + (mid,) + v[i + 1:]


@lru_cache(maxsize=64)
def _identity(shape: tuple) -> np.ndarray:
    """The read-only identity factor of a stack shape: every degeneracy
    inserts the same array into points of one shape."""
    return np.broadcast_to(np.eye(DIM), shape)


def degeneracy_ng(i: int, pt: GroupPoint) -> GroupPoint:
    """i-th degeneracy SO(4)^q -> SO(4)^(q+1): insert the identity factor."""
    q = pt.level
    if not 0 <= i <= q:
        raise ValueError(f"degeneracy index {i} out of range for level {q}")
    g = pt.factors
    # the identity takes the stack shape of the other factors
    one = _identity(g[0].shape if g else (DIM, DIM))
    return GroupPoint(g[:i] + (one,) + g[i:])


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
    return GroupPoint(tuple(g[k] @ np.ascontiguousarray(g[k + 1].mT)
                            for k in range(n - 1)))


# ---------------------------------------------------------------------------
# the conjugation action on nerve levels (for the top vertical face)


def _conj_apply(g: np.ndarray, x: GroupPoint) -> GroupPoint:
    """g acting on every factor of x by conjugation."""
    gT = np.ascontiguousarray(g.mT)
    return GroupPoint(tuple(g @ m @ gT for m in x.factors))


def _conj_diff(g, vg, x, vx):
    """The joint differential of _conj_apply in (g, x): the acting element,
    its tangent rep, the point and the point's tangent reps."""
    ginv = np.ascontiguousarray(g.mT)
    out = []
    for m, vm in zip(x.factors, vx):
        out.append(vg @ m @ ginv + g @ vm @ ginv - g @ m @ ginv @ vg @ ginv)
    return tuple(out)


# ---------------------------------------------------------------------------
# action-twisted bisimplicial levels: level (p, q) is SO(4)^(p+q), a nerve
# point of level p followed by its q actors


def _split(p: int, pt: GroupPoint) -> tuple[GroupPoint, GroupPoint]:
    """The nerve point (the first p factors) and the actors (the rest)."""
    if not 0 <= p <= pt.level:
        raise ValueError(f"split p={p} out of range for level {pt.level}")
    return GroupPoint(pt.factors[:p]), GroupPoint(pt.factors[p:])


def horizontal_face(i: int, p: int, pt: GroupPoint) -> GroupPoint:
    """Horizontal face (p, q) -> (p-1, q): the nerve face on the nerve
    point; the actors pass through."""
    x, gs = _split(p, pt)
    return GroupPoint(face_ng(i, x).factors + gs.factors)


def horizontal_face_diff(i: int, p: int, pt: GroupPoint,
                         t: Tangent) -> tuple[np.ndarray, ...]:
    """The reps of the image of t under horizontal_face(i, p, .)."""
    x, _ = _split(p, pt)
    return face_ng_diff(i, x, Tangent(x, t.reps[:p])) + t.reps[p:]


def _vertical_split(i: int, p: int,
                    pt: GroupPoint) -> tuple[GroupPoint, GroupPoint]:
    """`_split` for the vertical face i, which must exist."""
    x, gs = _split(p, pt)
    q = gs.level
    if q < 1:
        raise ValueError("vertical faces need at least one actor")
    if not 0 <= i <= q:
        raise ValueError(f"vertical face index {i} out of range for q={q}")
    return x, gs


def vertical_face(i: int, p: int, pt: GroupPoint) -> GroupPoint:
    """Vertical face (p, q) -> (p, q-1): the nerve face i of the actors,
    except that the top face i = q lets the last actor act on the nerve
    point by conjugation before dropping it."""
    x, gs = _vertical_split(i, p, pt)
    if i == gs.level:
        g = gs.factors
        return GroupPoint(_conj_apply(g[-1], x).factors + g[:-1])
    return GroupPoint(x.factors + face_ng(i, gs).factors)


def vertical_face_diff(i: int, p: int, pt: GroupPoint,
                       t: Tangent) -> tuple[np.ndarray, ...]:
    """The reps of the image of t under vertical_face(i, p, .)."""
    x, gs = _vertical_split(i, p, pt)
    vx, vg = t.reps[:p], t.reps[p:]
    if i == gs.level:
        return _conj_diff(gs.factors[-1], vg[-1], x, vx) + vg[:-1]
    return vx + face_ng_diff(i, gs, Tangent(gs, vg))


def bi_form_from_flat(f: FormEval, p: int, q: int) -> FormEval:
    """f, once checked to be a form on SO(4)^(p+q), the (p, q) level."""
    if f.level != p + q:
        raise ValueError("flattened level mismatch")
    return f


# ---------------------------------------------------------------------------
# complex differentials


def _alternating_pullbacks(f: FormEval, faces: list[SmoothMap]) -> FormEval:
    """The alternating sum of the pullbacks of f along the faces, in order."""
    total = pullback(f, faces[0])
    for i, face in enumerate(faces[1:], start=1):
        term = pullback(f, face)
        total = total + term if i % 2 == 0 else total - term
    return total


def d_triple_complex(f: FormEval, p: int, which: str,
                     fd_step: float = FD_STEP_DEFAULT) -> FormEval:
    """One of the three differentials of the action-twisted complex, on a
    form f at the level (p, q) with q = f.level - p.

    which = "d'"  : alternating horizontal-face pullbacks,    (p+1, q)
    which = "d''" : (-1)^p alternating vertical-face pullbacks, (p, q+1)
    which = "d'''": (-1)^(p+q) exterior derivative,           degree + 1
    """
    level = f.level
    if not 0 <= p <= level:
        raise ValueError(f"split p={p} out of range for level {level}")
    if which == "d'":
        return _alternating_pullbacks(f, [
            SmoothMap(level + 1, level, partial(horizontal_face, i, p + 1),
                      partial(horizontal_face_diff, i, p + 1))
            for i in range(p + 2)])
    if which == "d''":
        d = _alternating_pullbacks(f, [
            SmoothMap(level + 1, level, partial(vertical_face, i, p),
                      partial(vertical_face_diff, i, p))
            for i in range(level - p + 2)])
        return -d if p % 2 else d
    if which == "d'''":
        d = exterior_d(f, fd_step)
        return -d if level % 2 else d
    raise ValueError("which must be one of \"d'\", \"d''\", \"d'''\"")


Cochain = dict[tuple[int, int], dict[int, FormEval]]


def _total(cochain: Cochain, fd_step: float,
           middle: Callable[[FormEval, int, int], tuple]) -> Cochain:
    """d' + middle + d''' applied to the cochain {(p, q): {degree: form}},
    in the same shape, one entry per level it reaches.  `middle(form, p, q)`
    gives the middle terms of one form as (key, form) pairs.  The terms of
    one key and degree are summed in the order the walk meets them: by key,
    then by form, then d', the middle terms and d'''.  The components are
    forms, so only those that are evaluated cost anything."""
    out: Cochain = {}
    for (p, q), forms in sorted(cochain.items()):
        for form in forms.values():
            if form.level != p + q:
                raise ValueError(f"a cochain form keyed {(p, q)} needs level "
                                 f"{p + q}, not {form.level}")
            for key, d in (((p + 1, q), d_triple_complex(form, p, "d'")),
                           *middle(form, p, q),
                           ((p, q), d_triple_complex(form, p, "d'''",
                                                     fd_step))):
                at = out.setdefault(key, {})
                at[d.degree] = at[d.degree] + d if d.degree in at else d
    return out


def total_d3(cochain: Cochain, fd_step: float = FD_STEP_DEFAULT) -> Cochain:
    """D3 = d' + d'' + d''' applied to the cochain {(p, q): {degree: form}}
    of the action-twisted complex (see `_total`)."""
    return _total(cochain, fd_step, lambda form, p, q: (
        ((p, q + 1), d_triple_complex(form, p, "d''")),))
