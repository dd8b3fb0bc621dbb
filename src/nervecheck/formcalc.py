"""Differential forms on products of SO(4), real- or matrix-valued.

Forms are represented by evaluators: a degree-r form at level p is a function
taking a point of SO(4)^p and r tangent vectors and returning its value, a
float or, for a matrix-valued form such as a Maurer-Cartan form, a 4x4
array.  The evaluators accept leading stack axes, which come first in the
value: at a point whose factors are stacks (N, 4, 4), with tangent reps of
the same shape, a scalar form returns an (N,) array and a matrix form an
(N, 4, 4) stack, one value per stacked point; a single point gives a single
value.  The wedge product uses the determinant (shuffle) convention with no
1/(r!s!) normalization, so for 1-forms (f ^ g)(v, w) = f(v) g(w) - f(w) g(v).

The exterior derivative takes central differences in canonical coordinates
of the second kind: at a point h, per factor, the chart (t_0, ..., t_r) ->
exp(t_0 X_0) ... exp(t_r X_r) h, where X_i = v_i h^-1 are the right
coordinates of the r+1 tangents (Varadarajan, "Lie Groups, Lie Algebras,
and Their Representations", 1984).  The coordinate fields of a chart
commute, so df is the alternating sum of their derivatives with no bracket
terms.  That leaves genuine O(fd_step^2) truncation on every integrand,
bi-invariant ones included, so convergence is observable by step halving.
The 2(r+1) stepped points of a degree-r form, one per direction and sign,
stand on a new leading step axis: an evaluation makes one call of the form
and at most one exponential per factor, of the coordinates of its r+1
forward steps; their products fill that axis in place.  A factor's chart
is one read-only buffer holding its stepped points and the field of each
of the form's r slots; the coordinates and exponentials it is made from
are freed before the form runs.  The step axis
broadcasts against the form's own arrays from the right, so a form that
captures stacked arrays (such as an (N, 4, 4) argument X) is
differentiated at points stacked the same way.

One evaluation, from the outermost `FormEval` call until it returns or
raises, keeps one cache of values keyed by the arrays they depend on (see
`cached`): a factor's chart is built once per distinct factor and tangent
reps and then shared, so reading one component of a cochain makes one
exponential per distinct factor and tangents, since the pullbacks of an
alternating face sum pass most factors and their tangent reps through as
the same arrays.  Composition calls `.fn`, which opens no cache.
"""

from __future__ import annotations

import functools
import itertools
import operator
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .matrixgroup import DIM, GroupPoint, Tangent, exp_coords, skew_coords

FD_STEP_DEFAULT = 1e-5


def check_base(pt: GroupPoint, ts: Sequence[Tangent]) -> None:
    """Raise ValueError unless every tangent of ts is based at pt: at pt
    itself, or at a point of its level whose factors agree to 1e-9."""
    for t in ts:
        base = t.base
        if base is not pt and (base.level != pt.level or not all(
                np.allclose(x, y, rtol=0.0, atol=1e-9)
                for x, y in zip(base.factors, pt.factors))):
            raise ValueError("tangent is not based at the evaluation point")


# The cache of the current evaluation, or None outside one:
# {(tag, *ids of arrays): (arrays, value)}.  An entry holds its arrays, so
# their ids stay unique while it lives.
_cache: ContextVar[Optional[dict]] = ContextVar("cache", default=None)


def cached(tag, arrays: tuple, compute: Callable, *args):
    """compute(*args), computed once per evaluation for the given tag and
    array objects and then shared; the value must depend only on them.
    Tags are strings or tuples.  Outside an evaluation nothing is kept."""
    cache = _cache.get()
    if cache is None:
        return compute(*args)
    key = (tag, *map(id, arrays))
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = (arrays, compute(*args))
    return hit[1]


@dataclass(frozen=True, eq=False)
class FormEval:
    """A degree-`degree` form on SO(4)^level, real- or 4x4-matrix-valued."""

    degree: int
    level: int
    fn: Callable[[GroupPoint, tuple[Tangent, ...]], float | np.ndarray]

    def __call__(self, pt: GroupPoint, *tangents: Tangent) -> float | np.ndarray:
        if len(tangents) != self.degree:
            raise ValueError(f"degree-{self.degree} form called with "
                             f"{len(tangents)} tangents")
        if pt.level != self.level:
            raise ValueError(f"level-{self.level} form called at a point of "
                             f"level {pt.level}")
        check_base(pt, tangents)
        if _cache.get() is not None:
            return self.fn(pt, tangents)
        token = _cache.set({})
        try:
            return self.fn(pt, tangents)
        finally:
            _cache.reset(token)

    def _binary(self, other: "FormEval", op: Callable) -> "FormEval":
        if not isinstance(other, FormEval):
            return NotImplemented
        if (self.degree, self.level) != (other.degree, other.level):
            raise ValueError("can only combine forms of equal degree and level")
        f, g = self.fn, other.fn
        return FormEval(self.degree, self.level,
                        lambda pt, ts: op(f(pt, ts), g(pt, ts)))

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __neg__(self):
        f = self.fn
        return FormEval(self.degree, self.level, lambda pt, ts: -f(pt, ts))

    def __rmul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        f = self.fn
        return FormEval(self.degree, self.level, lambda pt, ts: c * f(pt, ts))


def mc_left(factor_index: int, level: int) -> FormEval:
    """Left Maurer-Cartan form h^-1 dh of the chosen factor (1-based)."""
    if not 1 <= factor_index <= level:
        raise ValueError(f"factor index {factor_index} out of range for level {level}")
    k = factor_index - 1
    return FormEval(
        1, level, lambda pt, ts: pt.factors[k].mT @ ts[0].reps[k])


def mc_right(factor_index: int, level: int) -> FormEval:
    """Right Maurer-Cartan form dh h^-1 of the chosen factor (1-based)."""
    if not 1 <= factor_index <= level:
        raise ValueError(f"factor index {factor_index} out of range for level {level}")
    k = factor_index - 1
    return FormEval(
        1, level,
        lambda pt, ts: ts[0].reps[k] @ np.ascontiguousarray(pt.factors[k].mT))


def entry(m: FormEval, a: int, b: int) -> FormEval:
    """Scalar form selecting entry (a, b), 1-based, of a matrix-valued form."""
    if not (1 <= a <= DIM and 1 <= b <= DIM):
        raise ValueError("entry indices must lie in 1..4")
    i, j = a - 1, b - 1
    f = m.fn
    return FormEval(m.degree, m.level, lambda pt, ts: f(pt, ts)[..., i, j])


def matrix_wedge_square(m: FormEval) -> FormEval:
    """The matrix-valued 2-form m^2: (v, w) -> m(v) m(w) - m(w) m(v)."""
    if m.degree != 1:
        raise ValueError("matrix_wedge_square expects a degree-1 form")
    f = m.fn

    def sq(pt, ts):
        a = f(pt, (ts[0],))
        b = f(pt, (ts[1],))
        return a @ b - b @ a

    return FormEval(2, m.level, sq)


@functools.lru_cache(maxsize=64)
def _fold_steps(degrees: tuple[int, ...]) -> tuple:
    """The products of each fold step of `shuffle_product` for factors of
    these degrees: per step, per value of the new partial wedge, its terms
    (a, b, negative), each the a-th value of the partial wedge times the
    b-th of the next factor, subtracted when negative.  The values of a
    degree k are counted over the sorted k-tuples of tangent indices in
    order.  The terms of one value come in the order of their partial
    wedge's tuple, the order of the (r, s)-shuffles."""
    n = sum(degrees)
    sets = [tuple(itertools.combinations(range(n), k)) for k in range(n + 1)]
    masks = [[sum(1 << i for i in S) for S in level] for level in sets]
    index = {m: i for level in masks for i, m in enumerate(level)}
    steps = []
    for r, s in zip(itertools.accumulate(degrees), degrees[1:]):
        values = [[] for _ in sets[r + s]]
        for a, A in enumerate(masks[r]):
            for b, (B, ys) in enumerate(zip(masks[s], sets[s])):
                if not A & B:
                    # the parity of the shuffle: pairs x in A, y in B, x > y
                    inv = sum((A >> y).bit_count() for y in ys)
                    values[index[A | B]].append((a, b, inv % 2 == 1))
        steps.append(tuple(tuple(terms) for terms in values))
    return tuple(steps)


def _fold_step(prev: list, right: list, values: tuple) -> list:
    """The values of the next partial wedge (see _fold_steps), each the sum
    of its signed terms, left to right.  A negative term is the product
    with the negated factor value, added, exactly the difference: numpy
    adds into a temporary product in place but cannot subtract one, so
    `total - product` would hold three large arrays at once."""
    part = []
    for terms in values:
        total = None
        for a, b, negative in terms:
            y = -right[b] if negative else right[b]
            total = prev[a] * y if total is None else total + prev[a] * y
        part.append(total)
    return part


def shuffle_product(fns: Sequence[Callable],
                    degrees: Sequence[int]) -> Callable:
    """The wedge of the evaluators fns of the given degrees, folded to the
    left, (f0 ^ f1) ^ f2 ^ ...: (pt, ts, *rest) -> the value, every factor
    given the same `rest`; the values multiply by broadcasting.

    A fold step is the signed sum over the shuffles of the partial wedge on
    some tangents times the next factor on the others.  Each partial wedge
    and each factor is evaluated once on every sorted tuple of tangents of
    its degree, so n 1-forms cost n 2^(n-1) products, not n!.
    """
    steps = _fold_steps(tuple(degrees))

    def fn(pt, ts, *rest):
        def on(f, k):
            return [f(pt, S, *rest) for S in itertools.combinations(ts, k)]

        part = on(fns[0], degrees[0])
        for g, s, values in zip(fns[1:], degrees[1:], steps):
            part = _fold_step(part, on(g, s), values)
        return part[0]

    return fn


def wedge(f: FormEval, g: FormEval) -> FormEval:
    """Wedge product in the shuffle convention (no factorial normalization)."""
    if f.level != g.level:
        raise ValueError("wedge requires forms on the same level")
    return FormEval(f.degree + g.degree, f.level,
                    shuffle_product((f.fn, g.fn), (f.degree, g.degree)))


def _chart_steps(h: np.ndarray, vs: list, fd_step: float):
    """The stepped points of one factor h, on a step axis of length 2(r+1),
    and for each slot s < r the field in that slot at every step (see
    exterior_d); vs are the factor's r+1 tangent reps.  All of them are
    read-only views of one buffer of shape (r+1, 2(r+1)) + the broadcast of
    h and vs, the points in row 0 and the field of slot s in row s+1, since
    a chart may be shared; the X_i, their coordinates and the r+1
    exponentials are freed before the form is evaluated."""
    hT = np.ascontiguousarray(h.mT)
    shape = np.broadcast_shapes(h.shape, *(v.shape for v in vs))
    xs = np.empty((len(vs),) + shape)
    for v, x in zip(vs, xs):
        np.matmul(v, hT, out=x)
    plus = exp_coords(fd_step * skew_coords(xs))
    block = np.empty((len(vs), 2 * len(vs)) + shape)
    # exp(-tX) is the transpose of exp(tX); step 2i is +fd_step and step
    # 2i+1 is -fd_step along direction i, written in place
    m = block[0]
    np.matmul(plus, h, out=m[0::2])
    np.matmul(plus.mT, h, out=m[1::2])
    # slot s holds direction s at the steps along i > s and direction s+1
    # at the others, the first 2(s+1)
    for s, field in enumerate(block[1:]):
        np.matmul(plus[:s + 1], vs[s + 1], out=field[0:2 * s + 2:2])
        np.matmul(plus[:s + 1].mT, vs[s + 1], out=field[1:2 * s + 2:2])
        np.matmul(xs[s], m[2 * s + 2:], out=field[2 * s + 2:])
    block.flags.writeable = False
    return block[0], list(block[1:])


def exterior_d(f: FormEval, fd_step: float = FD_STEP_DEFAULT) -> FormEval:
    """Exterior derivative by central differences in the chart
    (t_0, ..., t_r) -> exp(t_0 X_0) ... exp(t_r X_r) h of every factor.

    X_i = v_i h^-1 are the right coordinates of the tangents.  Along the
    axis of direction i the chart moves to exp(t X_i) h, where the field of
    direction j is X_j exp(t X_i) h for j < i and exp(t X_i) v_j for j > i.
    Coordinate fields commute, so

        df(v_0, ..., v_r) = sum_i (-1)^i (f(+) - f(-)) / (2 fd_step),

    with f(+-) the form at exp(+-fd_step X_i) h on the other fields, and no
    bracket term evaluates the form.  One `exp_coords` of the coordinates
    of every fd_step X_i per distinct factor and tangent reps of an
    evaluation (see `cached`), or per factor outside one, gives the r+1
    steps; exp(-fd_step X_i) is a transpose, the inverse of a rotation.  The
    truncation is O(fd_step^2) on every form, bi-invariant ones included:
    d of the closed 3-form reads of order 1e-8 at fd_step = 1e-3 on
    unit-sized tangents and falls by 4 at each halving.
    """
    if not 1e-7 <= fd_step <= 1e-3:
        raise ValueError("fd_step must lie in [1e-7, 1e-3]")
    r = f.degree
    fn = f.fn
    steps = 2 * (r + 1)

    def dfn(pt, ts):
        factors = pt.factors
        charts = [cached(("chart", fd_step), (h, *vs), _chart_steps,
                         h, vs, fd_step)
                  for h, *vs in zip(factors, *(t.reps for t in ts))]
        at = GroupPoint(tuple(m for m, _ in charts))
        vals = np.asarray(fn(at, tuple(
            Tangent(at, tuple(fields[s] for _, fields in charts))
            for s in range(r))))
        # a value that ignores the point, such as a constant, has no step axis
        lead = factors[0].shape[:-2] if factors else ()
        if vals.shape[:1 + len(lead)] != (steps,) + lead:
            vals = np.broadcast_to(vals, (steps,) + vals.shape)
        total = 0.0
        for i in range(r + 1):
            deriv = (vals[2 * i] - vals[2 * i + 1]) / (2.0 * fd_step)
            total += deriv if i % 2 == 0 else -deriv
        return total

    return FormEval(r + 1, f.level, dfn)


def contract(f: FormEval, field: Callable[[GroupPoint], Tangent]) -> FormEval:
    """Interior product: plug field(pt) into the first slot of f."""
    if f.degree < 1:
        raise ValueError("cannot contract a degree-0 form")
    fn = f.fn
    return FormEval(f.degree - 1, f.level,
                    lambda pt, ts: fn(pt, (field(pt),) + tuple(ts)))


@dataclass(frozen=True, eq=False)
class SmoothMap:
    """A smooth map between SO(4) products with its analytic differential.

    `diff(pt, t)` returns the reps of the image of the tangent t at pt; they
    are tangent at `apply(pt)`, which the caller computes once for all its
    tangents.
    """

    source_level: int
    target_level: int
    apply: Callable[[GroupPoint], GroupPoint]
    diff: Callable[[GroupPoint, Tangent], tuple[np.ndarray, ...]]


def pullback(f: FormEval, m: SmoothMap) -> FormEval:
    """Pullback of f along m using the analytic differential."""
    if f.level != m.target_level:
        raise ValueError(
            f"form level {f.level} does not match map target {m.target_level}")
    fn = f.fn

    def pfn(pt, ts):
        image = m.apply(pt)
        return fn(image, tuple(Tangent(image, m.diff(pt, t)) for t in ts))

    return FormEval(f.degree, m.source_level, pfn)

