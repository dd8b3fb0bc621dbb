"""Random inputs and small forms that several test modules share.

Unlike `oracles.py`, nothing here is an independent reference: these are
conveniences built from the package's own primitives.  `nerve_d_prime` is
a second route to d' on the nerve, from other primitives than the route
the package takes.
"""

import hashlib
from functools import partial

import numpy as np

from nervecheck.formcalc import FormEval, SmoothMap, pullback
from nervecheck.formdsl import (EntrySel, MCLAtom, MCRAtom, Scale, Square, Sum,
                                SumS4, Wedge, XAtom)
from nervecheck.harness import trial_rngs
from nervecheck.matrixgroup import (DIM, GroupPoint, Tangent, exp_matrix,
                                    skew_from_coords)
from nervecheck.nerve import face_ng, face_ng_diff


def same_bits(a, b) -> bool:
    """a and b as float arrays have the same shape and the same bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def digest(col) -> str:
    """sha256 of the little-endian doubles of an array."""
    return hashlib.sha256(
        np.ascontiguousarray(col, dtype="<f8").tobytes()).hexdigest()


def validate_point(pt: GroupPoint, tol: float = 1e-12) -> GroupPoint:
    """pt itself; ValueError unless every factor is special orthogonal."""
    for k, m in enumerate(pt.factors):
        if m.shape[-2:] != (DIM, DIM):
            raise ValueError(f"factor {k} has shape {m.shape}, want (4, 4)")
        if not np.all(np.abs(m.mT @ m - np.eye(DIM)) <= tol):
            raise ValueError(f"factor {k} is not orthogonal within {tol}")
        if not np.all(np.abs(np.linalg.det(m) - 1.0) <= 1e-9):
            raise ValueError(f"factor {k} has determinant != +1")
    return pt


def validate_tangent(t: Tangent, tol: float = 1e-12) -> Tangent:
    """t itself; ValueError unless h^T V is skew for every factor."""
    if len(t.reps) != t.base.level:
        raise ValueError("tangent/base factor count mismatch")
    for k, (h, v) in enumerate(zip(t.base.factors, t.reps)):
        s = h.mT @ v
        if not np.all(np.abs(s + s.mT) <= tol):
            raise ValueError(f"rep {k} is not tangent at the base point")
    return t


def random_skew(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Skew matrix with independent entries uniform in [-scale, scale]."""
    return skew_from_coords(rng.uniform(-scale, scale, size=6))


def rand_point(rng: np.random.Generator, level: int = 1) -> GroupPoint:
    """Level-many rotations, exp of skews with entries in [-2, 2]."""
    return GroupPoint(tuple(exp_matrix(random_skew(rng, 2.0))
                            for _ in range(level)))


def rand_tangent(rng: np.random.Generator, pt: GroupPoint) -> Tangent:
    """A left-translated tangent at pt, coordinates in [-1, 1]."""
    return Tangent(pt, tuple(h @ random_skew(rng, 1.0) for h in pt.factors))


def trial_rng(seed: int, check_id: str, trial: int) -> np.random.Generator:
    """The stream of one trial of a check."""
    return trial_rngs(seed, check_id, [trial])[0]


def sample_so4(seed: int) -> GroupPoint:
    """Deterministic pseudo-random rotation: exp of a skew draw in [-2, 2]."""
    return rand_point(np.random.default_rng(seed))


def constant_form(value: float, level: int) -> FormEval:
    """The degree-0 form with constant value."""
    return FormEval(0, level, lambda pt, ts: value)


def zero_form(degree: int, level: int) -> FormEval:
    """The zero form of the given degree."""
    return FormEval(degree, level, lambda pt, ts: 0.0)


def left_invariant_field(x: np.ndarray, level: int):
    """The left-invariant vector field h -> (h_1 x, ..., h_p x)."""

    def field(pt: GroupPoint) -> Tangent:
        if pt.level != level:
            raise ValueError("field applied at the wrong level")
        return Tangent(pt, tuple(h @ x for h in pt.factors))

    return field


def _primary(node) -> str:
    """`node` rendered where the grammar expects a primary."""
    text = pretty(node)
    return text if isinstance(node, (EntrySel, SumS4)) else f"( {text} )"


def pretty(node) -> str:
    """Canonical single-space rendering of a parsed expression;
    parse(pretty(n)) == n."""
    if isinstance(node, Sum):
        # a term that is a sum itself came from parentheses
        parts = [_primary(t) if isinstance(t, Sum) else pretty(t)
                 for t in node.terms]
        return " ".join([parts[0]] + [f"{op} {text}" for op, text
                                      in zip(node.ops, parts[1:])])
    if isinstance(node, Scale):
        coeff = str(node.num)
        if node.den != 1:
            coeff += f"/{node.den}"
        if node.inv_pi2:
            coeff += "/pi2"
        body = node.body
        text = pretty(body) if isinstance(body, Wedge) else _primary(body)
        return f"{coeff} {text}"
    if isinstance(node, Wedge):
        return " ".join(_primary(f) for f in node.factors)
    if isinstance(node, SumS4):
        return f"sumS4( {pretty(node.body)} )"
    if isinstance(node, EntrySel):
        return f"{pretty(node.base)}[{node.i},{node.j}]"
    if isinstance(node, Square):
        return f"{pretty(node.base)}^2"
    if isinstance(node, MCLAtom):
        return f"MCL({node.factor})"
    if isinstance(node, MCRAtom):
        return f"MCR({node.factor})"
    if isinstance(node, XAtom):
        return "X"
    raise TypeError(f"not an expression node: {node!r}")


def nerve_d_prime(f: FormEval) -> FormEval:
    """d' of a form on the nerve level p as the alternating sum of its
    pullbacks along the nerve faces face_ng(i, .), i = 0..p+1, each a
    SmoothMap SO(4)^(p+1) -> SO(4)^p.  The package takes d' through the
    horizontal faces of `nerve.d_triple_complex` at q = 0 instead."""
    p = f.level
    total = None
    for i in range(p + 2):
        term = pullback(f, SmoothMap(p + 1, p, partial(face_ng, i),
                                     partial(face_ng_diff, i)))
        total = term if i == 0 else total + term if i % 2 == 0 else total - term
    return total
