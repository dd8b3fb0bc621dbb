"""SO(4) primitives: group/tangent containers, skew basis, exponential.

Everything downstream works with tuples of 4x4 orthogonal matrices ("points on
a product of SO(4) factors") and tangent vectors stored as ambient matrices,
one per factor.  A matrix V is tangent to SO(4) at h exactly when h^T V is
skew-symmetric.

Every matrix may carry leading stack axes: a factor or a tangent rep of
shape (N, 4, 4) holds N points at once, and `exp_matrix`, `exp_coords`,
`skew_from_coords` and the containers' validation work slice by slice on
such stacks.  The matrix transpose is therefore always `.mT`, a swap of the
last two axes.

The exponential has two entry points and one closed form.  `exp_coords`
takes the six coordinates of each skew matrix, (..., 6) in `BASIS_PAIRS`
order, and is the kernel: both so(3) halves of the argument run in one
pass, as a (2, 4, M) pair of four numbers over the M matrices.
`exp_matrix` takes skew matrices (..., 4, 4), checks that they are skew,
and hands their `skew_coords` to `exp_coords`.  No check calls it: the
samplers call `exp_coords` on their drawn coordinates, and the charts of
`formcalc.exterior_d` on the `skew_coords` of their skew steps.

A stacked product whose right operand is such a transpose, `v @ h.mT`,
falls to numpy's strided matmul loop, three to four times slower than the
product with a contiguous right operand.  Where that product is on a hot
path (the charts of `formcalc.exterior_d`, `mc_right`, the right
Maurer-Cartan terms of the cochains, gamma, the conjugation action) the code
multiplies by `np.ascontiguousarray(h.mT)` instead: the copy holds the same
numbers, and the product gives the same bits.  A transposed left operand
needs no copy: `plus.mT @ h` gives the bits of the product with one, in
less time (39 against 50 us on 400 matrices, one Xeon core).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Unused; benchmarks/run.py (import_times) reads its import time without a guard.
import scipy.linalg  # noqa: F401

DIM = 4

#: index pairs (1-based) naming the six skew basis elements, in fixed order
BASIS_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
# the same pairs as 0-based row and column index arrays
_ROWS = np.array([a - 1 for a, _ in BASIS_PAIRS])
_COLS = np.array([b - 1 for _, b in BASIS_PAIRS])


@dataclass(frozen=True, eq=False)
class GroupPoint:
    """A point of SO(4)^p, stored as a tuple of 4x4 orthogonal matrices."""

    factors: tuple[np.ndarray, ...]

    @property
    def level(self) -> int:
        return len(self.factors)


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector at ``base``: one ambient 4x4 matrix per factor."""

    base: GroupPoint
    reps: tuple[np.ndarray, ...]


def identity_point(level: int) -> GroupPoint:
    """The identity element of SO(4)^level."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return GroupPoint(tuple(np.eye(DIM) for _ in range(level)))


def basis_so4() -> tuple[np.ndarray, ...]:
    """The six skew matrices E_ab (entry (a,b) = +1, (b,a) = -1), a < b."""
    out = []
    for a, b in BASIS_PAIRS:
        m = np.zeros((DIM, DIM))
        m[a - 1, b - 1] = 1.0
        m[b - 1, a - 1] = -1.0
        out.append(m)
    return tuple(out)


def basis_element(a: int, b: int) -> np.ndarray:
    """E_ab for 1 <= a < b <= 4."""
    if not (1 <= a < b <= DIM):
        raise ValueError("need 1 <= a < b <= 4")
    return basis_so4()[BASIS_PAIRS.index((a, b))]


def skew_from_coords(coords) -> np.ndarray:
    """Skew matrix with the six coordinates (last axis) in BASIS_PAIRS order."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1:] != (6,):
        raise ValueError("need exactly six coordinates")
    m = np.zeros(coords.shape[:-1] + (DIM, DIM))
    m[..., _ROWS, _COLS] = coords
    m[..., _COLS, _ROWS] = -coords
    return m


def _sinc(theta: np.ndarray) -> np.ndarray:
    """sin(theta) / theta for theta >= 0; the series 1 - theta^2/6 below 1e-4
    is exact to double precision there."""
    out = 1.0 - theta * theta / 6.0
    np.divide(np.sin(theta), theta, out=out, where=theta >= 1e-4)
    return out


def _sign_table(layout) -> np.ndarray:
    """The (4, 16) table T for which (c, s1, s2, s3) @ T is the row-major
    4x4 matrix whose entries `layout` names: 0 names c, +-k names +-sk."""
    table = np.zeros((4, DIM * DIM))
    for n, k in enumerate(layout):
        table[abs(k), n] = -1.0 if k < 0 else 1.0
    return table


# cos(t) I + sinc(t) A+- over (cos(t), sinc(t) u1, sinc(t) u2, sinc(t) u3),
# with u the coordinates of A+ (plus) or A- (minus) named in exp_coords
_PLUS = _sign_table((0, 1, 2, 3, -1, 0, 3, -2, -2, -3, 0, 1, -3, 2, -1, 0))
_MINUS = _sign_table((0, 1, 2, 3, -1, 0, -3, 2, -2, 3, 0, -1, -3, -2, 1, 0))
_TABLES = np.stack([_PLUS, _MINUS])
# u = (a[:3] + S a[5:2:-1]) / 2 on the coordinates a = (a12, a13, a14, a23,
# a24, a34): row 0 of S gives A+ on E12+E34, E13-E24, E14+E23, row 1 gives
# A- on E12-E34, E13+E24, E14-E23
_S = np.array([[[1.0], [-1.0], [1.0]], [[-1.0], [1.0], [-1.0]]])


def exp_coords(c) -> np.ndarray:
    """exp of the skew matrix with the six coordinates c (last axis) in
    BASIS_PAIRS order, or of each matrix of a stack (..., 6): (..., 4, 4),
    in closed form (lands in SO(4)).

    A skew A splits into commuting self-dual and anti-self-dual halves
    A+ = (A + *A)/2 and A- = (A - *A)/2, where *A is the Hodge dual
    ((*A)_12 = A_34, (*A)_13 = -A_24, (*A)_14 = A_23).  Each half squares to
    a multiple of the identity, A+^2 = -t+^2 I and A-^2 = -t-^2 I, so

        exp(A) = (cos(t+) I + sinc(t+) A+) (cos(t-) I + sinc(t-) A-),

    the so(3) + so(3) form of Gallier & Xu, "Computing exponentials of
    skew-symmetric matrices and logarithms of orthogonal matrices" (2002).
    Both factors are orthogonal to roundoff for every argument.

    One pass serves both halves.  Over the M matrices, the coordinates u of
    A+ and A- are one (2, 3, M) array, so t = |u|, sinc(t) and cos(t) run
    once over (2, M), and the two halves' four numbers (cos(t), sinc(t) u)
    form one (2, 4, M) pair.  The pair meets the constant (4, 16) sign
    tables `_PLUS` and `_MINUS` in one stacked product: every entry of a
    factor is one of its four numbers or its negative, so the product only
    copies and negates them, exactly.  The arrays keep the matrices on the
    last axis, so each elementwise step runs over M numbers at a time.

    This entry point takes coordinates; `exp_matrix` takes skew matrices
    and gives the same bits as exp_coords(c) on skew_from_coords(c).
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-1:] != (6,):
        raise ValueError("need exactly six coordinates")
    shape = c.shape[:-1]
    a = np.ascontiguousarray(c.reshape(-1, 6).T)
    u = 0.5 * (a[:3] + _S * a[5:2:-1])
    sq = u * u
    t = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    pair = np.empty((2, 4) + t.shape[1:])
    pair[:, 0] = np.cos(t)
    np.multiply(_sinc(t)[:, None], u, out=pair[:, 1:])
    plus, minus = (pair.mT @ _TABLES).reshape((2,) + shape + (DIM, DIM))
    return plus @ minus


def skew_coords(x: np.ndarray) -> np.ndarray:
    """The six coordinates (..., 6) in BASIS_PAIRS order of a skew matrix
    or stack (..., 4, 4), read above the diagonal; nothing is checked."""
    return x[..., _ROWS, _COLS]


def exp_matrix(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of a 4x4 skew matrix, or of each matrix of a stack
    (..., 4, 4), in the closed form of `exp_coords` (lands in SO(4)): the
    argument is checked to be skew and its `skew_coords` are handed on."""
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (DIM, DIM):
        raise ValueError(f"need a 4x4 matrix, got shape {x.shape}")
    # a NaN entry fails the comparison too
    if not np.all(np.abs(x + x.mT) <= 1e-10):
        raise ValueError("exp_matrix expects a skew-symmetric argument")
    return exp_coords(skew_coords(x))
