"""The explicit degree-4 cochain on the SO(4) nerve and its building blocks.

Every evaluator is a signed sum over the 24 permutations tau of (1,2,3,4),
pairing matrix entries (tau1,tau2) against (tau3,tau4).  For any 4x4 matrices
that sum is the Pfaffian polarization of their skew parts,

    sum_tau sgn(tau) m1[tau1,tau2] m2[tau3,tau4] = pf(m1 - m1^T, m2 - m2^T),
    pf(A, B) = A12 B34 - A13 B24 + A14 B23 + A23 B14 - A24 B13 + A34 B12,

the wedge pairing on the six coordinates of so(4), which is how it is
evaluated here.  The cochains are

* a bi-invariant 3-form on SO(4) built from the left Maurer-Cartan form and
  its wedge square (coefficient 1/(192 pi^2)),
* a 2-form on SO(4)^2 pairing the left form of the first factor with the
  right form of the second (coefficient -1/(64 pi^2)),
* a polynomial 1-form pairing the argument X against both Maurer-Cartan
  forms (coefficient -1/(64 pi^2) on each half).

`cocycle(X)` builds the degree-4 cochain c = {(1, 0): e13 + mu(X),
(2, 0): e22} of forms over these evaluators, keyed like the levels of
`nerve`, and `COMPONENTS` names its (key, degree) pairs in order; the
checks of `harness` differentiate c and compare it, and nothing else
states its layout.

The 3-form is evaluated as two 3x3 determinants.  With c = _coords(h^T v)
for each tangent v, split into its self-dual and anti-self-dual halves
c+- = (c12 +- c34, c13 -+ c24, c14 +- c23), the 3-form is

    e13(v1, v2, v3) = -(3/2) / (192 pi^2)
                      * (det[c1+, c2+, c3+] + det[c1-, c2-, c3-]),

each determinant summed as (a x b) . c, so that swapping the first two
tangents negates the value and a repeated first pair gives 0.0, exactly.

`eval_alpha` pairs two polynomial paths in the skew matrices, the integral
over [0, 1] of the pairing of each path's derivative with the other path.
It is a polynomial integral, summed in closed form from the coefficients:
there are no quadrature nodes.

Every evaluator takes stacked points, tangents, arguments X and paths
(leading axes before the 4x4 ones) and then returns one value per stacked
entry; the coordinates are slices of m - m^T over the last two axes.
"""

from __future__ import annotations

import math

import numpy as np

from .formcalc import FormEval, check_base
from .matrixgroup import BASIS_PAIRS, GroupPoint, Tangent

_C192 = 1.0 / (192.0 * math.pi ** 2)
_C64 = -1.0 / (64.0 * math.pi ** 2)


def _coords(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries m[a,b] - m[b,a], a < b, of m - m^T in BASIS_PAIRS order,
    each with the stack shape of m."""
    return tuple(m[..., a - 1, b - 1] - m[..., b - 1, a - 1]
                 for a, b in BASIS_PAIRS)


def _pf(a, b) -> float:
    """Pfaffian polarization of two coordinate 6-tuples from `_coords`."""
    return (a[0] * b[5] - a[1] * b[4] + a[2] * b[3]
            + a[3] * b[2] - a[4] * b[1] + a[5] * b[0])


def _halves(c) -> tuple[tuple, tuple]:
    """The self-dual and anti-self-dual 3-vectors (c12 + c34, c13 - c24,
    c14 + c23) and (c12 - c34, c13 + c24, c14 - c23) of a `_coords` tuple."""
    c12, c13, c14, c23, c24, c34 = c
    return ((c12 + c34, c13 - c24, c14 + c23),
            (c12 - c34, c13 + c24, c14 - c23))


def _det3(a, b, c):
    """det[a, b, c] of three 3-vectors, summed as (a x b) . c."""
    return ((a[1] * b[2] - a[2] * b[1]) * c[0]
            + (a[2] * b[0] - a[0] * b[2]) * c[1]
            + (a[0] * b[1] - a[1] * b[0]) * c[2])


def eval_E13(pt: GroupPoint, v1: Tangent, v2: Tangent, v3: Tangent) -> float:
    """The bi-invariant 3-form at a one-factor point."""
    if pt.level != 1:
        raise ValueError("this 3-form lives on a single factor")
    check_base(pt, (v1, v2, v3))
    hT = pt.factors[0].mT
    (p1, m1), (p2, m2), (p3, m3) = (_halves(_coords(hT @ v.reps[0]))
                                    for v in (v1, v2, v3))
    return -1.5 * _C192 * (_det3(p1, p2, p3) + _det3(m1, m2, m3))


def eval_E22(pt: GroupPoint, t1: Tangent, t2: Tangent) -> float:
    """The left/right mixed 2-form at a two-factor point."""
    if pt.level != 2:
        raise ValueError("this 2-form lives on two factors")
    check_base(pt, (t1, t2))
    h1T = pt.factors[0].mT
    h2T = np.ascontiguousarray(pt.factors[1].mT)
    l1, l2 = (_coords(h1T @ t.reps[0]) for t in (t1, t2))
    r1, r2 = (_coords(t.reps[1] @ h2T) for t in (t1, t2))
    return 2.0 * _C64 * (_pf(l1, r2) - _pf(l2, r1))


def eval_mu(X: np.ndarray, pt: GroupPoint, v: Tangent) -> float:
    """The polynomial 1-form: X paired against both Maurer-Cartan forms."""
    if pt.level != 1:
        raise ValueError("the polynomial 1-form lives on a single factor")
    check_base(pt, (v,))
    h = pt.factors[0]
    x = _coords(X)
    return 2.0 * _C64 * (_pf(x, _coords(h.mT @ v.reps[0]))
                         + _pf(x, _coords(v.reps[0]
                                          @ np.ascontiguousarray(h.mT))))


# the (key, degree) of every component of `cocycle`, in its order
COMPONENTS = {"e13": ((1, 0), 3), "mu": ((1, 0), 1), "e22": ((2, 0), 2)}


def cocycle(X: np.ndarray) -> dict:
    """The degree-4 cochain c = {(1, 0): e13 + mu(X), (2, 0): e22} at X,
    laid out as `COMPONENTS`.  Its forms look the evaluators up by name
    when called, so a replaced module attribute reaches them."""
    return {(1, 0): {3: FormEval(3, 1, lambda pt, ts: eval_E13(pt, *ts)),
                     1: FormEval(1, 1, lambda pt, ts: eval_mu(X, pt, ts[0]))},
            (2, 0): {2: FormEval(2, 2, lambda pt, ts: eval_E22(pt, *ts))}}


def polynomial_path(coeffs) -> tuple[np.ndarray, ...]:
    """The path sum_k theta^k coeffs[k] in the skew matrices, theta in
    [0, 1], as its tuple of coefficients.  A coefficient may be a stack of
    matrices: the path is then a stack of paths."""
    return tuple(coeffs)


def eval_alpha(xi1: tuple[np.ndarray, ...],
               xi2: tuple[np.ndarray, ...]) -> float:
    """Antisymmetric path pairing C64 * int_0^1 <xi1', xi2> - <xi2', xi1>.

    With xi1 = sum a_j theta^j and xi2 = sum b_k theta^k, the shorter one
    padded with zero coefficients, the integral is the exact sum
    sum_{j<k} (j - k)/(j + k) (P(a_j, b_k) - P(a_k, b_j)) of the pairings
    P(x, y) = pf(x, y) + pf(y, x), twice the Pfaffian polarization.  P is
    symmetric bit for bit, so swapping the paths negates the value and
    equal paths give 0.0, both exactly.
    Stacked paths give one value each.
    """
    n = max(len(xi1), len(xi2))
    zero = (0.0,) * len(BASIS_PAIRS)

    def padded(xi: tuple) -> list:
        return [_coords(c) for c in xi] + [zero] * (n - len(xi))

    a, b = padded(xi1), padded(xi2)

    def pair(x, y):
        return _pf(x, y) + _pf(y, x)

    total = 0.0
    for k in range(n):
        for j in range(k):
            total = total + (j - k) / (j + k) * (pair(a[j], b[k])
                                                 - pair(a[k], b[j]))
    return _C64 * total
