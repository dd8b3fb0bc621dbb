"""Independent oracle implementations used only by the tests.

Everything here deliberately avoids the code paths of the package under test:
permutation signs come from cycle decomposition (the package counts
inversions), wedge products antisymmetrize over the full symmetric group with
1/(r!s!) normalization (the package enumerates shuffles), the permutation
sums contract against an explicit Levi-Civita tensor (the package evaluates
the Pfaffian pairing of skew parts), the path integral uses Gauss-Legendre
nodes (the package uses composite Simpson), and finite differences move
along scipy's Pade exponential (the package has a closed form).
"""

import itertools
import math

import numpy as np


def cycle_sign(perm) -> int:
    """Permutation sign via cycle decomposition; perm maps position -> image."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def wedge_oracle(f, r, g, s):
    """(f ^ g) by full antisymmetrization, scaled by 1/(r! s!)."""

    def evaluate(pt, *vs):
        assert len(vs) == r + s
        total = 0.0
        for perm in itertools.permutations(range(r + s)):
            first = [vs[i] for i in perm[:r]]
            second = [vs[i] for i in perm[r:]]
            total += cycle_sign(perm) * f(pt, *first) * g(pt, *second)
        return total / (math.factorial(r) * math.factorial(s))

    return evaluate


def levi_civita4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = cycle_sign(perm)
    return eps


_EPS4 = levi_civita4()


def eps_contract(a: np.ndarray, b: np.ndarray) -> float:
    """sum over permutations tau of sgn(tau) a[tau1,tau2] b[tau3,tau4]."""
    return float(np.einsum("abcd,ab,cd->", _EPS4, a, b))


def eps_pair(a: np.ndarray, b: np.ndarray) -> float:
    """The symmetrized pairing: both (ab,cd) and (cd,ab) orderings."""
    return eps_contract(a, b) + eps_contract(b, a)


def oracle_e13(pt, v1, v2, v3) -> float:
    """Levi-Civita route to the degree-3 evaluator at a one-factor point."""
    h_inv = pt.factors[0].T

    def omega_entry(a, b):
        return lambda p, v: float((h_inv @ v.reps[0])[a, b])

    def omega_sq_entry(a, b):
        # full 2-permutation antisymmetrization of the matrix product,
        # no commutator shortcut
        def ev(p, u, w):
            mu = h_inv @ u.reps[0]
            mw = h_inv @ w.reps[0]
            return float((mu @ mw)[a, b] - (mw @ mu)[a, b])
        return ev

    total = 0.0
    for quad in itertools.permutations(range(4)):
        a, b, c, d = quad
        sign = cycle_sign(quad)
        first = wedge_oracle(omega_entry(a, b), 1, omega_sq_entry(c, d), 2)
        second = wedge_oracle(omega_entry(c, d), 1, omega_sq_entry(a, b), 2)
        total += sign * (first(pt, v1, v2, v3) + second(pt, v1, v2, v3))
    return total / (192.0 * math.pi ** 2)


def oracle_e22(pt, t1, t2) -> float:
    h1_inv = pt.factors[0].T
    h2_inv = pt.factors[1].T
    lefts = [h1_inv @ t.reps[0] for t in (t1, t2)]
    rights = [t.reps[1] @ h2_inv for t in (t1, t2)]
    # wedge of the two 1-forms by 2-element antisymmetrization
    value = eps_pair(lefts[0], rights[1]) - eps_pair(lefts[1], rights[0])
    return -value / (64.0 * math.pi ** 2)


def oracle_mu(x, pt, v) -> float:
    h_inv = pt.factors[0].T
    wl = h_inv @ v.reps[0]
    wr = v.reps[0] @ h_inv
    return -(eps_pair(x, wl) + eps_pair(x, wr)) / (64.0 * math.pi ** 2)


def oracle_alpha(xi1, xi2, n_nodes: int = 48) -> float:
    """Gauss-Legendre route to the path pairing integral."""
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    theta = 0.5 * (xs + 1.0)
    weight = 0.5 * ws
    total = 0.0
    for t, w in zip(theta, weight):
        total += w * (eps_pair(xi1.deriv(t), xi2.value(t))
                      - eps_pair(xi2.deriv(t), xi1.value(t)))
    return -total / (64.0 * math.pi ** 2)


def fd_directional(fn, pt_factors, skews, step: float = 1e-6) -> float:
    """Central difference of a scalar function of a factor tuple along
    right-translated directions exp(t*skew) @ factor."""
    from scipy.linalg import expm

    def shifted(t):
        return tuple(expm(t * s) @ h for s, h in zip(skews, pt_factors))

    return (fn(shifted(step)) - fn(shifted(-step))) / (2.0 * step)


def fd_map_differential(m, t, step: float = 1e-5):
    """Central difference of a smooth map along the right-translated curve
    exp(s * v h^T) @ h of the tangent t, factor by factor."""
    from scipy.linalg import expm

    from nervecheck.matrixgroup import GroupPoint, Tangent

    pt = t.base
    xs = [v @ h.T for v, h in zip(t.reps, pt.factors)]

    def curve(s):
        return m.apply(GroupPoint(tuple(
            expm(s * x) @ h for x, h in zip(xs, pt.factors))))

    plus, minus = curve(step), curve(-step)
    return Tangent(m.apply(pt), tuple(
        (a - b) / (2.0 * step) for a, b in zip(plus.factors, minus.factors)))
