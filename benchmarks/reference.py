"""Expected outputs, computed apart from the program with numpy alone.

Permutation signs come from cycle decomposition, the permutation sums are
Levi-Civita contractions, and wedge products antisymmetrize over every
ordering of the tangents with 1/(r! s!) normalization.  None of this shares
code with nervecheck, which counts inversions, loops over a signed
permutation table and enumerates shuffles.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS64 = np.finfo(float).eps
INV_PI2 = 1.0 / math.pi ** 2

# Golden values: the basis evaluations at the identity and the exact
# multiples of 1/pi^2 they must equal.
GOLDEN = {
    "mu": -INV_PI2 / 4.0,
    "e22": -INV_PI2 / 8.0,
    "alpha": -INV_PI2 / 8.0,
    "e13": -INV_PI2 / 8.0,
    "e13-degenerate": 0.0,
}
GOLDEN_TOL = 1e-12


def perm_sign(perm) -> int:
    """Sign of a permutation of 0..n-1 from its cycle decomposition."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


S4 = tuple((perm_sign(p), p) for p in itertools.permutations(range(4)))
LEVI_CIVITA = np.zeros((4, 4, 4, 4))
for _sign, _perm in S4:
    LEVI_CIVITA[_perm] = _sign


def eps_pair(a: np.ndarray, b: np.ndarray) -> float:
    """sum over tau of sgn(tau) (a[t1,t2] b[t3,t4] + b[t1,t2] a[t3,t4])."""
    return float(np.einsum("abcd,ab,cd->", LEVI_CIVITA, a, b)
                 + np.einsum("abcd,ab,cd->", LEVI_CIVITA, b, a))


def _bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# the three cochains


def e13(factors, tangents) -> float:
    """(1/192 pi^2) sum sgn (w ^ w^2 + w^2 ^ w) on the left form w = h^-1 dh."""
    h = factors[0]
    a = [h.T @ t[0] for t in tangents]
    val = (eps_pair(a[0], _bracket(a[1], a[2]))
           - eps_pair(a[1], _bracket(a[0], a[2]))
           + eps_pair(a[2], _bracket(a[0], a[1])))
    return val * INV_PI2 / 192.0


def e22(factors, tangents) -> float:
    """(-1/64 pi^2) sum sgn (L1 ^ R2 + R2 ^ L1), left form of factor 1 and
    right form of factor 2."""
    h1, h2 = factors
    left = [h1.T @ t[0] for t in tangents]
    right = [t[1] @ h2.T for t in tangents]
    val = eps_pair(left[0], right[1]) - eps_pair(left[1], right[0])
    return -val * INV_PI2 / 64.0


def mu(x, factors, tangents) -> float:
    """(-1/64 pi^2) sum sgn X paired with the left and the right form."""
    h = factors[0]
    v = tangents[0][0]
    return -(eps_pair(x, h.T @ v) + eps_pair(x, v @ h.T)) * INV_PI2 / 64.0


def cochain(name: str, point) -> float:
    if name == "e13.form":
        return e13(point.factors, point.tangents)
    if name == "e22.form":
        return e22(point.factors, point.tangents)
    if name == "mu.form":
        return mu(point.x, point.factors, point.tangents)
    raise ValueError(name)


def cochain_tol(value: float) -> float:
    """Roundoff allowance for a 24-term sum of products of O(1) entries."""
    return 1e-13 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# the structural equation d w + w ^ w = 0 for the left Maurer-Cartan form


def mc_bracket(factors, tangents, a: int, b: int) -> float:
    """Entry (a, b) of -[w(v), w(w)]: the exterior derivative of w_ab."""
    h = factors[0]
    return float(-_bracket(h.T @ tangents[0][0], h.T @ tangents[1][0])[a, b])


def fd_bound(step: float, factors, tangents) -> float:
    """Truncation plus roundoff bound of a central difference of w_ab.

    The truncation term of a central difference is step^2/6 times a third
    derivative along exp(t X) h, of size |X|^3 for |X| the largest tangent
    coordinate; the roundoff term is eps / step times the size of the
    differenced values.  Both carry a factor 10 of headroom.
    """
    h = factors[0]
    size = max(float(np.max(np.abs(h.T @ t[0]))) for t in tangents)
    size = 1.0 + 4.0 * size  # a row of 4 entries bounds the operator norm
    return 10.0 * (step ** 2 / 6.0 * size ** 3 + EPS64 / step * size ** 2)


# ---------------------------------------------------------------------------
# dsl-eval: direct evaluation of a generated term list


def _factor_value(kind, k, i, j, slots, point, left, right) -> float:
    if kind == "X":
        return float(point.x[i - 1, j - 1])
    mats = left if kind.startswith("MCL") else right
    if kind.endswith("^2"):
        u, w = slots
        m = mats[u][k - 1] @ mats[w][k - 1] - mats[w][k - 1] @ mats[u][k - 1]
    else:
        (u,) = slots
        m = mats[u][k - 1]
    return float(m[i - 1, j - 1])


def _wedge(factors, env, point, left, right) -> tuple[float, float]:
    """Value and size of a wedge of factor forms, by full antisymmetrization."""
    degrees = [0 if f[0] == "X" else 2 if f[0].endswith("^2") else 1
               for f in factors]
    n = sum(degrees)
    norm = math.prod(math.factorial(d) for d in degrees)
    resolved = []
    for kind, k, i, j in factors:
        resolved.append((kind, k, env.get(i, i) if env else i,
                         env.get(j, j) if env else j))
    total = size = 0.0
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm)
        prod = 1.0
        pos = 0
        for (kind, k, i, j), d in zip(resolved, degrees):
            prod *= _factor_value(kind, k, i, j, perm[pos:pos + d], point,
                                  left, right)
            pos += d
        total += sign * prod
        size += abs(prod)
    return total / norm, size / norm


def eval_terms(terms, point, env=None) -> tuple[float, float]:
    """Value of a term list at a point, and the sum of the absolute values of
    its summands (the scale of its roundoff)."""
    left = [[h.T @ v for h, v in zip(point.factors, t)] for t in point.tangents]
    right = [[v @ h.T for h, v in zip(point.factors, t)]
             for t in point.tangents]
    return _eval(terms, point, env, left, right)


def _eval(terms, point, env, left, right) -> tuple[float, float]:
    total = size = 0.0
    for term in terms:
        if term[0] == "wedge":
            (num, den, inv_pi2), factors = term[1], term[2]
            coeff = num / den * (INV_PI2 if inv_pi2 else 1.0)
            val, mag = _wedge(factors, env, point, left, right)
            total += coeff * val
            size += abs(coeff) * mag
            continue
        sign, body = term[1], term[2]
        if env is None:
            for s, perm in S4:
                sub = {f"p{k + 1}": perm[k] + 1 for k in range(4)}
                val, mag = _eval(body, point, sub, left, right)
                total += sign * s * val
                size += mag
        else:
            # The enclosing sumS4 has already put a permutation image in
            # place of every placeholder of this body, so its 24 summands
            # are equal and their signs cancel.
            val, mag = _eval(body, point, env, left, right)
            total += sign * sum(s for s, _ in S4) * val
            size += len(S4) * mag
    return total, size


def dsl_tol(size: float) -> float:
    """Roundoff allowance for a sum of products whose absolute values add up
    to `size`; a few hundred units in the last place."""
    return 1e-13 * max(1.0, size)
