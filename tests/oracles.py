"""Independent oracle implementations used only by the tests.

Everything here deliberately avoids the code paths of the package under test:
permutation signs come from cycle decomposition (the package counts
inversions), wedge products antisymmetrize over the full symmetric group with
1/(r!s!) normalization (the package enumerates shuffles), the permutation
sums contract against an explicit Levi-Civita tensor (the package evaluates
the Pfaffian pairing of skew parts), the path integral evaluates the paths at
Gauss-Legendre nodes (the package sums a closed form over pairs of
coefficients), finite differences move along scipy's Pade exponential (the
package has a closed form), the expression evaluator substitutes each
permutation into a sumS4 body (the package contracts one lowered body with a
Levi-Civita tensor), and the reference sampler draws each matrix's six
coordinates with its own `uniform` call (the package reads stacked rows off
a draw tape).
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


def oracle_alpha(coeffs1, coeffs2, n_nodes: int = 48) -> float:
    """Gauss-Legendre route to the pairing integral of the two paths
    sum_k theta^k coeffs[k], each given as a list of 4x4 coefficients and
    evaluated term by term at the nodes, with its derivative."""
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    theta = 0.5 * (xs + 1.0)
    weight = 0.5 * ws

    def value(coeffs, t):
        return sum((t ** k * np.asarray(c) for k, c in enumerate(coeffs)),
                   np.zeros((4, 4)))

    def deriv(coeffs, t):
        return sum((k * t ** (k - 1) * np.asarray(c)
                    for k, c in enumerate(coeffs) if k), np.zeros((4, 4)))

    total = 0.0
    for t, w in zip(theta, weight):
        total += w * (eps_pair(deriv(coeffs1, t), value(coeffs2, t))
                      - eps_pair(deriv(coeffs2, t), value(coeffs1, t)))
    return -total / (64.0 * math.pi ** 2)


class PerCallSampler:
    """Skew coordinates drawn one `rng.uniform(-s, s, 6)` call at a time:
    one row per call from a single generator, or one row from each
    generator of a tuple, stacked."""

    def __init__(self, rngs):
        self.rngs = rngs

    def coords(self, scale: float) -> np.ndarray:
        if isinstance(self.rngs, np.random.Generator):
            return self.rngs.uniform(-scale, scale, 6)
        return np.stack([rng.uniform(-scale, scale, 6) for rng in self.rngs])


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


def dsl_substitute(node, images):
    """A parsed expression with p1..p4 replaced by `images` throughout,
    the bodies of nested sumS4 included."""
    from nervecheck.formdsl import EntrySel, Scale, Sum, SumS4, Wedge

    if isinstance(node, EntrySel):
        def idx(k):
            return images[int(k[1]) - 1] if isinstance(k, str) else k
        return EntrySel(node.atom, node.factor, node.square, idx(node.i),
                        idx(node.j))
    if isinstance(node, SumS4):
        return SumS4(dsl_substitute(node.body, images))
    if isinstance(node, Wedge):
        return Wedge(tuple(dsl_substitute(f, images) for f in node.factors))
    if isinstance(node, Scale):
        return Scale(node.num, node.den, node.inv_pi2,
                     dsl_substitute(node.body, images))
    if isinstance(node, Sum):
        return Sum(tuple(dsl_substitute(t, images) for t in node.terms),
                   node.ops)
    raise TypeError(f"not an expression node: {node!r}")


def dsl_eval(node, pt, ts, x=None) -> tuple[float, float]:
    """A parsed expression evaluated at (pt, ts, x) by brute force, and the sum
    of the absolute values of its summands (the scale of its roundoff).

    Every sumS4 substitutes each of the 24 permutations into its body
    literally; every wedge antisymmetrizes over all orderings of its
    tangent slots with 1/(r_1! ... r_n!) normalization.  Only the AST node
    types come from the package.
    """
    from nervecheck.formdsl import EntrySel, Scale, Sum, SumS4, Wedge

    left = [[h.T @ v for h, v in zip(pt.factors, t.reps)] for t in ts]
    right = [[v @ h.T for h, v in zip(pt.factors, t.reps)] for t in ts]
    perms = [(tuple(k + 1 for k in p), cycle_sign(p))
             for p in itertools.permutations(range(4))]
    # The 24 substituted bodies of a nested sum are one and the same node.
    memo = {}

    def degree(n) -> int:
        if isinstance(n, EntrySel):
            return 0 if n.atom == "X" else 2 if n.square else 1
        if isinstance(n, Wedge):
            return sum(degree(f) for f in n.factors)
        if isinstance(n, (Scale, SumS4)):
            return degree(n.body)
        return degree(n.terms[0])

    def entry(n, slots) -> float:
        i, j = n.i - 1, n.j - 1
        if n.atom == "X":
            return float(x[i, j])
        mats = left if n.atom == "MCL" else right
        k = n.factor - 1
        if n.square:
            total = 0.0
            for perm in itertools.permutations(slots):
                sign = cycle_sign([slots.index(s) for s in perm])
                total += sign * (mats[perm[0]][k] @ mats[perm[1]][k])[i, j]
            return total
        return float(mats[slots[0]][k][i, j])

    def value(n, slots) -> tuple[float, float]:
        key = (n, slots)
        if key in memo:
            return memo[key]
        if isinstance(n, EntrySel):
            v = entry(n, slots)
            out = (v, abs(v))
        elif isinstance(n, Wedge):
            degs = [degree(f) for f in n.factors]
            norm = math.prod(math.factorial(d) for d in degs)
            total = size = 0.0
            for perm in itertools.permutations(range(len(slots))):
                prod, mag, pos = 1.0, 1.0, 0
                for f, d in zip(n.factors, degs):
                    v, m = value(f, tuple(slots[p] for p in perm[pos:pos + d]))
                    prod, mag, pos = prod * v, mag * m, pos + d
                total += cycle_sign(perm) * prod
                size += mag
            out = (total / norm, size / norm)
        elif isinstance(n, Scale):
            c = n.num / n.den / (math.pi ** 2 if n.inv_pi2 else 1.0)
            v, m = value(n.body, slots)
            out = (c * v, abs(c) * m)
        elif isinstance(n, SumS4):
            total = size = 0.0
            for images, sign in perms:
                v, m = value(dsl_substitute(n.body, images), slots)
                total += sign * v
                size += m
            out = (total, size)
        elif isinstance(n, Sum):
            total, size = value(n.terms[0], slots)
            for op, term in zip(n.ops, n.terms[1:]):
                v, m = value(term, slots)
                total = total + v if op == "+" else total - v
                size += m
            out = (total, size)
        else:
            raise TypeError(f"not an expression node: {n!r}")
        memo[key] = out
        return out

    return value(node, tuple(range(len(ts))))
