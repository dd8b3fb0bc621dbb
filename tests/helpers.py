"""Random inputs and small forms that several test modules share.

Unlike `oracles.py`, nothing here is an independent reference: these are
conveniences built from the package's own primitives.  `nerve_d_prime` is
a second route to d' on the nerve, from other primitives than the route
the package takes, `exp_two_halves` a second route to the closed-form
exponential, one so(3) half at a time, and `stacked_chart_steps` a second
construction of an `exterior_d` chart.  `row_rng` calls numpy alone: it
is the stream that `harness.trial_draws` states for a row of a trial.
`block_tape` reads a fixed block of rows, and `trial_tape` one trial of a
check's stream, unstacked.
`platform_probe` reads how the platform rounds the kernels the checks
run, from fixed inputs.  `signed_permutations_in_order` builds the table of
`harness.signed_permutations` one matrix at a time, and `NERVE_DEFECTS` are
planted defects in the nerve maps, each a stand-in for one `nerve` name.
"""

import hashlib
import itertools
import zlib
from functools import partial

import numpy as np
import pytest

from nervecheck.formcalc import FormEval, SmoothMap, pullback
from nervecheck.formdsl import EntrySel, Scale, Sum, SumS4, Wedge
from nervecheck.harness import DrawTape, trial_draws
from nervecheck.matrixgroup import (_MINUS, _PLUS, BASIS_PAIRS, DIM,
                                    GroupPoint, Tangent, exp_matrix,
                                    skew_from_coords)
from nervecheck.nerve import degeneracy_ng, face_ng, face_ng_diff


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


def row_rng(seed: int, check_id: str, trial: int,
            row: int) -> np.random.Generator:
    """The stream of a check, as numpy seeds it, at the first of the six
    doubles of one row of one trial: position (row * 2**64 + trial) * 6."""
    tag = zlib.crc32(check_id.encode("utf-8"))
    stream = np.random.PCG64(np.random.SeedSequence([seed % 2**32, tag]))
    stream.advance((row * 2**64 + trial) * 6)
    return np.random.Generator(stream)


def block_tape(block) -> DrawTape:
    """A draw tape over the rows of a fixed block, (N, size, 6) for a stack
    or (size, 6) for one sample, read in order."""
    return DrawTape(lambda r, k: block[..., r:r + k, :])


def trial_tape(seed: int, check_id: str, trial: int) -> DrawTape:
    """The unstacked draw tape of one trial of a check's stream: a read of
    k rows is a (k, 6) array."""
    read = trial_draws(seed, check_id, [trial])
    return DrawTape(lambda r, k: read(r, k)[0])


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


def distinct_wedges(count: int) -> str:
    """A sum of `count` wedges of 12 tangent slots on SO(4)^3, each of
    1-forms and squares MCR(k)^2 in its own order, so that no two share a
    degree tuple and each has a fold plan of its own."""
    ones = [f"MCL({k})[{a},{b}]" for k in (1, 2, 3) for a, b in BASIS_PAIRS]
    terms = []
    for n in range(7):
        for twos in itertools.combinations(range(12 - n), n):
            factors, k = [], 0
            for i in range(12 - n):
                if i in twos:
                    factors.append(f"MCR({1 + i % 3})^2[1,2]")
                else:
                    factors.append(ones[k])
                    k += 1
            terms.append(" ".join(factors))
            if len(terms) == count:
                return " + ".join(terms)
    raise ValueError(f"fewer than {count} degree tuples of 12 slots")


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
        atom = "X" if node.atom == "X" else f"{node.atom}({node.factor})"
        power = "^2" if node.square else ""
        return f"{atom}{power}[{node.i},{node.j}]"
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


def signed_permutations_in_order() -> np.ndarray:
    """The 192 signed 4x4 permutation matrices of determinant +1, one at a
    time, in the order that `harness.signed_permutations` states."""
    mats = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            m = np.zeros((4, 4))
            m[range(4), perm] = signs
            if round(np.linalg.det(m)) == 1:
                mats.append(m)
    return np.array(mats)


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


# (id, the `nerve` name it replaces, the defect)
NERVE_DEFECTS = (
    ("swapped-product", "face_ng", _swapped_face),
    ("shifted-middle-face", "face_ng", _shifted_face),
    ("degeneracy-at-i+1", "degeneracy_ng", _degeneracy_one_up),
    ("gamma-inverse-first", "gamma", _other_gamma),
)


def _sinc(theta: np.ndarray) -> np.ndarray:
    """sin(theta) / theta, and the series 1 - theta^2/6 below 1e-4."""
    small = theta < 1e-4
    safe = np.where(small, 1.0, theta)
    return np.where(small, 1.0 - theta * theta / 6.0, np.sin(safe) / safe)


def _half(u1, u2, u3) -> np.ndarray:
    """(cos(t), sinc(t) u1, sinc(t) u2, sinc(t) u3), t = |u|, as a (..., 4)
    array: the four numbers of one factor of the exponential."""
    t = np.sqrt(u1 * u1 + u2 * u2 + u3 * u3)
    s = _sinc(t)
    return np.stack([np.cos(t), s * u1, s * u2, s * u3], axis=-1)


def exp_two_halves(x: np.ndarray) -> np.ndarray:
    """exp of a skew 4x4 matrix or of each matrix of a stack (..., 4, 4) by
    the closed form of `matrixgroup.exp_coords`, one so(3) half at a time:
    each half reads its three coordinates from the matrix entries, passes
    them through its own `_half`, and meets its own sign table in its own
    product.  The package runs both halves in one pass over the drawn
    coordinates; the two routes give the same bits."""
    x = np.asarray(x, dtype=float)
    a12, a13, a14 = x[..., 0, 1], x[..., 0, 2], x[..., 0, 3]
    a23, a24, a34 = x[..., 1, 2], x[..., 1, 3], x[..., 2, 3]
    plus = _half(0.5 * (a12 + a34), 0.5 * (a13 - a24), 0.5 * (a14 + a23))
    minus = _half(0.5 * (a12 - a34), 0.5 * (a13 + a24), 0.5 * (a14 - a23))
    return ((plus @ _PLUS).reshape(x.shape)
            @ (minus @ _MINUS).reshape(x.shape))


# The exponential of a fixed stack by the half-at-a-time route of
# `exp_two_halves`, which test_matrixgroup pins bit-equal to exp_matrix:
# coordinates that are exact binary fractions in [-2, 2], and the same
# times 1e-5, the scale of exterior_d's charts.  Then the kinds of rounding
# step the checks take after it: contiguous and strided 4x4 products, and
# the signed 24-term einsum sum of formdsl's S4 sums.  The probe reads how
# the platform rounds these from fixed inputs, without reading the
# package's kernels or its random streams, so a kernel or a stream that
# changes the bits fails a digest test instead of skipping it.
PLATFORM_PROBE_DIGEST = (
    "08edc7574ccbe8600a9439f39118c0afc27c978ae2441e96b8369de4aa028c69")


def platform_probe() -> np.ndarray:
    c = ((np.arange(600.0) * 37.0) % 97.0 - 48.0).reshape(100, 6) / 24.0
    h = exp_two_halves(skew_from_coords(np.stack([c, 1e-5 * c])))
    prods = (h @ h[:, ::-1]) @ h.mT
    terms = np.concatenate([h.reshape(2, 100, 16),
                            prods.reshape(2, 100, 16)[..., :8]], axis=-1)
    sums = np.einsum("p,...p->...", np.resize([1.0, -1.0], 24), terms)
    return np.concatenate([h.ravel(), prods.ravel(), sums.ravel()])


def skip_unless_recorded_platform() -> None:
    """Skip a digest test where the platform rounds the probe differently
    from the platform that recorded the digests: they pin the residuals'
    last bits, which depend on how it rounds sin, cos, 4x4 products and
    einsum sums."""
    if digest(platform_probe()) != PLATFORM_PROBE_DIGEST:
        pytest.skip("this platform rounds the samples differently")


def stacked_chart_steps(h: np.ndarray, vs, fd_step: float):
    """The chart of `formcalc._chart_steps` built by stacking: the right
    coordinates X_i = v_i h^T as a list, one `exp_matrix` of their stack
    times fd_step, and every step exp(+-fd_step X_i) interleaved in one
    (2(r+1), ..., 4, 4) array, which the stepped points and the first
    2(s+1) steps of each field s multiply."""
    hT = np.ascontiguousarray(h.mT)
    xs = [v @ hT for v in vs]
    plus = exp_matrix(fd_step * np.stack(xs))
    e = np.stack([plus, plus.mT], axis=1).reshape(
        (2 * len(vs),) + plus.shape[1:])
    m = e @ h
    fields = []
    for s in range(len(vs) - 1):
        field = np.empty(m.shape)
        np.matmul(e[:2 * s + 2], vs[s + 1], out=field[:2 * s + 2])
        np.matmul(xs[s], m[2 * s + 2:], out=field[2 * s + 2:])
        fields.append(field)
    return m, fields
