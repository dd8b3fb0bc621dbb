"""Randomized verification harness.

Every check follows one protocol, held by its entry in `CHECKS`:

* `trial(cfg, tape)` takes the config of the run and the draw tape of a
  stack of trials, draws the sample of every trial and returns the raw
  residuals of the check's named components, one array over the trials per
  component;
* `reduce_rows` divides each component by its tolerance (1 where the check
  names none), takes the max over the components of a trial, and reports
  the max over trials with its trial index; the first worst trial wins.

Sampling is deterministic given (seed, check id, trial index): trial t of
check id owns the PCG64 stream that numpy's `SeedSequence` seeds from the
uint32 entropy words ``[seed mod 2**32, crc32(id), t]``, which is the stream
of ``default_rng([seed % 2**32, crc32(id), t])``.  Every trial draws from
its stream in the same order whatever the other trials draw, so adding
checks or reordering trials never perturbs existing runs, and
`trial_rows(cfg, [k])` replays trial k alone.  `trial_rngs` computes the
hash `SeedSequence` computes for all the trials of a stack at once, in
vectorized rounds of numpy uint32 arithmetic (the entropy words in, one
round of mixes per source word, the seed words out), and hands each PCG64
its four seed words as a C-contiguous row; NEP 19 freezes both the hash and
the stream, so the streams do not depend on the numpy version.  The samplers
stack the draws of the trials, and `trial` builds the forms and runs them,
the exponentials and the products once on the stack: a run walks each form
tree once per stack, not once per trial.  At most `CHUNK` trials form one
stack, so the intermediate arrays do not grow with the trial count.
`golden-values` evaluates fixed inputs: it reads no rows, seeds no stream
and runs one trial whatever `trials` is.

The samplers read a `DrawTape` of `Check.rows` rows of six uniforms per
trial, the rows one trial of the check reads.  At its first read the tape
fills its (N, rows, 6) block with one `random` call per trial's generator,
and then hands the rows out in stream order; a read past the block raises.
Six coordinates in [-s, s] are -s + 2s u of the next row u of every trial.
That is what `Generator.uniform(-s, s, 6)` computes from the same doubles,
so the tape draws the same numbers as one `uniform` call per matrix.
Drawing ahead changes nothing else, because no other code reads a trial's
stream.  A point of SO(4)^level is the exponential
(`exp_coords`) of its next `level` coordinate rows, taken in one call; no
skew matrix is built for it.  Tangents and algebra elements are skew
matrices built from their rows.

Nine checks are rows built by `_rows`: a residual builder returns a
cochain of forms {(p, q): {degree: form}}, drawing X or g first where it
needs them, and `cartanmodel.equivariant_total_check` reads the row's named
components {name: ((p, q), degree)} of it, drawing the levels in order of
first use; every level (p, q) is drawn as a point of SO(4)^(p+q), and a
nerve level p is the key (p, 0).  With c = {(1,0): e13 + mu(X),
(2,0): e22} of `eulercocycle.cocycle`, D = `cartanmodel.total_d` and
D3 = `nerve.total_d3`, the rows and the rows they draw before the levels
are

    lemma-4.1, 4.2, 4.3, equivariant-cocycle   D c at X            1: X
    euler-cocycle                              D c at X = 0        0
    mc-structure                               d omega + omega^2   0
    ad-invariance    c(X) - (conjugation by g)^* c(g X g^T)        2: g, X
    dsl-oracle       the interpreted corpus minus c(X)             1: X
    d-squared        D3^2 of {(1,0): omega + e13, (1,1): probe}    0

and a level (p, q) whose highest degree is k adds (p+q)(1+k) rows, its
point and k tangents.

`ad-invariance` and `dsl-oracle` read every component of c, as
`eulercocycle.COMPONENTS` lists them.

`d-squared` reads one (p, q, degree) component of D3^2 per block, drawn in
this order: d'''d''' (1,0,3), d'd' (3,0,1) and (3,0,3), the mixed block of
omega (2,0,2), and the probe's d'd'' (2,2,1), d'd''' (2,1,2), d''d''' (1,2,2).

`simplicial-identities` and `gamma-simplicial` compare two points factor by
factor.  They evaluate each inner face, degeneracy or gamma image of a
sampled level once, skip the factors that are the same array on both sides
(they agree exactly: a factor carried through unchanged, or the identity
that every degeneracy of one stack shape shares), and reduce the other
factors in one pass.

A NaN residual in any component fails the run: it reports an error of inf
at the first trial with a NaN.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from math import isfinite, pi
from typing import Callable, Optional, Sequence

import numpy as np

from . import formdsl
from .cartanmodel import equivariant_total_check, level_counts, total_d
from .eulercocycle import (COMPONENTS, cocycle, eval_alpha, eval_E13,
                           eval_E22, eval_mu, polynomial_path)
from .formcalc import (FD_STEP_DEFAULT, FormEval, SmoothMap, check_fd_step,
                       entry, exterior_d, matrix_wedge_square, mc_left,
                       mc_right, pullback)
from .matrixgroup import (GroupPoint, Tangent, basis_element, exp_coords,
                          identity_point, skew_from_coords)
from .nerve import (_conj_apply, degeneracy_ng, face_ng, face_pg, gamma,
                    total_d3)

# The most trials one run may ask for.  The slowest check, d-squared, takes
# about 0.2 ms a trial, so a run at the ceiling takes minutes; a larger
# count is taken for a typo and refused.
MAX_TRIALS = 1_000_000

# The most trials evaluated as one stack (see the module docstring).
CHUNK = 256


@dataclass(frozen=True)
class CheckConfig:
    check_id: str
    trials: int = 200
    seed: int = 42
    fd_step: float = FD_STEP_DEFAULT
    tol: Optional[float] = None  # None -> per-check default

    def resolved_tol(self) -> float:
        return DEFAULT_TOLS[self.check_id] if self.tol is None else self.tol

    def validate(self) -> "CheckConfig":
        if self.check_id not in CHECK_IDS:
            raise ValueError(f"unknown check id {self.check_id!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
        check_fd_step(self.fd_step)
        if self.tol is not None and not (self.tol > 0 and isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        return self


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    trials: int
    seed: int
    fd_step: float
    tol: float
    max_abs_err: float
    passed: bool
    elapsed_ms: int
    worst_trial: int

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "trials": self.trials,
            "seed": self.seed,
            "fd_step": self.fd_step,
            "tol": self.tol,
            "max_abs_err": self.max_abs_err,
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
            "worst_trial": self.worst_trial,
        }


# ---------------------------------------------------------------------------
# trial streams, seeded a stack at a time (see the module docstring)

# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx),
# which NEP 19 freezes together with the PCG64 stream.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4  # SeedSequence's default pool size, in uint32 words


def _hash_steps(init: int, mult: int, count: int) -> tuple:
    """The constants of `count` successive hash steps as two uint32 arrays,
    (xor, multiplier): a step xors with the running constant, advances it by
    `mult`, and then multiplies by the advanced one."""
    xors, mults, h = [], [], init
    for _ in range(count):
        advanced = (h * mult) & 0xFFFFFFFF
        xors.append(h)
        mults.append(advanced)
        h = advanced
    return (np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32))


def _hash(value: np.ndarray, steps: tuple) -> np.ndarray:
    """Hash steps applied elementwise: the constants broadcast along the
    last axis of `value`."""
    xor, mult = steps
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> np.uint32(16))


# the pool's words hashed in, then its 12 ordered pairs (src, dst) mixed,
# src-major
_STEPS_A = _hash_steps(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_IN_STEPS = tuple(c[:_POOL] for c in _STEPS_A)
# one round per source word: its destinations and their three steps.  A
# round reads only pool[src] and never writes it, so its mixes are
# independent of one another.
_ROUNDS = [(src, [d for d in range(_POOL) if d != src],
            tuple(c[_POOL + 3 * src:_POOL + 3 * src + 3] for c in _STEPS_A))
           for src in range(_POOL)]
# the 8 uint32 words of 4 uint64 seed words hashed out of the pool, low
# half first
_STEPS_B = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL)
_OUT_WORDS = np.arange(2 * _POOL) % _POOL


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, uint64) for every row of an
    (N, 4) uint32 array of entropy words, padded with zeros to the pool
    size as SeedSequence pads them: a C-contiguous (N, 4) uint64 array,
    whose rows PCG64 reads as raw buffers.  The hash runs in vectorized
    rounds: the words in, one round per source word, the words out."""
    pool = _hash(entropy, _IN_STEPS)
    for src, dsts, steps in _ROUNDS:
        pool[:, dsts] = _mix(pool[:, dsts], _hash(pool[:, src, None], steps))
    state = _hash(pool[:, _OUT_WORDS], _STEPS_B)
    lo, hi = state[:, 0::2].astype(np.uint64), state[:, 1::2].astype(np.uint64)
    return np.ascontiguousarray(lo | (hi << np.uint64(32)))


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The four uint64 seed words of one PCG64, computed ahead."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("holds exactly 4 np.uint64 seed words, asked "
                             f"for {n_words} of {dtype!r}")
        return self.words


def trial_rngs(seed: int, check_id: str,
               trials: Sequence[int]) -> list[np.random.Generator]:
    """The RNG streams owned by the given trials of one check: trial t owns
    ``default_rng([seed % 2**32, crc32(check_id), t])``, seeded here for all
    the trials at once, in vectorized rounds of uint32 arithmetic."""
    trials = np.asarray(trials, dtype=np.int64).reshape(-1)
    if trials.size and not (0 <= trials.min() and trials.max() < 2**32):
        raise ValueError("a trial index must lie in [0, 2**32)")
    entropy = np.zeros((trials.size, _POOL), dtype=np.uint32)
    entropy[:, 0] = seed % 2**32
    entropy[:, 1] = zlib.crc32(check_id.encode("utf-8"))
    entropy[:, 2] = trials
    return [np.random.Generator(np.random.PCG64(_SeedWords(w)))
            for w in _seed_words(entropy)]


# ---------------------------------------------------------------------------
# samplers: each reads the next rows of a draw tape, stacked over the
# trials of a tape of generators, unstacked on a tape of one generator


class DrawTape:
    """The first `size` rows of six uniforms of one generator per trial,
    read row by row in stream order (see the module docstring).  `rngs` is
    a sequence of generators, one per stacked trial, or a single generator
    for one unstacked sample."""

    def __init__(self, rngs, size: int):
        self.single = isinstance(rngs, np.random.Generator)
        self.rngs = (rngs,) if self.single else tuple(rngs)
        self.size = size
        self._block: Optional[np.ndarray] = None
        self._pos = 0

    def rows(self, k: int) -> np.ndarray:
        """The next k rows of every stream, uniform in [0, 1): (N, k, 6) on
        a stack of N trials, (k, 6) on a single generator.  A read past the
        `size` rows of the tape raises IndexError."""
        if self._pos + k > self.size:
            raise IndexError(f"a read of {k} rows at row {self._pos} runs "
                             f"past the {self.size} rows of the tape")
        if self._block is None:
            self._block = np.empty((len(self.rngs), self.size, 6))
            for rng, block in zip(self.rngs, self._block):
                rng.random(out=block)
        out = self._block[:, self._pos:self._pos + k]
        self._pos += k
        return out[0] if self.single else out


def _coord_rows(tape: DrawTape, count: int, scale: float) -> np.ndarray:
    """Six coordinates uniform in [-scale, scale] per row, from the next
    `count` rows of every trial: (..., count, 6)."""
    return -scale + (2.0 * scale) * tape.rows(count)


def _skew_rows(tape: DrawTape, count: int, scale: float) -> np.ndarray:
    """The skew matrices of `_coord_rows`: (..., count, 4, 4)."""
    return skew_from_coords(_coord_rows(tape, count, scale))


def _skews(tape: DrawTape, scale: float) -> np.ndarray:
    """One skew matrix from the next row of every trial (see _skew_rows)."""
    return _skew_rows(tape, 1, scale)[..., 0, :, :]


def sample_point(tape: DrawTape, level: int) -> GroupPoint:
    """Level-many independent rotations, exp of skews with coordinates in
    [-2, 2]: one exponential of the next `level` rows, read as coordinates,
    so no skew matrix is built."""
    hs = exp_coords(_coord_rows(tape, level, 2.0))
    return GroupPoint(tuple(hs[..., k, :, :] for k in range(level)))


def sample_tangent(tape: DrawTape, pt: GroupPoint) -> Tangent:
    """Random left-translated tangent: coordinates uniform in [-1, 1]."""
    xs = _skew_rows(tape, pt.level, 1.0)
    return Tangent(pt, tuple(h @ xs[..., k, :, :]
                             for k, h in enumerate(pt.factors)))


def sample_tangents(tape: DrawTape, pt, count: int) -> tuple[Tangent, ...]:
    return tuple(sample_tangent(tape, pt) for _ in range(count))


def sample_algebra(tape: DrawTape) -> np.ndarray:
    """Random element of the skew algebra, coordinates uniform in [-1, 1]."""
    return _skews(tape, 1.0)


def sample_bi_point(tape: DrawTape, p: int, q: int) -> GroupPoint:
    """A point of the bisimplicial level (p, q), which is SO(4)^(p+q)."""
    return sample_point(tape, p + q)


def sample_bi_tangent(tape: DrawTape, pt: GroupPoint) -> Tangent:
    return sample_tangent(tape, pt)


# ---------------------------------------------------------------------------
# trials: each returns the raw residuals of the check's named components,
# one array over the stacked trials per component


def _max_factor_dev(a: GroupPoint, b: GroupPoint) -> np.ndarray:
    """The largest entry deviation between the factors, per stacked point.
    A factor that is the same array on both sides deviates by exactly 0 and
    is skipped; the others are reduced in one pass.  A NaN entry reaches
    every product it enters, so it still shows through those."""
    if a.level != b.level:
        raise ValueError("comparing points of different levels")
    pairs = [(x, y) for x, y in zip(a.factors, b.factors) if x is not y]
    if not pairs:
        return 0.0
    xs, ys = zip(*pairs)
    return np.max(abs(np.subtract(xs, ys)), axis=(0, -2, -1))


def _trial_simplicial(cfg: CheckConfig, tape) -> dict[str, np.ndarray]:
    # Every inner face and degeneracy of a level is computed once.
    # face/face: eps_i . eps_j = eps_{j-1} . eps_i  for i < j
    faces = 0.0
    for q in range(2, 5):
        pt = sample_point(tape, q)
        inner = [face_ng(j, pt) for j in range(q + 1)]
        for j in range(1, q + 1):
            for i in range(j):
                faces = np.maximum(faces, _max_factor_dev(
                    face_ng(i, inner[j]), face_ng(j - 1, inner[i])))
    # degeneracy/degeneracy: eta_i . eta_j = eta_{j+1} . eta_i  for i <= j
    degeneracies = 0.0
    for q in range(1, 4):
        pt = sample_point(tape, q)
        inner = [degeneracy_ng(j, pt) for j in range(q + 1)]
        for j in range(q + 1):
            for i in range(j + 1):
                degeneracies = np.maximum(degeneracies, _max_factor_dev(
                    degeneracy_ng(i, inner[j]),
                    degeneracy_ng(j + 1, inner[i])))
    # face/degeneracy in all index positions
    mixed = 0.0
    for q in range(1, 4):
        pt = sample_point(tape, q)
        inner = [face_ng(i, pt) for i in range(q + 1)]
        for j in range(q + 1):
            lifted = degeneracy_ng(j, pt)
            for i in range(q + 2):
                if i == j or i == j + 1:
                    expected = pt
                elif i < j:
                    expected = degeneracy_ng(j - 1, inner[i])
                else:  # i > j + 1
                    expected = degeneracy_ng(j, inner[i - 1])
                mixed = np.maximum(
                    mixed, _max_factor_dev(face_ng(i, lifted), expected))
    return {"face-face": faces, "degeneracy-degeneracy": degeneracies,
            "face-degeneracy": mixed}


def _trial_gamma(cfg: CheckConfig, tape) -> dict[str, np.ndarray]:
    worst = 0.0
    for q in range(1, 4):
        pt = sample_point(tape, q + 1)  # the over-group level q has q+1 factors
        image = gamma(pt)
        for i in range(q + 1):
            worst = np.maximum(worst, _max_factor_dev(
                gamma(face_pg(i, pt)), face_ng(i, image)))
    return {"faces": worst}


def _trial_alpha_antisymmetry(cfg: CheckConfig, tape) -> dict[str, np.ndarray]:
    # Each trial reads nine rows: its path degree 1 + floor(3u) from the
    # first uniform u of the first, then the deg + 1 coefficients of the
    # first path and those of the second; the stacked paths pad them with
    # zeros to degree 3.
    deg = 1 + (3.0 * tape.rows(1)[..., 0]).astype(int)
    rows = _skew_rows(tape, 8, 1.0)
    j = np.arange(4)
    used = (j <= deg)[..., None, None]
    second = np.take_along_axis(
        rows, (deg + 1 + j)[..., None, None].clip(max=7), axis=1)
    coeffs = (np.where(used, rows[:, :4], 0.0), np.where(used, second, 0.0))
    xi1, xi2 = (polynomial_path(np.moveaxis(c, 1, 0)) for c in coeffs)
    a12 = eval_alpha(xi1, xi2)
    a21 = eval_alpha(xi2, xi1)
    a11 = eval_alpha(xi1, xi1)
    return {"swap": abs(a12 + a21), "diagonal": abs(a11)}


# residual builders of the rows (see the module docstring): each returns a
# cochain {(p, q): {degree: form}} whose named components must vanish


def _minus(a: dict, b: dict) -> dict:
    """The cochain a - b over the components of a."""
    return {key: {d: f - b[key][d] for d, f in forms.items()}
            for key, forms in a.items()}


def _d_cocycle(cfg: CheckConfig, tape) -> dict:
    X = sample_algebra(tape)
    return total_d(cocycle(X), X, cfg.fd_step)


def _d_cocycle_at_zero(cfg: CheckConfig, tape) -> dict:
    X = np.zeros((4, 4))
    return total_d(cocycle(X), X, cfg.fd_step)


def _mc_structure(cfg: CheckConfig, tape) -> dict:
    """The largest entry of d omega + omega^2; a NaN entry propagates."""
    omega = mc_left(1, 1)
    fn = (exterior_d(omega, cfg.fd_step) + matrix_wedge_square(omega)).fn
    return {(1, 0): {2: FormEval(
        2, 1, lambda pt, ts: np.max(abs(fn(pt, ts)), axis=(-2, -1)))}}


def _ad_invariance(cfg: CheckConfig, tape) -> dict:
    g = sample_point(tape, 1).factors[0]
    gT = np.ascontiguousarray(g.mT)
    X = sample_algebra(tape)
    conj = {(p, 0): SmoothMap(p, p, lambda pt: _conj_apply(g, pt),
                              lambda pt, t: tuple(g @ r @ gT for r in t.reps))
            for p in (1, 2)}
    moved = {key: {d: pullback(f, conj[key]) for d, f in forms.items()}
             for key, forms in cocycle(g @ X @ gT).items()}
    return _minus(cocycle(X), moved)


def _d_squared(cfg: CheckConfig, tape) -> dict:
    """D3^2 of a cochain of Maurer-Cartan entries and the 3-form."""
    omega = entry(mc_left(1, 1), 1, 2)
    e13 = cocycle(np.zeros((4, 4)))[(1, 0)][3]
    probe = entry(mc_left(1, 2), 1, 2) + 2.0 * entry(mc_right(2, 2), 1, 3)
    cochain = {(1, 0): {1: omega, 3: e13}, (1, 1): {1: probe}}
    return total_d3(total_d3(cochain, cfg.fd_step), cfg.fd_step)


def _dsl_oracle(cfg: CheckConfig, tape) -> dict:
    def load(name: str, level: int):
        return formdsl.interpret(
            formdsl.parse(formdsl.corpus_source(name)), level=level)

    X = sample_algebra(tape)
    corpus = {(1, 0): {3: load("e13.form", 1), 1: load("mu.form", 1)(X)},
              (2, 0): {2: load("e22.form", 2)}}
    return _minus(corpus, cocycle(X))


def golden_value_errors() -> dict[str, float]:
    """Absolute deviations of the frozen example evaluations."""
    e12 = basis_element(1, 2)
    e34 = basis_element(3, 4)
    ident1 = identity_point(1)
    out = {}
    got = eval_mu(e12, ident1, Tangent(ident1, (e34,)))
    out["mu"] = abs(got - (-1.0 / (4.0 * pi**2)))
    ident2 = identity_point(2)
    t1 = Tangent(ident2, (e12, np.zeros((4, 4))))
    t2 = Tangent(ident2, (np.zeros((4, 4)), e34))
    out["e22"] = abs(eval_E22(ident2, t1, t2) - (-1.0 / (8.0 * pi**2)))
    theta = polynomial_path([np.zeros((4, 4)), e12])
    const = polynomial_path([e34])
    out["alpha"] = abs(eval_alpha(theta, const) - (-1.0 / (8.0 * pi**2)))
    v = [Tangent(ident1, (basis_element(a, b),))
         for a, b in ((1, 2), (1, 3), (2, 3))]
    out["e13-degenerate"] = abs(eval_E13(ident1, *v))
    v2 = [Tangent(ident1, (basis_element(a, b),))
          for a, b in ((1, 2), (1, 3), (1, 4))]
    out["e13"] = abs(eval_E13(ident1, *v2) - (-1.0 / (8.0 * pi**2)))
    return out


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Check:
    """One check of the protocol (see the module docstring)."""

    tol: float  # default tolerance of the reported error
    trial: Callable[[CheckConfig, DrawTape], dict[str, np.ndarray]]
    # the rows of six uniforms one trial reads; a check that reads none has
    # fixed inputs, and runs a single trial whatever cfg.trials is
    rows: int
    # per-component tolerances; absent ones are 1
    tols: dict[str, float] = field(default_factory=dict)


def _rows(tol: float, residuals: Callable[[CheckConfig, DrawTape], dict],
          draws: int, components: dict[str, tuple[tuple[int, int], int]],
          tols: Optional[dict[str, float]] = None) -> Check:
    """The check that the named components {name: ((p, q), degree)} of the
    cochain residuals(cfg, tape) vanish: a trial builds the cochain, drawing
    `draws` rows, then `equivariant_total_check` draws the levels and reads
    the components."""

    def trial(cfg: CheckConfig, tape) -> dict[str, np.ndarray]:
        cochain = residuals(cfg, tape)

        def sample(key: tuple[int, int], count: int) -> tuple:
            p, q = key
            pt = sample_point(tape, p + q)
            return pt, sample_tangents(tape, pt, count)

        return equivariant_total_check(cochain, sample, components)

    rows = draws + sum((p + q) * (1 + count)
                       for (p, q), count in level_counts(components).items())
    return Check(tol, trial, rows, tols or {})


# Composite checks report normalized residuals (err / component tol), so their
# default tolerance is 1.  Everything else is a raw max-abs-error bound.
CHECKS: dict[str, Check] = {
    "mc-structure": _rows(1e-6, _mc_structure, 0, {"entries": ((1, 0), 2)}),
    # a point of each level q: 2 + 3 + 4 face/face rows, 1 + 2 + 3 of
    # degeneracies and 1 + 2 + 3 of faces against degeneracies
    "simplicial-identities": Check(1e-13, _trial_simplicial, 21),
    # a point of q + 1 factors per level q = 1, 2, 3
    "gamma-simplicial": Check(1e-13, _trial_gamma, 9),
    "lemma-4.1": _rows(1e-6, _d_cocycle, 1, {"i e13 - d mu": ((1, 0), 2)}),
    "lemma-4.2": _rows(1e-10, _d_cocycle, 1, {"i e22 - d' mu": ((2, 0), 1)}),
    "lemma-4.3": _rows(1e-12, _d_cocycle, 1, {"i mu": ((1, 0), 0)}),
    "euler-cocycle": _rows(
        1.0, _d_cocycle_at_zero, 0,
        {"a": ((1, 0), 4), "b": ((2, 0), 3), "c": ((3, 0), 2)},
        {"a": 1e-6, "b": 1e-6, "c": 1e-10}),
    "equivariant-cocycle": _rows(
        1.0, _d_cocycle, 1,
        {"a": ((1, 0), 4), "b": ((1, 0), 2), "c": ((1, 0), 0),
         "d": ((2, 0), 3), "e": ((2, 0), 1)},
        {"a": 1e-6, "b": 1e-6, "c": 1e-12, "d": 1e-6, "e": 1e-10}),
    "ad-invariance": _rows(1e-10, _ad_invariance, 2, COMPONENTS),
    "dsl-oracle": _rows(1e-12, _dsl_oracle, 1, COMPONENTS),
    # the degree row, then four coefficient rows for each of two paths
    "alpha-antisymmetry": Check(1e-12, _trial_alpha_antisymmetry, 9),
    "d-squared": _rows(
        1.0, _d_squared, 0,
        {"dd": ((1, 0), 3), "dpdp": ((3, 0), 1), "dpdp e13": ((3, 0), 3),
         "total2": ((2, 0), 2), "d'd''": ((2, 2), 1), "d'd'''": ((2, 1), 2),
         "d''d'''": ((1, 2), 2)},
        {"dd": 1e-4, "dpdp": 1e-12, "dpdp e13": 1e-12, "total2": 1e-4,
         "d'd''": 1e-4, "d'd'''": 1e-4, "d''d'''": 1e-4}),
    "golden-values": Check(1e-12, lambda cfg, tape: golden_value_errors(), 0),
}

CHECK_IDS = tuple(CHECKS)
DEFAULT_TOLS = {cid: check.tol for cid, check in CHECKS.items()}


# ---------------------------------------------------------------------------
# driver


def trial_rows(cfg: CheckConfig,
               trials: Sequence[int]) -> dict[str, np.ndarray]:
    """The component residuals of the given trials of a run: per component,
    an array with one entry per trial, in order.  An invalid config or an
    empty list of trials raises ValueError."""
    cfg.validate()
    if not len(trials):
        raise ValueError("no trials given: the residuals of a run are read "
                         "from at least one trial")
    check = CHECKS[cfg.check_id]
    chunks = []
    for start in range(0, len(trials), CHUNK):
        part = trials[start:start + CHUNK]
        rngs = trial_rngs(cfg.seed, cfg.check_id, part) if check.rows else ()
        cols = check.trial(cfg, DrawTape(rngs, check.rows))
        chunks.append({k: np.broadcast_to(np.asarray(v, dtype=float),
                                          (len(part),))
                       for k, v in cols.items()})
    return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}


def reduce_rows(cols: dict[str, np.ndarray],
                tols: dict[str, float]) -> tuple[float, int]:
    """(error, worst trial) of a run from its columns of component
    residuals, as the module docstring describes: a NaN residual gives
    (inf, first trial with a NaN)."""
    cols = {k: np.asarray(v, dtype=float) for k, v in cols.items()}
    nan = np.any([np.isnan(v) for v in cols.values()], axis=0)
    if nan.any():
        return float("inf"), int(np.argmax(nan))
    err = np.max([v / tols.get(k, 1.0) for k, v in cols.items()], axis=0)
    worst = int(np.argmax(err))  # the first of equal maxima
    return float(err[worst]), worst


def run_check(cfg: CheckConfig) -> CheckReport:
    """Run one named check and report its worst residual."""
    cfg.validate()
    check = CHECKS[cfg.check_id]
    start = time.perf_counter()
    cols = trial_rows(cfg, range(cfg.trials if check.rows else 1))
    err, worst = reduce_rows(cols, check.tols)
    elapsed = int(round((time.perf_counter() - start) * 1000.0))
    tol = cfg.resolved_tol()
    return CheckReport(
        check_id=cfg.check_id, trials=cfg.trials, seed=cfg.seed,
        fd_step=cfg.fd_step, tol=tol, max_abs_err=float(err),
        passed=bool(err <= tol), elapsed_ms=elapsed, worst_trial=worst)
