"""Randomized verification harness.

Every check follows one protocol, held by its entry in `CHECKS`:

* `trial(cfg, tape)` takes the config of the run and the draw tape of a
  stack of trials, draws the sample of every trial and returns the raw
  residuals of the check's named components, one array over the trials per
  component;
* `reduce_rows` divides each component by its tolerance (1 where the check
  names none), takes the max over the components of a trial, and reports
  the max over trials with its trial index; the first worst trial wins.

Sampling is deterministic given (seed, check id, trial index).  Check id
at seed owns one stream, ``PCG64(SeedSequence([seed % 2**32, crc32(id)]))``,
and trial t of a check that reads `rows` rows of six uniforms reads the
rows·6 doubles of ``Generator.random`` at stream position t·rows·6 as its
(rows, 6) block.  A PCG64 is an LCG underneath, so `PCG64.advance` jumps
to any position in O(log t) steps: `trial_draws` makes one jump and one
`random` call per run of consecutive trials, and `trial_rows(cfg, [k])`
replays trial k alone.  The streams of two checks are unrelated, so adding
a check never perturbs the others; but changing a check's `rows` moves
every trial of that check, not only the tail of each trial.  NEP 19
freezes the seeding and the PCG64 stream, so the draws do not depend on
the numpy version.  The samplers stack the draws of the trials, and
`trial` builds the forms and runs them, the exponentials and the products
once on the stack: a run walks each form tree once per stack, not once per
trial.  At most `CHUNK` trials form one stack, so the intermediate arrays
do not grow with the trial count.  `golden-values` evaluates fixed inputs:
it reads no rows, seeds no stream and runs one trial whatever `trials` is.

The samplers read a `DrawTape`, a cursor over the (N, rows, 6) block of
the `Check.rows` rows one trial of the check reads.  It hands the rows out
in stream order, and a read past the block raises.  Six coordinates in
[-s, s] are -s + 2s u of the next row u of every trial.  That is what
`Generator.uniform(-s, s, 6)` computes from the same doubles, so the tape
draws the same numbers as one `uniform` call per matrix.  Drawing ahead
changes nothing else, because no other trial reads a trial's block.  A
point of SO(4)^level is the exponential (`exp_coords`) of its next `level`
coordinate rows, taken in one call; no skew matrix is built for it.
Tangents and algebra elements are skew matrices built from their rows.

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
omega (2,0,2), and the probe's d'd'' (2,2,1), d'd''' (2,1,2), d''d''' (1,2,2)
and d''d'' (1,3,1), which takes no finite difference: it reads roundoff,
and a top vertical face that does not act on the left fails it.

`simplicial-identities` and `gamma-simplicial` compare two points factor by
factor.  Factor k of a level is entry floor(192 u) of `signed_permutations`,
u the first uniform of row k: their products and transposes are exact in
float64, so an identity that holds reads exactly 0.  They evaluate each
inner face, degeneracy or gamma image of a sampled level once, skip the
factors that are the same array on both sides, and reduce the others in
one pass.

A NaN residual in any component fails the run: it reports an error of inf
at the first trial with a NaN.
"""

from __future__ import annotations

import itertools
import time
import zlib
from dataclasses import dataclass, field
from functools import cache
from math import isfinite, pi
from typing import Callable, Optional, Sequence

import numpy as np

from . import formdsl
from .cartanmodel import equivariant_total_check, level_counts, total_d
from .eulercocycle import (COMPONENTS, cocycle, eval_alpha, eval_E13,
                           eval_E22, eval_mu, polynomial_path)
from .formcalc import (FD_STEP_DEFAULT, FormEval, SmoothMap, entry,
                       exterior_d, matrix_wedge_square, mc_left, mc_right,
                       pullback)
from .matrixgroup import (GroupPoint, Tangent, basis_element, exp_coords,
                          identity_point, skew_from_coords)
from .nerve import (conjugate, degeneracy_ng, face_ng, face_pg, gamma,
                    total_d3)

# The most trials one run may ask for.  The slowest check, d-squared, takes
# about 15 ms per 200 trials, so a run at the ceiling takes over a minute; a
# larger count is taken for a typo and refused.
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

    def __post_init__(self):
        """An invalid config raises ValueError here; no caller validates."""
        if self.check_id not in CHECKS:
            raise ValueError(f"unknown check id {self.check_id!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
        # the widest 1-2-5 range of steps on which every finite-difference
        # check stays within a fifth of its tolerance over seeds 0-49: a
        # longer step fails mc-structure on truncation, a shorter one
        # d-squared on the roundoff of its nested differences
        if not 5e-6 <= self.fd_step <= 2e-4:
            raise ValueError("fd_step must lie in [5e-6, 2e-4]")
        if self.tol is not None and not (self.tol > 0 and isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")


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
# trial streams: one per check, each trial a jump into it (see the module
# docstring)


def trial_draws(seed: int, check_id: str, trials: Sequence[int],
                rows: int) -> np.ndarray:
    """The draws of the given trials of one check, an (N, rows, 6) array.
    The check owns the stream of ``PCG64(SeedSequence([seed % 2**32,
    crc32(check_id)]))``, and trial t reads its rows·6 doubles of
    ``Generator.random`` from stream position t·rows·6.  Each run of
    consecutive trials is one jump (`PCG64.advance`) and one `random`
    call; zero rows seed nothing."""
    trials = np.asarray(trials, dtype=np.int64).reshape(-1)
    if trials.size and trials.min() < 0:
        raise ValueError("a trial index must not be negative")
    out = np.empty((trials.size, rows, 6))
    if rows and trials.size:
        entropy = np.random.SeedSequence(
            [seed % 2**32, zlib.crc32(check_id.encode("utf-8"))])
        cuts = [0, *(np.flatnonzero(np.diff(trials) != 1) + 1), trials.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            stream = np.random.PCG64(entropy)
            stream.advance(int(trials[lo]) * rows * 6)
            np.random.Generator(stream).random(out=out[lo:hi])
    return out


# ---------------------------------------------------------------------------
# samplers: each reads the next rows of a draw tape, stacked over the
# trials of an (N, rows, 6) block, unstacked on a (rows, 6) block


class DrawTape:
    """A cursor over a block of rows of six uniforms, (N, size, 6) for a
    stack of N trials or (size, 6) for one unstacked sample, read in
    stream order (see the module docstring)."""

    def __init__(self, block: np.ndarray):
        self._block = block
        self._pos = 0

    def rows(self, k: int) -> np.ndarray:
        """The next k rows of every trial, uniform in [0, 1): (..., k, 6).
        A read past the end of the block raises IndexError."""
        size = self._block.shape[-2]
        if self._pos + k > size:
            raise IndexError(f"a read of {k} rows at row {self._pos} runs "
                             f"past the {size} rows of the tape")
        self._pos += k
        return self._block[..., self._pos - k:self._pos, :]


def _coord_rows(tape: DrawTape, count: int, scale: float) -> np.ndarray:
    """Six coordinates uniform in [-scale, scale] per row, from the next
    `count` rows of every trial: (..., count, 6)."""
    return -scale + (2.0 * scale) * tape.rows(count)


def _skew_rows(tape: DrawTape, count: int, scale: float) -> np.ndarray:
    """The skew matrices of `_coord_rows`: (..., count, 4, 4)."""
    return skew_from_coords(_coord_rows(tape, count, scale))


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
    return _skew_rows(tape, 1, 1.0)[..., 0, :, :]


@cache
def signed_permutations() -> np.ndarray:
    """The 192 signed permutation matrices of determinant +1, read-only, in
    the order permutations(range(4)) x product((1.0, -1.0), repeat=4)."""
    perms = np.eye(4)[list(itertools.permutations(range(4)))][:, None]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    mats = np.where(perms == 1, signs[..., None], 0.0).reshape(-1, 4, 4)
    mats = mats[np.linalg.det(mats) > 0]
    mats.flags.writeable = False
    return mats


def sample_signed_point(tape: DrawTape, level: int) -> GroupPoint:
    """Level-many factors, each entry floor(192 u) of `signed_permutations()`
    for u the first uniform of its row."""
    hs = signed_permutations()[(192 * tape.rows(level)[..., 0]).astype(int)]
    return GroupPoint(tuple(hs[..., k, :, :] for k in range(level)))


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
    is skipped; the others are reduced in one pass."""
    if a.level != b.level:
        raise ValueError("comparing points of different levels")
    pairs = [(x, y) for x, y in zip(a.factors, b.factors) if x is not y]
    if not pairs:
        return 0.0
    xs, ys = zip(*pairs)
    return np.max(abs(np.subtract(xs, ys)), axis=(0, -2, -1))


def _trial_simplicial(cfg: CheckConfig, tape) -> dict[str, np.ndarray]:
    # Every inner face and degeneracy of a level is computed once.
    # face/face: eps_i . eps_j = eps_{j-1} . eps_i  for i < j, from q = 3:
    # the double faces of a level-2 point have no factors to compare
    faces = 0.0
    for q in range(3, 5):
        pt = sample_signed_point(tape, q)
        inner = [face_ng(j, pt) for j in range(q + 1)]
        for j in range(1, q + 1):
            for i in range(j):
                faces = np.maximum(faces, _max_factor_dev(
                    face_ng(i, inner[j]), face_ng(j - 1, inner[i])))
    # degeneracy/degeneracy: eta_i . eta_j = eta_{j+1} . eta_i  for i <= j
    degeneracies = 0.0
    for q in range(1, 4):
        pt = sample_signed_point(tape, q)
        inner = [degeneracy_ng(j, pt) for j in range(q + 1)]
        for j in range(q + 1):
            for i in range(j + 1):
                degeneracies = np.maximum(degeneracies, _max_factor_dev(
                    degeneracy_ng(i, inner[j]),
                    degeneracy_ng(j + 1, inner[i])))
    # face/degeneracy in all index positions
    mixed = 0.0
    for q in range(1, 4):
        pt = sample_signed_point(tape, q)
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
    # from q = 2: the faces of the over-group level 1 are level-0 points
    worst = 0.0
    for q in range(2, 4):
        pt = sample_signed_point(tape, q + 1)  # q + 1 factors over-group
        image = gamma(pt)
        for i in range(q + 1):
            worst = np.maximum(worst, _max_factor_dev(
                gamma(face_pg(i, pt)), face_ng(i, image)))
    return {"faces": worst}


def _trial_alpha_antisymmetry(cfg: CheckConfig, tape) -> dict[str, np.ndarray]:
    rows = np.moveaxis(_skew_rows(tape, 8, 1.0), 1, 0)
    xi1, xi2 = polynomial_path(rows[:4]), polynomial_path(rows[4:])
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
    conj = {(p, 0): SmoothMap(p, p, lambda pt: conjugate(g, pt),
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
    # a point of each level q: 3 + 4 face/face rows, 1 + 2 + 3 of
    # degeneracies and 1 + 2 + 3 of faces against degeneracies
    "simplicial-identities": Check(1e-13, _trial_simplicial, 19),
    # a point of q + 1 factors per level q = 2, 3
    "gamma-simplicial": Check(1e-13, _trial_gamma, 7),
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
    # two cubic paths, four coefficient rows each
    "alpha-antisymmetry": Check(1e-12, _trial_alpha_antisymmetry, 8),
    # 8 of the 18 blocks of D3^2: the nested-difference blocks, such as the
    # probe's d'''d''', stay unread until ROADMAP item 2's exact derivatives
    "d-squared": _rows(
        1.0, _d_squared, 0,
        {"dd": ((1, 0), 3), "dpdp": ((3, 0), 1), "dpdp e13": ((3, 0), 3),
         "total2": ((2, 0), 2), "d'd''": ((2, 2), 1), "d'd'''": ((2, 1), 2),
         "d''d'''": ((1, 2), 2), "d''d''": ((1, 3), 1)},
        {"dd": 1e-4, "dpdp": 1e-12, "dpdp e13": 1e-12, "total2": 1e-4,
         "d'd''": 1e-4, "d'd'''": 1e-4, "d''d'''": 1e-4, "d''d''": 1e-12}),
    "golden-values": Check(1e-12, lambda cfg, tape: golden_value_errors(), 0),
}

CHECK_IDS = tuple(CHECKS)


# ---------------------------------------------------------------------------
# driver


def trial_rows(cfg: CheckConfig,
               trials: Sequence[int]) -> dict[str, np.ndarray]:
    """The component residuals of the given trials of a run: per component,
    an array with one entry per trial, in order.  An empty list of trials
    raises ValueError."""
    if not len(trials):
        raise ValueError("no trials given: the residuals of a run are read "
                         "from at least one trial")
    check = CHECKS[cfg.check_id]
    chunks = []
    for start in range(0, len(trials), CHUNK):
        part = trials[start:start + CHUNK]
        cols = check.trial(cfg, DrawTape(
            trial_draws(cfg.seed, cfg.check_id, part, check.rows)))
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
    check = CHECKS[cfg.check_id]
    start = time.perf_counter()
    cols = trial_rows(cfg, range(cfg.trials if check.rows else 1))
    err, worst = reduce_rows(cols, check.tols)
    elapsed = int(round((time.perf_counter() - start) * 1000.0))
    tol = check.tol if cfg.tol is None else cfg.tol
    return CheckReport(
        check_id=cfg.check_id, trials=cfg.trials, seed=cfg.seed,
        fd_step=cfg.fd_step, tol=tol, max_abs_err=float(err),
        passed=bool(err <= tol), elapsed_ms=elapsed, worst_trial=worst)
