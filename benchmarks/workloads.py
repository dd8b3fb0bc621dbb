"""Inputs of the benchmark workloads, made from the workload seed alone.

Nothing here imports nervecheck.  The check lists, the check seeds, the
expression sources and the evaluation points are plain data: `runner.py`
hands them to the program and `reference.py` reads them back to compute the
expected outputs on its own.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("fd-checks", "exact-checks", "dsl-eval")

TRIALS = 200  # the CLI default; passed explicitly so a changed default shows

# The checks that take exterior derivatives by central differences.
FD_CHECKS = ("mc-structure", "lemma-4.1", "euler-cocycle",
             "equivariant-cocycle", "d-squared")
# The checks without finite differences, gamma-simplicial apart.
EXACT_CHECKS = ("simplicial-identities", "lemma-4.2", "lemma-4.3",
                "ad-invariance", "dsl-oracle", "alpha-antisymmetry",
                "golden-values")
# gamma-simplicial misses its 1e-13 tolerance on 11 of the seeds 0-299, so on
# a seed drawn from the workload seed it would fail in some runs and not in
# others.  It runs on this one fixed seed instead, where it fails every time:
# the failed share of exact-checks is then exactly 1/8 in every run.
GAMMA_SEEDS = (32,)


def _rng(workload: str, seed: int, part: str) -> np.random.Generator:
    tag = zlib.crc32(f"{workload}/{part}".encode("utf-8"))
    return np.random.default_rng([seed % 2**32, tag])


# ---------------------------------------------------------------------------
# check workloads: one pass runs every (check id, check seed) pair once


def check_ops(workload: str, seed: int) -> list[tuple[str, int]]:
    """The (check id, check seed) pairs of one pass, the same in every pass."""
    rng = _rng(workload, seed, "check-seeds")
    if workload == "fd-checks":
        ids = FD_CHECKS
    elif workload == "exact-checks":
        ids = EXACT_CHECKS
    else:
        raise ValueError(f"{workload} runs no checks")
    ops = [(cid, int(rng.integers(0, 2**31))) for cid in ids]
    if workload == "exact-checks":
        ops += [("gamma-simplicial", s) for s in GAMMA_SEEDS]
    return ops


# ---------------------------------------------------------------------------
# evaluation points, drawn without the program's samplers


def rotation(rng: np.random.Generator) -> np.ndarray:
    """A random element of SO(4): the Q factor of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def skew(rng: np.random.Generator) -> np.ndarray:
    """A skew matrix with entries in [-1, 1]."""
    a = rng.uniform(-0.5, 0.5, size=(4, 4))
    return a - a.T


@dataclass(frozen=True)
class Point:
    """A point of SO(4)^level, tangents at it, and an algebra element X."""

    factors: tuple[np.ndarray, ...]
    tangents: tuple[tuple[np.ndarray, ...], ...]  # per tangent, per factor
    x: np.ndarray


def sample_point(rng: np.random.Generator, level: int, degree: int) -> Point:
    factors = tuple(rotation(rng) for _ in range(level))
    tangents = tuple(tuple(h @ skew(rng) for h in factors)
                     for _ in range(degree))
    return Point(factors, tangents, skew(rng))


def probe_points(workload: str, seed: int, level: int, degree: int,
                 count: int) -> list[Point]:
    """Points for the output checks made outside the timed passes."""
    rng = _rng(workload, seed, f"probe-{level}-{degree}")
    return [sample_point(rng, level, degree) for _ in range(count)]


# ---------------------------------------------------------------------------
# dsl-eval: expression sources with their term lists
#
# A factor is (kind, factor index, i, j) with kind one of MCL, MCR, MCL^2,
# MCR^2, X and i, j either 1..4 or a placeholder p1..p4.  A term is
# ("wedge", (num, den, inv_pi2), factors) or ("sum", sign, body), the latter
# a nested sumS4 over the term list `body`.

FACTOR_DEGREE = {"MCL": 1, "MCR": 1, "MCL^2": 2, "MCR^2": 2, "X": 0}

# (sumS4 nesting depth, level, factor slots of every term, terms per nesting
# level).  A slot "mc" is a Maurer-Cartan entry, "sq" the entry of a square,
# "x" an entry of X.  The shapes, and so the work of a pass, are the same for
# every seed; the seed picks atoms, factor indices, entries and coefficients.
DSL_SHAPES = (
    (0, 1, ("mc",), 3),
    (0, 2, ("mc", "mc"), 3),
    (0, 1, ("x", "mc"), 3),
    (0, 2, ("mc", "sq"), 2),
    (1, 1, ("mc", "mc"), 2),
    (1, 2, ("x", "mc"), 2),
    (1, 1, ("mc", "sq"), 2),
    (2, 2, ("mc", "mc"), 2),
    (2, 1, ("x", "mc"), 1),
    (3, 1, ("mc", "mc"), 1),
)
DSL_POINTS = 3  # evaluation points per expression

# The bundled corpus, with the level each source lives on.
CORPUS = (("e13.form", 1), ("e22.form", 2), ("mu.form", 1))

_PAIRINGS = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))


@dataclass(frozen=True)
class DslExpr:
    name: str
    level: int
    terms: tuple  # term list; None for a corpus source
    source: str   # None for a corpus source, which the program supplies
    points: tuple[Point, ...]


def _factor(rng, slot: str, level: int, i, j) -> tuple:
    if slot == "x":
        return ("X", 0, i, j)
    side = "MCL" if rng.random() < 0.5 else "MCR"
    kind = side if slot == "mc" else side + "^2"
    return (kind, int(rng.integers(1, level + 1)), i, j)


def _indices(rng, slots, placeholders: bool) -> list[tuple]:
    if placeholders:
        # two slots share out p1..p4, so the signed sum does not cancel
        pairs = list(_PAIRINGS[int(rng.integers(0, 3))])
        if rng.random() < 0.5:
            pairs.reverse()
        out = []
        for a, b in pairs[:len(slots)]:
            if rng.random() < 0.5:
                a, b = b, a
            out.append((f"p{a}", f"p{b}"))
        return out
    out = []
    for _ in slots:
        a, b = rng.choice(np.arange(1, 5), size=2, replace=False)
        out.append((int(a), int(b)))
    return out


def _terms(rng, depth: int, level: int, slots, count: int,
           placeholders: bool) -> tuple:
    terms = []
    for _ in range(count):
        coeff = (int(rng.integers(1, 10)) * (1 if rng.random() < 0.5 else -1),
                 int(rng.integers(1, 10)), bool(rng.random() < 0.5))
        idx = _indices(rng, slots, placeholders)
        factors = tuple(_factor(rng, s, level, i, j)
                        for s, (i, j) in zip(slots, idx))
        terms.append(("wedge", coeff, factors))
    if depth > 1:
        body = _terms(rng, depth - 1, level, slots, count, True)
        terms.append(("sum", 1 if rng.random() < 0.5 else -1, body))
    return tuple(terms)


def _render_factor(kind: str, factor: int, i, j) -> str:
    if kind == "X":
        return f"X[{i},{j}]"
    power = "^2" if kind.endswith("^2") else ""
    return f"{kind[:3]}({factor}){power}[{i},{j}]"


def render(terms) -> str:
    """Source text of a term list in the expression grammar."""
    parts = []
    for k, term in enumerate(terms):
        if term[0] == "wedge":
            (num, den, inv_pi2), factors = term[1], term[2]
            sign = -1 if num < 0 else 1
            text = f"{abs(num)}/{den}" + ("/pi2" if inv_pi2 else "") + " "
            text += " ".join(_render_factor(*f) for f in factors)
        else:
            sign, text = term[1], f"sumS4( {render(term[2])} )"
        if k == 0:
            parts.append(("- " if sign < 0 else "") + text)
        else:
            parts.append(("- " if sign < 0 else "+ ") + text)
    return " ".join(parts)


def form_degree(terms) -> int:
    term = terms[0]
    if term[0] == "sum":
        return form_degree(term[2])
    return sum(FACTOR_DEGREE[f[0]] for f in term[2])


def dsl_exprs(seed: int) -> list[DslExpr]:
    """The sources of one dsl-eval pass, each with its evaluation points."""
    rng = _rng("dsl-eval", seed, "expressions")
    out = []
    for name, level in CORPUS:
        degree = {"e13.form": 3, "e22.form": 2, "mu.form": 1}[name]
        pts = tuple(sample_point(rng, level, degree) for _ in range(DSL_POINTS))
        out.append(DslExpr(name, level, None, None, pts))
    for n, (depth, level, slots, count) in enumerate(DSL_SHAPES):
        if depth == 0:
            terms = _terms(rng, 0, level, slots, count, False)
        else:
            terms = (("sum", 1, _terms(rng, depth, level, slots, count, True)),)
        degree = form_degree(terms)
        pts = tuple(sample_point(rng, level, degree) for _ in range(DSL_POINTS))
        out.append(DslExpr(f"gen-{n}-depth{depth}", level, terms,
                           render(terms), pts))
    return out


def basis(a: int, b: int) -> np.ndarray:
    """The skew matrix with +1 at (a, b) and -1 at (b, a), 1-based."""
    m = np.zeros((4, 4))
    m[a - 1, b - 1] = 1.0
    m[b - 1, a - 1] = -1.0
    return m
