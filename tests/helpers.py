"""Random inputs and small forms that several test modules share.

Unlike `oracles.py`, nothing here is an independent reference: these are
conveniences built from the package's own primitives.
"""

import numpy as np

from nervecheck.formcalc import FormEval
from nervecheck.harness import trial_rngs
from nervecheck.matrixgroup import GroupPoint, Tangent, exp_matrix, skew_from_coords


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


def left_invariant_field(x: np.ndarray, level: int):
    """The left-invariant vector field h -> (h_1 x, ..., h_p x)."""

    def field(pt: GroupPoint) -> Tangent:
        if pt.level != level:
            raise ValueError("field applied at the wrong level")
        return Tangent(pt, tuple(h @ x for h in pt.factors))

    return field
