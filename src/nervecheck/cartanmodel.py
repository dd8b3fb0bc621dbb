"""Cartan-model machinery for the conjugation action of SO(4) on its nerve.

An equivariant form of polynomial degree k assigns to each skew matrix X a
plain form, homogeneously of degree k in X, equivariant for simultaneous
conjugation.  The model differential is d - i_{X#}, where X# is the
generating vector field of the conjugation action; with the sign convention
used here its value at h is (h_j X - X h_j) per factor, i.e. the
left-invariant minus the right-invariant extension of X.

Because d raises and the contraction lowers the form degree, the Cartan
differential of a homogeneous form has two homogeneous components; it is
returned as a GradedForm keyed by degree.

The total differential of the equivariant nerve complex takes a cochain
{p: c_p} to D c with

    (D c)_p = d' c_(p-1) + (-1)^p (d - i_{X#}) c_p,

the Cartan sign of Guillemin & Sternberg, "Supersymmetry and Equivariant de
Rham Theory" (1999).  `total_d` applies it.  `equivariant_total_check` reads
the five components of D of the degree-4 cochain {1: e13 + mu(X), 2: e22}
that make it a cocycle.  A sample may be stacked, with X stacked alike, and
then every residual is an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .formcalc import (FD_STEP_DEFAULT, FormEval, contract, exterior_d,
                       zero_form)
from .matrixgroup import GroupPoint, Tangent
from .nerve import d_prime


@dataclass(frozen=True, eq=False)
class FundamentalField:
    """Generating vector field of conjugation: h_j -> h_j X - X h_j."""

    X: np.ndarray
    level: int

    def __call__(self, pt: GroupPoint) -> Tangent:
        if pt.level != self.level:
            raise ValueError("fundamental field applied at the wrong level")
        x = self.X
        return Tangent(pt, tuple(h @ x - x @ h for h in pt.factors))


def fundamental_field(X: np.ndarray, level: int) -> FundamentalField:
    return FundamentalField(np.asarray(X, dtype=float), level)


@dataclass(frozen=True, eq=False)
class EquivariantForm:
    """A polynomial family X -> FormEval, homogeneous of degree poly_degree."""

    level: int
    form_degree: int
    poly_degree: int
    eval: Callable[[np.ndarray], FormEval]

    @property
    def total_degree(self) -> int:
        return self.level + self.form_degree + 2 * self.poly_degree

    def __call__(self, X: np.ndarray) -> FormEval:
        return self.eval(X)


@dataclass(frozen=True, eq=False)
class GradedForm:
    """A finite sum of homogeneous forms of distinct degrees, one level."""

    level: int
    components: dict[int, FormEval]

    def component(self, degree: int) -> FormEval:
        return self.components.get(degree, zero_form(degree, self.level))

    def __call__(self, pt: GroupPoint, *tangents: Tangent) -> float:
        return self.component(len(tangents))(pt, *tangents)


def _accumulate(out: dict[int, FormEval], degree: int, form: FormEval) -> None:
    out[degree] = out[degree] + form if degree in out else form


def cartan_d(alpha: EquivariantForm | GradedForm, X: np.ndarray,
             fd_step: float = FD_STEP_DEFAULT) -> GradedForm:
    """(d - i_{X#}) applied to alpha(X), split into homogeneous components.

    alpha may also be a graded value at X, such as an earlier result (for
    d^2 probes).
    """
    if isinstance(alpha, EquivariantForm):
        form = alpha(X)
        alpha = GradedForm(alpha.level, {form.degree: form})
    field = fundamental_field(X, alpha.level)
    out: dict[int, FormEval] = {}
    for degree, form in alpha.components.items():
        _accumulate(out, degree + 1, exterior_d(form, fd_step))
        if degree >= 1:
            _accumulate(out, degree - 1, -contract(form, field))
    return GradedForm(alpha.level, out)


def total_d(cochain: dict[int, GradedForm], X: np.ndarray,
            fd_step: float = FD_STEP_DEFAULT) -> dict[int, GradedForm]:
    """D = d' + (-1)^p (d - i_{X#}) applied to the cochain {p: c_p}, one
    GradedForm per level it reaches.  The components are forms, so only
    those that are evaluated cost anything."""
    out: dict[int, dict[int, FormEval]] = {}
    for p, c in sorted(cochain.items()):
        if c.level != p:
            raise ValueError(f"cochain part at level {c.level} keyed {p}")
        for degree, form in cartan_d(c, X, fd_step).components.items():
            _accumulate(out.setdefault(p, {}), degree,
                        -form if p % 2 else form)
        for degree, form in c.components.items():
            _accumulate(out.setdefault(p + 1, {}), degree, d_prime(form))
    return {level: GradedForm(level, parts) for level, parts in out.items()}


@dataclass(frozen=True)
class CocycleSample:
    """Random evaluation data shared by the five component identities."""

    h1: GroupPoint                      # one-factor point
    v: tuple[Tangent, ...]              # four tangents at h1
    h2: GroupPoint                      # two-factor point
    t: tuple[Tangent, ...]              # three tangents at h2


def _check_shapes(e13: EquivariantForm, e22: EquivariantForm,
                  mu: EquivariantForm) -> None:
    if (e13.level, e13.form_degree, e13.poly_degree) != (1, 3, 0):
        raise ValueError("first cochain must be a 3-form at level 1")
    if (e22.level, e22.form_degree, e22.poly_degree) != (2, 2, 0):
        raise ValueError("second cochain must be a 2-form at level 2")
    if (mu.level, mu.form_degree, mu.poly_degree) != (1, 1, 1):
        raise ValueError("third cochain must be a polynomial 1-form at level 1")


def cocycle(e13: EquivariantForm, e22: EquivariantForm,
            mu: EquivariantForm, X: np.ndarray) -> dict[int, GradedForm]:
    """The degree-4 cochain {1: e13 + mu(X), 2: e22} at X."""
    _check_shapes(e13, e22, mu)
    return {1: GradedForm(1, {3: e13(X), 1: mu(X)}),
            2: GradedForm(2, {2: e22(X)})}


def equivariant_total_check(e13: EquivariantForm, e22: EquivariantForm,
                            mu: EquivariantForm, X: np.ndarray,
                            sample: CocycleSample,
                            fd_step: float = FD_STEP_DEFAULT
                            ) -> dict[str, np.ndarray]:
    """Absolute residuals of the five components of D c = 0 for the cochain
    c = {1: e13 + mu(X), 2: e22}.

    a:  -d e13                  (level 1, 4-form; finite difference)
    b:  -(d mu(X) - i_{X#} e13) (level 1, 2-form; finite difference)
    c:  i_{X#} mu(X)            (level 1, scalar; exact algebra)
    d:  d' e13 + d e22          (level 2, 3-form; finite difference)
    e:  d' mu(X) - i_{X#} e22   (level 2, 1-form; exact algebra)
    """
    if sample.h1.level != 1 or sample.h2.level != 2:
        raise ValueError("sample points must have levels 1 and 2")
    if len(sample.v) != 4 or len(sample.t) != 3:
        raise ValueError(
            "sample needs 4 tangents at the level-1 point and 3 at the"
            " level-2 point")
    D = total_d(cocycle(e13, e22, mu, X), X, fd_step)
    h1, h2, v, t = sample.h1, sample.h2, sample.v, sample.t
    return {
        "a": abs(D[1].component(4).fn(h1, v)),
        "b": abs(D[1].component(2).fn(h1, v[:2])),
        "c": abs(D[1].component(0).fn(h1, ())),
        "d": abs(D[2].component(3).fn(h2, t)),
        "e": abs(D[2].component(1).fn(h2, t[:1])),
    }
