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

`equivariant_total_check` evaluates the five component identities that make
the degree-4 cochain (3-form, 2-form on the squared level, and the
polynomial 1-form) a cocycle of the equivariant nerve complex.  The total
differential on a level is the Cartan differential plus the face sum d', so
the check reads every component off `cartan_d` of the level-1 part
e13 + mu(X) and of e22, and off `d_prime` of e13 and mu(X).  The two
identities that hold only up to a relative sign report both variants; the
caller chooses the sign (see `harness.choose_signs`).  A sample may be
stacked, with X stacked alike, and then every residual is an array.
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

    def accumulate(degree: int, form: FormEval) -> None:
        out[degree] = out[degree] + form if degree in out else form

    for degree, form in alpha.components.items():
        accumulate(degree + 1, exterior_d(form, fd_step))
        if degree >= 1:
            accumulate(degree - 1, -contract(form, field))
    return GradedForm(alpha.level, out)


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


def equivariant_total_check(e13: EquivariantForm, e22: EquivariantForm,
                            mu: EquivariantForm, X: np.ndarray,
                            sample: CocycleSample,
                            fd_step: float = FD_STEP_DEFAULT
                            ) -> dict[str, np.ndarray]:
    """Absolute residuals of the five cocycle component identities.

    a, b and c are the degree-4, 2 and 0 components of
    (d - i_{X#})(e13 + mu(X)); d and e add d' e13 and d' mu(X) to the
    degree-3 and 1 components of (d - i_{X##}) e22.

    a:  d e13 = 0                       (4-form, one factor; finite difference)
    b:  i_{X#} e13 = d mu(X)            (2-form, one factor; finite difference)
    c:  i_{X#} mu(X) = 0                (scalar, one factor; exact algebra)
    d+: d' e13 + d e22 = 0, and d- with  - d e22
                                        (3-form, two factors; finite difference)
    e+: d' mu(X) = i_{X##} e22, and e- with  = -i_{X##} e22
                                        (1-form, two factors; exact algebra)
    """
    _check_shapes(e13, e22, mu)
    if sample.h1.level != 1 or sample.h2.level != 2:
        raise ValueError("sample points must have levels 1 and 2")
    if len(sample.v) != 4 or len(sample.t) != 3:
        raise ValueError(
            "sample needs 4 tangents at the level-1 point and 3 at the"
            " level-2 point")
    e13_form = e13(X)
    mu_form = mu(X)
    # (d - i_{X#})(e13 + mu(X)) has degrees 4 (d e13), 2 (d mu - i e13)
    # and 0 (-i mu); (d - i_{X##}) e22 has degrees 3 and 1
    level1 = cartan_d(GradedForm(1, {3: e13_form, 1: mu_form}), X, fd_step)
    level2 = cartan_d(e22, X, fd_step)
    h1, h2, pair, single = sample.h1, sample.h2, sample.v[:2], sample.t[:1]

    lhs_d = d_prime(e13_form).fn(h2, sample.t)
    rhs_d = level2.component(3).fn(h2, sample.t)
    lhs_e = d_prime(mu_form).fn(h2, single)
    minus_rhs_e = level2.component(1).fn(h2, single)
    return {
        "a": abs(level1.component(4).fn(h1, sample.v)),
        "b": abs(level1.component(2).fn(h1, pair)),
        "c": abs(level1.component(0).fn(h1, ())),
        "d+": abs(lhs_d + rhs_d), "d-": abs(lhs_d - rhs_d),
        "e+": abs(lhs_e + minus_rhs_e), "e-": abs(lhs_e - minus_rhs_e),
    }
