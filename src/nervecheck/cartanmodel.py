"""Cartan-model machinery for the conjugation action of SO(4) on its nerve.

An equivariant form of polynomial degree k assigns to each skew matrix X a
plain form, homogeneously of degree k in X, equivariant for simultaneous
conjugation.  The model differential is d - i_{X#}, where X# is the
generating vector field of the conjugation action; with the sign convention
used here its value at h is (h_j X - X h_j) per factor, i.e. the
left-invariant minus the right-invariant extension of X.

Because d raises and the contraction lowers the form degree, the Cartan
differential of a homogeneous form has two homogeneous components.  The
forms of one level are a plain dict {degree: form}, and a cochain is a dict
{level: {degree: form}} of them.

The total differential of the equivariant nerve complex takes a cochain
{p: c_p} to D c with

    (D c)_p = d' c_(p-1) + (-1)^p (d - i_{X#}) c_p,

the Cartan sign of Guillemin & Sternberg, "Supersymmetry and Equivariant de
Rham Theory" (1999).  `total_d` applies it.  `equivariant_total_check` is
the one component reader: it evaluates named components {name: (level,
degree)} of any cochain of forms, such as D c for the degree-4 cochain
c = {1: e13 + mu(X), 2: e22} of `cocycle`, or D3^2 of a bisimplicial
cochain keyed by (p, q) (`nerve.total_d3`), on a sample it draws level by
level.  The checks in `harness.CHECKS` that a cochain of forms vanishes
are rows of such components.  A sample may be stacked, with X stacked
alike, and then every residual is an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from .formcalc import (FD_STEP_DEFAULT, FormEval, chart_scope, contract,
                       exterior_d)
from .matrixgroup import GroupPoint, Tangent
from .nerve import _accumulate, d_prime


def fundamental_field(X: np.ndarray,
                      level: int) -> Callable[[GroupPoint], Tangent]:
    """Generating vector field of conjugation: h_j -> h_j X - X h_j."""
    x = np.asarray(X, dtype=float)

    def field(pt: GroupPoint) -> Tangent:
        if pt.level != level:
            raise ValueError("fundamental field applied at the wrong level")
        return Tangent(pt, tuple(h @ x - x @ h for h in pt.factors))

    return field


@dataclass(frozen=True, eq=False)
class EquivariantForm:
    """A polynomial family X -> FormEval, homogeneous of degree poly_degree."""

    level: int
    form_degree: int
    poly_degree: int
    eval: Callable[[np.ndarray], FormEval]

    def __call__(self, X: np.ndarray) -> FormEval:
        return self.eval(X)


def cartan_d(alpha: dict[int, FormEval], X: np.ndarray,
             fd_step: float = FD_STEP_DEFAULT) -> dict[int, FormEval]:
    """(d - i_{X#}) applied to the forms {degree: form} of one level, such
    as alpha(X) of an equivariant form or an earlier result (for d^2
    probes), as the same kind of dict."""
    out: dict[int, FormEval] = {}
    for degree, form in alpha.items():
        _accumulate(out, degree + 1, exterior_d(form, fd_step))
        if degree >= 1:
            _accumulate(out, degree - 1,
                        -contract(form, fundamental_field(X, form.level)))
    return out


def total_d(cochain: dict[int, dict[int, FormEval]], X: np.ndarray,
            fd_step: float = FD_STEP_DEFAULT
            ) -> dict[int, dict[int, FormEval]]:
    """D = d' + (-1)^p (d - i_{X#}) applied to the cochain
    {p: {degree: form}}, in the same shape, one entry per level it reaches.
    The components are forms, so only those that are evaluated cost
    anything."""
    out: dict[int, dict[int, FormEval]] = {}
    for p, forms in sorted(cochain.items()):
        if any(form.level != p for form in forms.values()):
            raise ValueError(f"every cochain form keyed {p} needs level {p}")
        for degree, form in cartan_d(forms, X, fd_step).items():
            _accumulate(out.setdefault(p, {}), degree,
                        -form if p % 2 else form)
        for degree, form in forms.items():
            _accumulate(out.setdefault(p + 1, {}), degree, d_prime(form))
    return out


def cocycle(e13: EquivariantForm, e22: EquivariantForm,
            mu: EquivariantForm,
            X: np.ndarray) -> dict[int, dict[int, FormEval]]:
    """The degree-4 cochain {1: e13 + mu(X), 2: e22} at X."""
    if (e13.level, e13.form_degree, e13.poly_degree) != (1, 3, 0):
        raise ValueError("first cochain must be a 3-form at level 1")
    if (e22.level, e22.form_degree, e22.poly_degree) != (2, 2, 0):
        raise ValueError("second cochain must be a 2-form at level 2")
    if (mu.level, mu.form_degree, mu.poly_degree) != (1, 1, 1):
        raise ValueError("third cochain must be a polynomial 1-form at level 1")
    return {1: {3: e13(X), 1: mu(X)}, 2: {2: e22(X)}}


def equivariant_total_check(cochain: dict[Hashable, dict[int, FormEval]],
                            sample: Callable[[Hashable, int], tuple],
                            components: dict[str, tuple[Hashable, int]]
                            ) -> dict[str, np.ndarray]:
    """|cochain[key][degree](pt, *ts[:degree])| of every named component
    {name: (key, degree)} of any cochain of forms, such as D c.  A key names
    a level, such as p or a bisimplicial (p, q); it is only compared and
    handed to `sample`.

    `sample(key, count)` draws a point of the level and `count` tangents
    at it, as (point, tangents).  The levels are drawn in order of first use,
    each once, with as many tangents as its highest degree needs, and the
    components of a level are evaluated before the next level is drawn.  The
    forms are called with their argument checks, so a sample with too few
    tangents raises ValueError.

    Each component is read inside its own `formcalc.chart_scope`: the
    exterior derivatives of its terms, such as d'(d w) and d(d' w), share
    the chart of every factor array they differentiate with the same
    tangent reps, and the charts are dropped when the component returns
    or raises, before the next one is read.
    """
    counts: dict[Hashable, int] = {}
    for key, degree in components.values():
        counts[key] = max(counts.get(key, 0), degree)
    out = {}
    for key, count in counts.items():
        pt, ts = sample(key, count)
        for name, (at, degree) in components.items():
            if at == key:
                with chart_scope():
                    out[name] = abs(cochain[key][degree](pt, *ts[:degree]))
    return out
