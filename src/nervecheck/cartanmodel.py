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
{(p, 0): {degree: form}} of them: the nerve level p is the row q = 0 of the
bisimplicial levels (p, q) of `nerve`, and is keyed like them.

The total differential of the equivariant nerve complex takes a cochain
{(p, 0): c_p} to D c with

    (D c)_p = d' c_(p-1) + (-1)^p (d - i_{X#}) c_p,

the Cartan sign of Guillemin & Sternberg, "Supersymmetry and Equivariant de
Rham Theory" (1999).  On the row q = 0 the de Rham differential of
`nerve.d_triple_complex` is d''' = (-1)^p d, so D = d' + d''' - (-1)^p
i_{X#} is the q = 0 row of D3 = d' + d'' + d''' with d'' replaced by the
contraction; `total_d` applies it through the walk of `nerve.total_d3`.
`equivariant_total_check` is the one component reader: it evaluates named
components {name: ((p, q), degree)} of any cochain of forms, such as D c
for the degree-4 cochain c of `eulercocycle.cocycle`, or D3^2 of a
bisimplicial cochain, on a sample drawn at the level its forms name.  The
checks in `harness.CHECKS` that a cochain of forms vanishes are rows of
such components.  A sample may be stacked, with X stacked alike, and then
every residual is an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .formcalc import FD_STEP_DEFAULT, FormEval, contract
from .matrixgroup import GroupPoint, Tangent
from .nerve import Cochain, total_with


def fundamental_field(X: np.ndarray) -> Callable[[GroupPoint], Tangent]:
    """Generating vector field of conjugation, at any level: h_j -> h_j X -
    X h_j.  The form it is contracted into checks the level."""

    def field(pt: GroupPoint) -> Tangent:
        return Tangent(pt, tuple(h @ X - X @ h for h in pt.factors))

    return field


@dataclass(frozen=True, eq=False)
class EquivariantForm:
    """A polynomial family X -> FormEval, homogeneous of degree poly_degree,
    such as a `formdsl` expression in which X occurs."""

    level: int
    form_degree: int
    poly_degree: int
    eval: Callable[[np.ndarray], FormEval]

    def __call__(self, X: np.ndarray) -> FormEval:
        return self.eval(X)


def total_d(cochain: Cochain, X: np.ndarray,
            fd_step: float = FD_STEP_DEFAULT) -> Cochain:
    """D = d' + d''' - (-1)^p i_{X#} applied to the cochain
    {(p, 0): {degree: form}}, in the same shape, one entry per level it
    reaches (see the module docstring).  A key (p, q) with q != 0 raises
    ValueError, and so does a form keyed (p, 0) whose level is not p."""
    if any(q for _, q in cochain):
        raise ValueError("a Cartan cochain is keyed (p, 0)")

    def contraction(form: FormEval, p: int, q: int) -> tuple:
        if form.degree < 1:
            return ()
        i = contract(form, fundamental_field(X))
        return (((p, q), i if p % 2 else -i),)

    return total_with(cochain, fd_step, contraction)


def equivariant_total_check(cochain: Cochain,
                            sample: Callable[[int, int], tuple],
                            components: dict[str, tuple[tuple[int, int], int]]
                            ) -> dict[str, np.ndarray]:
    """|cochain[key][degree](pt, *ts[:degree])| of every named component
    {name: (key, degree)} of any cochain of forms, such as D c.

    A key only groups components: `sample(level, count)` draws one point of
    SO(4)^level and `count` tangents at it, as (point, tangents), per key,
    where `count` is the highest degree read at the key and `level` the
    level of its form.  The keys are drawn in order of first use, and the
    components of a key are evaluated before the next key is drawn.  The
    forms are called with their argument checks, so a form of another
    level, or a sample with too few tangents, raises ValueError.  Each
    component read is one evaluation of its form.
    """
    counts: dict[tuple[int, int], int] = {}  # {key: highest degree}
    for key, degree in components.values():
        counts[key] = max(counts.get(key, 0), degree)
    out = {}
    for key, count in counts.items():
        forms = cochain[key]
        pt, ts = sample(forms[count].level, count)
        for name, (at, degree) in components.items():
            if at == key:
                out[name] = abs(forms[degree](pt, *ts[:degree]))
    return out
