"""One pass of a workload, driven through the program's public entry points:
`cli.main` for checks, `formdsl.parse` / `formdsl.interpret` and the returned
forms for expressions.  Import this module only after `src` is on sys.path.
"""

from __future__ import annotations

import contextlib
import io

import workloads
from nervecheck import cli, formdsl
from nervecheck.cartanmodel import EquivariantForm
from nervecheck.matrixgroup import GroupPoint, Tangent


class CheckPass:
    """Every (check id, check seed) pair of a check workload, once each."""

    def __init__(self, workload: str, seed: int,
                 trials: int = workloads.TRIALS):
        self.ops = workloads.check_ops(workload, seed)
        self.argvs = [["check", "--id", cid, "--seed", str(s),
                       "--trials", str(trials)]
                      for cid, s in self.ops]
        self.trials = len(self.ops) * trials

    def run_op(self, k: int) -> tuple[int, str]:
        """Operation k: (exit code, printed report)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argvs[k])
        return code, buf.getvalue()

    def run(self) -> list[tuple[int, str]]:
        return [self.run_op(k) for k in range(len(self.ops))]


class DslPass:
    """Parse, interpret and evaluate every expression of dsl-eval once."""

    def __init__(self, seed: int):
        self.exprs = workloads.dsl_exprs(seed)
        self.ops = [e.name for e in self.exprs]
        self.points = [[_program_point(p) for p in e.points]
                       for e in self.exprs]
        self.trials = sum(len(e.points) for e in self.exprs)

    def run_op(self, k: int) -> tuple[int, object]:
        """Expression k: (0, values), or (1, error text) if it raised."""
        try:
            return 0, _evaluate(self.exprs[k], self.points[k])
        except formdsl.FormDslError as exc:
            return 1, str(exc)

    def run(self) -> list[tuple[int, object]]:
        return [self.run_op(k) for k in range(len(self.ops))]


def _program_point(p: workloads.Point):
    pt = GroupPoint(tuple(p.factors))
    return pt, tuple(Tangent(pt, reps) for reps in p.tangents), p.x


def _evaluate(expr: workloads.DslExpr, points) -> list[float]:
    src = expr.source
    if src is None:
        src = formdsl.corpus_source(expr.name)
    form = formdsl.interpret(formdsl.parse(src), level=expr.level)
    values = []
    for pt, tangents, x in points:
        concrete = form(x) if isinstance(form, EquivariantForm) else form
        values.append(float(concrete(pt, *tangents)))
    return values


def make_pass(workload: str, seed: int):
    if workload == "dsl-eval":
        return DslPass(seed)
    return CheckPass(workload, seed)


# ---------------------------------------------------------------------------
# program outputs for the checks made outside the timed passes

PROBE_POINTS = 6


def probe_cochains(workload: str, seed: int) -> list[tuple[str, object, float]]:
    """eval_E13, eval_E22 and eval_mu at points the benchmark drew."""
    from nervecheck.eulercocycle import eval_E13, eval_E22, eval_mu

    out = []
    for name, level, degree in (("e13.form", 1, 3), ("e22.form", 2, 2),
                                ("mu.form", 1, 1)):
        for p in workloads.probe_points(workload, seed, level, degree,
                                        PROBE_POINTS):
            pt, ts, x = _program_point(p)
            if name == "e13.form":
                value = eval_E13(pt, *ts)
            elif name == "e22.form":
                value = eval_E22(pt, *ts)
            else:
                value = eval_mu(x, pt, *ts)
            out.append((name, p, float(value)))
    return out


def probe_golden() -> dict[str, float]:
    """The basis evaluations at the identity that have closed-form values."""
    import numpy as np
    from nervecheck.eulercocycle import (eval_alpha, eval_E13, eval_E22,
                                         eval_mu, polynomial_path)

    e = workloads.basis
    zero = np.zeros((4, 4))
    one = GroupPoint((np.eye(4),))
    two = GroupPoint((np.eye(4), np.eye(4)))

    def at_one(*mats):
        return [Tangent(one, (m,)) for m in mats]

    return {
        "mu": eval_mu(e(1, 2), one, *at_one(e(3, 4))),
        "e22": eval_E22(two, Tangent(two, (e(1, 2), zero)),
                        Tangent(two, (zero, e(3, 4)))),
        "alpha": eval_alpha(polynomial_path([zero, e(1, 2)]),
                            polynomial_path([e(3, 4)])),
        "e13": eval_E13(one, *at_one(e(1, 2), e(1, 3), e(1, 4))),
        "e13-degenerate": eval_E13(one, *at_one(e(1, 2), e(1, 3), e(2, 3))),
    }


def probe_mc(workload: str, seed: int, step: float):
    """exterior_d of every entry of the left Maurer-Cartan form."""
    from nervecheck.formcalc import entry, exterior_d, mc_left

    omega = mc_left(1, 1)
    out = []
    for p in workloads.probe_points(workload, seed, 1, 2, PROBE_POINTS):
        pt, ts, _ = _program_point(p)
        for a in range(4):
            for b in range(4):
                d = exterior_d(entry(omega, a + 1, b + 1), step)
                out.append(((a, b), p, float(d(pt, *ts))))
    return out
