"""Comparators between the program's outputs and the benchmark's expectations.

Each function returns a list of problems; an empty list means the outputs are
correct.  `run.py --smoke` feeds them perturbed copies of real outputs to show
that they do reject wrong values.
"""

from __future__ import annotations

import json
import math

import reference

# The per-check default tolerances the README documents.
DOCUMENTED_TOLS = {
    "mc-structure": 1e-6, "simplicial-identities": 1e-13,
    "gamma-simplicial": 1e-13, "lemma-4.1": 1e-6, "lemma-4.2": 1e-10,
    "lemma-4.3": 1e-12, "euler-cocycle": 1.0, "equivariant-cocycle": 1.0,
    "ad-invariance": 1e-10, "dsl-oracle": 1e-12, "alpha-antisymmetry": 1e-12,
    "d-squared": 1.0, "golden-values": 1e-12,
}


def close(what: str, got: float, want: float, tol: float) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= tol:
        return []
    return [f"{what}: got {got!r}, want {want!r} within {tol:.1e}"]


def check_reports(ops, passes, trials: int) -> tuple[list[bool], list[str]]:
    """Per-operation failure flags and the problems of every pass's reports.

    A check that ran and reported a residual above its tolerance has failed;
    its report must still be consistent.  Repeated passes over the same
    (check, seed) must agree on the residual and the worst trial.
    """
    problems = []
    failed = []
    first = {}
    for n, outputs in enumerate(passes):
        for (cid, seed), (code, text) in zip(ops, outputs):
            where = f"pass {n} {cid} seed {seed}"
            try:
                rep = json.loads(text)
            except json.JSONDecodeError:
                problems.append(f"{where}: report is not JSON: {text[:80]!r}")
                failed.append(True)
                continue
            want = {"check": cid, "seed": seed, "trials": trials,
                    "tol": DOCUMENTED_TOLS[cid], "fd_step": 1e-5}
            for key, value in want.items():
                if rep.get(key) != value:
                    problems.append(f"{where}: {key} is {rep.get(key)!r}, "
                                    f"want {value!r}")
            err = rep.get("max_abs_err")
            if not (isinstance(err, float) and math.isfinite(err)
                    and err >= 0.0):
                problems.append(f"{where}: max_abs_err is {err!r}")
                failed.append(True)
                continue
            verdict = err <= rep["tol"]
            if rep.get("pass") is not verdict or code != (0 if verdict else 1):
                problems.append(f"{where}: pass={rep.get('pass')!r} and exit "
                                f"code {code} for max_abs_err {err!r}")
            if not 0 <= rep.get("worst_trial", -1) < trials:
                problems.append(f"{where}: worst_trial "
                                f"{rep.get('worst_trial')!r}")
            key = (cid, seed)
            outcome = (err, rep.get("worst_trial"), rep.get("pass"))
            if first.setdefault(key, outcome) != outcome:
                problems.append(f"{where}: {outcome} differs from the first "
                                f"pass's {first[key]}")
            failed.append(not verdict)
    return failed, problems


def dsl_values(exprs, passes) -> tuple[list[bool], list[str]]:
    """Each expression's values against the reference evaluation of its term
    list (generated sources) or of the cochain it encodes (the corpus)."""
    problems = []
    failed = []
    expected = []
    for expr in exprs:
        want = []
        for p in expr.points:
            if expr.terms is None:
                value = reference.cochain(expr.name, p)
                want.append((value, reference.cochain_tol(value)))
            else:
                value, size = reference.eval_terms(expr.terms, p)
                want.append((value, reference.dsl_tol(size)))
        expected.append(want)
    first = {}
    for n, outputs in enumerate(passes):
        for expr, want, (code, got) in zip(exprs, expected, outputs):
            where = f"pass {n} {expr.name}"
            if code != 0:
                problems.append(f"{where}: raised {got}")
                failed.append(True)
                continue
            failed.append(False)
            for k, (value, (ref, tol)) in enumerate(zip(got, want)):
                problems += close(f"{where} point {k}", value, ref, tol)
            if first.setdefault(expr.name, got) != got:
                problems.append(f"{where}: values {got} differ from the "
                                f"first pass's {first[expr.name]}")
    return failed, problems


def cochain_probes(probes) -> list[str]:
    """eval_E13 / eval_E22 / eval_mu against the Levi-Civita contractions."""
    problems = []
    for name, point, got in probes:
        want = reference.cochain(name, point)
        problems += close(f"probe {name}", got, want,
                          reference.cochain_tol(want))
    return problems


def golden_probes(values: dict) -> list[str]:
    problems = []
    for name, want in reference.GOLDEN.items():
        problems += close(f"golden {name}", values.get(name, math.nan), want,
                          reference.GOLDEN_TOL)
    return problems


def mc_probes(probes, step: float) -> list[str]:
    """exterior_d of a Maurer-Cartan entry against -[w(v), w(w)]."""
    problems = []
    for (a, b), point, got in probes:
        want = reference.mc_bracket(point.factors, point.tangents, a, b)
        problems += close(f"d w[{a + 1},{b + 1}]", got, want,
                          reference.fd_bound(step, point.factors,
                                             point.tangents))
    return problems

