"""Acceptance gate: eleven numbered criteria, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py` (or plain pytest; the verdict
lines appear with -s or in captured output on failure). Tolerances are pinned
here and must not be loosened to make a run pass.
"""

import math

import numpy as np
import pytest

from nervecheck.matrixgroup import Tangent, basis_element, identity_point
from nervecheck.formcalc import entry, exterior_d, matrix_wedge_square, mc_left
from nervecheck.nerve import total_d3
from nervecheck.cartanmodel import equivariant_total_check, total_d
from nervecheck.eulercocycle import (
    cocycle,
    eval_E22,
    eval_alpha,
    eval_mu,
    polynomial_path,
)
from nervecheck.formdsl import FormSyntaxError, parse
from nervecheck.harness import (
    CheckConfig,
    DrawTape,
    run_check,
    sample_algebra,
    sample_bi_point,
    sample_bi_tangent,
    sample_point,
    sample_tangent,
    sample_tangents,
    trial_draws,
    trial_rows,
)

from helpers import trial_tape
from oracles import oracle_alpha, oracle_e22, oracle_mu
from test_formdsl import DATA as MALFORMED_DIR

SEED = 42
FD_STEP = 1e-5

E12 = basis_element(1, 2)
E34 = basis_element(3, 4)


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2}: {status} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_contraction_of_mu_vanishes():
    rep = run_check(CheckConfig("lemma-4.3", trials=200, seed=SEED, tol=1e-12))
    _verdict(1, rep.passed,
             f"max |i_X mu(X)| = {rep.max_abs_err:.3e} <= 1e-12 over 200 trials")


def test_criterion_02_contraction_of_e13_is_d_mu():
    rep = run_check(CheckConfig("lemma-4.1", trials=200, seed=SEED,
                                fd_step=FD_STEP, tol=1e-6))
    _verdict(2, rep.passed,
             f"max |i_X e13 - d mu(X)| = {rep.max_abs_err:.3e} <= 1e-6 over 200 trials")


def test_criterion_03_face_sum_of_mu_is_contraction_of_e22():
    rep = run_check(CheckConfig("lemma-4.2", trials=200, seed=SEED, tol=1e-10))
    _verdict(3, rep.passed,
             f"max |i_XX e22 - d' mu(X)| = {rep.max_abs_err:.3e} <= 1e-10 over 200 trials")


def _euler_worst(seed, trials):
    cfg = CheckConfig("euler-cocycle", trials=trials, seed=seed,
                      fd_step=FD_STEP)
    cols = trial_rows(cfg, range(trials))
    return tuple(cols[k].max() for k in "abc")


def _euler_ok(worst):
    a, b, c = worst
    return a <= 1e-6 and b <= 1e-6 and c <= 1e-10


def test_criterion_04_cocycle_components_with_forced_sign():
    a, b, c = _euler_worst(SEED, 100)
    # the stated D must hold on independent seeds as well
    ok = _euler_ok((a, b, c)) and all(
        _euler_ok(_euler_worst(seed, 20)) for seed in (1, 2, 3, 4, 5))
    _verdict(4, ok,
             f"|d e13| = {a:.3e} <= 1e-6, |d' e13 + d e22| = {b:.3e} <= 1e-6,"
             f" |d' e22| = {c:.3e} <= 1e-10 over 100 samples; and over 20"
             " samples on each of seeds 1..5")


def test_criterion_05_all_five_residuals_with_one_sign_pair():
    tols = {"a": 1e-6, "b": 1e-6, "c": 1e-12, "d": 1e-6, "e": 1e-10}
    # the 200 samples as one stack, each trial from its own stream, drawn
    # in the check's order: X, then each key's point, at the level of its
    # forms, and its tangents
    tape = DrawTape(trial_draws(SEED, "equivariant-cocycle", range(200)))
    X = sample_algebra(tape)
    D = total_d(cocycle(X), X, FD_STEP)

    def sample(level, count):
        pt = sample_point(tape, level)
        return pt, sample_tangents(tape, pt, count)

    cols = equivariant_total_check(D, sample, {
        "a": ((1, 0), 4), "b": ((1, 0), 2), "c": ((1, 0), 0),
        "d": ((2, 0), 3), "e": ((2, 0), 1)})
    # the same samples as the check's own run at this step
    run = trial_rows(CheckConfig("equivariant-cocycle", seed=SEED,
                                 fd_step=FD_STEP), range(200))
    assert all(np.array_equal(cols[k], run[k]) for k in tols)
    worst = {k: cols[k].max() for k in tols}
    ok = set(cols) == set(tols) and all(worst[k] <= tols[k] for k in tols)
    _verdict(5, ok,
             "five residuals " +
             ", ".join(f"{k}={worst[k]:.2e}<=({tols[k]:.0e})" for k in "abcde")
             + " of D = d' + (-1)^p (d - i_X#) over 200 samples")


def test_criterion_06_golden_values_against_two_references():
    pt1 = identity_point(1)
    mu_val = eval_mu(E12, pt1, Tangent(pt1, (E34,)))
    mu_closed = -1.0 / (4.0 * math.pi ** 2)
    mu_oracle = oracle_mu(E12, pt1, Tangent(pt1, (E34,)))

    pt2 = identity_point(2)
    zero = np.zeros((4, 4))
    t1 = Tangent(pt2, (E12, zero))
    t2 = Tangent(pt2, (zero, E34))
    e22_val = eval_E22(pt2, t1, t2)
    e22_closed = -1.0 / (8.0 * math.pi ** 2)
    e22_oracle = oracle_e22(pt2, t1, t2)

    c1, c2 = [zero, E12], [E34]
    alpha_val = eval_alpha(polynomial_path(c1), polynomial_path(c2))
    alpha_closed = -1.0 / (8.0 * math.pi ** 2)
    alpha_oracle = oracle_alpha(c1, c2)

    closed_errs = (abs(mu_val - mu_closed), abs(e22_val - e22_closed),
                   abs(alpha_val - alpha_closed))
    oracle_errs = (abs(mu_val - mu_oracle), abs(e22_val - e22_oracle),
                   abs(alpha_val - alpha_oracle))
    ok = max(closed_errs) <= 1e-12 and max(oracle_errs) <= 1e-14
    _verdict(6, ok,
             f"golden values: closed-form errs {[f'{e:.1e}' for e in closed_errs]}"
             f" <= 1e-12, oracle errs {[f'{e:.1e}' for e in oracle_errs]} <= 1e-14")


def test_criterion_07_structural_equation_and_step_scaling():
    rep = run_check(CheckConfig("mc-structure", trials=100, seed=SEED,
                                fd_step=FD_STEP, tol=1e-6))
    # step-halving ratio measured above the roundoff floor (base step 1e-4),
    # over the 100 samples evaluated as one stack
    om = mc_left(1, 1)
    sq = matrix_wedge_square(om)
    tape = DrawTape(trial_draws(SEED, "mc-structure", range(100)))
    pt = sample_point(tape, 1)
    v = sample_tangent(tape, pt)
    w = sample_tangent(tape, pt)
    truth = sq(pt, v, w)

    def worst(step):
        return max(
            np.max(np.abs(exterior_d(entry(om, a + 1, b + 1), step)(pt, v, w)
                          + truth[..., a, b]))
            for a in range(4) for b in range(4))

    ratio = worst(1e-4) / worst(5e-5)
    ok = rep.passed and 2.5 <= ratio <= 6.0
    _verdict(7, ok,
             f"all 16 structural-equation entries: max residual "
             f"{rep.max_abs_err:.3e} <= 1e-6 over 100 samples; halving the "
             f"step scales the error by {ratio:.2f} (in [2.5, 6])")


def test_criterion_08_simplicial_identities():
    faces = run_check(CheckConfig("simplicial-identities", trials=50,
                                  seed=SEED, tol=1e-13))
    compare = run_check(CheckConfig("gamma-simplicial", trials=50,
                                    seed=SEED, tol=1e-13))
    ok = faces.passed and compare.passed
    _verdict(8, ok,
             f"face/degeneracy identities at levels <= 4: {faces.max_abs_err:.3e}"
             f" <= 1e-13 (50 tuples); comparison map intertwines faces: "
             f"{compare.max_abs_err:.3e} <= 1e-13")


def test_criterion_09_conjugation_invariance():
    rep = run_check(CheckConfig("ad-invariance", trials=100, seed=SEED,
                                tol=1e-10))
    _verdict(9, rep.passed,
             f"conjugation-invariance of the three cochains: "
             f"{rep.max_abs_err:.3e} <= 1e-10 over 100 samples")


def test_criterion_10_dsl_against_builtins_and_error_positions():
    rep = run_check(CheckConfig("dsl-oracle", trials=100, seed=SEED, tol=1e-12))
    expected = {
        "bad-entry-index.form": (1, 8),
        "missing-entry.form": (1, 24),
        "second-line-garbage.form": (2, 17),
        "unbound-placeholder.form": (1, 14),
        "unclosed-paren.form": (2, 1),
    }
    files = sorted(MALFORMED_DIR.glob("*.form"))
    positions_ok = {f.name for f in files} == set(expected)
    for f in files:
        try:
            parse(f.read_text())
            positions_ok = False
        except FormSyntaxError as exc:
            if (exc.line, exc.col) != expected[f.name]:
                positions_ok = False
    ok = rep.passed and positions_ok
    _verdict(10, ok,
             f"interpreted sources vs built-ins: {rep.max_abs_err:.3e} <= 1e-12 "
             f"over 100 probes; 5 malformed files fail at their pinned positions")


def test_criterion_11_complex_structure():
    # every identity is a (p, q, degree) component of D3^2, the square of
    # the total differential d' + d'' + d''' of the action-twisted complex
    f = entry(mc_left(1, 1), 1, 2)
    e13 = cocycle(np.zeros((4, 4)))[(1, 0)][3]
    nerve_sq = total_d3(total_d3({(1, 0): {1: f, 3: e13}}, FD_STEP), FD_STEP)

    # d' o d' = 0 exactly-analytically (to roundoff): (3, 0) in degrees 1, 3
    worst_dpdp = 0.0
    for t in range(20):
        tape = trial_tape(SEED, "d-squared", t)
        pt = sample_point(tape, 3)
        worst_dpdp = max(worst_dpdp,
                         abs(nerve_sq[(3, 0)][1](pt, sample_tangent(tape, pt))))
        ts = sample_tangents(tape, pt, 3)
        worst_dpdp = max(worst_dpdp, abs(nerve_sq[(3, 0)][3](pt, *ts)))

    # (d' + d''')^2 = 0 on the nerve, a probe form: the mixed block (2, 0)
    # in degree 2 dominates the error, then d'''d''' at (1, 0) in degree 3
    worst_total = 0.0
    for t in range(20):
        tape = trial_tape(SEED, "d-squared", 1000 + t)
        pt2 = sample_point(tape, 2)
        v, w = sample_tangent(tape, pt2), sample_tangent(tape, pt2)
        worst_total = max(worst_total, abs(nerve_sq[(2, 0)][2](pt2, v, w)))
        pt1 = sample_point(tape, 1)
        ts = sample_tangents(tape, pt1, 3)
        worst_total = max(worst_total, abs(nerve_sq[(1, 0)][3](pt1, *ts)))

    # the pairwise anticommutators of the three bisimplicial differentials
    # on a probe at (p, q): the components (p+1, q+1) in degree 1 (d'd''),
    # (p+1, q) in degree 2 (d'd''') and (p, q+1) in degree 2 (d''d''')
    worst_tc = 0.0
    for (p, q) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        probe = entry(mc_left(1, p + q), 1, 2)
        sq = total_d3(total_d3({(p, q): {1: probe}}, FD_STEP), FD_STEP)
        for key, degree in (((p + 1, q + 1), 1), ((p + 1, q), 2),
                            ((p, q + 1), 2)):
            for t in range(3):
                tape = trial_tape(SEED, "d-squared",
                                  2000 + 100 * p + 10 * q + t)
                bp = sample_bi_point(tape, *key)
                ts = [sample_bi_tangent(tape, bp) for _ in range(degree)]
                worst_tc = max(worst_tc, abs(sq[key][degree](bp, *ts)))

    ok = worst_dpdp <= 1e-12 and worst_total <= 1e-4 and worst_tc <= 1e-4
    _verdict(11, ok,
             f"D3^2: d'd' = {worst_dpdp:.3e} <= 1e-12; (d'+d''')^2 = "
             f"{worst_total:.3e} <= 1e-4; triple-complex anticommutators at "
             f"(p,q) <= (2,2) = {worst_tc:.3e} <= 1e-4")
