"""Tests for the randomized check harness: ids, configs, reports, determinism."""

import math
import re
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nervecheck.harness as harness
from nervecheck.harness import (
    CHECK_IDS,
    CHECKS,
    CHUNK,
    MAX_TRIALS,
    CheckConfig,
    CheckReport,
    DrawTape,
    golden_value_errors,
    reduce_rows,
    run_check,
    sample_bi_point,
    sample_bi_tangent,
    sample_point,
    sample_tangent,
    trial_draws,
    trial_rows,
)
from nervecheck.formcalc import FormEval
from nervecheck.matrixgroup import exp_coords, exp_matrix, skew_from_coords
from nervecheck.nerve import degeneracy_ng, face_ng, face_pg, gamma

from helpers import (NERVE_DEFECTS, block_tape, digest, row_rng, same_bits,
                     signed_permutations_in_order,
                     skip_unless_recorded_platform, trial_tape, validate_point,
                     validate_tangent)
from oracles import PerCallSampler


def test_list_checks_contents_and_order():
    ids = CHECK_IDS
    assert len(ids) == 13
    assert ids == tuple(CHECKS)
    assert "lemma-4.1" in ids
    assert ids[0] == "mc-structure"
    assert ids[-1] == "golden-values"


def test_every_check_has_a_default_tolerance():
    assert all(CHECKS[cid].tol > 0 for cid in CHECK_IDS)


def test_run_check_passes_on_small_configs():
    for check_id in CHECK_IDS:
        rep = run_check(CheckConfig(check_id, trials=2, seed=11))
        assert rep.passed, (check_id, rep.max_abs_err)
        assert rep.max_abs_err <= rep.tol
        assert rep.trials == 2
        assert 0 <= rep.worst_trial < 2
        assert rep.elapsed_ms >= 0.0


def test_report_json_schema_key_order():
    rep = run_check(CheckConfig("lemma-4.3", trials=1, seed=0))
    d = rep.to_json_dict()
    assert list(d.keys()) == [
        "check", "trials", "seed", "fd_step", "tol",
        "max_abs_err", "pass", "elapsed_ms", "worst_trial",
    ]
    assert d["check"] == "lemma-4.3"
    assert d["pass"] is True
    assert isinstance(d["max_abs_err"], float)


def test_run_check_is_deterministic():
    a = run_check(CheckConfig("lemma-4.1", trials=3, seed=7))
    b = run_check(CheckConfig("lemma-4.1", trials=3, seed=7))
    assert a.max_abs_err == b.max_abs_err
    assert a.worst_trial == b.worst_trial
    c = run_check(CheckConfig("lemma-4.1", trials=3, seed=8))
    assert c.max_abs_err != a.max_abs_err


def test_config_validation():
    # an invalid config is refused when it is built, with its message
    trials = r"trials must lie in \[1, 1000000\]"
    steps = r"fd_step must lie in \[5e-6, 2e-4\]"
    tols = "tol must be positive and finite"
    for kwargs, message in [
            ({"check_id": "no-such-check"}, "unknown check id 'no-such-check'"),
            ({"trials": 0}, trials), ({"trials": MAX_TRIALS + 1}, trials),
            ({"fd_step": 1e-8}, steps), ({"fd_step": 1e-2}, steps),
            ({"tol": 0.0}, tols), ({"tol": math.inf}, tols)]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            CheckConfig(**{"check_id": "lemma-4.1", "trials": 1, **kwargs})


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("trials", True), ("seed", 1.5), ("seed", False),
    ("fd_step", "1e-5"), ("tol", "1e-3"), ("tol", True)])
def test_config_refuses_a_value_of_the_wrong_type(field, value):
    # refused when the config is built, not later by range or the seeding;
    # numpy numbers are numbers of their kind
    what = "an integer" if field in ("trials", "seed") else "a real number"
    message = f"{field} must be {what}, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CheckConfig("lemma-4.1", **{field: value})
    cfg = CheckConfig("lemma-4.1", trials=np.int32(3), seed=np.int64(-2),
                      fd_step=np.float64(1e-5), tol=np.float32(1e-6))
    assert cfg.trials == 3 and cfg.seed == -2


def test_tol_override_can_force_failure():
    rep = run_check(CheckConfig("mc-structure", trials=2, seed=3, tol=1e-30))
    assert not rep.passed
    assert rep.tol == 1e-30


def test_trial_rng_streams():
    a = trial_draws(42, "lemma-4.1", [0])(0, 1)
    b = trial_draws(42, "lemma-4.1", [0])(0, 1)
    assert np.array_equal(a, b)
    c = trial_draws(42, "lemma-4.2", [0])(0, 1)
    d = trial_draws(42, "lemma-4.1", [1])(0, 1)
    e = trial_draws(42, "lemma-4.1", [0])(1, 1)
    for other in (c, d, e):
        assert not np.array_equal(a, other)


def test_samplers_produce_valid_geometry():
    tape = trial_tape(0, "unit", 0)
    pt = sample_point(tape, 3)
    validate_point(pt)
    assert pt.level == 3
    t = sample_tangent(tape, pt)
    validate_tangent(t)
    bp = sample_bi_point(tape, 2, 2)
    validate_point(bp)
    assert bp.level == 2 + 2
    bt = sample_bi_tangent(tape, bp)
    validate_tangent(bt)
    assert bt.base is bp and len(bt.reps) == 4


def test_fd_checks_do_not_degrade_under_step_halving():
    # halving the step must not inflate the error by more than 2x
    for check_id in ("mc-structure", "lemma-4.1", "lemma-4.2"):
        base = run_check(CheckConfig(check_id, trials=5, seed=42, fd_step=1e-4))
        half = run_check(CheckConfig(check_id, trials=5, seed=42, fd_step=5e-5))
        assert half.max_abs_err <= 2.0 * base.max_abs_err, check_id


@pytest.mark.parametrize("fd_step,seed", [(5e-6, 35), (2e-4, 19)])
def test_the_accepted_steps_keep_every_fd_check_within_a_fifth_of_its_tol(
        fd_step, seed):
    # the ends of the --fd-step range, each on the seed of 0-49 that came
    # nearest the tolerance there (d-squared on roundoff at the short end,
    # mc-structure on truncation at the long one); the next steps of the
    # 1-2-5 grid are rejected
    for check_id in ("mc-structure", "lemma-4.1", "euler-cocycle",
                     "equivariant-cocycle", "d-squared"):
        rep = run_check(CheckConfig(check_id, seed=seed, fd_step=fd_step))
        assert rep.max_abs_err <= 0.2 * rep.tol, (check_id, rep.max_abs_err)
    for outside in (2e-6, 5e-4):
        with pytest.raises(ValueError, match=r"\[5e-6, 2e-4\]"):
            CheckConfig("d-squared", fd_step=outside)


def test_identity_point_kills_lemma41_contraction_term():
    # at the identity the generating field vanishes, so the contraction side
    # contributes exactly zero and the whole residual is the FD error of d(mu)
    from nervecheck.matrixgroup import identity_point
    from nervecheck.eulercocycle import cocycle
    from nervecheck.cartanmodel import fundamental_field
    from nervecheck.formcalc import contract, exterior_d

    tape = trial_tape(0, "unit", 1)
    from nervecheck.harness import sample_algebra, sample_tangents

    X = sample_algebra(tape)
    pt = identity_point(1)
    ts = sample_tangents(tape, pt, 2)
    c = cocycle(X)
    contraction = contract(c[(1, 0)][3], fundamental_field(X))
    assert contraction(pt, *ts) == 0.0
    resid = abs(contraction(pt, *ts) - exterior_d(c[(1, 0)][1], 1e-5)(pt, *ts))
    assert resid < 1e-9


def test_golden_value_errors_are_zero():
    errs = golden_value_errors()
    assert set(errs) == {"mu", "e22", "alpha", "e13-degenerate", "e13"}
    for key, err in errs.items():
        assert err <= 1e-14, (key, err)


def test_worst_trial_is_reproducible():
    # replaying the worst trial alone through the protocol gives the report
    for check_id in CHECK_IDS:
        cfg = CheckConfig(check_id, trials=4, seed=5)
        rep = run_check(cfg)
        rows = trial_rows(cfg, [rep.worst_trial])
        replay, _ = reduce_rows(rows, CHECKS[check_id].tols)
        assert replay == rep.max_abs_err, check_id


def test_composite_checks_report_normalized_errors():
    # composite checks divide by per-component tolerances, so tol defaults to 1
    for check_id in ("euler-cocycle", "equivariant-cocycle", "d-squared"):
        rep = run_check(CheckConfig(check_id, trials=1, seed=2))
        assert rep.tol == 1.0
        assert rep.max_abs_err < 1.0
    # each component over its own tolerance (1 where none is named); the
    # first of equal maxima is the worst trial
    cols = {"a": [1e-7, 2e-7, 5e-7], "b": [3e-7, 5e-7, 1e-7],
            "x": [0.2, 0.2, 0.2]}
    assert reduce_rows(cols, {"a": 1e-6, "b": 1e-6}) == (5e-7 / 1e-6, 1)


def test_registry_matches_check_ids_and_component_tolerances():
    assert tuple(CHECKS) == CHECK_IDS
    assert CHECKS["euler-cocycle"].tols == {"a": 1e-6, "b": 1e-6, "c": 1e-10}
    assert CHECKS["equivariant-cocycle"].tols == {
        "a": 1e-6, "b": 1e-6, "c": 1e-12, "d": 1e-6, "e": 1e-10}
    assert CHECKS["d-squared"].tols == {
        "dd": 1e-4, "dpdp": 1e-12, "dpdp e13": 1e-12, "total2": 1e-4,
        "d'd''": 1e-4, "d'd'''": 1e-4, "d''d'''": 1e-4, "d''d''": 1e-12}
    composite = {"euler-cocycle", "equivariant-cocycle", "d-squared"}
    for check_id, check in CHECKS.items():
        assert (check.tol == 1.0) == (check_id in composite), check_id
        assert bool(check.tols) == (check_id in composite), check_id


def test_golden_values_run_once_whatever_the_trial_count(monkeypatch):
    # fixed inputs: one evaluation per stack, whose errors every trial
    # reports, so the first trial is the worst; no stream is seeded
    monkeypatch.setattr(np.random, "PCG64", None)
    for trials in (7, 300):
        rep = run_check(CheckConfig("golden-values", trials=trials, seed=1))
        assert rep.trials == trials and rep.worst_trial == 0
        assert rep.max_abs_err == max(golden_value_errors().values())


# ---------------------------------------------------------------------------
# stacked evaluation


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_stacked_rows_equal_single_trial_replays(check_id):
    # trial k of a stacked run is the same number as trial k run alone
    cfg = CheckConfig(check_id, trials=16, seed=3)
    full = trial_rows(cfg, range(16))
    for k in range(16):
        one = trial_rows(cfg, [k])
        assert set(one) == set(full)
        for key, col in full.items():
            assert col.shape == (16,) and one[key].shape == (1,)
            assert one[key][0] == col[k], (check_id, key, k)


@pytest.mark.parametrize("check_id", ["lemma-4.1", "euler-cocycle",
                                      "ad-invariance", "dsl-oracle",
                                      "d-squared"])
def test_stacked_rows_across_chunk_boundaries(check_id):
    # every stack builds its own forms; the trials at the stack edges read
    # the same numbers as when run alone
    cfg = CheckConfig(check_id, trials=600, seed=9)
    assert 600 > 2 * CHUNK
    full = trial_rows(cfg, range(600))
    for k in (0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, 599):
        one = trial_rows(cfg, [k])
        assert set(one) == set(full)
        for key, col in full.items():
            assert col.shape == (600,)
            assert one[key][0] == col[k], (key, k)


def test_a_level_added_to_a_check_moves_none_of_its_rows(monkeypatch):
    # d-squared with the probe's d'd' block at (3, 1, 1) appended: the new
    # level is drawn after the others, and the 8 existing columns keep
    # every bit, because no row's position depends on how many rows a
    # trial reads
    cfg = CheckConfig("d-squared", seed=5)
    before = trial_rows(cfg, range(200))
    components = {
        "dd": ((1, 0), 3), "dpdp": ((3, 0), 1), "dpdp e13": ((3, 0), 3),
        "total2": ((2, 0), 2), "d'd''": ((2, 2), 1), "d'd'''": ((2, 1), 2),
        "d''d'''": ((1, 2), 2), "d''d''": ((1, 3), 1),
        "new": ((3, 1), 1)}
    monkeypatch.setitem(CHECKS, "d-squared", harness._rows(
        1.0, harness._d_squared, components, CHECKS["d-squared"].tols))
    after = trial_rows(cfg, range(200))
    assert list(after) == [*before, "new"]
    assert after["new"].max() <= 1e-12  # d'd' reads roundoff
    for key, col in before.items():
        assert same_bits(after[key], col), key


@pytest.mark.parametrize("check_id",
                         [cid for cid in CHECK_IDS if cid != "golden-values"])
def test_any_list_of_trials_replays_the_trials_of_a_run(check_id):
    # every row of a trial is a jump into its check's stream: alone, on
    # either side of CHUNK, or in a shuffled list with a repeat, a trial
    # gives the same bits as in a 300-trial run, and the first rows of
    # trials 0, 255, 256, 2**32 - 1 and 2**40 read numpy's stream at their
    # positions
    cfg = CheckConfig(check_id, trials=300, seed=11)
    assert 300 > CHUNK + 1
    full = trial_rows(cfg, range(300))
    for k in (0, 199, CHUNK - 1, CHUNK, 299):
        one = trial_rows(cfg, [k])
        assert set(one) == set(full)
        for key, col in full.items():
            assert same_bits(one[key], col[k:k + 1]), (key, k)
    shuffled = [CHUNK, 3, 299, 4, 3, 0, CHUNK - 1]
    some = trial_rows(cfg, shuffled)
    for key, col in full.items():
        assert same_bits(some[key], col[shuffled]), key
    _assert_numpy_streams(11, check_id, [0, 255, 256, 2**32 - 1, 2**40], 3)


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name through every nervecheck binding."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "nervecheck":
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


# The exponentials of one run of each check at 200 trials: (charts,
# samplers), the exp_coords calls of formcalc's charts and of harness's
# samplers.  The other checks make none.
_EXPONENTIALS = {
    "mc-structure": (1, 1), "lemma-4.1": (1, 1), "lemma-4.2": (0, 1),
    "lemma-4.3": (0, 1), "euler-cocycle": (3, 3),
    "equivariant-cocycle": (4, 2), "ad-invariance": (0, 3),
    "dsl-oracle": (0, 2), "d-squared": (14, 7)}


def test_exponentials_do_not_grow_with_the_trial_count(monkeypatch):
    # the exponentials run once per stack, not once per trial (per-trial
    # evaluation made about 30,000 calls for d-squared at 200 trials), so
    # 300 trials, two stacks, make exactly twice as many; no exp_coords
    # call takes another route
    from nervecheck import formcalc, matrixgroup

    every = _count_calls(monkeypatch, matrixgroup, "exp_coords")
    charts, samplers = [], []
    for mod, calls in ((formcalc, charts), (harness, samplers)):
        counted = mod.exp_coords
        monkeypatch.setattr(mod, "exp_coords",
                            lambda c, calls=calls, counted=counted:
                            calls.append(1) or counted(c))
    for check_id in CHECK_IDS:
        charts_200, samplers_200 = _EXPONENTIALS.get(check_id, (0, 0))
        for trials, stacks in ((200, 1), (300, 2)):
            every.clear()
            charts.clear()
            samplers.clear()
            run_check(CheckConfig(check_id, trials=trials, seed=4))
            assert (len(charts), len(samplers)) == (
                stacks * charts_200, stacks * samplers_200), (check_id, trials)
            assert len(every) == len(charts) + len(samplers), check_id


def _warm_peak(check_id: str) -> int:
    """The tracemalloc peak of one run of check_id at seed 7 and 200
    trials, after a warm-up run."""
    cfg = CheckConfig(check_id, seed=7, trials=200)
    run_check(cfg)
    tracemalloc.start()
    try:
        run_check(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_run_of_d_squared_stays_within_its_memory():
    # The tracemalloc peak of one d-squared run at 200 trials, after a
    # warm-up run: 2,575 KB with numpy 2.4 on Python 3.11, where a tape
    # reads each row when a sampler asks for it and no trial's unread rows
    # are live.  The bound leaves 9 % of headroom over the measured peak.
    peak = _warm_peak("d-squared")
    assert peak <= 2800 * 1024, peak // 1024


@pytest.mark.parametrize("check_id, bound_kb", [("euler-cocycle", 1810),
                                                ("equivariant-cocycle", 1840)])
def test_a_run_of_a_cocycle_check_stays_within_its_memory(check_id, bound_kb):
    # The tracemalloc peaks as for d-squared: 1,657 KB for euler-cocycle and
    # 1,686 KB for equivariant-cocycle, whether a chart holds its steps and
    # fields in one buffer or in one array each.  The bounds leave 9 % of
    # headroom, as d-squared's does, so a chart layout cannot grow them
    # unnoticed.
    peak = _warm_peak(check_id)
    assert peak <= bound_kb * 1024, peak // 1024


def test_nan_residual_fails_a_plain_check(monkeypatch):
    from nervecheck import eulercocycle

    real = eulercocycle.eval_E13

    def poisoned(pt, *ts):
        value = np.array(real(pt, *ts))
        value[5] = np.nan
        return value

    monkeypatch.setattr(eulercocycle, "eval_E13", poisoned)
    rep = run_check(CheckConfig("ad-invariance", trials=20))
    assert not rep.passed
    assert (rep.max_abs_err, rep.worst_trial) == (math.inf, 5)

    monkeypatch.setattr(eulercocycle, "eval_E13", lambda pt, *ts: math.nan)
    rep = run_check(CheckConfig("ad-invariance", trials=20))
    assert not rep.passed
    assert (rep.max_abs_err, rep.worst_trial) == (math.inf, 0)

    # one NaN entry of trial 9's omega^2 fails mc-structure at that trial
    wedge_square = harness.matrix_wedge_square

    def poisoned_square(m):
        fn = wedge_square(m).fn

        def value(pt, ts):
            out = np.array(fn(pt, ts))
            out[9, 2, 3] = np.nan
            return out

        return FormEval(2, m.level, value)

    monkeypatch.setattr(harness, "matrix_wedge_square", poisoned_square)
    rep = run_check(CheckConfig("mc-structure", trials=20))
    assert not rep.passed
    assert (rep.max_abs_err, rep.worst_trial) == (math.inf, 9)


def test_nan_residual_fails_a_signed_component(monkeypatch):
    real = harness.equivariant_total_check

    def poisoned(*args, **kwargs):
        result = real(*args, **kwargs)
        result["d"][7] = np.nan
        return result

    monkeypatch.setattr(harness, "equivariant_total_check", poisoned)
    rep = run_check(CheckConfig("equivariant-cocycle", trials=20))
    assert not rep.passed
    assert (rep.max_abs_err, rep.worst_trial) == (math.inf, 7)


# ---------------------------------------------------------------------------
# simplicial-identities and gamma-simplicial: exact points, exact zeros

IDENTITY_CHECKS = ("simplicial-identities", "gamma-simplicial")


def test_signed_permutations_are_a_group_in_the_stated_order():
    table = harness.signed_permutations()
    assert same_bits(table, signed_permutations_in_order())
    assert not table.flags.writeable
    flat = table.reshape(192, 16)
    assert len(np.unique(flat, axis=0)) == 192
    assert np.array_equal(table.mT @ table, np.broadcast_to(np.eye(4),
                                                            table.shape))
    assert np.all(np.linalg.det(table) == 1.0)
    # closed under products: each product of two is one of the 192
    prods = (table[:, None] @ table[None]).reshape(-1, 16)
    assert len(np.unique(np.concatenate([flat, prods]), axis=0)) == 192


@pytest.mark.parametrize("check_id, drawn", [("simplicial-identities", 192),
                                             ("gamma-simplicial", 192)])
def test_identity_checks_draw_the_whole_group(monkeypatch, check_id, drawn):
    # the elements that 200 trials at the default seed draw, through the
    # sampler; every row of a trial is one factor
    seen = []
    real = harness.sample_signed_point

    def recorded(tape, level):
        pt = real(tape, level)
        seen.extend(f.reshape(-1, 16) for f in pt.factors)
        return pt

    monkeypatch.setattr(harness, "sample_signed_point", recorded)
    reads = _count_reads(monkeypatch)
    trial_rows(CheckConfig(check_id), range(200))
    assert sum(len(f) for f in seen) == 200 * sum(reads)
    assert len(np.unique(np.concatenate(seen), axis=0)) == drawn


@pytest.mark.parametrize("seed", [*range(20), 32])
@pytest.mark.parametrize("check_id", IDENTITY_CHECKS)
def test_identity_check_columns_are_exact_zeros(check_id, seed):
    cols = trial_rows(CheckConfig(check_id, seed=seed), range(200))
    for key, col in cols.items():
        assert same_bits(col, np.zeros(200)), key


# Each nerve-map defect of `helpers.NERVE_DEFECTS` in place of the name
# that `harness` imports, at the defaults: the error each id reports.  A
# defect moves a factor by a whole signed permutation, so a kill reads an
# integer.  Four readings are 0.0:
# - the swapped product g_i g_{i-1} is the face of the nerve of SO(4)^op,
#   which satisfies every face identity;
# - gamma' = (g_k^T g_{k+1}) is a simplicial map too: at a middle face,
#   g_{i-1}^T g_i g_i^T g_{i+1} = g_{i-1}^T g_{i+1};
# - gamma-simplicial calls no degeneracy, and simplicial-identities no
#   gamma.
# Only the exact test of test_nerve pins gamma to its formula.
_KILL_READINGS = {
    "swapped-product": (0.0, 2.0),
    "shifted-middle-face": (2.0, 2.0),
    "degeneracy-at-i+1": (2.0, 0.0),
    "gamma-inverse-first": (0.0, 0.0),
}


@pytest.mark.parametrize("col, check_id", enumerate(IDENTITY_CHECKS),
                         ids=IDENTITY_CHECKS)
@pytest.mark.parametrize("tag, name, defect", NERVE_DEFECTS,
                         ids=[tag for tag, _, _ in NERVE_DEFECTS])
def test_a_nerve_map_defect_against_the_identity_checks(
        monkeypatch, tag, name, defect, col, check_id):
    monkeypatch.setattr(harness, name, defect)
    rep = run_check(CheckConfig(check_id))
    want = _KILL_READINGS[tag][col]
    assert rep.max_abs_err == want
    assert rep.passed is (want == 0.0)


# The reduction of both ids on rotation points, where roundoff shows: each
# face evaluated once, and factors that are one array on both sides
# skipped, move no bit.  `sample_point` reads as many rows as
# `sample_signed_point`, so the streams are those of a run.

# 200 exact zeros
_ZEROS = "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865"

# sha256 of the little-endian doubles of each trial_rows column at 200
# trials on rotation points, recorded on the loops below, which evaluated
# every face, every degeneracy and gamma once per compared pair and
# subtracted every factor
_IDENTITY_DIGESTS = {
    ("simplicial-identities", 0): {
        "face-face":
            "1ed23169fef2800d5136d6eb1c3b7deed60281f4f8b97ae60028a9d1987ac173",
        "degeneracy-degeneracy": _ZEROS, "face-degeneracy": _ZEROS},
    ("simplicial-identities", 1): {
        "face-face":
            "82e2dd4507f1ad2527775e1945f8eae6944d40111d7f081aadd9311d06ffdaf8",
        "degeneracy-degeneracy": _ZEROS, "face-degeneracy": _ZEROS},
    ("simplicial-identities", 2): {
        "face-face":
            "865752e5e1d68072a7c06cf0b9e9b9cbd494fae59a049fcb869ef8c8e47536d5",
        "degeneracy-degeneracy": _ZEROS, "face-degeneracy": _ZEROS},
    ("simplicial-identities", 3): {
        "face-face":
            "d9ded85179d5ae2ccd2108c596471d3505301e84e2a7939ce98cb2c97e84d118",
        "degeneracy-degeneracy": _ZEROS, "face-degeneracy": _ZEROS},
    ("gamma-simplicial", 0): {
        "faces":
            "fab3c19f9b3a6bfead3d077db98a0b7fdfc52cd4864b166d251e4104138bda0c"},
    ("gamma-simplicial", 1): {
        "faces":
            "ecd2ee6444ea893d563b307eb3b0474eb74c323ee971e99410e59aecd1f48947"},
    ("gamma-simplicial", 2): {
        "faces":
            "a59b9fed9c2630f18a3beaaa95c10d75e0e4460e1c6fccfbf5868cb312a4da39"},
    ("gamma-simplicial", 3): {
        "faces":
            "2f2973e9e49fffd20f5062311ee075ccabc9344946e1c1af07fa5c6f4d915c7c"},
}


def _rotation_columns(monkeypatch, check_id, seed):
    """The columns of a 200-trial run with rotation points in place of the
    signed permutations."""
    monkeypatch.setattr(harness, "sample_signed_point", sample_point)
    return trial_rows(CheckConfig(check_id, seed=seed), range(200))


def _per_pair_dev(a, b):
    worst = 0.0
    for x, y in zip(a.factors, b.factors, strict=True):
        worst = np.maximum(worst, np.max(np.abs(x - y), axis=(-2, -1)))
    return worst


def _per_pair_columns(check_id, seed):
    """The columns of a 200-trial run on rotation points as the per-pair
    loops computed them."""
    tape = DrawTape(trial_draws(seed, check_id, range(200)))
    if check_id == "gamma-simplicial":
        worst = 0.0
        for q in range(2, 4):
            pt = sample_point(tape, q + 1)
            for i in range(q + 1):
                worst = np.maximum(worst, _per_pair_dev(
                    gamma(face_pg(i, pt)), face_ng(i, gamma(pt))))
        return {"faces": worst}
    faces = degeneracies = mixed = 0.0
    for q in range(3, 5):
        pt = sample_point(tape, q)
        for j in range(1, q + 1):
            for i in range(j):
                faces = np.maximum(faces, _per_pair_dev(
                    face_ng(i, face_ng(j, pt)),
                    face_ng(j - 1, face_ng(i, pt))))
    for q in range(1, 4):
        pt = sample_point(tape, q)
        for j in range(q + 1):
            for i in range(j + 1):
                degeneracies = np.maximum(degeneracies, _per_pair_dev(
                    degeneracy_ng(i, degeneracy_ng(j, pt)),
                    degeneracy_ng(j + 1, degeneracy_ng(i, pt))))
    for q in range(1, 4):
        pt = sample_point(tape, q)
        for j in range(q + 1):
            for i in range(q + 2):
                if i == j or i == j + 1:
                    expected = pt
                elif i < j:
                    expected = degeneracy_ng(j - 1, face_ng(i, pt))
                else:
                    expected = degeneracy_ng(j, face_ng(i - 1, pt))
                mixed = np.maximum(mixed, _per_pair_dev(
                    face_ng(i, degeneracy_ng(j, pt)), expected))
    return {"face-face": faces, "degeneracy-degeneracy": degeneracies,
            "face-degeneracy": mixed}


@pytest.mark.parametrize("check_id, seed", sorted(_IDENTITY_DIGESTS))
def test_identity_check_columns_equal_the_per_pair_loops(monkeypatch,
                                                         check_id, seed):
    got = _rotation_columns(monkeypatch, check_id, seed)
    want = _per_pair_columns(check_id, seed)
    assert set(got) == set(want)
    for key, col in got.items():
        assert same_bits(col, np.broadcast_to(want[key], (200,))), key


@pytest.mark.parametrize("check_id, seed", sorted(_IDENTITY_DIGESTS))
def test_identity_check_columns_match_recorded_digests(monkeypatch, check_id,
                                                       seed):
    # where the platform rounds differently, the test above still compares
    # bit for bit
    skip_unless_recorded_platform()
    got = _rotation_columns(monkeypatch, check_id, seed)
    assert ({k: digest(v) for k, v in got.items()}
            == _IDENTITY_DIGESTS[check_id, seed])


# The trial_rows columns of every check at seed 0 and 200 trials, stacked
# in sorted component order: a change that claims to keep every bit (a
# faster kernel, a new layout) must reproduce them.
_SEED0_DIGESTS = {
    "mc-structure":
        "8f1e371dd4d987e24e9526ded58d0a22ae13475b55e28f0136766566db174718",
    "simplicial-identities":
        "24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7",
    "gamma-simplicial":
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
    "lemma-4.1":
        "c6db322c3b55c62e70db379fca0bd82e13395591b6edc13d09919a85e01fd9f0",
    "lemma-4.2":
        "3e43c0f6b4e961790ea323f4ec22436b3e3c4173482088646132a30591d6c184",
    "lemma-4.3":
        "1d6c921250bd67d6dc76cfb7cf8ea4631c31a6c245227c57d5ee62fd0584ddb6",
    "euler-cocycle":
        "c79d5f1605d1e0cc5d023292117dc58af0cf987b784a3c5608c8f3c5a34722ca",
    "equivariant-cocycle":
        "a0c5d7f7c4819fbdf15a88d01675d5c6e791bcfbeaec18661ade4fe719024134",
    "ad-invariance":
        "c9b08fc007606f852d5f7b2d3621693ee2f6734ddaf89093dff339d6bdb3c5d5",
    "dsl-oracle":
        "6e8205de6ab8e6b2154b7ba7fd527b728f4ccee15c8016a9aa35c9ce1ca092cf",
    "alpha-antisymmetry":
        "5a312281df4bd8dfbb4d4a94ad0bf44d01bb8cfced1206b90e21b4ca0568cdb1",
    "d-squared":
        "42fc2e3626dc86bceab454916f00c9a91011f7e413d53a6ade1b5abb41fecca9",
    "golden-values":
        "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b",
}

def test_seed0_digests_name_every_check():
    assert set(_SEED0_DIGESTS) == set(CHECK_IDS)


@pytest.mark.parametrize("check_id", sorted(_SEED0_DIGESTS))
def test_every_check_column_matches_its_recorded_seed0_digest(check_id):
    skip_unless_recorded_platform()
    cols = trial_rows(CheckConfig(check_id, seed=0), range(200))
    got = np.stack([np.broadcast_to(cols[k], (200,)) for k in sorted(cols)])
    assert digest(got) == _SEED0_DIGESTS[check_id]


@pytest.mark.parametrize("check_id", [
    "simplicial-identities", "gamma-simplicial", "mc-structure", "lemma-4.1",
    "euler-cocycle", "equivariant-cocycle", "d-squared"])
def test_nan_in_a_sampled_factor_fails_the_identity_checks(monkeypatch,
                                                           check_id):
    # A NaN entry in the first factor of trial 7 of every sampled point:
    # the signed permutation the identity checks draw, or the exponential
    # the others take.  Comparisons of a factor with itself are skipped,
    # but the NaN reaches every product it enters, so the run still fails
    # at trial 7; in the finite-difference checks it reaches the
    # coordinates of the factor's chart, and through its exponential every
    # stepped point, and the run fails rather than raises.
    if check_id in IDENTITY_CHECKS:
        real = harness.sample_signed_point

        def poisoned_point(tape, level):
            pt = real(tape, level)
            pt.factors[0][7, 1, 2] = np.nan
            return pt

        monkeypatch.setattr(harness, "sample_signed_point", poisoned_point)
    else:
        def poisoned(c):
            out = exp_coords(c)
            out[7, 0, 1, 2] = np.nan
            return out

        monkeypatch.setattr(harness, "exp_coords", poisoned)
    rep = run_check(CheckConfig(check_id, trials=20))
    assert not rep.passed
    assert (rep.max_abs_err, rep.worst_trial) == (math.inf, 7)


# ---------------------------------------------------------------------------
# kill matrix (ROADMAP item 3): planted defects in the cochain evaluators,
# each of which some check of D c must fail at the defaults

D_CHECKS = ("lemma-4.1", "lemma-4.2", "lemma-4.3", "euler-cocycle",
            "equivariant-cocycle")


def _scaled(factor):
    return lambda real: lambda *args: factor * real(*args)


def _e13_trace_family(real):
    # det- negated: the e13 of the trace pairing, inside a Pfaffian cochain
    from nervecheck import eulercocycle as ec

    def e13(pt, *vs):
        hT = pt.factors[0].mT
        (p1, m1), (p2, m2), (p3, m3) = (ec._halves(ec._coords(hT @ v.reps[0]))
                                        for v in vs)
        return -1.5 * ec._C192 * (ec._det3(p1, p2, p3) - ec._det3(m1, m2, m3))

    return e13


def _e22_mc_swapped(real):
    # the right Maurer-Cartan form on the first factor, the left one on the
    # second
    from nervecheck import eulercocycle as ec

    def e22(pt, t1, t2):
        h1T, h2T = pt.factors[0].mT, pt.factors[1].mT
        l1, l2 = (ec._coords(t.reps[0] @ h1T) for t in (t1, t2))
        r1, r2 = (ec._coords(h2T @ t.reps[1]) for t in (t1, t2))
        return 2.0 * ec._C64 * (ec._pf(l1, r2) - ec._pf(l2, r1))

    return e22


# (defect: evaluator -> replacement built from the real one, the checks it
# must fail, the least margin err/tol each of them must read)
KILL_ROWS = [
    # the sign of D is stated, not chosen after the run: e22 of the wrong
    # sign breaks the level-2 components of both cocycle checks
    pytest.param({"eval_E22": _scaled(-1.0)},
                 ("euler-cocycle", "equivariant-cocycle"), 1e3,
                 id="e22-negated"),
    pytest.param({"eval_E13": _scaled(1 + 1e-3)},
                 ("lemma-4.1", "euler-cocycle"), 1.0, id="e13-scaled-1e-3"),
    pytest.param({"eval_E22": _scaled(1 + 1e-3)}, ("lemma-4.2",), 1.0,
                 id="e22-scaled-1e-3"),
    pytest.param({"eval_mu": _scaled(1 + 1e-3)}, ("lemma-4.2",), 1.0,
                 id="mu-scaled-1e-3"),
    pytest.param({"eval_E22": _scaled(1 + 1e-6)}, ("lemma-4.2",), 1.0,
                 id="e22-scaled-1e-6"),
    pytest.param({"eval_mu": _scaled(1 + 1e-6)}, ("lemma-4.2",), 1.0,
                 id="mu-scaled-1e-6"),
    pytest.param({"eval_E13": _e13_trace_family}, ("euler-cocycle",), 1.0,
                 id="e13-trace-family"),
    pytest.param({"eval_E22": _e22_mc_swapped}, ("lemma-4.2",), 1.0,
                 id="e22-mc-swapped"),
    pytest.param({"eval_E13": _scaled(1 + 1e-6)},
                 ("lemma-4.1", "euler-cocycle"), 1.0, id="e13-scaled-1e-6",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 3: the finite-difference tolerances of"
                     " lemma-4.1 and euler-cocycle are not yet calibrated;"
                     " this defect reads 0.04 and 0.12 of them"))),
]


@pytest.mark.parametrize("defect, killers, margin", KILL_ROWS)
def test_planted_defect_fails_a_d_check(monkeypatch, defect, killers, margin):
    from nervecheck import eulercocycle

    for name, make in defect.items():
        monkeypatch.setattr(eulercocycle, name,
                            make(getattr(eulercocycle, name)))
    reports = {cid: run_check(CheckConfig(cid)) for cid in D_CHECKS}
    assert all((r.seed, r.trials) == (42, 200) for r in reports.values())
    margins = {cid: r.max_abs_err / r.tol for cid, r in reports.items()}
    assert not all(r.passed for r in reports.values()), margins
    for cid in killers:
        assert margins[cid] > margin, (cid, margins)


def _conj_diff_last_term_dropped(real):
    # the differential of g m g^T without the term of g^T's derivative
    def diff(g, vg, x, vx):
        return tuple(vg @ m @ g.mT + g @ vm @ g.mT
                     for m, vm in zip(x.factors, vx))

    return diff


def _face_ng_diff_off_by_one(real):
    # the product rule reads the Lie-algebra coordinate h_k^T v_k of each
    # factor from the next factor (cyclically); the reps stay tangent
    from nervecheck.matrixgroup import Tangent

    def diff(i, pt, t):
        xs = [h.mT @ v for h, v in zip(pt.factors, t.reps)]
        moved = tuple(h @ x for h, x in zip(pt.factors, xs[1:] + xs[:1]))
        return real(i, pt, Tangent(pt, moved))

    return diff


def _right_action(real):
    # x -> g^T x g, a right action, in place of the left conjugation
    from nervecheck.matrixgroup import GroupPoint

    return lambda g, x: GroupPoint(tuple(g.mT @ m @ g for m in x.factors))


def _right_action_diff(real):
    # the differential of g^T x g in (g, x)
    def diff(g, vg, x, vx):
        return tuple(vg.mT @ m @ g + g.mT @ vm @ g + g.mT @ m @ vg
                     for m, vm in zip(x.factors, vx))

    return diff


# {nerve map: replacement built from the real one}; the trivial action
# (`conjugate` and `_conj_diff` the identity) is no kill: it still gives
# a complex, and d-squared passes under it
D_SQUARED_KILL_ROWS = [
    pytest.param({"_conj_diff": _conj_diff_last_term_dropped},
                 id="conj-diff-last-term-dropped"),
    pytest.param({"face_ng_diff": _face_ng_diff_off_by_one},
                 id="face-ng-diff-off-by-one"),
    pytest.param({"conjugate": _right_action,
                  "_conj_diff": _right_action_diff}, id="right-action"),
]


@pytest.mark.parametrize("defects", D_SQUARED_KILL_ROWS)
def test_planted_defect_fails_d_squared(monkeypatch, defects):
    from nervecheck import nerve

    for name, make in defects.items():
        monkeypatch.setattr(nerve, name, make(getattr(nerve, name)))
    rep = run_check(CheckConfig("d-squared"))
    assert (rep.seed, rep.trials) == (42, 200)
    assert rep.max_abs_err / rep.tol > 1e3, rep.max_abs_err


# ---------------------------------------------------------------------------
# which blocks of the cochains the checks read (ROADMAP item 22): a spy on
# the reader records the blocks a trial builds and the components it reads


def _blocks(monkeypatch, check_id: str) -> tuple[set, set]:
    """(the blocks of the cochain, the blocks read) of one trial of a check,
    each a set of (p, q, degree)."""
    real = harness.equivariant_total_check
    seen = []

    def spy(cochain, sample, components):
        seen.append(({(*key, d) for key, forms in cochain.items()
                      for d in forms},
                     {(*key, d) for key, d in components.values()}))
        return real(cochain, sample, components)

    monkeypatch.setattr(harness, "equivariant_total_check", spy)
    run_check(CheckConfig(check_id, trials=1))
    (blocks,) = seen
    return blocks


def test_every_block_of_d_c_is_read_by_a_d_check(monkeypatch):
    # D c has six blocks, and the five D checks read each of them; only
    # euler-cocycle reads d'e22 at (3, 0, 2), as the README names it
    every = {(1, 0, 4), (1, 0, 2), (1, 0, 0), (2, 0, 3), (2, 0, 1),
             (3, 0, 2)}
    read = {}
    for check_id in D_CHECKS:
        built, read[check_id] = _blocks(monkeypatch, check_id)
        assert built == every, check_id
    assert set().union(*read.values()) == every
    assert [c for c in D_CHECKS if (3, 0, 2) in read[c]] == ["euler-cocycle"]


def test_d_squared_leaves_unread_only_the_blocks_its_comment_names(
        monkeypatch):
    # D3^2 of the d-squared cochain has 18 blocks; the check reads 8, and
    # the other 10 are the ones the comment on its CHECKS row names
    built, read = _blocks(monkeypatch, "d-squared")
    assert len(built) == 18 and len(read) == 8 and read <= built
    assert built - read == {
        (1, 0, 5), (1, 1, 3),  # nested differences of e13 and the probe
        (1, 1, 2), (1, 2, 1), (2, 1, 1),  # of omega
        (1, 1, 4), (1, 2, 3), (2, 1, 3), (2, 0, 4),  # of e13
        (3, 1, 1)}  # the probe's d'd'


# ---------------------------------------------------------------------------
# the draw tape against the per-call reference sampler, bit for bit

_PAIRS = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])  # BASIS_PAIRS, 0-based


def _coords(m):
    return m[..., _PAIRS[0], _PAIRS[1]]


def _skews(tape, scale):
    """One skew matrix from the next row of every trial, as the samplers
    build it."""
    return harness._skew_rows(tape, 1, scale)[..., 0, :, :]


def test_trial_rng_stream_is_pinned():
    # the literal first doubles of the draws: a change here changes every
    # report.  Row 0 of trial 1 starts six doubles into the stream, and row
    # 1 of trial 0 at 2**64 * 6.
    read = trial_draws(42, "lemma-4.1", [0, 1])
    assert read(0, 1)[:, 0, :3].tolist() == [
        [0.014027732067510179, 0.9963499596387325, 0.40466743385237514],
        [0.06405296944113925, 0.785351197181173, 0.6322802681898194]]
    assert read(1, 1)[0, 0, :3].tolist() == [
        0.34238891632961543, 0.605577688630448, 0.5366677983933462]


def _assert_numpy_streams(seed, check_id, trials, rows):
    """trial_draws gives row r of trial t the six doubles of numpy's stream
    of the check from position (r * 2**64 + t) * 6, read in one piece or
    row by row.  Any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read = trial_draws(seed, check_id, trials)
        got = read(0, rows)
        pieces = [read(r, 1) for r in range(rows)]
    assert got.shape == (len(trials), rows, 6)
    assert same_bits(np.concatenate(pieces, axis=1), got)
    for t, block in zip(trials, got):
        for r, row in enumerate(block):
            ref = row_rng(seed, check_id, t, r)
            assert same_bits(row, ref.random(6)), (seed, check_id, t, r)


@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, -1, -(2**40) - 7,
                                  2**32, 2**64 + 5])
def test_trial_rngs_are_numpy_streams_bit_for_bit(seed):
    _assert_numpy_streams(seed, "lemma-4.1", [0, 1, MAX_TRIALS - 1], 5)


def test_trial_rngs_of_a_stack_past_chunk_are_numpy_streams():
    _assert_numpy_streams(7, "d-squared", range(CHUNK + 3), 2)
    _assert_numpy_streams(7, "d-squared", range(CHUNK - 1, CHUNK + 1), 9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-(2**70), 2**70), check_id=st.text(max_size=12),
       trials=st.lists(st.integers(0, 2**63 - 1), max_size=4))
def test_trial_rngs_sweep_matches_numpy(seed, check_id, trials):
    _assert_numpy_streams(seed, check_id, trials, 3)


@pytest.mark.parametrize("trial", [-1, 2**32, 1.7, True, 2**63])
def test_trial_rngs_refuse_a_trial_numpy_would_seed_differently(trial):
    # a negative trial names no position of numpy's stream: refused before
    # any read.  So are a float, which an int64 cast truncates, a bool, and
    # an index past int64, which would overflow; the message names it, and
    # a replay of the run refuses it too.  Any other index is a stream
    # position, 2**32 and past it too, and reads numpy's stream there.
    if trial is True or trial in (1.7, 2**63):
        message = re.escape(f"must be an int64 integer and must not be "
                            f"negative, not {trial!r}")
        with pytest.raises(ValueError, match=message):
            trial_draws(0, "unit", [0, trial])
        with pytest.raises(ValueError, match=message):
            trial_rows(CheckConfig("lemma-4.3", trials=2), [0, trial])
    elif trial < 0:
        with pytest.raises(ValueError, match="must not be negative"):
            trial_draws(0, "unit", [0, trial])
    else:
        _assert_numpy_streams(0, "unit", [trial, trial + 5], 3)


def test_a_trial_reads_its_rows_whatever_rows_it_reads_before_them():
    # rows 3 and 4 of a trial are the same bits whether a tape reads rows
    # 0-2 first or a reader jumps to them, in a stack and for one trial
    read = trial_draws(9, "tape", range(5))
    tape = DrawTape(read)
    tape.rows(3)
    assert same_bits(tape.rows(2), read(3, 2))
    one = trial_tape(9, "tape", 4)
    one.rows(1)
    one.rows(2)
    assert same_bits(one.rows(2), trial_draws(9, "tape", [4])(3, 2)[0])
    assert same_bits(read(3, 2)[4], trial_draws(9, "tape", [4])(3, 2)[0])


def test_tape_matches_per_call_draws_past_several_blocks():
    # a stack of trials read one row at a time, past the rows of two
    # d-squared trials, both scales mixed: row k of each trial is one
    # `uniform` call of numpy's stream at its position
    tape = DrawTape(trial_draws(7, "tape", range(5)))
    for k in range(149):
        scale = 2.0 if k % 3 else 1.0
        ref = PerCallSampler(tuple(row_rng(7, "tape", t, k)
                                   for t in range(5)))
        assert same_bits(_coords(_skews(tape, scale)), ref.coords(scale)), k


def test_tape_of_a_2d_block_is_unstacked():
    # the rows of one trial as a (51, 6) block: every read is unstacked
    tape = block_tape(trial_draws(7, "tape", [0])(0, 51)[0])
    for k in range(51):
        scale = 1.0 if k % 2 else 2.0
        m = _skews(tape, scale)
        assert m.shape == (4, 4)
        ref = PerCallSampler(row_rng(7, "tape", 0, k))
        assert same_bits(_coords(m), ref.coords(scale)), k


def test_tape_hands_out_several_rows_in_stream_order():
    tape = DrawTape(trial_draws(3, "tape", range(2)))
    first = tape.rows(47)
    more = tape.rows(50)
    rows = np.concatenate([first, more], axis=1)
    assert rows.shape == (2, 97, 6)
    want = np.stack([PerCallSampler(tuple(row_rng(3, "tape", t, k)
                                          for t in range(2))).coords(1.0)
                     for k in range(97)], axis=1)
    assert same_bits(-1.0 + 2.0 * rows, want)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_a_point_is_one_exponential_of_its_rows(monkeypatch, level):
    # sample_point reads its `level` rows at once and exponentiates them as
    # coordinates in one call; the factors and the tangent sampled after
    # them equal one row, one skew matrix, one exponential and one product
    # at a time, bit for bit
    calls = []

    def counted(c):
        calls.append(c.shape)
        return exp_coords(c)

    monkeypatch.setattr(harness, "exp_coords", counted)
    tape = DrawTape(trial_draws(5, "tape", range(3)))
    twin = DrawTape(trial_draws(5, "tape", range(3)))
    pt = sample_point(tape, level)
    assert calls == [(3, level, 6)]
    want = [exp_matrix(_skews(twin, 2.0)) for _ in range(level)]
    assert all(same_bits(h, w) for h, w in zip(pt.factors, want, strict=True))
    t = sample_tangent(tape, pt)
    assert all(same_bits(v, h @ _skews(twin, 1.0))
               for v, h in zip(t.reps, want, strict=True))


def test_alpha_antisymmetry_draws_two_cubic_paths(monkeypatch):
    # the coefficients handed to polynomial_path, against the draws of the
    # per-trial loop: rows 0-3 are the first cubic path, rows 4-7 the second
    got = []
    real = harness.polynomial_path

    def capture(coeffs):
        got.append(np.asarray(coeffs))
        return real(coeffs)

    monkeypatch.setattr(harness, "polynomial_path", capture)
    trials = 40
    trial_rows(CheckConfig("alpha-antisymmetry", seed=5), range(trials))
    want = np.zeros((2, 4, trials, 4, 4))
    for n in range(trials):
        for i, path in enumerate(want):
            for j in range(4):
                ref = PerCallSampler(row_rng(5, "alpha-antisymmetry", n,
                                             4 * i + j))
                path[j, n] = skew_from_coords(ref.coords(1.0))
    assert len(got) == 2
    for path, expected in zip(got, want):
        assert same_bits(path, expected)


@pytest.mark.parametrize("tangents", ["seed:5", "repeat:5"])
def test_cli_eval_setup_reads_one_tape_per_token(tangents):
    from nervecheck import cli

    pt, ts, X = cli._eval_setup("seed:3", tangents, 2, 3)
    at = PerCallSampler(np.random.default_rng(3))
    factors = [exp_matrix(skew_from_coords(at.coords(2.0))) for _ in range(2)]
    assert all(same_bits(a, b) for a, b in zip(pt.factors, factors))
    ref = PerCallSampler(np.random.default_rng(5))

    def tangent():
        return [h @ skew_from_coords(ref.coords(1.0)) for h in factors]

    if tangents.startswith("repeat"):
        reps = [tangent()] * 3
        x = skew_from_coords(ref.coords(1.0))
    else:
        x = skew_from_coords(ref.coords(1.0))
        reps = [tangent() for _ in range(3)]
    assert same_bits(X, x)
    assert len(ts) == 3
    for t, want in zip(ts, reps):
        assert all(same_bits(a, b) for a, b in zip(t.reps, want))


class _CountingRng:
    """A generator that counts the calls of its drawing methods."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def _count_reads(monkeypatch) -> list[int]:
    """The row counts of every `DrawTape.rows` read, in order."""
    reads = []
    real_rows = DrawTape.rows

    def counted_rows(self, k):
        reads.append(k)
        return real_rows(self, k)

    monkeypatch.setattr(DrawTape, "rows", counted_rows)
    return reads


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_draw_calls_per_trial_are_one_per_block(monkeypatch, check_id):
    # one generator per stack, seeded on its first read; each row of each
    # run of consecutive trials is one draw call, so a stack reads its rows
    # in as many calls and a list of three runs in three times as many; a
    # check that reads none seeds no stream
    real_generator = np.random.Generator
    rngs = []

    def counted_generator(bit_generator):
        rngs.append(_CountingRng(real_generator(bit_generator)))
        return rngs[-1]

    monkeypatch.setattr(np.random, "Generator", counted_generator)
    reads = _count_reads(monkeypatch)
    for trials, runs in ((range(1), 1), (range(3), 1), ([4, 5, 2, 3, 3], 3)):
        reads.clear()
        rngs.clear()
        trial_rows(CheckConfig(check_id, seed=2), trials)
        rows = sum(reads)
        assert (rows > 0) is (check_id != "golden-values")
        assert [rng.calls for rng in rngs] == ([runs * rows] if rows else [])


def test_no_generator_outlives_trial_draws(monkeypatch):
    # Each generator holds its PCG64: once every PCG64 is gone, so is every
    # generator.  The reader that trial_draws returns seeds one PCG64 on
    # its first read and holds it for its later reads, no longer; none is
    # left when a run returns.
    refs = []

    class Watched(np.random.PCG64):
        def __init__(self, seed):
            super().__init__(seed)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(np.random, "PCG64", Watched)
    read = trial_draws(2, "lemma-4.1", range(3))
    assert not refs
    assert read(0, 4).shape == (3, 4, 6) and read(4, 2).shape == (3, 2, 6)
    assert len(refs) == 1 and refs[0]() is not None
    del read
    assert refs[0]() is None
    trial_rows(CheckConfig("lemma-4.1", seed=2), range(3))
    assert len(refs) == 2 and not any(ref() is not None for ref in refs)


@pytest.mark.parametrize("check_id,trials,message", [
    ("no-such-check", range(2), "unknown check id"),
    ("lemma-4.1", range(0), "no trials"), ("golden-values", [], "no trials")])
def test_trial_rows_refuses_an_unknown_id_or_no_trials(check_id, trials,
                                                       message):
    with pytest.raises(ValueError, match=message):
        trial_rows(CheckConfig(check_id), trials)
