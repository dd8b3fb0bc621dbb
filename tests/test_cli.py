"""Tests for the command-line interface: exit codes, formats, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nervecheck import cli
from nervecheck.cli import main
from nervecheck.formdsl import (MAX_FACTOR, MAX_WEDGE_PRODUCTS,
                                MAX_WEDGE_SLOTS)
from nervecheck.harness import (CHECK_IDS, CHECKS, CheckConfig, MAX_TRIALS,
                                run_check)
from nervecheck.matrixgroup import BASIS_PAIRS

from helpers import distinct_wedges


def _corpus_path(name):
    return str(resources.files("nervecheck").joinpath("expressions", name))


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# list


def test_list_prints_all_checks(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    assert out.splitlines() == list(CHECK_IDS)


# ---------------------------------------------------------------------------
# check


def test_check_passes_with_json_report(capsys):
    code, out, _ = _run(capsys, "check", "--id", "lemma-4.3",
                        "--trials", "3", "--seed", "1", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert list(rep.keys()) == [
        "check", "trials", "seed", "fd_step", "tol",
        "max_abs_err", "pass", "elapsed_ms", "worst_trial",
    ]
    assert rep["check"] == "lemma-4.3"
    assert rep["pass"] is True
    assert rep["trials"] == 3
    assert rep["max_abs_err"] <= rep["tol"]


def test_check_text_format(capsys):
    code, out, _ = _run(capsys, "check", "--id", "gamma-simplicial",
                        "--trials", "2", "--seed", "4", "--format", "text")
    assert code == 0
    assert re.fullmatch(
        r"gamma-simplicial PASS max_err=\d\.\d{6}e[+-]\d{2} tol=\d\.\de[+-]\d{2}\n",
        out)


def test_check_json_is_deterministic_modulo_elapsed(capsys):
    args = ("check", "--id", "lemma-4.1", "--trials", "2", "--seed", "7",
            "--format", "json")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2


def test_flag_order_does_not_change_output(capsys):
    _, out1, _ = _run(capsys, "check", "--id", "lemma-4.1", "--seed", "7",
                      "--trials", "2", "--fd-step", "1e-5")
    _, out2, _ = _run(capsys, "check", "--fd-step", "1e-5", "--trials", "2",
                      "--seed", "7", "--id", "lemma-4.1")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2


def test_check_failure_exits_one(capsys):
    code, out, _ = _run(capsys, "check", "--id", "mc-structure",
                        "--trials", "2", "--seed", "3", "--tol", "1e-30",
                        "--format", "text")
    assert code == 1
    assert "FAIL" in out
    assert re.fullmatch(
        r"mc-structure FAIL max_err=\d\.\d{6}e[+-]\d{2} tol=1\.0e-30\n", out)


def test_check_unknown_id_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--id", "nonsense"])
    assert exc.value.code == 2


def test_check_bad_flag_value_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--id", "lemma-4.3", "--trials", "zero"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_check_non_finite_tol_exits_two(capsys, value):
    # an infinite tolerance passes every run and is not valid JSON
    code, out, err = _run(capsys, "check", "--id", "lemma-4.3",
                          f"--tol={value}", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "error: tol must be positive and finite\n"


def test_check_largest_finite_tol_runs(capsys):
    code, out, _ = _run(capsys, "check", "--id", "lemma-4.3", "--trials", "2",
                        "--tol", "1e308", "--format", "json")
    assert code == 0
    assert json.loads(out)["tol"] == 1e308


def test_check_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = _run(capsys, "check", "--id", "lemma-4.3", "--trials", "1",
                        "--format", "json", "--out", str(dest))
    assert code == 0
    assert out == ""
    rep = json.loads(dest.read_text())
    assert rep["check"] == "lemma-4.3"


def test_out_into_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(capsys, "check", "--id", "lemma-4.3", "--trials",
                          "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not target.exists()
    code, _, err = _run(capsys, "check-all", "--trials", "1",
                        "--out", str(target))
    assert code == 2
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# check-all


def test_check_all_reports_every_check(capsys):
    code, out, _ = _run(capsys, "check-all", "--trials", "1", "--seed", "9",
                        "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["check"] for r in reports] == list(CHECK_IDS)
    assert all(r["pass"] for r in reports)


def test_check_all_text_lines(capsys):
    code, out, _ = _run(capsys, "check-all", "--trials", "1", "--seed", "9",
                        "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(CHECK_IDS)
    for line, check_id in zip(lines, CHECK_IDS):
        assert line.startswith(f"{check_id} PASS ")


@pytest.mark.parametrize("flag,value", [("--trials", "0"),
                                        ("--fd-step", "1")])
def test_check_all_bad_config_exits_two_before_running(capsys, monkeypatch,
                                                       flag, value):
    import nervecheck.cli as cli

    def never(cfg):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run_check", never)
    code, out, err = _run(capsys, "check-all", flag, value)
    assert code == 2
    assert out == ""
    assert err == {"--trials": "error: trials must lie in [1, 1000000]\n",
                   "--fd-step": "error: fd_step must lie in [5e-6, 2e-4]\n",
                   }[flag]


@pytest.mark.parametrize("command", [["check", "--id", "lemma-4.3"],
                                     ["check-all"]])
def test_trials_above_the_ceiling_exit_two_before_running(capsys, monkeypatch,
                                                           command):
    import nervecheck.cli as cli

    def never(cfg):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run_check", never)
    code, out, err = _run(capsys, *command, "--trials", str(MAX_TRIALS + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(MAX_TRIALS) in err
    # the ceiling itself is a valid count
    for cid in CHECK_IDS:
        CheckConfig(check_id=cid, trials=MAX_TRIALS)


def test_check_all_error_inside_a_check_is_not_a_usage_error(capsys,
                                                             monkeypatch):
    import nervecheck.cli as cli

    def broken(cfg):
        raise ValueError("broken check")

    monkeypatch.setattr(cli, "run_check", broken)
    with pytest.raises(ValueError, match="broken check"):
        main(["check-all", "--trials", "1"])


def _lose_the_bundle(tmp_path, monkeypatch):
    """Point the bundled-resource lookup at an empty directory, as in an
    installed package that lost its expressions/ files, and work there."""
    import nervecheck.formdsl as formdsl

    monkeypatch.setattr(formdsl.importlib.resources, "files",
                        lambda package: tmp_path)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["eval", "--expr", "e13.form", "--at", "seed:1", "--tangents", "seed:2"],
    ["check", "--id", "dsl-oracle", "--trials", "5"],
    ["check-all", "--trials", "1", "--format", "text"],
], ids=["eval", "check", "check-all"])
def test_missing_bundled_expression_file_exits_two(capsys, tmp_path,
                                                   monkeypatch, argv):
    _lose_the_bundle(tmp_path, monkeypatch)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bundled expression file ")
    assert "'e13.form'" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# eval


def test_eval_mu_debug_prints_golden(capsys):
    code, out, _ = _run(capsys, "eval", "--expr", _corpus_path("mu.form"),
                        "--at", "identity", "--tangents", "debug")
    assert code == 0
    assert float(out) == pytest.approx(-1.0 / (4.0 * math.pi ** 2), abs=1e-15)
    # value is printed at full precision
    assert len(out.strip()) >= 17


def test_eval_bare_corpus_name_falls_back_to_bundle(capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)  # no mu.form on disk here
    code, out, _ = _run(capsys, "eval", "--expr", "mu.form",
                        "--at", "identity", "--tangents", "debug")
    assert code == 0
    assert float(out) == pytest.approx(-1.0 / (4.0 * math.pi ** 2), abs=1e-15)
    # an on-disk file with the same name shadows the bundled one
    (tmp_path / "mu.form").write_text("0/pi2 MCL(1)[1,2]", encoding="utf-8")
    code, out, _ = _run(capsys, "eval", "--expr", "mu.form",
                        "--at", "identity", "--tangents", "debug")
    assert code == 0
    assert float(out) == 0.0


def test_eval_e13_repeated_tangents_vanish(capsys):
    code, out, _ = _run(capsys, "eval", "--expr", _corpus_path("e13.form"),
                        "--at", "seed:5", "--tangents", "repeat:3")
    assert code == 0
    assert float(out) == 0.0


def test_eval_seeded_is_deterministic(capsys):
    args = ("eval", "--expr", _corpus_path("e13.form"),
            "--at", "seed:2", "--tangents", "seed:8")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert float(out1) != 0.0


def test_eval_debug_requires_degree_one(capsys):
    code, _, err = _run(capsys, "eval", "--expr", _corpus_path("e13.form"),
                        "--at", "identity", "--tangents", "debug")
    assert code == 2
    assert "debug" in err


def test_eval_missing_file_exits_two(capsys):
    code, _, err = _run(capsys, "eval", "--expr", "/no/such/file.form",
                        "--at", "identity", "--tangents", "seed:1")
    assert code == 2
    assert err != ""


def test_eval_malformed_file_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.form"
    bad.write_text("1/pi2 MCL(1)[p1,p2]\n")
    code, _, err = _run(capsys, "eval", "--expr", str(bad),
                        "--at", "identity", "--tangents", "seed:1")
    assert code == 2
    assert "1:14" in err


@pytest.mark.parametrize("opening,body,closing,col", [
    ("(", "MCL(1)[1,2]", ")", 65),
    ("sumS4( ", "MCL(1)[p1,p2] MCL(1)[p3,p4]", " )", 449),
])
def test_eval_deep_nesting_reports_position(tmp_path, capsys, opening, body,
                                            closing, col):
    deep = tmp_path / "deep.form"
    deep.write_text(opening * 1000 + body + closing * 1000 + "\n")
    code, out, err = _run(capsys, "eval", "--expr", str(deep),
                          "--at", "identity", "--tangents", "seed:1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"1:{col}" in err


def test_eval_zero_denominator_reports_position(tmp_path, capsys):
    bad = tmp_path / "zero.form"
    bad.write_text("1/0 MCL(1)[1,2]\n")
    code, out, err = _run(capsys, "eval", "--expr", str(bad),
                          "--at", "identity", "--tangents", "seed:1")
    assert code == 2
    assert out == ""
    assert "1:3" in err


def test_eval_semantic_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "mixed.form"
    bad.write_text("X[1,2] + MCL(1)[1,2]\n")
    code, _, err = _run(capsys, "eval", "--expr", str(bad),
                        "--at", "identity", "--tangents", "seed:1")
    assert code == 2
    assert err != ""


def test_eval_bad_tangent_spec_exits_two(capsys):
    code, _, err = _run(capsys, "eval", "--expr", _corpus_path("e13.form"),
                        "--at", "identity", "--tangents", "sevenish")
    assert code == 2


@pytest.mark.parametrize("flag, token", [("--at", "seed:-1"),
                                         ("--tangents", "seed:-1"),
                                         ("--tangents", "repeat:-1")])
def test_eval_negative_seed_names_the_token(capsys, flag, token):
    argv = {"--at": "seed:1", "--tangents": "seed:2", flag: token}
    code, out, err = _run(capsys, "eval", "--expr", _corpus_path("mu.form"),
                          *(w for item in argv.items() for w in item))
    assert code == 2 and out == ""
    prefix = token.split(":")[0]
    assert err == (f"error: expected {prefix}:<non-negative integer>, "
                   f"got '{token}'\n")


def test_no_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# one parser per process

# Runs each argv of a JSON list through cli.main in one process and prints
# the exit codes and outputs, with the parser builds before and after.
_RUNNER = """
import contextlib, io, json, sys
from nervecheck import cli
at_import = cli._build_parser.cache_info().misses
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"at_import": at_import,
                  "builds": cli._build_parser.cache_info().misses,
                  "results": results}))
"""


def _run_process(argvs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps(argvs)], env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_one_parser_serves_every_call_of_a_process():
    argvs = [
        ["check", "--id", "lemma-4.3", "--trials", "3", "--tol", "1e-3",
         "--format", "text"],
        ["check", "--id", "lemma-4.3", "--trials", "3", "--format", "text"],
        ["check-all", "--trials", "2", "--format", "text"],
        ["check", "--id", "nonsense"],
        ["list"],
    ]
    shared = _run_process(argvs)
    assert shared["at_import"] == 0  # importing cli builds no parser
    assert shared["builds"] == 1
    results = shared["results"]
    for argv, got in zip(argvs, results):
        fresh = _run_process([argv])
        assert fresh["builds"] == 1
        assert got == fresh["results"][0], argv
    # the --tol of the first call does not leak into the second
    assert results[0][1].endswith(" tol=1.0e-03\n")
    assert results[1][1].endswith(f" tol={CHECKS['lemma-4.3'].tol:.1e}\n")
    assert len(results[2][1].splitlines()) == len(CHECK_IDS)
    code, out, err = results[3]
    assert code == 2 and out == "" and "invalid choice: 'nonsense'" in err
    assert results[4] == [0, "\n".join(CHECK_IDS) + "\n", ""]


@pytest.mark.parametrize("index", [MAX_FACTOR + 1, 100000, 10 ** 17])
def test_eval_factor_index_above_the_cap_reports_position(tmp_path, capsys,
                                                          index):
    # the point of `eval` has as many factors as the largest index
    src = tmp_path / "far.form"
    src.write_text(f"MCL({index})[1,2]\n")
    code, out, err = _run(capsys, "eval", "--expr", str(src),
                          "--at", "seed:1", "--tangents", "seed:1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "1:5" in err


def test_eval_factor_index_at_the_cap_runs(tmp_path, capsys):
    src = tmp_path / "top.form"
    src.write_text(f"MCR({MAX_FACTOR})[1,2]\n")
    code, out, _ = _run(capsys, "eval", "--expr", str(src),
                        "--at", "seed:1", "--tangents", "seed:1")
    assert code == 0
    assert math.isfinite(float(out))


def test_eval_wedge_above_the_slot_bound_exits_two(tmp_path, capsys):
    src = tmp_path / "wedge.form"
    # 13 distinct 1-forms of SO(4)^3, of dimension 18: below the top degree
    forms = [f"MCL({k})[{a},{b}]" for k in (1, 2, 3) for a, b in BASIS_PAIRS]
    src.write_text(" ".join(forms[:MAX_WEDGE_SLOTS + 1]) + "\n")
    code, out, err = _run(capsys, "eval", "--expr", str(src),
                          "--at", "seed:1", "--tangents", "seed:2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert f"exceeds the limit of {MAX_WEDGE_SLOTS}" in err


def test_eval_of_wedges_beyond_the_product_budget_exits_two(tmp_path,
                                                            capsys):
    src = tmp_path / "wedges.form"
    src.write_text(distinct_wedges(16) + "\n")
    code, out, err = _run(capsys, "eval", "--expr", str(src),
                          "--at", "seed:1", "--tangents", "seed:2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert f"exceeds the budget of {MAX_WEDGE_PRODUCTS}" in err


# ---------------------------------------------------------------------------
# argument parsing on arbitrary argv

_WORDS = ["check", "check-all", "eval", "list", "--id", "--trials", "--seed",
          "--fd-step", "--tol", "--format", "--out", "--expr", "--at",
          "--tangents", "-h", "--", "lemma-4.3", "golden-values", "nope",
          "0", "1", "2", "-1", "1000001", "1e-5", "1e-2", "nan", "inf", "x",
          "json", "text", "xml", "identity", "seed:1", "seed:-1", "seed:x",
          "repeat:2", "debug", "mu.form", "e13.form", "missing.form",
          "/nonexistent/dir/report.json", ""]


def _one_trial(cfg):
    return run_check(dataclasses.replace(cfg, trials=1))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_WORDS) | st.text(max_size=6), max_size=7))
@example(["eval", "--expr", "a\x00b"])
@example(["check", "--id", "lemma-4.3", "--out", "a\x00b"])
def test_arbitrary_argv_never_gives_a_traceback(argv):
    # checks run one trial, whatever --trials says, to keep examples fast
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "run_check", _one_trial), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "error:" in err.getvalue(), (argv, err.getvalue())


def test_eval_long_sum_runs(tmp_path, capsys):
    # 2,000 terms once ended in a RecursionError traceback
    path = tmp_path / "long.form"
    path.write_text(" + ".join(["MCL(1)[1,2]"] * 2_000), encoding="utf-8")
    code, out, err = _run(capsys, "eval", "--expr", str(path), "--at",
                          "seed:1", "--tangents", "seed:1")
    assert code == 0, err
    single = tmp_path / "one.form"
    single.write_text("MCL(1)[1,2]", encoding="utf-8")
    code, one, _ = _run(capsys, "eval", "--expr", str(single), "--at",
                        "seed:1", "--tangents", "seed:1")
    assert abs(float(out) - 2_000 * float(one)) <= 1e-12 * abs(float(out))
