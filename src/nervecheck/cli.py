"""Command-line front end.

Subcommands:
  check      run one named check and print its report
  check-all  run every check with per-check default tolerances
  eval       evaluate an expression file at a sampled point
  list       print the known check identifiers

Exit status: 0 on success/pass, 1 when a check fails, 2 on usage or parse
errors, among them an option that `harness.CheckConfig` refuses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

import numpy as np

from . import formdsl
from .cartanmodel import EquivariantForm
from .formcalc import FD_STEP_DEFAULT
from .harness import (CHECK_IDS, CheckConfig, CheckReport, DrawTape, run_check,
                      sample_algebra, sample_point, sample_tangent)
from .matrixgroup import Tangent, basis_element, identity_point


def _report_text(r: CheckReport) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"{r.check_id} {status} max_err={r.max_abs_err:.6e} tol={r.tol:.1e}"


def _error(exc: Exception) -> int:
    """Print the message of a usage error; its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _emit(payload: str, out: Optional[str]) -> bool:
    """Write the payload to stdout or to the file `out`; False (with a
    message on stderr) when the file cannot be written."""
    if out is None:
        sys.stdout.write(payload + "\n")
        return True
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_check(args) -> int:
    """`check` (one --id) and `check-all` (no id): build every config, so
    that an invalid option runs no check, then run them in order."""
    ids = CHECK_IDS if args.id is None else (args.id,)
    try:
        cfgs = [CheckConfig(check_id=cid, trials=args.trials, seed=args.seed,
                            fd_step=args.fd_step, tol=args.tol) for cid in ids]
    except ValueError as exc:
        return _error(exc)
    try:
        reports = [run_check(cfg) for cfg in cfgs]
    except formdsl.FormDslError as exc:  # a bundled expression file is lost
        return _error(exc)
    if args.format == "text":
        payload = "\n".join(_report_text(r) for r in reports)
    elif args.id is None:
        payload = json.dumps([r.to_json_dict() for r in reports], indent=2)
    else:
        payload = json.dumps(reports[0].to_json_dict())
    if not _emit(payload, args.out):
        return 2
    return 0 if all(r.passed for r in reports) else 1


def _parse_seed_token(text: str, prefix: str) -> int:
    head, _, tail = text.partition(":")
    if head == prefix and tail.isascii() and tail.isdigit():
        return int(tail)
    raise ValueError(f"expected {prefix}:<non-negative integer>, got {text!r}")


def _seed_tape(text: str, prefix: str, rows: int) -> DrawTape:
    """The draw tape of the first `rows` rows of the generator seeded by a
    `prefix:<integer>` token; the samplers of one token read one tape, in
    order."""
    rng = np.random.default_rng(_parse_seed_token(text, prefix))
    return DrawTape(rng.random((rows, 6)))


def _eval_setup(at: str, tangents: str, level: int, degree: int) -> tuple:
    """(point, tangents, X) to evaluate an expression at."""
    if at == "identity":
        pt = identity_point(level)
    else:
        pt = sample_point(_seed_tape(at, "seed", level), level)

    if tangents == "debug":
        if degree != 1:
            raise ValueError(
                f"the debug sampler supplies one tangent, but the expression "
                f"has degree {degree}")
        ts = (Tangent(pt, tuple(h @ basis_element(3, 4) for h in pt.factors)),)
        return pt, ts, basis_element(1, 2)
    if tangents.startswith("repeat"):
        tape = _seed_tape(tangents, "repeat", level + 1)
        one = sample_tangent(tape, pt)
        return pt, (one,) * degree, sample_algebra(tape)
    tape = _seed_tape(tangents, "seed", 1 + degree * level)
    x = sample_algebra(tape)
    ts = tuple(sample_tangent(tape, pt) for _ in range(degree))
    return pt, ts, x


def _cmd_eval(args) -> int:
    # A name like "mu.form" falls back to the bundled corpus when no such
    # file exists on disk; an on-disk file always wins.
    try:
        with open(args.expr, "r", encoding="utf-8") as fh:
            src = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        if args.expr not in formdsl.CORPUS_NAMES:
            return _error(exc)
        src = None  # read from the bundled corpus below
    try:
        if src is None:
            src = formdsl.corpus_source(args.expr)
        ast = formdsl.parse(src)
        level = max(formdsl.max_factor_index(ast), 1)
        form = formdsl.interpret(ast, level=level)
    except formdsl.FormDslError as exc:
        return _error(exc)
    equivariant = isinstance(form, EquivariantForm)
    degree = form.form_degree if equivariant else form.degree
    try:
        pt, ts, x = _eval_setup(args.at, args.tangents, level, degree)
    except ValueError as exc:
        return _error(exc)
    concrete = form(x) if equivariant else form
    print("%.17g" % concrete(pt, *ts))
    return 0


def _cmd_list(_args) -> int:
    for cid in CHECK_IDS:
        print(cid)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and reused:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nervecheck",
        description="Numerical checks for simplicial de Rham identities "
                    "on SO(4).")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options that check and check-all share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--trials", type=int, default=200)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--fd-step", dest="fd_step", type=float,
                     default=FD_STEP_DEFAULT)
    run.add_argument("--format", choices=("json", "text"), default="json")
    run.add_argument("--out", default=None, help="write the report here "
                     "instead of stdout")

    check = sub.add_parser("check", parents=[run], help="run one named check")
    check.add_argument("--id", required=True, choices=CHECK_IDS,
                       help="check identifier (see `list`)")
    check.add_argument("--tol", type=float, default=None,
                       help="override the per-check default tolerance")
    check.set_defaults(func=_cmd_check)

    allcmd = sub.add_parser("check-all", parents=[run],
                            help="run every check")
    allcmd.set_defaults(func=_cmd_check, id=None, tol=None)

    evalcmd = sub.add_parser("eval", help="evaluate an expression file")
    evalcmd.add_argument("--expr", required=True, help="path to a .form file")
    evalcmd.add_argument("--at", default="identity",
                         help="base point: identity or seed:N")
    evalcmd.add_argument("--tangents", default="seed:0",
                         help="tangent sampler: seed:M, repeat:M, or debug")
    evalcmd.set_defaults(func=_cmd_eval)

    listcmd = sub.add_parser("list", help="print the check identifiers")
    listcmd.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
