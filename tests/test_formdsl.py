"""Tests for the little expression language over invariant matrix forms."""

import math
from pathlib import Path

import numpy as np
import pytest

from nervecheck.matrixgroup import GroupPoint, Tangent, basis_element, identity_point
from nervecheck.formdsl import (
    CORPUS_NAMES,
    FormDslError,
    FormSyntaxError,
    corpus_source,
    interpret,
    max_factor_index,
    parse,
    pretty,
)
from nervecheck.eulercocycle import eval_E13, eval_mu
from nervecheck.cartanmodel import EquivariantForm
from nervecheck.formcalc import FormEval
from nervecheck.harness import sample_algebra, sample_point, sample_tangents, trial_rng

E12 = basis_element(1, 2)
E13 = basis_element(1, 3)
E14 = basis_element(1, 4)
E23 = basis_element(2, 3)
E34 = basis_element(3, 4)

DATA = Path(__file__).parent / "data" / "malformed"


# ---------------------------------------------------------------------------
# parsing and printing


ROUNDTRIP_SOURCES = [
    "MCL(1)[1,2]",
    "MCR(2)[3,4]",
    "- MCL(1)[1,2]",
    "2 MCL(1)[1,2]",
    "1/2 MCR(1)[2,3]",
    "1/192/pi2 MCL(1)[1,4]",
    "MCL(1)[1,2] MCL(1)[3,4]",
    "MCL(1)[1,2] MCR(2)[1,3] MCL(2)[2,4]",
    "MCL(1)^2[1,3]",
    "MCR(3)^2[2,4]",
    "MCL(1)[1,2] + MCL(1)[3,4]",
    "MCL(1)[1,2] - MCR(1)[1,2]",
    "sumS4( MCL(1)[p1,p2] MCL(1)[p3,p4] )",
    "sumS4( MCL(1)[p1,p2] MCL(1)^2[p3,p4] )",
    "1/192/pi2 sumS4( MCL(1)[p1,p2] MCL(1)^2[p3,p4] + MCL(1)[p3,p4] MCL(1)^2[p1,p2] )",
    "sumS4( X[p1,p2] MCL(1)[p3,p4] )",
    "X[1,2]",
    "X[1,2] MCL(1)[3,4]",
    "3/4 sumS4( MCR(2)[p1,p3] MCL(1)[p2,p4] )",
    "MCL(1)[1,2] MCL(1)[1,3] + MCL(1)[2,3] MCL(1)[1,4] - MCL(1)[1,2] MCL(1)[2,4]",
]


def test_parse_pretty_roundtrip_corpus():
    for src in ROUNDTRIP_SOURCES:
        ast = parse(src)
        printed = pretty(ast)
        assert parse(printed) == ast, src
        # printing is idempotent on its own output
        assert pretty(parse(printed)) == printed, src


def test_bundled_sources_roundtrip():
    assert CORPUS_NAMES == ("e13.form", "e22.form", "mu.form")
    for name in CORPUS_NAMES:
        src = corpus_source(name)
        ast = parse(src)
        assert parse(pretty(ast)) == ast
        # the shipped files are whitespace-normalized
        assert pretty(ast) == " ".join(src.split())


def test_simple_entry_selection_parses():
    ast = parse("MCL(1)[1,2]")
    f = interpret(ast, 1)
    assert isinstance(f, FormEval)
    assert (f.degree, f.level) == (1, 1)
    pt = identity_point(1)
    assert f(pt, Tangent(pt, (E12,))) == 1.0


def test_parse_rejects_unbound_placeholder():
    with pytest.raises(FormSyntaxError) as exc:
        parse("1/pi2 MCL(1)[p1,p2]")
    assert exc.value.line == 1 and exc.value.col == 14
    assert "not bound" in str(exc.value)


def test_parse_rejects_square_of_x():
    with pytest.raises(FormSyntaxError):
        parse("sumS4( X^2[p1,p2] )")


def test_parse_rejects_scalar_suffixes():
    with pytest.raises(FormSyntaxError):
        parse("sumS4( MCL(1)[p1,p2] MCL(1)[p3,p4] )[1,2]")
    with pytest.raises(FormSyntaxError):
        parse("( MCL(1)[1,2] )^2")


def test_parse_rejects_missing_entry():
    with pytest.raises(FormSyntaxError):
        parse("MCL(1)")


def test_parse_rejects_trailing_input():
    with pytest.raises(FormSyntaxError) as exc:
        parse("MCL(1)[1,2] )")
    assert "trailing" in str(exc.value)


def test_parse_rejects_zero_denominator_at_its_position():
    with pytest.raises(FormSyntaxError) as exc:
        parse("1/0 MCL(1)[1,2]")
    assert (exc.value.line, exc.value.col) == (1, 3)
    with pytest.raises(FormSyntaxError) as exc:
        parse("MCL(1)[1,2]\n- 3/2/0/pi2 MCR(1)[3,4]")
    assert (exc.value.line, exc.value.col) == (2, 7)
    # a zero numerator is an ordinary coefficient
    parse("0/5 MCL(1)[1,2]")


def test_malformed_corpus_positions():
    # frozen (line, col) positions for the five bundled bad examples
    expected = {
        "bad-entry-index.form": (1, 8),
        "missing-entry.form": (1, 24),
        "second-line-garbage.form": (2, 17),
        "unbound-placeholder.form": (1, 14),
        "unclosed-paren.form": (2, 1),
    }
    files = sorted(DATA.glob("*.form"))
    assert {f.name for f in files} == set(expected)
    for f in files:
        with pytest.raises(FormSyntaxError) as exc:
            parse(f.read_text())
        assert (exc.value.line, exc.value.col) == expected[f.name], f.name
        assert f"{exc.value.line}:{exc.value.col}" in str(exc.value)


# ---------------------------------------------------------------------------
# interpretation


def test_interpret_e13_source_matches_builtin():
    ast = parse(corpus_source("e13.form"))
    f = interpret(ast, 1)
    assert isinstance(f, FormEval)
    pt = identity_point(1)
    ts = (Tangent(pt, (E12,)), Tangent(pt, (E13,)), Tangent(pt, (E23,)))
    assert abs(f(pt, *ts) - eval_E13(pt, *ts)) < 1e-12
    quad = (Tangent(pt, (E12,)), Tangent(pt, (E13,)), Tangent(pt, (E14,)))
    assert abs(f(pt, *quad) - (-1.0 / (8.0 * math.pi ** 2))) < 1e-12


def test_interpret_mu_source_matches_builtin():
    ast = parse(corpus_source("mu.form"))
    form = interpret(ast, 1)
    assert isinstance(form, EquivariantForm)
    assert (form.form_degree, form.poly_degree) == (1, 1)
    pt = identity_point(1)
    v = Tangent(pt, (E34,))
    got = form(E12)(pt, v)
    assert abs(got - (-1.0 / (4.0 * math.pi ** 2))) < 1e-12
    assert abs(got - eval_mu(E12, pt, v)) < 1e-12


def test_interpret_agrees_with_builtins_at_random_probes():
    e13 = interpret(parse(corpus_source("e13.form")), 1)
    rng = trial_rng(0, "dsl-unit", 0)
    for _ in range(5):
        pt = sample_point(rng, 1)
        ts = sample_tangents(rng, pt, 3)
        assert abs(e13(pt, *ts) - eval_E13(pt, *ts)) < 1e-12
    mu = interpret(parse(corpus_source("mu.form")), 1)
    for _ in range(5):
        X = sample_algebra(rng)
        pt = sample_point(rng, 1)
        v = sample_tangents(rng, pt, 1)[0]
        assert abs(mu(X)(pt, v) - eval_mu(X, pt, v)) < 1e-12


def test_zero_coefficient_gives_zero_form():
    f = interpret(parse("0/pi2 sumS4( MCL(1)[p1,p2] MCL(1)[p3,p4] )"), 1)
    rng = trial_rng(0, "dsl-unit", 1)
    pt = sample_point(rng, 1)
    ts = sample_tangents(rng, pt, 2)
    assert f(pt, *ts) == 0.0


def test_scalar_prefix_is_exact_multiplication():
    base = interpret(parse("MCL(1)[1,3] MCL(1)[2,4]"), 1)
    scaled = interpret(parse("2 MCL(1)[1,3] MCL(1)[2,4]"), 1)
    rng = trial_rng(0, "dsl-unit", 2)
    pt = sample_point(rng, 1)
    ts = sample_tangents(rng, pt, 2)
    assert scaled(pt, *ts) == 2.0 * base(pt, *ts)


def test_interpret_rejects_factor_beyond_level():
    with pytest.raises(FormDslError):
        interpret(parse("MCL(2)[1,2]"), 1)
    # the same source is fine at level 2
    f = interpret(parse("MCL(2)[1,2]"), 2)
    assert f.level == 2


def test_interpret_rejects_mixed_form_degrees():
    with pytest.raises(FormDslError):
        interpret(parse("MCL(1)[1,2] + MCL(1)[1,2] MCL(1)[3,4]"), 1)


def test_interpret_rejects_mixed_x_degrees():
    with pytest.raises(FormDslError):
        interpret(parse("X[1,2] + MCL(1)[1,2]"), 1)


def test_max_factor_index():
    assert max_factor_index(parse("MCL(1)[1,2]")) == 1
    assert max_factor_index(parse("MCL(1)[1,2] MCR(3)[2,4]")) == 3
    assert max_factor_index(parse("X[1,2]")) == 0


def test_corpus_source_rejects_unknown_name():
    with pytest.raises((KeyError, ValueError, FileNotFoundError)):
        corpus_source("nonexistent.form")
