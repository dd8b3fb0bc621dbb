"""Tests for the little expression language over invariant matrix forms."""

import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nervecheck.matrixgroup import (BASIS_PAIRS, GroupPoint, Tangent,
                                    basis_element, identity_point)
from nervecheck.formdsl import (
    CORPUS_NAMES,
    MAX_FACTOR,
    MAX_NESTING,
    MAX_WEDGE_PRODUCTS,
    MAX_WEDGE_SLOTS,
    EntrySel,
    FormDslError,
    FormSyntaxError,
    Scale,
    Sum,
    SumS4,
    Wedge,
    corpus_source,
    interpret,
    max_factor_index,
    parse,
)
from nervecheck.eulercocycle import eval_E13, eval_mu
from nervecheck.cartanmodel import EquivariantForm
from nervecheck.formcalc import FormEval
from nervecheck.harness import (DrawTape, sample_algebra, sample_point,
                                sample_tangents, trial_draws)
from helpers import block_tape, distinct_wedges, pretty, trial_tape
from oracles import cycle_sign, dsl_eval

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
    tape = trial_tape(0, "dsl-unit", 0)
    for _ in range(5):
        pt = sample_point(tape, 1)
        ts = sample_tangents(tape, pt, 3)
        assert abs(e13(pt, *ts) - eval_E13(pt, *ts)) < 1e-12
    mu = interpret(parse(corpus_source("mu.form")), 1)
    for _ in range(5):
        X = sample_algebra(tape)
        pt = sample_point(tape, 1)
        v = sample_tangents(tape, pt, 1)[0]
        assert abs(mu(X)(pt, v) - eval_mu(X, pt, v)) < 1e-12


def test_zero_coefficient_gives_zero_form():
    f = interpret(parse("0/pi2 sumS4( MCL(1)[p1,p2] MCL(1)[p3,p4] )"), 1)
    tape = trial_tape(0, "dsl-unit", 1)
    pt = sample_point(tape, 1)
    ts = sample_tangents(tape, pt, 2)
    assert f(pt, *ts) == 0.0


def test_scalar_prefix_is_exact_multiplication():
    base = interpret(parse("MCL(1)[1,3] MCL(1)[2,4]"), 1)
    scaled = interpret(parse("2 MCL(1)[1,3] MCL(1)[2,4]"), 1)
    tape = trial_tape(0, "dsl-unit", 2)
    pt = sample_point(tape, 1)
    ts = sample_tangents(tape, pt, 2)
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


def test_corpus_source_names_a_missing_bundled_file(tmp_path, monkeypatch):
    # an installed package that lost its expressions/ directory
    import nervecheck.formdsl as formdsl

    monkeypatch.setattr(formdsl.importlib.resources, "files",
                        lambda package: tmp_path)
    for name in CORPUS_NAMES:
        with pytest.raises(FormDslError, match=repr(name)):
            corpus_source(name)


def test_levi_civita_tensor_signs_match_cycle_sign():
    import nervecheck.formdsl as formdsl

    perms = [tuple(int(k) for k in col) for col in formdsl._PERMS.T]
    signs = formdsl._SIGNS
    # the 24 distinct permutations of 0..3, in itertools order
    assert perms == list(itertools.permutations(range(4)))
    assert signs.shape == (24,) and signs.dtype == np.float64
    assert signs[0] == 1.0 and signs[1] == -1.0 and signs.sum() == 0.0
    sign = dict(zip(perms, signs))
    for p in perms:
        assert sign[p] == cycle_sign(p)
    # the sign is multiplicative under composition
    for p in perms:
        for q in perms:
            composed = tuple(p[q[i]] for i in range(4))
            assert sign[composed] == sign[p] * sign[q]


# ---------------------------------------------------------------------------
# lowering: one build per node, against the brute-force oracle


def _nested_sums(depth: int) -> str:
    src = "MCL(1)[p1,p2] MCR(1)[p3,p4]"
    for _ in range(depth - 1):
        src = f"MCL(1)[p1,p2] MCR(1)[p3,p4] + sumS4( {src} )"
    return f"sumS4( {src} )"


def test_lowering_builds_each_node_once(monkeypatch):
    import nervecheck.formdsl as formdsl

    build = formdsl._build
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        if len(calls) > 1000:  # far beyond linear growth: stop early
            raise AssertionError("the lowering builds too many nodes")
        return build(*args, **kwargs)

    monkeypatch.setattr(formdsl, "_build", counted)
    counts = []
    for depth in range(1, 9):
        calls.clear()
        interpret(parse(_nested_sums(depth)), 1)
        counts.append(len(calls))
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1, counts
    # every AST node is built exactly once
    assert counts[-1] == _count_nodes(parse(_nested_sums(8))), counts


def _count_nodes(node) -> int:
    if isinstance(node, (SumS4, Scale)):
        return 1 + _count_nodes(node.body)
    if isinstance(node, Wedge):
        return 1 + sum(_count_nodes(f) for f in node.factors)
    if isinstance(node, Sum):
        return 1 + sum(_count_nodes(t) for t in node.terms)
    return 1


def test_nested_sum_inherits_the_enclosing_placeholders():
    # the enclosing sum substitutes the inner body's placeholders too, so the
    # inner sum adds 24 equal terms whose signs cancel
    f = interpret(parse("sumS4( MCL(1)[p1,p2] sumS4( MCR(1)[p3,p4] ) )"), 1)
    tape = trial_tape(0, "dsl-unit", 3)
    pt = sample_point(tape, 1)
    ts = sample_tangents(tape, pt, 2)
    assert f(pt, *ts) == 0.0
    # an inner sum contracted on its own would not vanish here
    g = interpret(parse("sumS4( X[p1,p2] X[p3,p4] "
                        "sumS4( MCL(1)[p1,p2] MCR(1)[p3,p4] ) )"), 1)
    assert g(sample_algebra(tape))(pt, *ts) == 0.0


def test_a_nested_sum_evaluates_nothing():
    # the nested sum is the zero form: 0.0 even where its body is NaN
    f = interpret(parse("sumS4( sumS4( MCL(1)[p1,p2] MCR(1)[p3,p4] ) )"), 1)
    nan = GroupPoint((np.full((4, 4), np.nan),))
    t = Tangent(nan, (np.full((4, 4), np.nan),))
    assert f(nan, t, t) == 0.0


def _stack(level: int, degree: int, n: int = 5):
    tape = DrawTape(trial_draws(11, "dsl-layout", range(n)))
    pts = sample_point(tape, level)
    return pts, sample_tangents(tape, pts, degree), sample_algebra(tape)


def test_a_sum_body_is_evaluated_on_the_24_permutations_only():
    import nervecheck.formdsl as formdsl

    node = parse(corpus_source("e13.form"))
    assert isinstance(node, Scale) and isinstance(node.body, SumS4)
    body = formdsl._build(node.body.body, 1, 1)
    whole = formdsl._build(node, 1)
    pts, ts, _ = _stack(1, 3)
    assert body.fn(pts, ts, None).shape == (5, 24)
    assert whole.fn(pts, ts, None).shape == (5, 1)
    pt = _point(pts, 0)
    one = [Tangent(pt, tuple(r[0] for r in t.reps)) for t in ts]
    assert body.fn(pt, one, None).shape == (24,)


@pytest.mark.parametrize("src", ["sumS4( X[1,2] MCL(1)[1,3] )",
                                 "sumS4( X[p1,p2] MCL(1)[1,3] )"])
def test_a_sum_whose_terms_cancel_in_pairs_reads_exact_zeros(src):
    # with p3, p4 not read, the permutations swapping p3 and p4 pair up
    # equal terms of opposite signs
    form = interpret(parse(src), 1)
    pts, (t,), Xs = _stack(1, 1)
    stacked = form(Xs)(pts, t)
    assert stacked.shape == (5,) and not np.any(stacked)
    for k in range(5):
        pt = _point(pts, k)
        assert form(Xs[k])(pt, Tangent(pt, (t.reps[0][k],))) == 0.0


def test_a_nested_sum_is_zero_at_a_stack_without_its_body(monkeypatch):
    import nervecheck.formdsl as formdsl

    def unread(*args):
        raise AssertionError("the body of a nested sum was evaluated")

    monkeypatch.setattr(formdsl, "mc_left",
                        lambda factor, level: FormEval(1, level, unread))
    form = interpret(parse("sumS4( MCR(1)[p1,p2] sumS4( MCL(1)[p3,p4] ) )"),
                     1)
    pts, ts, _ = _stack(1, 2)
    value = form(pts, *ts)
    assert value.shape == (5,) and not np.any(value)
    nested = formdsl._build(parse("sumS4( MCL(1)[p3,p4] )"), 1, 1)
    assert nested.fn(pts, ts[:1], None).shape == (5, 1)


def test_deep_nesting_is_a_syntax_error_at_the_opening_token():
    with pytest.raises(FormSyntaxError) as exc:
        parse("(" * 1000 + "MCL(1)[1,2]" + ")" * 1000)
    assert (exc.value.line, exc.value.col) == (1, MAX_NESTING + 1)
    with pytest.raises(FormSyntaxError) as exc:
        parse("sumS4( " * 1000 + "MCL(1)[p1,p2]" + " )" * 1000)
    assert (exc.value.line, exc.value.col) == (1, 7 * MAX_NESTING + 1)
    # the ceiling itself parses, lowers and evaluates
    src = "(" * MAX_NESTING + "MCL(1)[1,2]" + ")" * MAX_NESTING
    assert parse(src) == parse("MCL(1)[1,2]")
    deep = "sumS4( " * MAX_NESTING + "MCL(1)[p1,p2]" + " )" * MAX_NESTING
    pt = identity_point(1)
    assert interpret(parse(deep), 1)(pt, Tangent(pt, (E12,))) == 0.0


def test_factor_index_above_the_cap_is_a_syntax_error_at_the_index():
    assert parse(f"MCL({MAX_FACTOR})[1,2]") == EntrySel(
        "MCL", MAX_FACTOR, False, 1, 2)
    for src, col in ((f"MCL({MAX_FACTOR + 1})[1,2]", 5),
                     ("2 MCL(1)[1,2] MCR(100000)[3,4]", 19),
                     ("MCL(0)[1,2]", 5)):
        with pytest.raises(FormSyntaxError, match="factor index") as exc:
            parse(src)
        assert (exc.value.line, exc.value.col) == (1, col), src


def test_the_leaf_is_one_entry_selection_node():
    # an atom, its factor (0 for X), its square and its entry in one node
    node = parse("sumS4( MCL(2)^2[p1,3] ) MCR(1)[2,4] X[1,2]")
    assert node == Wedge((SumS4(EntrySel("MCL", 2, True, "p1", 3)),
                          EntrySel("MCR", 1, False, 2, 4),
                          EntrySel("X", 0, False, 1, 2)))
    assert [max_factor_index(f) for f in node.factors] == [2, 1, 0]
    assert pretty(node) == "sumS4( MCL(2)^2[p1,3] ) MCR(1)[2,4] X[1,2]"


def test_overlong_numbers_are_syntax_errors():
    for src in ("1" * 5000 + " MCL(1)[1,2]", "MCL(" + "9" * 400 + ")[1,2]",
                "1/" + "7" * 400 + " MCL(1)[1,2]"):
        with pytest.raises(FormSyntaxError, match="digits"):
            parse(src)
    with pytest.raises(FormSyntaxError) as exc:
        parse("² MCL(1)[1,2]")  # a digit to str.isdigit, not to int()
    assert (exc.value.line, exc.value.col) == (1, 1)


_PLACEHOLDER = st.sampled_from(["p1", "p2", "p3", "p4"])


@st.composite
def _factor(draw, kind: str, level: int, bound: bool, ij=None):
    """One entry selection [ij] or a drawn one: kind is 'mc', 'sq' or 'x'."""
    if ij is None:
        index = st.one_of(st.integers(1, 4), _PLACEHOLDER) if bound \
            else st.integers(1, 4)
        i = draw(index)
        j = draw(st.one_of(st.just(i), index))  # [p1,p1] and [2,2] too
    else:
        i, j = ij
    if kind == "x":
        return EntrySel("X", 0, False, i, j)
    factor = draw(st.integers(1, level))
    atom = "MCL" if draw(st.booleans()) else "MCR"
    return EntrySel(atom, factor, kind == "sq", i, j)


@st.composite
def _kinds(draw, degree: int, x_degree: int):
    squares = draw(st.integers(0, degree // 2))
    kinds = ["sq"] * squares + ["mc"] * (degree - 2 * squares) + ["x"] * x_degree
    return draw(st.permutations(kinds))


@st.composite
def _term(draw, degree, x_degree, level, depth, bound):
    shape = draw(st.sampled_from(["wedge", "sum", "group"]
                                 if depth > 0 else ["wedge"]))
    if shape == "sum":
        node = SumS4(draw(_expr(degree, x_degree, level, depth - 1, True)))
    else:
        kinds = list(draw(_kinds(degree, x_degree)))
        inner = None
        if shape == "group":
            # the first factors as one parenthesized expr or sumS4, wedged
            # with the rest
            split = draw(st.integers(1, len(kinds)))
            inner_kinds, kinds = kinds[:split], kinds[split:]
            degrees = {"mc": 1, "sq": 2, "x": 0}
            in_sum = draw(st.booleans())
            inner = draw(_expr(sum(degrees[k] for k in inner_kinds),
                               inner_kinds.count("x"), level, depth - 1,
                               bound or in_sum))
            inner = SumS4(inner) if in_sum else inner
        # Under a sum, the first two factors often share out p1..p4, which
        # the contraction does not cancel.
        pairs = []
        if bound and draw(st.booleans()):
            perm = draw(st.permutations(["p1", "p2", "p3", "p4"]))
            pairs = [perm[:2], perm[2:]]
        factors = [draw(_factor(k, level, bound, ij))
                   for k, ij in itertools.zip_longest(kinds, pairs[:len(kinds)])]
        if inner is not None:
            factors.insert(draw(st.integers(0, len(factors))), inner)
        node = factors[0] if len(factors) == 1 else Wedge(tuple(factors))
    if draw(st.booleans()):
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        node = Scale(num, den, draw(st.booleans()), node)
    return node


@st.composite
def _expr(draw, degree, x_degree, level, depth, bound):
    terms = [draw(_term(degree, x_degree, level, depth, bound))]
    ops = []
    for _ in range(draw(st.integers(0, 2))):
        terms.append(draw(_term(degree, x_degree, level, depth, bound)))
        ops.append(draw(st.sampled_from("+-")))
    return Sum(tuple(terms), tuple(ops)) if ops else terms[0]


@st.composite
def _source(draw):
    degree = draw(st.integers(0, 3))
    x_degree = draw(st.integers(0 if degree else 1, 2))
    level = draw(st.integers(1, 2))
    node = draw(_expr(degree, x_degree, level, draw(st.integers(0, 3)), False))
    return node, level, degree, x_degree


@settings(max_examples=40, deadline=None)
@given(_source(), st.integers(0, 2**32 - 1))
def test_interpret_matches_the_brute_force_oracle(source, seed):
    node, level, degree, x_degree = source
    node = parse(pretty(node))
    form = interpret(node, level)
    tape = block_tape(np.random.default_rng(seed).random(
        (level * (1 + degree) + 1, 6)))
    pt = sample_point(tape, level)
    ts = sample_tangents(tape, pt, degree)
    X = sample_algebra(tape)
    got = (form(X) if x_degree else form)(pt, *ts)
    want, size = dsl_eval(node, pt, ts, X)
    assert abs(got - want) <= 1e-13 * size, pretty(node)


def _point(pt: GroupPoint, k: int) -> GroupPoint:
    return GroupPoint(tuple(f[k] for f in pt.factors))


@settings(max_examples=40, deadline=None)
@given(_source(), st.integers(0, 2**32 - 1))
def test_a_stack_evaluates_each_point_bit_for_bit(source, seed):
    # the values of a stack of 3 points, the same expression on each point
    # alone: the stack axes may not change the order of any sum
    node, level, degree, x_degree = source
    form = interpret(node, level)
    tape = DrawTape(trial_draws(seed, "dsl-stack", range(3)))
    pts = sample_point(tape, level)
    ts = sample_tangents(tape, pts, degree)
    Xs = sample_algebra(tape)
    stacked = (form(Xs) if x_degree else form)(pts, *ts)
    assert np.shape(stacked) == (3,)
    for k in range(3):
        pt = _point(pts, k)
        one = (form(Xs[k]) if x_degree else form)(
            pt, *[Tangent(pt, tuple(r[k] for r in t.reps)) for t in ts])
        assert stacked[k] == one, (pretty(node), k)


@settings(max_examples=50, deadline=None)
@given(_source())
def test_parse_inverts_pretty(source):
    node = source[0]
    assert parse(pretty(node)) == node


_TOKENS = st.sampled_from([
    "(", ")", "sumS4(", "MCL(1)", "MCR(2)", "X", "^2", "[", "]", ",", "p1",
    "p4", "1", "4", "0", "12", "/", "pi2", "+", "-", " ", "\n", "²"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=80),
                 st.lists(_TOKENS, max_size=60).map("".join)))
def test_parse_raises_only_syntax_errors(src):
    try:
        node = parse(src)
    except FormSyntaxError:
        return
    assert parse(pretty(node)) == node


# The six entries above the diagonal of MCL(1) span the 1-forms of SO(4):
# their wedge is a volume form, of the top degree 6.
_VOLUME = " ".join(f"MCL(1)[{a},{b}]" for a, b in BASIS_PAIRS)


def test_wedge_of_the_top_degree_matches_the_oracle():
    node = parse(_VOLUME)
    tape = trial_tape(0, "dsl-unit", 6)
    pt = sample_point(tape, 1)
    ts = sample_tangents(tape, pt, 6)
    got = interpret(node, 1)(pt, *ts)
    want, size = dsl_eval(node, pt, ts)
    assert abs(want) > 1e-6 * size  # not a roundoff zero
    assert abs(got - want) <= 1e-13 * size


# Nine 1-forms on SO(4)^2, of dimension 12: below the top degree.
_NINE = ("MCL(1)[1,2] MCL(1)[1,3] MCL(1)[1,4] MCL(1)[2,3] MCL(1)[2,4] "
         "MCL(1)[3,4] MCL(2)[1,2] MCL(2)[1,3] MCL(2)[1,4]")


def test_wedge_evaluates_each_factor_once_per_set_of_tangents(monkeypatch):
    # the fold keeps every partial wedge and every factor value, and an
    # evaluation computes each atom once per tangent: the nine 1-forms are
    # entries of two atoms, so 2 x 9 = 18 calls, where evaluating each
    # factor once per tangent makes 81 and a fold that evaluates its left
    # factor once per shuffle 9! / 2
    import nervecheck.formdsl as formdsl

    calls = []
    real = formdsl.mc_left

    def counted(k, level):
        fn = real(k, level).fn

        def count(pt, ts):
            calls.append(k)
            if len(calls) > 18:
                raise AssertionError("an atom was evaluated twice on a tangent")
            return fn(pt, ts)

        return FormEval(1, level, count)

    monkeypatch.setattr(formdsl, "mc_left", counted)
    form = interpret(parse(_NINE), 2)
    tape = trial_tape(0, "dsl-unit", 9)
    pt = sample_point(tape, 2)
    value = form(pt, *sample_tangents(tape, pt, 9))
    assert len(calls) == 18 and np.isfinite(value)


def test_each_evaluation_starts_from_an_empty_memo():
    # one form evaluated at a point, then at another whose arrays are new
    # objects (whose ids may be the freed ones'), single and stacked:
    # every value is the one a freshly lowered form gives there, since each
    # evaluation starts from an empty cache (formcalc.cached)
    node = parse("MCL(1)[1,2] MCL(1)^2[3,4] X[1,3] + MCR(2)[1,4] "
                 "MCL(2)^2[2,3] X[2,4] - MCL(1)^2[1,4] MCR(1)[2,3] X[3,4]")
    form = interpret(node, 2)
    for trials in (None, range(3)):
        for seed in (1, 2):
            tape = (block_tape(np.random.default_rng(seed).random((9, 6)))
                    if trials is None
                    else DrawTape(trial_draws(seed, "dsl-memo", trials)))
            pt = sample_point(tape, 2)
            ts = sample_tangents(tape, pt, 3)
            X = sample_algebra(tape)
            got = form(X)(pt, *ts)
            want = interpret(node, 2)(X)(pt, *ts)
            assert np.array_equal(got, want), (trials, seed)
            del pt, ts, X


def test_a_square_reuses_the_memoized_one_form_values(monkeypatch):
    # MCL(1) on each of three tangents, once: the 1-form entries and the
    # squares of both terms read the same three cached matrices
    import nervecheck.formdsl as formdsl

    calls = []
    real = formdsl.mc_left

    def counted(k, level):
        fn = real(k, level).fn

        def count(pt, ts):
            calls.append(k)
            return fn(pt, ts)

        return FormEval(1, level, count)

    monkeypatch.setattr(formdsl, "mc_left", counted)
    node = parse("MCL(1)[1,2] MCL(1)^2[3,4] - MCL(1)^2[1,3] MCL(1)[2,4]")
    tape = DrawTape(trial_draws(0, "dsl-unit", range(2)))
    pts = sample_point(tape, 1)
    ts = sample_tangents(tape, pts, 3)
    got = interpret(node, 1)(pts, *ts)
    assert len(calls) == 3
    for k in range(2):
        pt = _point(pts, k)
        want, size = dsl_eval(node, pt,
                              [Tangent(pt, (t.reps[0][k],)) for t in ts])
        assert abs(got[k] - want) <= 1e-13 * size


def test_wedge_of_mixed_degrees_matches_the_oracle():
    # a 0-form, a 2-form and 1-forms of both factors in one fold of seven
    # tangent slots, single and stacked
    node = parse("MCL(1)[1,2] X[1,3] MCR(2)[2,4] MCL(2)^2[1,3] MCL(1)[3,4] "
                 "MCR(1)[1,4] MCL(2)[2,3]")
    form = interpret(node, 2)
    stack = DrawTape(trial_draws(0, "dsl-unit", range(3)))
    pts = sample_point(stack, 2)
    ts = sample_tangents(stack, pts, 7)
    Xs = sample_algebra(stack)
    values = form(Xs)(pts, *ts)
    for k in range(3):
        pt = GroupPoint(tuple(h[k] for h in pts.factors))
        tk = [Tangent(pt, tuple(r[k] for r in t.reps)) for t in ts]
        got = form(Xs[k])(pt, *tk)
        want, size = dsl_eval(node, pt, tk, Xs[k])
        assert abs(want) > 1e-6 * size  # not a roundoff zero
        assert abs(got - want) <= 1e-13 * size
        assert values[k] == got


@pytest.mark.parametrize("extra, degree", [
    ("MCR(1)[2,3]", 7), ("X[1,2] MCR(1)[2,3]", 7), ("MCL(1)^2[1,2]", 8)])
def test_wedge_above_the_top_degree_is_exactly_zero(extra, degree):
    # on SO(4), of dimension 6, a 7- or 8-form is zero; the wedge gives 0.0
    # exactly, where the shuffle sum would give a roundoff residue
    node = parse(f"{_VOLUME} {extra}")
    form = interpret(node, 1)
    tape = trial_tape(0, "dsl-unit", 7)
    pt = sample_point(tape, 1)
    ts = sample_tangents(tape, pt, degree)
    X = sample_algebra(tape)
    concrete = form(X) if "X" in extra else form
    assert concrete.degree == degree
    got = concrete(pt, *ts)
    assert got == 0.0 and isinstance(got, float)
    want, size = dsl_eval(node, pt, ts, X)
    assert abs(want) <= 1e-13 * size
    # nothing is evaluated: entries of NaN still give zero
    nan = GroupPoint((np.full((4, 4), np.nan),))
    assert concrete(nan, *[Tangent(nan, (np.full((4, 4), np.nan),))]
                    * degree) == 0.0
    # a stack of points gives one zero per point
    stack = DrawTape(trial_draws(0, "dsl-unit", range(3)))
    pts = sample_point(stack, 1)
    Xs = sample_algebra(stack)
    value = (form(Xs) if "X" in extra else form)(
        pts, *sample_tangents(stack, pts, degree))
    assert value.shape == (3,) and not value.any()


# The 18 1-forms of SO(4)^3 that span its cotangent spaces.
_LEVEL3 = [f"MCL({k})[{a},{b}]" for k in (1, 2, 3) for a, b in BASIS_PAIRS]


def test_a_nested_sum_builds_no_wedge_plan():
    # the body of a nested sumS4 is never evaluated, so its wedges build no
    # fold plan and spend none of the budget: only the outer 12-slot wedge
    # of MCR(1)[p1,p2] with the nested sum misses the plan cache
    import nervecheck.formcalc as formcalc

    ten = " ".join(_LEVEL3[:10])
    formcalc._fold_steps.cache_clear()
    interpret(parse(f"sumS4( MCR(1)[p1,p2] sumS4( MCL(1)[p3,p4] {ten} ) )"),
              3)
    assert formcalc._fold_steps.cache_info().misses == 1
    # 16 distinct 12-slot wedges lower when nested, and build nothing
    formcalc._fold_steps.cache_clear()
    form = interpret(parse(f"sumS4( sumS4( {distinct_wedges(16)} ) )"), 3)
    assert form.degree == MAX_WEDGE_SLOTS
    assert formcalc._fold_steps.cache_info().misses == 0
    # and are refused at the top level
    with pytest.raises(FormDslError, match="exceeds the budget of "
                                           f"{MAX_WEDGE_PRODUCTS}"):
        interpret(parse(distinct_wedges(16)), 3)


@pytest.mark.parametrize("body,message", [
    ("MCL(4)[p1,p2]", "factor index 4 exceeds the level 3"),
    ("MCL(1)[p1,p2] + MCL(1)[p3,p4] MCL(2)[1,2]",
     "mixed form degrees in a sum"),
    (" ".join(_LEVEL3[:13]), "a wedge of 13 tangent slots exceeds the limit "
                             f"of {MAX_WEDGE_SLOTS}")],
    ids=["factor-index", "mixed-degrees", "13-slots"])
def test_a_nested_sum_body_is_still_checked(body, message):
    with pytest.raises(FormDslError, match=message):
        interpret(parse(f"sumS4( sumS4( {body} ) )"), 3)


def test_a_wedge_of_more_slots_than_the_bound_is_refused():
    # the plan of n 1-forms holds n 2^(n-1) products: a wedge below the
    # top degree is bounded, a wedge above it stays the exact zero
    over = " ".join(_LEVEL3[:MAX_WEDGE_SLOTS + 1])
    with pytest.raises(FormDslError,
                       match=f"{MAX_WEDGE_SLOTS + 1} tangent slots exceeds "
                             f"the limit of {MAX_WEDGE_SLOTS}"):
        interpret(parse(over), 3)
    at = MAX_WEDGE_SLOTS
    tape = trial_tape(0, "dsl-unit", 8)
    pt = sample_point(tape, 3)
    value = interpret(parse(" ".join(_LEVEL3[:at])), 3)(
        pt, *sample_tangents(tape, pt, at))
    assert math.isfinite(value) and value != 0.0
    ones = " ".join([_VOLUME, _VOLUME, "MCR(1)[2,3]"])
    tape = trial_tape(0, "dsl-unit", 9)
    pt = sample_point(tape, 1)
    zero = interpret(parse(ones), 1)(pt, *sample_tangents(tape, pt, 13))
    assert zero == 0.0 and isinstance(zero, float)


def _benchmark_workloads(monkeypatch):
    """benchmarks/workloads.py, which imports nothing of the package."""
    path = (Path(__file__).resolve().parent.parent / "benchmarks"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_a_plan_counts_the_products_of_its_fold():
    import nervecheck.formcalc as formcalc
    import nervecheck.formdsl as formdsl

    for degrees in [(1, 1), (0, 1, 0), (1, 2, 1), (2, 2, 2), (3, 3),
                    (1,) * 6, (6, 0), (2, 1, 3, 1)]:
        plan = formcalc._fold_steps.__wrapped__(degrees)
        assert formdsl._plan_products(degrees) == sum(
            len(terms) for step in plan for terms in step), degrees


def test_the_wedges_of_one_expression_share_a_budget_of_products(
        monkeypatch):
    # every wedge keeps its fold plan, so the distinct plans of one
    # expression are bounded together: 16 distinct 12-slot wedges are
    # refused while lowering, and what the corpus, CI and the benchmark
    # lower still lowers
    with pytest.raises(FormDslError,
                       match=r"the wedges of the expression hold \d+ "
                             f"products, which exceeds the budget of "
                             f"{MAX_WEDGE_PRODUCTS}"):
        interpret(parse(distinct_wedges(16)), 3)
    # one 12-slot wedge of 1-forms, and the plan of the most products that
    # 12 slots allow, degrees (1, 1, 2, 4, 2, 1, 1), with its nested wedge
    assert interpret(parse(distinct_wedges(1)), 3).degree == MAX_WEDGE_SLOTS
    nested = "( " + " ".join(_LEVEL3[2:6]) + " )"
    most = " ".join(_LEVEL3[:2] + ["MCR(1)^2[1,2]", nested, "MCR(2)^2[1,2]"]
                    + _LEVEL3[6:8])
    assert interpret(parse(most), 3).degree == MAX_WEDGE_SLOTS
    # equal degree tuples share one plan
    same = " + ".join([" ".join(_LEVEL3[:MAX_WEDGE_SLOTS])] * 16)
    assert interpret(parse(same), 3).degree == MAX_WEDGE_SLOTS
    for name, level in zip(CORPUS_NAMES, (1, 2, 1)):
        interpret(parse(corpus_source(name)), level)
    # the 10-factor wedge of CI's package job
    interpret(parse(" ".join(_LEVEL3[:10])), 2)
    workloads = _benchmark_workloads(monkeypatch)
    for seed in range(4):
        for expr in workloads.dsl_exprs(seed):
            if expr.source is not None:
                interpret(parse(expr.source), expr.level)


@pytest.mark.parametrize("count", [2_000, 20_000])
def test_long_sums_parse_print_and_evaluate(count):
    # a chain of '+' and '-' is one flat node: no step recurses once per
    # term (a left-deep tree of 2,000 terms ended in a RecursionError)
    term = "MCR(2)[3,4]"
    ops = ["+", "-", "+"] * (count // 3) + ["+"] * (count % 3 - 1)
    src = term + "".join(f" {op} {term}" for op in ops)
    node = parse(src)
    assert isinstance(node, Sum) and len(node.terms) == count
    assert parse(pretty(node)) == node
    assert max_factor_index(node) == 2
    tape = trial_tape(0, "dsl-unit", 4)
    pt = sample_point(tape, 2)
    (t,) = sample_tangents(tape, pt, 1)
    one = interpret(parse(term), 2)(pt, t)
    got = interpret(node, 2)(pt, t)
    want = (1 + ops.count("+") - ops.count("-")) * one
    # recursive summation: each of the count - 1 roundings is at most
    # 2^-53 of a partial sum, which is at most count |one|
    assert abs(got - want) <= count ** 2 * 2.0 ** -53 * abs(one)


def test_parenthesized_sums_keep_their_grouping():
    node = parse("( MCL(1)[1,2] - MCL(1)[1,3] ) - MCL(1)[2,3] - ( MCL(1)[1,4] )")
    assert isinstance(node.terms[0], Sum) and node.ops == ("-", "-")
    assert pretty(node) == ("( MCL(1)[1,2] - MCL(1)[1,3] ) - MCL(1)[2,3] - "
                            "MCL(1)[1,4]")
    assert parse(pretty(node)) == node
    flat = parse("MCL(1)[1,2] - MCL(1)[1,3] - MCL(1)[2,3] - MCL(1)[1,4]")
    tape = trial_tape(0, "dsl-unit", 5)
    pt = sample_point(tape, 1)
    (t,) = sample_tangents(tape, pt, 1)
    assert interpret(node, 1)(pt, t) == interpret(flat, 1)(pt, t)
