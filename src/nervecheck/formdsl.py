"""A tiny expression language for the permutation-sum cochains.

Grammar (whitespace separates tokens; juxtaposition is the wedge product):

    expr    := term (('+' | '-') term)*
    term    := ['-'] [coeff] primary+
    coeff   := NUMBER ('/' NUMBER)* ['/pi2']
    primary := atom ['^2'] entry
             | 'sumS4' '(' expr ')'
             | '(' expr ')'
    atom    := 'MCL' '(' NUMBER ')' | 'MCR' '(' NUMBER ')' | 'X'
    entry   := '[' idx ',' idx ']'
    idx     := 1..4 | 'p1'..'p4'

MCL(k)/MCR(k) are the left/right Maurer-Cartan forms of factor k; X is the
polynomial argument; `^2` squares a Maurer-Cartan atom in the matrix-wedge
sense; `[i,j]` selects a matrix entry and is mandatory on every atom.
`sumS4(...)` sums its body over all 24 permutations of (1,2,3,4) weighted by
sign, putting the permutation images in place of the placeholders p1..p4.
`n/d/pi2` scales by the rational n/d times 1/pi^2.  NUMBER is at most
MAX_DIGITS ASCII digits, a factor index k at most MAX_FACTOR, parentheses
and sumS4 nest at most MAX_NESTING deep, a wedge below the top degree
has at most MAX_WEDGE_SLOTS tangent slots, and the distinct fold plans of
an expression's wedges hold at most MAX_WEDGE_PRODUCTS products together.

A sumS4 binds every placeholder in its body, the bodies of sumS4 nested in
it included.  A nested sumS4 therefore adds 24 equal terms whose signs
cancel: it evaluates to zero.

`parse` produces a plain AST whose only leaf is `EntrySel`: an atom, its
square or not, and its entry.  `interpret` lowers it once to an evaluator
(pt, tangents, X) -> ndarray in one fixed layout: the stack axes of a
stacked point, then one permutation axis, of length 24 where a placeholder
is free in the subexpression and of length 1 elsewhere.  Its s-th entry is
the value with the s-th permutation of S4 in place of p1..p4, so the body
of a sumS4 is evaluated at the 24 placeholder values its sum reads and at
no other.  An entry [i,j] indexes the matrix with two arrays over that axis
(`[p1,p1]` takes the diagonal); a wedge is one left fold of broadcast
products over all its factors (`formcalc.shuffle_product`), which
evaluates each factor once per set of tangents, and `+`/`-` broadcast too;
an outermost sumS4 contracts its body with the 24 permutation signs.  A
nested sumS4, like a wedge above the degree 6p of SO(4)^p, is the zero
form and evaluates nothing.  A Maurer-Cartan atom is computed once per
evaluation and pair of factor and tangent rep arrays (`formcalc.cached`),
and a square is `formcalc.matrix_wedge_square` of the atom.  `interpret`
returns a FormEval, or an EquivariantForm exactly when X occurs;
evaluating either lowers nothing again, and returns one value per stacked
point.
"""

from __future__ import annotations

import importlib.resources
import itertools
import re
from dataclasses import dataclass
from math import comb, pi
from typing import Callable, Optional, Union

import numpy as np

from .cartanmodel import EquivariantForm
from .formcalc import (FormEval, cached, matrix_wedge_square, mc_left,
                       mc_right, shuffle_product)
from .matrixgroup import BASIS_PAIRS


class FormDslError(ValueError):
    """Any error raised while parsing or interpreting an expression."""


class FormSyntaxError(FormDslError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}:{col}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class EntrySel:
    """The one leaf: entry [i, j] of an atom, "MCL" or "MCR" of factor
    `factor` (squared when `square`), or "X" with factor 0."""

    atom: str
    factor: int
    square: bool
    i: Union[int, str]
    j: Union[int, str]


@dataclass(frozen=True)
class SumS4:
    body: "Node"


@dataclass(frozen=True)
class Wedge:
    factors: tuple


@dataclass(frozen=True)
class Scale:
    num: int
    den: int
    inv_pi2: bool
    body: "Node"


@dataclass(frozen=True)
class Sum:
    """terms[0] ops[0] terms[1] ops[1] ...: a whole chain of '+' and '-' is
    one node, so a long chain costs no recursion depth."""

    terms: tuple
    ops: tuple  # '+' or '-' before each of terms[1:]


Node = Union[EntrySel, SumS4, Wedge, Scale, Sum]


# ---------------------------------------------------------------------------
# tokenizer


# A token is a plain tuple (kind, text, line, col); kind is NUMBER, NAME, EOF
# or the punctuation character itself.
_Token = tuple[str, str, int, int]


_PUNCT = frozenset("+-/()[],^")
_PLACEHOLDERS = ("p1", "p2", "p3", "p4")
# A run of ASCII digits, and of the characters that str.isalnum accepts.
_NUMBER = re.compile(r"[0-9]+")
_ALNUM = re.compile(r"[^\W_]*")
# A coefficient n/d becomes a float, which a longer numerator could overflow.
MAX_DIGITS = 18

# The deepest nesting of parentheses and sumS4 the parser accepts: it
# recurses once per level, and the lowering and evaluation do too.
MAX_NESTING = 64

# The largest factor index k of MCL(k)/MCR(k).  `nervecheck eval` builds a
# point with that many factors, so the index bounds its time and memory.
MAX_FACTOR = 64

# The most tangent slots (its degree) of a wedge below the top degree.  Its
# fold plan holds n 2^(n-1) products for n 1-forms, so each slot doubles the
# time and memory of lowering and evaluating it: 12 slots take about 0.1 s
# and 61 MB in `nervecheck eval`, 16 took 3.5 s and 117 MB, 18 took 12 s.
MAX_WEDGE_SLOTS = 12

# The most products that the distinct fold plans of one expression's wedges
# hold together (`_plan_products`); each plan lives as long as its wedge.
# A 12-slot plan holds at most 40,866, and 24,564 for 1-forms, so four
# 12-slot wedges of 1-forms fit.  A sum of 16 distinct 12-slot wedges of
# 1-forms and squares took 0.7 s and 91 MB to lower, and 64 took 2.6 s and
# 194 MB.
MAX_WEDGE_PRODUCTS = 100_000


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, start = 1, 0  # start: the index of the line's first character
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in _PUNCT:
            tokens.append((ch, ch, line, i - start + 1))
            i += 1
        elif ch == "\n":
            i += 1
            line, start = line + 1, i
        elif ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = _NUMBER.match(src, i).end()
            if j - i > MAX_DIGITS:
                raise FormSyntaxError(f"number longer than {MAX_DIGITS} digits",
                                      line, i - start + 1)
            tokens.append(("NUMBER", src[i:j], line, i - start + 1))
            i = j
        elif ch.isalpha():
            j = _ALNUM.match(src, i + 1).end()
            tokens.append(("NAME", src[i:j], line, i - start + 1))
            i = j
        else:
            raise FormSyntaxError(f"unexpected character {ch!r}", line,
                                  i - start + 1)
    tokens.append(("EOF", "", line, n - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser


def _error_at(tok: _Token, message: str) -> FormSyntaxError:
    return FormSyntaxError(message, tok[2], tok[3])


def _shown(tok: _Token) -> str:
    return repr(tok[1] or "end of input")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.sum_depth = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def kind(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            raise _error_at(tok, f"expected {kind!r}, found {_shown(tok)}")
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        raise _error_at(self.peek(), message)

    # expr := term (('+' | '-') term)*
    def parse_expr(self) -> Node:
        terms = [self.parse_term()]
        ops = []
        while self.kind() in ("+", "-"):
            ops.append(self.advance()[0])
            terms.append(self.parse_term())
        return Sum(tuple(terms), tuple(ops)) if ops else terms[0]

    # term := ['-'] [coeff] primary+
    def parse_term(self) -> Node:
        negate = False
        if self.kind() == "-":
            self.advance()
            negate = True
        coeff = None
        if self.kind() == "NUMBER":
            coeff = self.parse_coeff()
        factors = [self.parse_primary()]
        while self.kind() in ("NAME", "("):
            factors.append(self.parse_primary())
        body: Node = factors[0] if len(factors) == 1 else Wedge(tuple(factors))
        if coeff is None and not negate:
            return body
        num, den, inv_pi2 = coeff if coeff is not None else (1, 1, False)
        if negate:
            num = -num
        return Scale(num, den, inv_pi2, body)

    # coeff := NUMBER ('/' NUMBER)* ['/pi2']
    def parse_coeff(self) -> tuple[int, int, bool]:
        num = int(self.expect("NUMBER")[1])
        den = 1
        inv_pi2 = False
        while self.kind() == "/":
            self.advance()
            tok = self.peek()
            kind, text, _, _ = tok
            if kind == "NUMBER":
                self.advance()
                value = int(text)
                if value == 0:
                    raise _error_at(tok, "division by zero")
                den *= value
            elif kind == "NAME" and text == "pi2":
                if inv_pi2:
                    raise _error_at(tok, "repeated /pi2")
                self.advance()
                inv_pi2 = True
            else:
                self.fail("expected an integer or 'pi2' after '/'")
        return num, den, inv_pi2

    def parse_nested(self, opening: _Token) -> Node:
        """The expr inside a '(' or 'sumS4(' that `opening` starts."""
        if self.nesting == MAX_NESTING:
            raise _error_at(opening,
                            f"nesting deeper than {MAX_NESTING} levels")
        self.nesting += 1
        inner = self.parse_expr()
        self.nesting -= 1
        self.expect(")")
        self._reject_scalar_suffix()
        return inner

    def parse_primary(self) -> Node:
        tok = self.peek()
        kind, text, _, _ = tok
        if kind == "(":
            self.advance()
            return self.parse_nested(tok)
        if kind != "NAME":
            self.fail(f"expected a factor, found {_shown(tok)}")
        if text == "sumS4":
            self.advance()
            self.expect("(")
            self.sum_depth += 1
            body = self.parse_nested(tok)
            self.sum_depth -= 1
            return SumS4(body)
        if text not in ("MCL", "MCR", "X"):
            self.fail(f"unknown name {text!r}")
        self.advance()
        factor = 0
        if text != "X":
            self.expect("(")
            ftok = self.expect("NUMBER")
            factor = int(ftok[1])
            if not 1 <= factor <= MAX_FACTOR:
                raise _error_at(ftok,
                                f"factor index must lie in 1..{MAX_FACTOR}")
            self.expect(")")
        square = self.kind() == "^"
        if square:
            if text == "X":
                self.fail("the argument X cannot be squared")
            self.advance()
            two = self.expect("NUMBER")
            if two[1] != "2":
                raise _error_at(two, "only the power 2 is supported")
        if self.kind() != "[":
            self.fail("matrix-valued factor requires an entry selection [i,j]")
        self.advance()
        i = self.parse_index()
        self.expect(",")
        j = self.parse_index()
        self.expect("]")
        return EntrySel(text, factor, square, i, j)

    def _reject_scalar_suffix(self) -> None:
        kind = self.kind()
        if kind == "[":
            self.fail("entry selection applied to a scalar")
        if kind == "^":
            self.fail("power applied to a scalar")

    def parse_index(self) -> Union[int, str]:
        kind, text, _, _ = self.peek()
        if kind == "NUMBER":
            value = int(text)
            if not 1 <= value <= 4:
                self.fail("entry index must lie in 1..4")
            self.advance()
            return value
        if kind == "NAME" and text in _PLACEHOLDERS:
            if self.sum_depth == 0:
                self.fail(f"placeholder {text} is not bound by any sumS4")
            self.advance()
            return text
        self.fail("expected an entry index (1..4 or p1..p4)")


def parse(src: str) -> Node:
    """Parse a source string into an AST of Sum, Scale, Wedge and SumS4
    nodes over EntrySel leaves, raising FormSyntaxError with line:col on
    error."""
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    if parser.kind() != "EOF":
        parser.fail(f"unexpected trailing input {parser.peek()[1]!r}")
    return node


# ---------------------------------------------------------------------------
# interpreter


# The 24 permutations of 0..3 in itertools order: _PERMS[k, s] is the image
# of k under the s-th, _SIGNS[s] its sign, by its count of inversions.
_PERMS = np.array(list(itertools.permutations(range(4)))).T
_SIGNS = np.array([
    (-1.0) ** sum(x > y for x, y in itertools.combinations(p, 2))
    for p in _PERMS.T])

# An entry index over the permutation axis: a placeholder pk reads the
# image of k - 1 under each permutation, a fixed index k is the constant
# k - 1.
_INDEX = {**{k: np.array([k - 1]) for k in range(1, 5)},
          **{p: _PERMS[k] for k, p in enumerate(_PLACEHOLDERS)}}
# The same entry as one index 4 i + j into the 16 entries of a matrix.
_FLAT = {(i, j): 4 * _INDEX[i] + _INDEX[j] for i in _INDEX for j in _INDEX}


@dataclass(frozen=True)
class _Built:
    """A lowered subexpression: its degrees and an evaluator (pt, ts, X)
    -> ndarray with the stack axes of the point, then the permutation axis:
    of length 24 where a placeholder is free in the subexpression, of
    length 1 elsewhere."""

    form_degree: int
    x_degree: int
    fn: Callable


def _mc_matrix(node: EntrySel, level: int):
    """The evaluator (pt, ts) -> matrix of a Maurer-Cartan atom on one
    tangent, or of its square on two (`matrix_wedge_square`).  The atom's
    value depends only on its factor and tangent rep arrays, and is
    computed once per evaluation for them (`formcalc.cached`)."""
    if node.factor > level:
        raise FormDslError(
            f"factor index {node.factor} exceeds the level {level}")
    f = (mc_left if node.atom == "MCL" else mc_right)(node.factor, level).fn
    tag, k = node.atom, node.factor - 1

    def one(pt, ts):
        return cached(tag, (pt.factors[k], ts[0].reps[k]), f, pt, ts)

    form = FormEval(1, level, one)
    return (matrix_wedge_square(form) if node.square else form).fn


def _entry(node: EntrySel, level: int, sums: int) -> _Built:
    """An entry [i, j]: one index of the matrix by two arrays over the
    permutation axis ([p, p] takes the diagonal), or of a single matrix's
    16 entries by one array, which numpy serves about twice as fast."""
    free = [k for k in (node.i, node.j) if isinstance(k, str)]
    if free and not sums:
        raise FormDslError(f"placeholder {free[0]} is not bound by any sumS4")
    if node.i not in _INDEX or node.j not in _INDEX:
        raise FormDslError("entry index must lie in 1..4 or p1..p4")
    rows, cols = _INDEX[node.i], _INDEX[node.j]
    flat = _FLAT[node.i, node.j]

    def select(m):
        return m.reshape(16)[flat] if m.ndim == 2 else m[..., rows, cols]

    if node.atom == "X":
        return _Built(0, 1, lambda pt, ts, X: select(X))
    matrix = _mc_matrix(node, level)
    return _Built(2 if node.square else 1, 0,
                  lambda pt, ts, X: select(matrix(pt, ts)))


def _zeros(pt, ts, X) -> np.ndarray:
    """The evaluator of a zero form: zeros over the stack axes of the point,
    the tangents and X, then the permutation axis; it evaluates nothing."""
    mats = [*pt.factors, *(r for t in ts for r in t.reps)]
    if X is not None:
        mats.append(X)
    stack = np.broadcast_shapes(*(np.shape(m)[:-2] for m in mats))
    return np.zeros(stack + (1,))


def _plan_products(degrees: tuple[int, ...]) -> int:
    """The products in `formcalc.shuffle_product`'s fold plan for factors
    of these degrees: per step, each r-subset of the n slots times each
    s-subset of the rest."""
    n = sum(degrees)
    return sum(comb(n, r) * comb(n - r, s)
               for r, s in zip(itertools.accumulate(degrees), degrees[1:]))


def _build(node: Node, level: int, sums: int = 0,
           plans: Optional[dict] = None) -> _Built:
    """Lower node inside `sums` enclosing sumS4; plans maps the degrees of
    each distinct wedge plan lowered so far to its number of products."""
    if plans is None:
        plans = {}
    if isinstance(node, EntrySel):
        return _entry(node, level, sums)
    if isinstance(node, Wedge):
        # the shuffle sum of products; a form of degree above 6 level, the
        # dimension of SO(4)^level, is zero, as is a nested sum's body
        factors = [_build(f, level, sums, plans) for f in node.factors]
        degrees = [f.form_degree for f in factors]
        degree = sum(degrees)
        if degree > len(BASIS_PAIRS) * level:
            fn = _zeros
        elif degree > MAX_WEDGE_SLOTS:
            raise FormDslError(f"a wedge of {degree} tangent slots exceeds "
                               f"the limit of {MAX_WEDGE_SLOTS}")
        elif sums > 1:
            fn = _zeros
        else:
            plans.setdefault(tuple(degrees), _plan_products(degrees))
            total = sum(plans.values())
            if total > MAX_WEDGE_PRODUCTS:
                raise FormDslError(
                    f"the wedges of the expression hold {total} products, "
                    f"which exceeds the budget of {MAX_WEDGE_PRODUCTS}")
            fn = shuffle_product([f.fn for f in factors], degrees)
        return _Built(degree, sum(f.x_degree for f in factors), fn)
    if isinstance(node, Scale):
        inner = _build(node.body, level, sums, plans)
        factor = node.num / node.den
        if node.inv_pi2:
            factor /= pi ** 2
        fn = inner.fn
        return _Built(inner.form_degree, inner.x_degree,
                      lambda pt, ts, X: factor * fn(pt, ts, X))
    if isinstance(node, Sum):
        first = _build(node.terms[0], level, sums, plans)
        rest = []
        for term in node.terms[1:]:
            built = _build(term, level, sums, plans)
            if built.form_degree != first.form_degree:
                raise FormDslError("mixed form degrees in a sum")
            if built.x_degree != first.x_degree:
                raise FormDslError("mixed polynomial degrees in a sum")
            rest.append(built.fn)
        head = first.fn
        plus = [op == "+" for op in node.ops]

        def fn(pt, ts, X):
            total = head(pt, ts, X)
            for add, f in zip(plus, rest):
                total = (total + f(pt, ts, X) if add
                         else total - f(pt, ts, X))
            return total

        return _Built(first.form_degree, first.x_degree, fn)
    if isinstance(node, SumS4):
        body = _build(node.body, level, sums + 1, plans)
        if sums:
            # The enclosing sum puts a permutation image in place of every
            # placeholder of this body too, so its 24 summands are equal and
            # their signs cancel.
            return _Built(body.form_degree, body.x_degree, _zeros)
        bfn = body.fn

        def contract(pt, ts, X):
            v = bfn(pt, ts, X)
            stack = v.shape[:-1]
            # a contiguous copy, so that a stack sums in the order of a point
            full = np.ascontiguousarray(np.broadcast_to(v, stack + (24,)))
            return np.einsum("p,...p->...", _SIGNS, full).reshape(stack + (1,))

        return _Built(body.form_degree, body.x_degree, contract)
    raise FormDslError(f"cannot interpret node {node!r}")


def _value(v):
    """A form value, off the permutation axis: a float for a single point,
    an array for a stack."""
    return v[..., 0][()]


def interpret(node: Node, level: int):
    """Lower an AST to a FormEval, or an EquivariantForm when X occurs.

    The AST is lowered once; evaluating the returned form, or the form an
    EquivariantForm returns for a given X, lowers nothing again.  Each
    evaluation computes every Maurer-Cartan atom once per factor and
    tangent rep arrays.
    """
    built = _build(node, level)
    degree, fn = built.form_degree, built.fn
    if built.x_degree == 0:
        return FormEval(degree, level,
                        lambda pt, ts: _value(fn(pt, ts, None)))

    return EquivariantForm(
        level=level, form_degree=degree, poly_degree=built.x_degree,
        eval=lambda X: FormEval(degree, level,
                                lambda pt, ts: _value(fn(pt, ts, X))))


def max_factor_index(node: Node) -> int:
    """Largest Maurer-Cartan factor index used (0 when none occur)."""
    if isinstance(node, EntrySel):
        return node.factor
    if isinstance(node, (SumS4, Scale)):
        return max_factor_index(node.body)
    if isinstance(node, Wedge):
        return max(max_factor_index(f) for f in node.factors)
    return max(max_factor_index(t) for t in node.terms)


# ---------------------------------------------------------------------------
# shipped expression corpus

CORPUS_NAMES = ("e13.form", "e22.form", "mu.form")


def corpus_source(name: str) -> str:
    """Source text of one of the shipped .form files; a FormDslError names
    a file the installed package lacks."""
    res = importlib.resources.files("nervecheck").joinpath("expressions", name)
    try:
        return res.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormDslError(
            f"bundled expression file {name!r} cannot be read: {exc}") from None
