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
MAX_DIGITS ASCII digits, a factor index k at most MAX_FACTOR, and
parentheses and sumS4 nest at most MAX_NESTING deep.

A sumS4 binds every placeholder in its body, the bodies of sumS4 nested in
it included.  A nested sumS4 therefore adds 24 equal terms whose signs
cancel: it evaluates to zero.

`parse` produces a plain AST; `interpret` lowers it once to an evaluator
(pt, tangents, X) -> ndarray in one fixed layout: the stack axes of a
stacked point, then four axes, the k-th for the placeholder pk, of length
4 where pk is free in the subexpression and of length 1 elsewhere.  An
entry [i,j] indexes the matrix with two arrays over those axes (`[p1,p1]`
takes the diagonal); a wedge is one left fold of broadcast products over
all its factors (`formcalc.shuffle_product`), which evaluates each factor
once per set of tangents, and `+`/`-` broadcast too; an outermost sumS4
contracts its body with the Levi-Civita tensor eps[a,b,c,d].  A nested
sumS4, like a wedge above the degree 6p of SO(4)^p, is the zero form and
evaluates nothing.  `interpret` returns a FormEval, or an EquivariantForm
exactly when X occurs; evaluating either lowers nothing again, and
returns one value per stacked point.
"""

from __future__ import annotations

import importlib.resources
import itertools
from dataclasses import dataclass
from math import pi
from typing import Callable, Union

import numpy as np

from .cartanmodel import EquivariantForm
from .formcalc import (FormEval, matrix_wedge_square, mc_left, mc_right,
                       shuffle_product)
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
class MCLAtom:
    factor: int


@dataclass(frozen=True)
class MCRAtom:
    factor: int


@dataclass(frozen=True)
class XAtom:
    pass


@dataclass(frozen=True)
class Square:
    base: Union[MCLAtom, MCRAtom]


@dataclass(frozen=True)
class EntrySel:
    base: Union[MCLAtom, MCRAtom, XAtom, Square]
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


@dataclass(frozen=True)
class _Token:
    kind: str          # NUMBER, NAME, or the punctuation itself
    text: str
    line: int
    col: int


_PUNCT = set("+-/()[],^")
_DIGITS = set("0123456789")
# A coefficient n/d becomes a float, which a longer numerator could overflow.
MAX_DIGITS = 18

# The deepest nesting of parentheses and sumS4 the parser accepts: it
# recurses once per level, and the lowering and evaluation do too.
MAX_NESTING = 64

# The largest factor index k of MCL(k)/MCR(k).  `nervecheck eval` builds a
# point with that many factors, so the index bounds its time and memory.
MAX_FACTOR = 64


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise FormSyntaxError(
                    f"number longer than {MAX_DIGITS} digits", line, col)
            tokens.append(_Token("NUMBER", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and (src[j].isalnum()):
                j += 1
            tokens.append(_Token("NAME", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise FormSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.sum_depth = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return self.advance()

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise FormSyntaxError(message, tok.line, tok.col)

    # expr := term (('+' | '-') term)*
    def parse_expr(self) -> Node:
        terms = [self.parse_term()]
        ops = []
        while self.peek().kind in ("+", "-"):
            ops.append(self.advance().kind)
            terms.append(self.parse_term())
        return Sum(tuple(terms), tuple(ops)) if ops else terms[0]

    # term := ['-'] [coeff] primary+
    def parse_term(self) -> Node:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        coeff = None
        if self.peek().kind == "NUMBER":
            coeff = self.parse_coeff()
        factors = [self.parse_primary()]
        while self.peek().kind in ("NAME", "("):
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
        num = int(self.expect("NUMBER").text)
        den = 1
        inv_pi2 = False
        while self.peek().kind == "/":
            self.advance()
            tok = self.peek()
            if tok.kind == "NUMBER":
                value = int(self.advance().text)
                if value == 0:
                    raise FormSyntaxError("division by zero", tok.line, tok.col)
                den *= value
            elif tok.kind == "NAME" and tok.text == "pi2":
                if inv_pi2:
                    raise FormSyntaxError("repeated /pi2", tok.line, tok.col)
                self.advance()
                inv_pi2 = True
            else:
                self.fail("expected an integer or 'pi2' after '/'")
        return num, den, inv_pi2

    def parse_nested(self, opening: _Token) -> Node:
        """The expr inside a '(' or 'sumS4(' that `opening` starts."""
        if self.nesting == MAX_NESTING:
            raise FormSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels",
                opening.line, opening.col)
        self.nesting += 1
        inner = self.parse_expr()
        self.nesting -= 1
        self.expect(")")
        self._reject_scalar_suffix()
        return inner

    def parse_primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            return self.parse_nested(tok)
        if tok.kind != "NAME":
            self.fail(f"expected a factor, found {tok.text or 'end of input'!r}")
        if tok.text == "sumS4":
            self.advance()
            self.expect("(")
            self.sum_depth += 1
            body = self.parse_nested(tok)
            self.sum_depth -= 1
            return SumS4(body)
        if tok.text in ("MCL", "MCR"):
            self.advance()
            self.expect("(")
            ftok = self.expect("NUMBER")
            factor = int(ftok.text)
            if not 1 <= factor <= MAX_FACTOR:
                raise FormSyntaxError(
                    f"factor index must lie in 1..{MAX_FACTOR}",
                    ftok.line, ftok.col)
            self.expect(")")
            atom = MCLAtom(factor) if tok.text == "MCL" else MCRAtom(factor)
            base: Union[MCLAtom, MCRAtom, Square] = atom
            if self.peek().kind == "^":
                self.advance()
                two = self.expect("NUMBER")
                if two.text != "2":
                    raise FormSyntaxError("only the power 2 is supported",
                                          two.line, two.col)
                base = Square(atom)
            return self.parse_entry(base)
        if tok.text == "X":
            self.advance()
            if self.peek().kind == "^":
                nxt = self.peek()
                raise FormSyntaxError("the argument X cannot be squared",
                                      nxt.line, nxt.col)
            return self.parse_entry(XAtom())
        self.fail(f"unknown name {tok.text!r}")

    def _reject_scalar_suffix(self) -> None:
        tok = self.peek()
        if tok.kind == "[":
            raise FormSyntaxError("entry selection applied to a scalar",
                                  tok.line, tok.col)
        if tok.kind == "^":
            raise FormSyntaxError("power applied to a scalar",
                                  tok.line, tok.col)

    def parse_entry(self, base) -> EntrySel:
        tok = self.peek()
        if tok.kind != "[":
            raise FormSyntaxError(
                "matrix-valued factor requires an entry selection [i,j]",
                tok.line, tok.col)
        self.advance()
        i = self.parse_index()
        self.expect(",")
        j = self.parse_index()
        self.expect("]")
        return EntrySel(base, i, j)

    def parse_index(self) -> Union[int, str]:
        tok = self.peek()
        if tok.kind == "NUMBER":
            value = int(self.advance().text)
            if not 1 <= value <= 4:
                raise FormSyntaxError("entry index must lie in 1..4",
                                      tok.line, tok.col)
            return value
        if tok.kind == "NAME" and tok.text in ("p1", "p2", "p3", "p4"):
            if self.sum_depth == 0:
                raise FormSyntaxError(
                    f"placeholder {tok.text} is not bound by any sumS4",
                    tok.line, tok.col)
            self.advance()
            return tok.text
        self.fail("expected an entry index (1..4 or p1..p4)")


def parse(src: str) -> Node:
    """Parse a source string, raising FormSyntaxError with line:col on error."""
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise FormSyntaxError(f"unexpected trailing input {tok.text!r}",
                              tok.line, tok.col)
    return node


# ---------------------------------------------------------------------------
# interpreter


def _levi_civita() -> np.ndarray:
    """eps[a, b, c, d]: the sign of the permutation (a, b, c, d) of 0..3,
    by its count of inversions."""
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


_EPS = _levi_civita()


def _index(k: Union[int, str]) -> np.ndarray:
    """An entry index over the four placeholder axes: a placeholder pk runs
    0..3 along the k-th of them, a fixed index is constant."""
    if isinstance(k, str):
        return np.arange(4).reshape([4 if p == k else 1
                                     for p in ("p1", "p2", "p3", "p4")])
    return np.full((1, 1, 1, 1), k - 1)


@dataclass(frozen=True)
class _Built:
    """A lowered subexpression: its degrees and an evaluator (pt, ts, X) ->
    ndarray with the stack axes of the point, then four axes, the k-th for
    the placeholder pk: of length 4 where pk is free in the subexpression,
    of length 1 elsewhere."""

    form_degree: int
    x_degree: int
    fn: Callable


def _mc_atom(atom: Union[MCLAtom, MCRAtom], level: int):
    if atom.factor > level:
        raise FormDslError(
            f"factor index {atom.factor} exceeds the level {level}")
    return (mc_left if isinstance(atom, MCLAtom) else mc_right)(
        atom.factor, level)


def _entry(node: EntrySel, level: int, in_sum: bool) -> _Built:
    """An entry [i, j]: one index of the matrix by two arrays over the
    placeholder axes ([p, p] takes the diagonal)."""
    free = [k for k in (node.i, node.j) if isinstance(k, str)]
    if free and not in_sum:
        raise FormDslError(f"placeholder {free[0]} is not bound by any sumS4")
    for k in (node.i, node.j):
        if not isinstance(k, str) and not 1 <= k <= 4:
            raise FormDslError("entry index must lie in 1..4")
    base = node.base
    if isinstance(base, XAtom):
        degree, x_degree = 0, 1
        matrix = lambda pt, ts, X: X
    else:
        form = _mc_atom(base.base if isinstance(base, Square) else base, level)
        if isinstance(base, Square):
            form = matrix_wedge_square(form)
        degree, x_degree, mfn = form.degree, 0, form.fn
        matrix = lambda pt, ts, X: mfn(pt, ts)
    rows, cols = _index(node.i), _index(node.j)
    return _Built(degree, x_degree,
                  lambda pt, ts, X: matrix(pt, ts, X)[..., rows, cols])


def _zeros(pt, ts, X) -> np.ndarray:
    """The evaluator of a zero form: zeros over the stack axes of the point,
    the tangents and X, then the placeholder axes; it evaluates nothing."""
    mats = [*pt.factors, *(r for t in ts for r in t.reps)]
    if X is not None:
        mats.append(X)
    stack = np.broadcast_shapes(*(np.shape(m)[:-2] for m in mats))
    return np.zeros(stack + (1,) * 4)


def _build(node: Node, level: int, in_sum: bool = False) -> _Built:
    if isinstance(node, EntrySel):
        return _entry(node, level, in_sum)
    if isinstance(node, Wedge):
        # the shuffle sum of products; a form of degree above 6 level, the
        # dimension of SO(4)^level, is zero
        factors = [_build(f, level, in_sum) for f in node.factors]
        degrees = [f.form_degree for f in factors]
        degree = sum(degrees)
        if degree > len(BASIS_PAIRS) * level:
            fn = _zeros
        else:
            fn = shuffle_product([f.fn for f in factors], degrees)
        return _Built(degree, sum(f.x_degree for f in factors), fn)
    if isinstance(node, Scale):
        inner = _build(node.body, level, in_sum)
        factor = node.num / node.den
        if node.inv_pi2:
            factor /= pi ** 2
        fn = inner.fn
        return _Built(inner.form_degree, inner.x_degree,
                      lambda pt, ts, X: factor * fn(pt, ts, X))
    if isinstance(node, Sum):
        first = _build(node.terms[0], level, in_sum)
        rest = []
        for term in node.terms[1:]:
            built = _build(term, level, in_sum)
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
                total = total + f(pt, ts, X) if add else total - f(pt, ts, X)
            return total

        return _Built(first.form_degree, first.x_degree, fn)
    if isinstance(node, SumS4):
        body = _build(node.body, level, True)
        if in_sum:
            # The enclosing sum puts a permutation image in place of every
            # placeholder of this body too, so its 24 summands are equal and
            # their signs cancel.
            return _Built(body.form_degree, body.x_degree, _zeros)
        bfn = body.fn

        def contract(pt, ts, X):
            v = bfn(pt, ts, X)
            stack = v.shape[:-4]
            # a contiguous copy, so that a stack sums in the order of a point
            full = np.ascontiguousarray(np.broadcast_to(v, stack + (4,) * 4))
            total = np.einsum("abcd,...abcd->...", _EPS, full)
            return total.reshape(stack + (1,) * 4)

        return _Built(body.form_degree, body.x_degree, contract)
    raise FormDslError(f"cannot interpret node {node!r}")


def _value(v):
    """A form value, off the placeholder axes: a float for a single point,
    an array for a stack."""
    return v[..., 0, 0, 0, 0][()]


def interpret(node: Node, level: int):
    """Lower an AST to a FormEval, or an EquivariantForm when X occurs.

    The AST is lowered once; evaluating the returned form, or the form an
    EquivariantForm returns for a given X, lowers nothing again.
    """
    built = _build(node, level)
    degree, fn = built.form_degree, built.fn
    if built.x_degree == 0:
        return FormEval(degree, level, lambda pt, ts: _value(fn(pt, ts, None)))

    def at(X):
        X = np.array(X, dtype=float)
        return FormEval(degree, level, lambda pt, ts: _value(fn(pt, ts, X)))

    return EquivariantForm(level=level, form_degree=degree,
                           poly_degree=built.x_degree, eval=at)


def max_factor_index(node: Node) -> int:
    """Largest Maurer-Cartan factor index used (0 when none occur)."""
    if isinstance(node, (MCLAtom, MCRAtom)):
        return node.factor
    if isinstance(node, Square):
        return max_factor_index(node.base)
    if isinstance(node, EntrySel):
        return max_factor_index(node.base)
    if isinstance(node, SumS4):
        return max_factor_index(node.body)
    if isinstance(node, Wedge):
        return max(max_factor_index(f) for f in node.factors)
    if isinstance(node, Scale):
        return max_factor_index(node.body)
    if isinstance(node, Sum):
        return max(max_factor_index(t) for t in node.terms)
    return 0


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
