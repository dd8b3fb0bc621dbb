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
sign, substituting the placeholders p1..p4 by the permutation images.
`n/d/pi2` scales by the rational n/d times 1/pi^2.

`parse` produces a plain AST; `interpret` lowers it to form evaluators,
returning an equivariant (polynomial) form exactly when X occurs.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from math import pi
from typing import Union

from .cartanmodel import EquivariantForm
from .formcalc import (FormEval, entry as entry_form, matrix_wedge_square,
                       mc_left, mc_right, wedge)
from .matrixgroup import s4_table


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
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


Node = Union[EntrySel, SumS4, Wedge, Scale, Add, Sub]


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str          # NUMBER, NAME, or the punctuation itself
    text: str
    line: int
    col: int


_PUNCT = set("+-/()[],^")


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
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
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
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

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

    def parse_primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            self._reject_scalar_suffix()
            return inner
        if tok.kind != "NAME":
            self.fail(f"expected a factor, found {tok.text or 'end of input'!r}")
        if tok.text == "sumS4":
            self.advance()
            self.expect("(")
            self.sum_depth += 1
            body = self.parse_expr()
            self.sum_depth -= 1
            self.expect(")")
            self._reject_scalar_suffix()
            return SumS4(body)
        if tok.text in ("MCL", "MCR"):
            self.advance()
            self.expect("(")
            ftok = self.expect("NUMBER")
            factor = int(ftok.text)
            if factor < 1:
                raise FormSyntaxError("factor index must be >= 1",
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
# pretty printer


def pretty(node: Node) -> str:
    """Canonical single-space rendering; parse(pretty(n)) == n."""
    if isinstance(node, Add):
        return f"{pretty(node.left)} + {pretty(node.right)}"
    if isinstance(node, Sub):
        return f"{pretty(node.left)} - {pretty(node.right)}"
    if isinstance(node, Scale):
        coeff = str(node.num)
        if node.den != 1:
            coeff += f"/{node.den}"
        if node.inv_pi2:
            coeff += "/pi2"
        return f"{coeff} {pretty(node.body)}"
    if isinstance(node, Wedge):
        return " ".join(pretty(f) for f in node.factors)
    if isinstance(node, SumS4):
        return f"sumS4( {pretty(node.body)} )"
    if isinstance(node, EntrySel):
        return f"{pretty(node.base)}[{node.i},{node.j}]"
    if isinstance(node, Square):
        return f"{pretty(node.base)}^2"
    if isinstance(node, MCLAtom):
        return f"MCL({node.factor})"
    if isinstance(node, MCRAtom):
        return f"MCR({node.factor})"
    if isinstance(node, XAtom):
        return "X"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# interpreter


@dataclass(frozen=True)
class _Built:
    """A lowered subexpression: degrees plus a builder keyed by X."""

    form_degree: int
    x_degree: int
    make: callable  # X (ndarray or None) -> FormEval


def _substitute(node: Node, images: tuple[int, int, int, int]) -> Node:
    """Replace p1..p4 by the permutation images throughout."""
    mapping = {"p1": images[0], "p2": images[1],
               "p3": images[2], "p4": images[3]}
    if isinstance(node, EntrySel):
        i = mapping.get(node.i, node.i) if isinstance(node.i, str) else node.i
        j = mapping.get(node.j, node.j) if isinstance(node.j, str) else node.j
        return EntrySel(node.base, i, j)
    if isinstance(node, SumS4):
        return SumS4(_substitute(node.body, images))
    if isinstance(node, Wedge):
        return Wedge(tuple(_substitute(f, images) for f in node.factors))
    if isinstance(node, Scale):
        return Scale(node.num, node.den, node.inv_pi2,
                     _substitute(node.body, images))
    if isinstance(node, Add):
        return Add(_substitute(node.left, images),
                   _substitute(node.right, images))
    if isinstance(node, Sub):
        return Sub(_substitute(node.left, images),
                   _substitute(node.right, images))
    return node


def _mc_atom(atom: Union[MCLAtom, MCRAtom], level: int):
    if atom.factor > level:
        raise FormDslError(
            f"factor index {atom.factor} exceeds the level {level}")
    return (mc_left if isinstance(atom, MCLAtom) else mc_right)(
        atom.factor, level)


def _build(node: Node, level: int) -> _Built:
    if isinstance(node, EntrySel):
        if isinstance(node.i, str) or isinstance(node.j, str):
            raise FormDslError("unsubstituted placeholder survived parsing")
        i, j = node.i, node.j
        base = node.base
        if isinstance(base, XAtom):
            def make_x(X, i=i, j=j):
                if X is None:
                    raise FormDslError("expression references X but no "
                                       "argument was supplied")
                value = float(X[i - 1, j - 1])
                return FormEval(0, level, lambda pt, ts: value)
            return _Built(0, 1, make_x)
        if isinstance(base, Square):
            inner = base.base
            matrix = _mc_atom(inner, level)
            form = entry_form(matrix_wedge_square(matrix), i, j)
            return _Built(2, 0, lambda X, f=form: f)
        form = entry_form(_mc_atom(base, level), i, j)
        return _Built(1, 0, lambda X, f=form: f)
    if isinstance(node, Wedge):
        parts = [_build(f, level) for f in node.factors]
        degree = sum(p.form_degree for p in parts)
        x_degree = sum(p.x_degree for p in parts)

        def make(X, parts=parts):
            form = parts[0].make(X)
            for p in parts[1:]:
                form = wedge(form, p.make(X))
            return form

        return _Built(degree, x_degree, make)
    if isinstance(node, Scale):
        inner = _build(node.body, level)
        factor = node.num / node.den
        if node.inv_pi2:
            factor /= pi ** 2
        return _Built(inner.form_degree, inner.x_degree,
                      lambda X, c=factor, b=inner: c * b.make(X))
    if isinstance(node, (Add, Sub)):
        left = _build(node.left, level)
        right = _build(node.right, level)
        if left.form_degree != right.form_degree:
            raise FormDslError("mixed form degrees in a sum")
        if left.x_degree != right.x_degree:
            raise FormDslError("mixed polynomial degrees in a sum")
        if isinstance(node, Add):
            make = lambda X, a=left, b=right: a.make(X) + b.make(X)
        else:
            make = lambda X, a=left, b=right: a.make(X) - b.make(X)
        return _Built(left.form_degree, left.x_degree, make)
    if isinstance(node, SumS4):
        terms = []
        first: _Built | None = None
        for perm in s4_table():
            built = _build(_substitute(node.body, perm.images), level)
            if first is None:
                first = built
            elif (built.form_degree, built.x_degree) != (
                    first.form_degree, first.x_degree):
                raise FormDslError("permutation sum mixes degrees")
            terms.append((float(perm.sign), built))

        def make(X, terms=terms):
            total = None
            for sign, built in terms:
                term = sign * built.make(X)
                total = term if total is None else total + term
            return total

        return _Built(first.form_degree, first.x_degree, make)
    raise FormDslError(f"cannot interpret node {node!r}")


def interpret(node: Node, level: int):
    """Lower an AST to a FormEval, or an EquivariantForm when X occurs."""
    built = _build(node, level)
    if built.x_degree == 0:
        return built.make(None)
    return EquivariantForm(
        level=level,
        form_degree=built.form_degree,
        poly_degree=built.x_degree,
        eval=lambda X: built.make(X),
    )


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
    if isinstance(node, (Add, Sub)):
        return max(max_factor_index(node.left), max_factor_index(node.right))
    return 0


# ---------------------------------------------------------------------------
# shipped expression corpus

CORPUS_NAMES = ("e13.form", "e22.form", "mu.form")


def corpus_source(name: str) -> str:
    """Source text of one of the shipped .form files."""
    res = importlib.resources.files("nervecheck").joinpath("expressions", name)
    return res.read_text(encoding="utf-8")
