"""Small expression language for cylinder functionals of the increments.

Surface syntax::

    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := "-" factor | atom
    atom    := NUMBER | x<i> | h<k> "(" x<i> ")" | "(" expr ")"
    input   := expr | "[" expr ("," expr)* "]"

``x<i>`` is the i-th Gaussian increment, ``h<k>(x<i>)`` the k-th Hermite
polynomial of it, and a bracketed list is a vector functional.  Operators
have the usual precedence; ``*`` is the pointwise product, which in the
chaos algebra expands through the Hermite linearization.

Parsing reports syntax errors with line, column, and the expected token
set; groups left unclosed are reported at the opening bracket.  Lowering
into the algebra happens against a configured ambient dimension, the
algebra's fixed degree cap and a product budget, and violations carry the
source span of the offending node.  A product ``p * q`` of lowered
operands is formed only when ``len(p) * len(q)``, the number of monomial
pairs the Hermite linearization visits, is at most
:data:`PRODUCT_PAIR_BUDGET`; the pair count bounds both the work and the
number of terms the product can hold.

Parsing and lowering recurse over the input's nesting, but on an
explicit stack (:func:`_descend`), so no input depth reaches Python's
recursion limit: any text either succeeds or raises :class:`DslError` or
the algebra's ``AlgebraError``.  The tree nodes are plain frozen
dataclasses: their ``==``, ``hash`` and ``repr`` recurse once per level, so
a tree several hundred levels deep can only be parsed and lowered.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .chaos import _TERM_BUDGET, ChaosPoly, DEGREE_CAP, DegreeCapExceeded, hermite_product
from .malliavin import VField


class DslError(ValueError):
    """Base for parse and lowering failures."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class DslSyntaxError(DslError):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.expected = tuple(expected)
        if self.expected:
            message = f"{message}; expected {', '.join(self.expected)}"
        super().__init__(message, line, col)


class DslSemanticError(DslError):
    """The expression parsed but violates the dimension, the degree cap or the product budget."""


#: Most monomial pairs one ``*`` of lowered operands may expand; ``refine``
#: holds its terms to the same budget.
PRODUCT_PAIR_BUDGET = _TERM_BUDGET


# ----------------------------------------------------------------- stack


def _descend(step):
    """Run a recursion written as generators on an explicit stack.

    A step is a generator that yields the generator of each sub-step and is
    sent that sub-step's result back; its return value is the step's result.
    Nesting depth then costs heap memory instead of interpreter frames.
    """
    stack, value = [step], None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


# ----------------------------------------------------------------- tokens

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<symbol>[+\-*()\[\],])"
    r"|(?P<space>[ \t]+)"
    r"|(?P<newline>\n)"
)


@dataclass(frozen=True)
class Token:
    kind: str  # number, var, herm, symbol, end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        pos = m.end()
        if m.lastgroup == "space":
            col += len(m.group())
            continue
        if m.lastgroup == "newline":
            line += 1
            col = 1
            continue
        tok_text = m.group()
        if m.lastgroup == "number":
            tokens.append(Token("number", tok_text, line, col))
        elif m.lastgroup == "name":
            if re.fullmatch(r"x\d+", tok_text):
                tokens.append(Token("var", tok_text, line, col))
            elif re.fullmatch(r"h\d+", tok_text):
                tokens.append(Token("herm", tok_text, line, col))
            else:
                raise DslSyntaxError(
                    f"unknown name {tok_text!r}", line, col,
                    expected=("x<i>", "h<k>(x<i>)", "number"),
                )
        else:
            tokens.append(Token(tok_text, tok_text, line, col))
        col += len(tok_text)
    tokens.append(Token("end", "", line, col))
    return tokens


# -------------------------------------------------------------------- AST


@dataclass(frozen=True)
class Literal:
    value: float
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Variable:
    index: int
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Hermite:
    order: int
    index: int
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Unary:
    operand: object
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True)
class Vector:
    items: tuple
    span: tuple[int, int] = field(compare=False, default=(0, 0))


# ------------------------------------------------------------------ parser


class _Parser:
    """Recursive descent; every ``parse_*`` method is a :func:`_descend` step."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.open_groups: list[Token] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected) -> None:
        tok = self.peek()
        if tok.kind == "end" and self.open_groups:
            opener = self.open_groups[-1]
            raise DslSyntaxError(
                f"unclosed {opener.text!r}", opener.line, opener.col,
                expected=expected,
            )
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise DslSyntaxError(f"unexpected {what}", tok.line, tok.col, expected=expected)

    def expect(self, kind: str, expected) -> Token:
        if self.peek().kind != kind:
            self.fail(expected)
        return self.advance()

    def parse_input(self):
        if self.peek().kind == "[":
            node = yield self.parse_vector()
        else:
            node = yield self.parse_expr()
        if self.peek().kind != "end":
            self.fail(("operator", "end of input"))
        return node

    def parse_vector(self):
        opener = self.advance()
        self.open_groups.append(opener)
        items = [(yield self.parse_expr())]
        while self.peek().kind == ",":
            self.advance()
            items.append((yield self.parse_expr()))
        if self.peek().kind != "]":
            self.fail(("','", "']'"))
        self.advance()
        self.open_groups.pop()
        return Vector(tuple(items), span=(opener.line, opener.col))

    def parse_expr(self):
        node = yield self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = yield self.parse_term()
            node = Binary(op.kind, node, right, span=(op.line, op.col))
        return node

    def parse_term(self):
        node = yield self.parse_factor()
        while self.peek().kind == "*":
            op = self.advance()
            right = yield self.parse_factor()
            node = Binary("*", node, right, span=(op.line, op.col))
        return node

    def parse_factor(self):
        if self.peek().kind == "-":
            op = self.advance()
            return Unary((yield self.parse_factor()), span=(op.line, op.col))
        return (yield self.parse_atom())

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Literal(float(tok.text), span=(tok.line, tok.col))
        if tok.kind == "var":
            self.advance()
            return Variable(_suffix(tok), span=(tok.line, tok.col))
        if tok.kind == "herm":
            self.advance()
            self.expect("(", ("'('",))
            self.open_groups.append(tok)
            var = self.peek()
            if var.kind != "var":
                self.fail(("x<i>",))
            self.advance()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.advance()
            self.open_groups.pop()
            return Hermite(_suffix(tok), _suffix(var), span=(tok.line, tok.col))
        if tok.kind == "(":
            self.advance()
            self.open_groups.append(tok)
            node = yield self.parse_expr()
            if self.peek().kind != ")":
                self.fail(("')'", "operator"))
            self.advance()
            self.open_groups.pop()
            return node
        self.fail(("number", "x<i>", "h<k>(x<i>)", "'('", "'-'"))


def _suffix(tok: Token) -> int:
    """The integer after the letter of an ``x<i>`` or ``h<k>`` token."""
    try:
        return int(tok.text[1:])
    except ValueError:  # more digits than the interpreter converts
        raise DslSemanticError(
            f"{tok.text[:8]}... has too many digits", tok.line, tok.col
        ) from None


def parse_functional(text: str):
    """Parse source text into a functional expression tree."""
    return _descend(_Parser(_tokenize(text)).parse_input())


# ---------------------------------------------------------------- lowering


def _finite_value(node: Literal) -> float:
    if not math.isfinite(node.value):
        raise DslSemanticError(f"literal {node.value!r} is not a finite number", *node.span)
    return node.value


def _check_index(index: int, n: int, span) -> None:
    if index < 1:
        raise DslSemanticError(f"variable index must be at least 1, got x{index}", *span)
    if index > n:
        raise DslSemanticError(
            f"variable x{index} exceeds the configured dimension n={n}", *span
        )


def lower(node, n: int):
    """Evaluate the tree in the chaos algebra over n coordinates.

    Scalar expressions produce a ChaosPoly, vector literals a VField.
    Dimension, degree-cap and product-budget violations raise
    :class:`DslSemanticError` pointing at the offending source span; the cap
    is the algebra's fixed :data:`~wienerlab.chaos.DEGREE_CAP`, the budget
    :data:`PRODUCT_PAIR_BUDGET`.
    """
    if isinstance(node, Vector):
        return VField(tuple(_descend(_lower_scalar(item, n)) for item in node.items))
    return _descend(_lower_scalar(node, n))


def _lower_scalar(node, n: int):
    if isinstance(node, Literal):
        return ChaosPoly.constant(n, _finite_value(node))
    if isinstance(node, Variable):
        _check_index(node.index, n, node.span)
        return ChaosPoly.coordinate(n, node.index)
    if isinstance(node, Hermite):
        _check_index(node.index, n, node.span)
        if node.order > DEGREE_CAP:
            raise DslSemanticError(
                f"Hermite order {node.order} exceeds the degree cap {DEGREE_CAP}", *node.span
            )
        return ChaosPoly.hermite(n, node.index, node.order)
    if isinstance(node, Unary):
        return (yield _lower_scalar(node.operand, n)) * -1.0
    if isinstance(node, Binary):
        left = yield _lower_scalar(node.left, n)
        right = yield _lower_scalar(node.right, n)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if (pairs := len(left.packed_terms) * len(right.packed_terms)) > PRODUCT_PAIR_BUDGET:
            raise DslSemanticError(
                f"product of {len(left.packed_terms)} and {len(right.packed_terms)} terms"
                f" expands {pairs:,} monomial pairs, past the budget of {PRODUCT_PAIR_BUDGET:,}",
                *node.span,
            )
        try:
            return hermite_product(left, right)
        except DegreeCapExceeded as exc:
            raise DslSemanticError(
                f"product exceeds the degree cap {DEGREE_CAP} (degree {exc.degree})",
                *node.span,
            ) from exc
    if isinstance(node, Vector):
        raise DslSemanticError("vector literals cannot be nested", *node.span)
    raise TypeError(f"not a functional node: {node!r}")
