"""Expression language for elements: tokenizer, parser, printer, evaluator.

The grammar covers exact arithmetic over a twisted ground ring and its
extensions:

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  atom ('^' ('-')? integer)?
    atom    :=  integer | coords | name | name '(' expr (',' expr)* ')'
            |   '(' expr ')'
    coords  :=  '[' rational (',' rational)* ']'

Ground elements are written in bracketed coordinates (`[0,1]`), `t` is the
twisted variable, `x` the extension generator (needs a scenario context),
and the heads `sigma`, `embed` and `tau` apply the automorphism, the series
embedding and the evaluation at the series root.  Parsing canonical prints
reproduces the tree, and printing a parse is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Union

from . import kernel
from .errors import CapExceeded, ExprEvalError, ExprSyntaxError
from .extend import ExtensionScenario, TensorElement, ext_tau
from .ground import GroundElement, GroundField, _rational_str
from .laurent import TwistedSeries, embed_fraction
from .skewfrac import EXPONENT_CAP, FACTOR_DEGREE_CAP, PRECISION_CAP, SkewFraction

# ---------------------------------------------------------------------- tokens

_SYMBOLS = "+-*/^()[],"

# the most digits of an integer literal: CPython's default str -> int limit
LITERAL_DIGITS_CAP = 4300


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "name", one of _SYMBOLS, or "end"
    text: str
    column: int  # 1-based


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, pos + 1))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos - start > LITERAL_DIGITS_CAP:
                raise CapExceeded(f"integer literal of {pos - start} digits exceeds cap {LITERAL_DIGITS_CAP}")
            tokens.append(Token("num", text[start:pos], start + 1))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(Token("name", text[start:pos], start + 1))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos + 1)
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


# ------------------------------------------------------------------------- AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Coords:
    entries: tuple[Fraction, ...]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    head: str  # sigma | embed | tau
    args: tuple["Node", ...]


Node = Union[Num, Coords, Var, Neg, Bin, Pow, Call]

_HEADS = ("sigma", "embed", "tau")


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        column = tok.column
        if tok.kind == "end" and self.pos > 0:
            # point at the last real token, not at the void after it
            column = self.tokens[self.pos - 1].column
        raise ExprSyntaxError(message, column)

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            self.fail(f"expected {kind!r}")
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind in "*/":
            op = self.advance().kind
            node = Bin(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "num":
                self.fail("expected an integer exponent")
            self.advance()
            return Pow(base, sign * int(tok.text))
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(Fraction(int(tok.text)))
        if tok.kind == "[":
            return self.coords()
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in _HEADS:
                    raise ExprSyntaxError(
                        f"unknown function {tok.text!r}", tok.column
                    )
                self.advance()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                return Call(tok.text, tuple(args))
            return Var(tok.text)
        self.fail("expected an expression")
        raise AssertionError("unreachable")

    def coords(self) -> Node:
        self.expect("[")
        entries = [self.rational()]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.rational())
        self.expect("]")
        return Coords(tuple(entries))

    def rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "num":
            self.fail("expected a rational number")
        self.advance()
        value = Fraction(sign * int(tok.text))
        if self.peek().kind == "/":
            self.advance()
            den = self.peek()
            if den.kind != "num" or int(den.text) == 0:
                self.fail("expected a nonzero denominator")
            self.advance()
            value = value / int(den.text)
        return value


def parse_expr(text: str) -> Node:
    return _Parser(tokenize(text)).parse()


# --------------------------------------------------------------------- printer

# precedence levels: additive 1, multiplicative 2, unary minus 3, power 4
def _print(node: Node, context: int) -> str:
    if isinstance(node, Num):
        out = _rational_str(node.value)
        need = 2 if node.value.denominator != 1 else 5
    elif isinstance(node, Coords):
        out = "[" + ",".join(map(_rational_str, node.entries)) + "]"
        need = 5
    elif isinstance(node, Var):
        out = node.name
        need = 5
    elif isinstance(node, Call):
        out = f"{node.head}(" + ", ".join(_print(a, 0) for a in node.args) + ")"
        need = 5
    elif isinstance(node, Neg):
        out = "-" + _print(node.operand, 4)
        need = 3
    elif isinstance(node, Pow):
        out = _print(node.base, 5) + "^" + str(node.exponent)
        need = 4
    elif isinstance(node, Bin):
        if node.op in "+-":
            need = 1
            left = _print(node.left, 1)
            right = _print(node.right, 2)
            out = f"{left} {node.op} {right}"
        else:
            need = 2
            left = _print(node.left, 2)
            right = _print(node.right, 3)
            out = f"{left}{node.op}{right}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({out})" if need < context else out


def print_expr(node: Node) -> str:
    return _print(node, 0)


# ------------------------------------------------------------------- evaluator

Value = Union[SkewFraction, TensorElement, TwistedSeries]


@dataclass
class EvalContext:
    """Where names live: a ground field, optionally an extension scenario."""

    field: GroundField
    scenario: ExtensionScenario | None = None
    precision: int = 16

    def __post_init__(self) -> None:
        _capped(self.precision, PRECISION_CAP, "series precision")


def _capped(value: int, cap: int, what: str) -> int:
    if abs(value) > cap:
        raise CapExceeded(f"{what} {value} exceeds cap {cap}")
    return value


def ground_symbols(field: GroundField) -> dict[str, GroundElement]:
    """Letter names for non-rational basis directions.

    Quaternion algebras use the traditional i, j, k; a quadratic ground
    field names its adjoined generator w, plus the alias i when it squares
    to -1.
    """
    symbols: dict[str, GroundElement] = {}
    if field.dim == 4:
        symbols["i"] = field.basis_element(1)
        symbols["j"] = field.basis_element(2)
        symbols["k"] = field.basis_element(3)
    elif field.dim == 2:
        w = field.basis_element(1)
        symbols["w"] = w
        if w * w == -field.one():
            symbols["i"] = w
    return symbols


def _degree(value: Value) -> int:
    """The degree in t of a fraction (the larger of its parts' degrees);
    0 for a series, whose precision is capped, and an extension element."""
    return value.size() if isinstance(value, SkewFraction) else 0


def _is_fraction(value: Value) -> bool:
    return isinstance(value, SkewFraction) and not value.is_polynomial()


def _is_constant(value: Value) -> bool:
    return isinstance(value, SkewFraction) and value.size() == 0


# The degree of a result is bounded before it is formed.  Polynomial products
# and powers are cheap and may reach PRECISION_CAP, as many coefficients as a
# series holds.  Arithmetic on fractions runs Ore common multiples and gcld,
# whose cost grows steeply with the degree, so a sum, product, quotient or
# power that involves a denominator may reach twice FACTOR_DEGREE_CAP: enough
# to combine two of the fractions a scenario file may hold.
_FRACTION_DEGREE_CAP = 2 * FACTOR_DEGREE_CAP


def _bound_degree(degree: int, fraction: bool, what: str) -> None:
    _capped(degree, _FRACTION_DEGREE_CAP if fraction else PRECISION_CAP, what)


# The Ore steps of a fraction + - * / grow with degree and coefficient size
# together, and so do the row convolutions and reductions modulo f of a
# product of extension elements.  So (deg a + deg b) * (bits a + bits b) is
# bounded before they run: for a fraction, deg is its degree in t and bits the
# largest bit length in its integer rows and denominators, and a product of
# two constants, of degree 0, still counts its bits once; for an extension
# element c(t^n)^-1 * sum P_i x^i, deg is the larger u-degree of c and of the
# P_i, and bits the largest bit length in c, the P_i and their denominator.
# An inverse of an extension element runs through its reduced norm over the
# center, of degree k = m*d (m the reduced degree of the ground field, d the
# degree of f), whose degree and bits grow to about k times the element's, so
# it counts as (k deg) * (k bits).  A power bounds each of its products.
FRACTION_WORK_CAP = 2**15
TENSOR_WORK_CAP = 2**18


def _work_size(v: SkewFraction | TensorElement) -> tuple[int, int]:
    """(deg, bits) of a fraction or an extension element, as bounded above."""
    if isinstance(v, TensorElement):
        n = v.scenario.field.sigma_order
        degree = max([len(v.den) - 1, *((len(p) - 1) // n for p in v.rows)])
        return degree, max(x.bit_length() for x in chain(v.den, (v.over,), *chain(*v.rows)))
    return v.size(), max(x.bit_length() for rows, den in (v.num.int_rows(), v.den.int_rows()) for x in chain(*rows, (den,)))


def _bound_work(a: SkewFraction | TensorElement, b: SkewFraction | TensorElement) -> None:
    (da, ba), (db, bb) = _work_size(a), _work_size(b)
    if isinstance(a, TensorElement):
        _capped((da + db) * (ba + bb), TENSOR_WORK_CAP, "extension work")
    else:
        _capped(max(da + db, 1) * (ba + bb), FRACTION_WORK_CAP, "fraction work")


def _bounded_product(a: Value, b: Value) -> Value:
    """a * b, after the work bound of a product that involves an extension
    element, a fraction, or two constants; other polynomial products are
    bounded by their degree alone."""
    if isinstance(a, TensorElement) or _is_fraction(a) or _is_fraction(b) or _is_constant(a) and _is_constant(b):
        _bound_work(a, b)
    return a * b


def _bounded_inverse(value: Value) -> Value:
    if isinstance(value, TensorElement):
        deg, bits = _work_size(value)
        k = value.scenario.field.reduced_degree * value.scenario.degree
        _capped(k * deg * k * bits, TENSOR_WORK_CAP, "extension inverse work")
    return value.inv()


def _join(a: Value, b: Value, ctx: EvalContext) -> tuple[Value, Value]:
    """Lift a mixed pair to a common kind (fraction < tensor, fraction < series)."""
    if isinstance(a, TensorElement) and isinstance(b, TwistedSeries):
        raise ExprEvalError("cannot mix extension elements with series")
    if isinstance(a, TwistedSeries) and isinstance(b, TensorElement):
        raise ExprEvalError("cannot mix extension elements with series")
    if isinstance(a, TensorElement) and isinstance(b, SkewFraction):
        return a, TensorElement.make(a.scenario, [b])
    if isinstance(a, SkewFraction) and isinstance(b, TensorElement):
        return TensorElement.make(b.scenario, [a]), b
    if isinstance(a, TwistedSeries) and isinstance(b, SkewFraction):
        return a, embed_fraction(b, a.prec)
    if isinstance(a, SkewFraction) and isinstance(b, TwistedSeries):
        return embed_fraction(a, b.prec), b
    return a, b


def _as_literal_int(node: Node) -> int:
    if isinstance(node, Num) and node.value.denominator == 1:
        return node.value.numerator
    if isinstance(node, Neg):
        return -_as_literal_int(node.operand)
    raise ExprEvalError("expected an integer literal argument")


def _as_precision(args: tuple[Node, ...], ctx: EvalContext) -> int:
    if len(args) < 2:
        return ctx.precision
    return _capped(_as_literal_int(args[1]), PRECISION_CAP, "series precision")


def evaluate(node: Node, ctx: EvalContext) -> Value:
    """Evaluate to a fraction, an extension element, or a Laurent series."""
    if isinstance(node, Num):
        return SkewFraction.from_rational(ctx.field, node.value)
    if isinstance(node, Coords):
        if len(node.entries) != ctx.field.dim:
            raise ExprEvalError(
                f"{ctx.field.name} needs {ctx.field.dim} coordinates, "
                f"got {len(node.entries)}"
            )
        return SkewFraction.from_ground(ctx.field.element(node.entries))
    if isinstance(node, Var):
        if node.name == "t":
            return SkewFraction.t_power(ctx.field, 1)
        if node.name == "x":
            if ctx.scenario is None:
                raise ExprEvalError("x needs an extension scenario context")
            return TensorElement.x(ctx.scenario)
        symbols = ground_symbols(ctx.field)
        if node.name in symbols:
            return SkewFraction.from_ground(symbols[node.name])
        raise ExprEvalError(f"unknown name {node.name!r}")
    if isinstance(node, Neg):
        return -evaluate(node.operand, ctx)
    if isinstance(node, Pow):
        _capped(node.exponent, EXPONENT_CAP, "exponent")
        base = evaluate(node.base, ctx)
        _bound_degree(
            _degree(base) * abs(node.exponent),
            node.exponent < 0 or _is_fraction(base),
            "power degree",
        )
        if node.exponent < 0:
            base = _bounded_inverse(base)
        n = abs(node.exponent)
        if n and not isinstance(base, TwistedSeries):
            return kernel.power(base, n - 1, base, _bounded_product)
        return base ** n
    if isinstance(node, Bin):
        a, b = _join(evaluate(node.left, ctx), evaluate(node.right, ctx), ctx)
        if node.op == "/":
            b = _bounded_inverse(b)
        fraction = _is_fraction(a) or _is_fraction(b)
        if node.op in "+-":
            # a sum of polynomials keeps the larger degree, already bounded
            if fraction:
                _capped(_degree(a) + _degree(b), _FRACTION_DEGREE_CAP, "sum degree")
                _bound_work(a, b)
            return a + b if node.op == "+" else a - b
        _bound_degree(_degree(a) + _degree(b), fraction, "product degree")
        return _bounded_product(a, b)
    if isinstance(node, Call):
        return _call(node, ctx)
    raise TypeError(f"not an expression node: {node!r}")


def _call(node: Call, ctx: EvalContext) -> Value:
    head, args = node.head, node.args
    if head == "sigma":
        if len(args) not in (1, 2):
            raise ExprEvalError("sigma takes an element and an optional power")
        power = _as_literal_int(args[1]) if len(args) == 2 else 1
        value = evaluate(args[0], ctx)
        if not isinstance(value, SkewFraction):
            raise ExprEvalError("sigma acts on ground fractions")
        return SkewFraction.make(
            value.num.apply_sigma(power), value.den.apply_sigma(power)
        )
    if head == "embed":
        if len(args) not in (1, 2):
            raise ExprEvalError("embed takes an element and an optional precision")
        precision = _as_precision(args, ctx)
        value = evaluate(args[0], ctx)
        if not isinstance(value, SkewFraction):
            raise ExprEvalError("embed acts on ground fractions")
        return embed_fraction(value, precision)
    if head == "tau":
        if len(args) not in (1, 2):
            raise ExprEvalError("tau takes an element and an optional precision")
        precision = _as_precision(args, ctx)
        value = evaluate(args[0], ctx)
        if isinstance(value, SkewFraction):
            if ctx.scenario is None:
                return embed_fraction(value, precision)
            value = TensorElement.make(ctx.scenario, [value])
        if not isinstance(value, TensorElement):
            raise ExprEvalError("tau acts on extension elements")
        return ext_tau(value, precision)
    raise ExprEvalError(f"unknown function {head!r}")


def evaluate_text(text: str, ctx: EvalContext) -> Value:
    return evaluate(parse_expr(text), ctx)
