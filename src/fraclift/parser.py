"""Expression front end: text -> AST -> generalized power series.

Grammar (EBNF), conventional infix with ^ binding tightest and
right-associative:

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | "x" | NAME "(" expr ")" | "(" expr ")" ;
    NAME    = "exp" | "sin" | "cos" ;

Real (non-integer) exponents are permitted only on the centered variable
atom x or (x - a) where a is the expansion base point; arbitrary
subexpressions may be raised to nonnegative integer powers. Division is by
nonzero constants only. These restrictions keep every expressible function a
single-lattice generalized power series.

Series expansion works in exact rational arithmetic (fractions.Fraction)
wherever the inputs are rational, so Cauchy products of intrinsic jets carry
no rounding at all; coefficients convert to floats only at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .coeffseq import GenSeries, Term, _congruent_mod_1
from .errors import ExpansionError, LatticeError, ParseError

_INTRINSICS = ("exp", "sin", "cos")


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Sub:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Mul:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Div:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# --------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    value: float
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ParseError("bad number %r" % lit, line, col)
            tokens.append(_Token("num", lit, val, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(_Token("name", text[i:j], 0.0, line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, 0.0, line, col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("end", "", 0.0, line, col))
    return tokens


# --------------------------------------------------------------------------
# Parser (recursive descent)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect_op(self, text):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError("expected %r" % text, tok.line, tok.column)
        return self.advance()

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Pow(base, self.unary())  # right-associative
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(tok.value)
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text in _INTRINSICS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise ParseError("unknown identifier %r" % tok.text,
                             tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected expression", tok.line, tok.column)


def parse(text: str):
    """Parse an expression into its AST; errors carry line and column."""
    p = _Parser(_tokenize(text))
    node = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError("unexpected trailing input %r" % tok.text,
                         tok.line, tok.column)
    return node


# --------------------------------------------------------------------------
# Printer


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _num_text(v):
    if v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(node, need):
    if isinstance(node, Num):
        return _num_text(node.value), _PREC_ATOM
    if isinstance(node, Var):
        return "x", _PREC_ATOM
    if isinstance(node, Call):
        inner, _ = _print(node.arg, 0)
        return "%s(%s)" % (node.func, inner), _PREC_ATOM

    def wrap(child, childneed):
        text, prec = _print(child, childneed)
        if prec < childneed:
            return "(" + text + ")"
        return text

    # right children of the left-associative operators print one level
    # tighter so chains like Mul(a, Div(b, c)) re-parse to the same tree
    if isinstance(node, Add):
        return "%s + %s" % (wrap(node.lhs, _PREC_ADD), wrap(node.rhs, _PREC_ADD + 1)), _PREC_ADD
    if isinstance(node, Sub):
        return "%s - %s" % (wrap(node.lhs, _PREC_ADD), wrap(node.rhs, _PREC_ADD + 1)), _PREC_ADD
    if isinstance(node, Mul):
        return "%s * %s" % (wrap(node.lhs, _PREC_MUL), wrap(node.rhs, _PREC_MUL + 1)), _PREC_MUL
    if isinstance(node, Div):
        return "%s / %s" % (wrap(node.lhs, _PREC_MUL), wrap(node.rhs, _PREC_MUL + 1)), _PREC_MUL
    if isinstance(node, Neg):
        return "-%s" % wrap(node.operand, _PREC_NEG), _PREC_NEG
    if isinstance(node, Pow):
        return "%s^%s" % (wrap(node.base, _PREC_POW + 1), wrap(node.exponent, _PREC_POW)), _PREC_POW
    raise TypeError("not an expression node: %r" % (node,))


def to_text(node) -> str:
    """Render an AST back to parseable text; parse(to_text(e)) == e."""
    return _print(node, 0)[0]


# --------------------------------------------------------------------------
# Series expansion


class _SVal:
    """Working series value: {float exponent: Fraction|float coefficient}
    plus the order beyond which terms are unknown (math.inf = exact)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=math.inf):
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}
        self.order = order

    def prune(self):
        if self.order != math.inf:
            self.coeffs = {e: c for e, c in self.coeffs.items()
                           if e <= self.order + 1e-12}
        return self

    def min_exponent(self):
        return min(self.coeffs) if self.coeffs else 0.0

    def is_constant(self):
        return not self.coeffs or set(self.coeffs) == {0.0}

    def constant_value(self):
        return self.coeffs.get(0.0, Fraction(0))


def _check_lattice(exps):
    exps = sorted(exps)
    tol = config.int_tol
    for e in exps[1:]:
        if not _congruent_mod_1(e, exps[0], tol):
            raise LatticeError(
                "exponents %r and %r lie on different lattices" % (exps[0], e))


def _add(a, b, sign=1):
    coeffs = dict(a.coeffs)
    for e, c in b.coeffs.items():
        coeffs[e] = coeffs.get(e, 0) + sign * c
    out = _SVal(coeffs, min(a.order, b.order))
    _check_lattice(list(out.coeffs))
    return out.prune()


def _scale(a, c):
    return _SVal({e: c * v for e, v in a.coeffs.items()}, a.order)


def _mul(a, b):
    order = min(a.order + b.min_exponent(), b.order + a.min_exponent())
    coeffs = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if e <= order + 1e-12:
                coeffs[e] = coeffs.get(e, 0) + ca * cb
    return _SVal(coeffs, order).prune()


def _powi(a, n):
    out = _SVal({0.0: Fraction(1)})
    base = a
    while n > 0:
        if n & 1:
            out = _mul(out, base)
        base = _mul(base, base) if n > 1 else base
        n >>= 1
    return out


def _require_jet(v, what):
    for e in v.coeffs:
        if e < 0.0 or e != math.floor(e):
            raise ExpansionError(
                "argument of %s must be an analytic jet (offending exponent %r)"
                % (what, e))


def _intrinsic_coeffs(func, u0, order):
    # Taylor coefficients of the intrinsic about u0, index 0..order.
    rational = u0 == 0
    if func == "exp":
        scale = Fraction(1) if rational else math.exp(float(u0))
        return [scale / Fraction(math.factorial(i)) if rational
                else scale / math.factorial(i) for i in range(order + 1)]
    if rational:
        s0, c0 = Fraction(0), Fraction(1)
    else:
        s0, c0 = math.sin(float(u0)), math.cos(float(u0))
    if func == "sin":
        cycle = (s0, c0, -s0, -c0)
    else:
        cycle = (c0, -s0, -c0, s0)
    return [cycle[i % 4] / (Fraction(math.factorial(i)) if rational
                            else math.factorial(i)) for i in range(order + 1)]


def _compose_intrinsic(func, inner, order):
    _require_jet(inner, func)
    u0 = inner.constant_value()
    v = _SVal({e: c for e, c in inner.coeffs.items() if e != 0.0},
              min(inner.order, order))
    gs = _intrinsic_coeffs(func, u0, order)
    out = _SVal({0.0: gs[-1]}, min(inner.order, float(order)))
    for i in range(len(gs) - 2, -1, -1):
        out = _mul(out, v)
        out = _add(out, _SVal({0.0: gs[i]}, out.order))
    out.order = min(float(order), inner.order)
    return out.prune()


def _fold_const(node):
    """Evaluate a variable-free subtree to a float, or None."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        v = _fold_const(node.operand)
        return None if v is None else -v
    if isinstance(node, (Add, Sub, Mul, Div)):
        a = _fold_const(node.lhs)
        b = _fold_const(node.rhs)
        if a is None or b is None:
            return None
        if isinstance(node, Add):
            return a + b
        if isinstance(node, Sub):
            return a - b
        if isinstance(node, Mul):
            return a * b
        if b == 0:
            raise ExpansionError("division by zero in constant expression")
        return a / b
    if isinstance(node, Pow):
        a = _fold_const(node.base)
        b = _fold_const(node.exponent)
        if a is None or b is None:
            return None
        return math.pow(a, b)
    return None


def _is_centered_atom(node, basepoint):
    if isinstance(node, Var):
        return basepoint == 0.0
    return (isinstance(node, Sub) and isinstance(node.lhs, Var)
            and isinstance(node.rhs, Num) and node.rhs.value == basepoint)


def _expand(node, basepoint, order):
    if isinstance(node, Num):
        return _SVal({0.0: Fraction(node.value)})
    if isinstance(node, Var):
        return _SVal({0.0: Fraction(basepoint), 1.0: Fraction(1)})
    if isinstance(node, Neg):
        return _scale(_expand(node.operand, basepoint, order), -1)
    if isinstance(node, Add):
        return _add(_expand(node.lhs, basepoint, order),
                    _expand(node.rhs, basepoint, order))
    if isinstance(node, Sub):
        return _add(_expand(node.lhs, basepoint, order),
                    _expand(node.rhs, basepoint, order), sign=-1)
    if isinstance(node, Mul):
        return _mul(_expand(node.lhs, basepoint, order),
                    _expand(node.rhs, basepoint, order))
    if isinstance(node, Div):
        den = _expand(node.rhs, basepoint, order)
        if not den.is_constant():
            raise ExpansionError("division only by nonzero constants")
        c = den.constant_value()
        if c == 0:
            raise ExpansionError("division by zero")
        num = _expand(node.lhs, basepoint, order)
        return _scale(num, (Fraction(1) / c) if isinstance(c, Fraction)
                      else 1.0 / c)
    if isinstance(node, Pow):
        expo = _fold_const(node.exponent)
        if expo is None:
            raise ExpansionError("exponent must be a constant expression")
        if _is_centered_atom(node.base, basepoint):
            return _SVal({float(expo): Fraction(1)})
        if expo == math.floor(expo) and abs(expo) <= 1024:
            n = int(expo)
            base = _expand(node.base, basepoint, order)
            if n >= 0:
                return _powi(base, n)
            if base.is_constant() and base.constant_value() != 0:
                return _SVal({0.0: base.constant_value() ** n})
            raise ExpansionError(
                "negative powers are only supported on (x - basepoint)")
        base = _expand(node.base, basepoint, order)
        if base.is_constant():
            c = float(base.constant_value())
            if c <= 0.0:
                raise ExpansionError(
                    "real power of a non-positive constant")
            return _SVal({0.0: math.pow(c, expo)})
        if (isinstance(node.base, Sub) and isinstance(node.base.lhs, Var)
                and isinstance(node.base.rhs, Num)):
            raise ExpansionError(
                "power term centered at %r, expected base point %r"
                % (node.base.rhs.value, basepoint))
        raise ExpansionError(
            "real exponents are only supported on (x - basepoint)")
    if isinstance(node, Call):
        inner = _expand(node.arg, basepoint, order)
        return _compose_intrinsic(node.func, inner, order)
    raise TypeError("not an expression node: %r" % (node,))


def to_series(expr, basepoint: float = 0.0, order: int | None = None) -> GenSeries:
    """Expand an expression (AST or text) into a truncated generalized power
    series at the base point. `order` bounds intrinsic jet expansions; exact
    algebraic content (polynomials, verbatim power terms) is kept verbatim."""
    if isinstance(expr, str):
        expr = parse(expr)
    if order is None:
        order = config.DEFAULT_ORDER
    basepoint = float(basepoint)
    val = _expand(expr, basepoint, int(order))
    terms = tuple(Term(float(e), float(c)) for e, c in val.coeffs.items())
    trunc = None if val.order == math.inf else float(val.order)
    return GenSeries(basepoint, terms, trunc)
