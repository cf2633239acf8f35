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
no rounding at all; coefficients convert to floats only at the end. So do
exponents: coeffseq.rational reads each literal x^e or (x - a)^e once, and
a working value keeps an exact base exponent and integer keys n, so its
exponents base + n share one lattice by construction; products add bases
and orders exactly, and the series takes its phase as the base mod 1.

An intrinsic of a jet u = u0 + v (v without constant term) to order N is not
composed from the Taylor polynomial of the intrinsic, which costs O(N^3)
coefficient operations, but read off the differential equation it satisfies,
in O(N^2), or O(N * nnz(v)) since zero v_k are skipped:

    g = exp(v):             g' = g v'     n g_n = sum_{k=1..n} k v_k g_{n-k}
    s = sin(v), c = cos(v): s' = c v'     n s_n = sum_{k=1..n} k v_k c_{n-k}
                            c' = -s v'    n c_n = -sum_{k=1..n} k v_k s_{n-k}

with g_0 = c_0 = 1, s_0 = 0. The recurrences run on the rational part v, in
Fraction while v is rational; a nonzero u0 enters once at the end, as the
factor exp(u0) or through sin(u0 + v) = sin u0 cos v + cos u0 sin v and
cos(u0 + v) = cos u0 cos v - sin u0 sin v. References: R. P. Brent and
H. T. Kung, "Fast algorithms for manipulating formal power series", J. ACM
25(4), 1978; D. E. Knuth, The Art of Computer Programming, vol. 2, sec. 4.7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .coeffseq import GenSeries, finite_float, has_double, nonzero, rational
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
            if math.isinf(val):
                raise ParseError("number %r exceeds double range" % lit,
                                 line, col)
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
    """Working series value: the sum of coeffs[n] * (x - a)^(base + n) over
    integer keys n, with Fraction (or float) coefficients, plus the order
    beyond which terms are unknown (math.inf = exact). The base and a finite
    order are exact (int or Fraction), so no exponent has two keys."""

    __slots__ = ("base", "coeffs", "order")

    def __init__(self, coeffs, order=math.inf, base=0):
        self.base = base
        self.coeffs = {n: c for n, c in coeffs.items() if c != 0}
        self.order = order

    def prune(self):
        if self.order != math.inf:  # keep the keys n with base + n <= order
            top = math.floor(self.order - self.base)
            self.coeffs = {n: c for n, c in self.coeffs.items() if n <= top}
        return self

    def min_exponent(self):
        return self.base + min(self.coeffs) if self.coeffs else 0

    def constant_value(self):
        return self.coeffs.get(-self.base, Fraction(0))

    def is_constant(self):
        return self.coeffs.keys() <= {-self.base}


def _key_shift(a, b):
    """The integer m with b.base = a.base + m, up to config.int_tol."""
    d = b.base - a.base
    m = round(d)
    if abs(d - m) > config.int_tol:
        raise LatticeError("exponents %r and %r lie on different lattices"
                           % (float(a.min_exponent()), float(b.min_exponent())))
    return m


def _add(a, b, sign=1):
    if not a.coeffs:
        base, coeffs, m = b.base, {}, 0
    else:
        base, coeffs = a.base, dict(a.coeffs)
        m = _key_shift(a, b) if b.coeffs else 0
    for n, c in b.coeffs.items():
        coeffs[n + m] = coeffs.get(n + m, 0) + sign * c
    return _SVal(coeffs, min(a.order, b.order), base).prune()


def _scale(a, c):
    return _SVal({n: c * v for n, v in a.coeffs.items()}, a.order, a.base)


def _numerators(coeffs, exact):
    """(sorted (n, numerator) pairs, d) with coeffs[n] = numerator / d: for
    Fraction coefficients, integers over their least common denominator."""
    if not exact:
        return sorted(coeffs.items()), 1
    d = math.lcm(*(c.denominator for c in coeffs.values()))
    return sorted((n, c.numerator * (d // c.denominator))
                  for n, c in coeffs.items()), d


def _snapped(r):
    """r, or the p/q (q <= 1000) r's double reads as where r holds a literal
    rational left at its double's value (2^10 divides r's denominator then,
    and no q <= 1000): 0.0001 + 0.9999 is 1, as their float sum reads."""
    if type(r) is Fraction and r.denominator % 1024 == 0:
        s = rational(float(r))
        return s if s.denominator <= 1000 else r
    return r


def _mul(a, b):
    # an exact factor's order, math.inf, stays out of the sums: inf + r
    # would round the exact exponent r to a double
    order = _snapped(min((o + m.min_exponent() for o, m in
                          ((a.order, b), (b.order, a)) if o != math.inf),
                         default=math.inf))
    base = _snapped(a.base + b.base)
    top = order if order == math.inf else math.floor(order - base)
    # exact products run on integers, with one Fraction per coefficient
    exact = all(type(c) is Fraction
                for c in (*a.coeffs.values(), *b.coeffs.values()))
    pa, da = _numerators(a.coeffs, exact)
    pb, db = _numerators(b.coeffs, exact)
    acc = {}
    for na, ca in pa:
        for nb, cb in pb:
            n = na + nb
            if n > top:
                break
            acc[n] = acc.get(n, 0) + ca * cb
    if exact:
        acc = {n: Fraction(v, da * db) for n, v in acc.items()}
    return _SVal(acc, order, base)


def _powi(a, n):
    out = _SVal({0: Fraction(1)})
    while n > 0:
        if n & 1:
            out = _mul(out, a)
        a = _mul(a, a) if n > 1 else a
        n >>= 1
    return out


def _jet(v, what, top):
    """[v_0, ..., v_top]: the Taylor coefficients of an analytic jet."""
    out = [0] * (top + 1)
    if v.coeffs and (v.base.denominator != 1 or v.min_exponent() < 0):
        raise ExpansionError(
            "argument of %s must be an analytic jet (offending exponent %r)"
            % (what, float(v.min_exponent())))
    b = v.base.numerator
    for n, c in v.coeffs.items():
        if n + b <= top:
            out[n + b] = c
    return out


def _exp_jet(du, top):
    # g = exp(v) from g' = g v': n g_n = sum_k k v_k g_(n-k)
    g = [Fraction(1)] + [0] * top
    for n in range(1, top + 1):
        acc = 0
        for k, kv in du:
            if k > n:
                break
            acc += kv * g[n - k]
        g[n] = acc / n if acc else 0
    return g


def _sin_cos_jet(du, top):
    # s = sin(v), c = cos(v) from s' = c v', c' = -s v'
    s = [0] * (top + 1)
    c = [Fraction(1)] + [0] * top
    for n in range(1, top + 1):
        acc_s = acc_c = 0
        for k, kv in du:
            if k > n:
                break
            acc_s += kv * c[n - k]
            acc_c -= kv * s[n - k]
        s[n] = acc_s / n if acc_s else 0
        c[n] = acc_c / n if acc_c else 0
    return s, c


def _compose_intrinsic(func, inner, order):
    """func(inner) to the jet order: func(u0) combined with func(v), v =
    inner - u0, whose Taylor coefficients come from the recurrences above,
    exactly while v is rational."""
    trunc = min(order, inner.order)
    top = max(math.floor(trunc), 0)
    u = _jet(inner, func, top)
    u0 = u[0]
    du = [(k, k * u[k]) for k in range(1, top + 1) if u[k] != 0]
    if func == "exp":
        coeffs = _exp_jet(du, top)
        if u0 != 0:
            e0 = _float_op(math.exp, u0, func)
            coeffs = [e0 * g for g in coeffs]
    else:
        s, c = _sin_cos_jet(du, top)
        if u0 == 0:
            coeffs = s if func == "sin" else c
        else:
            s0 = _float_op(math.sin, u0, func)
            c0 = _float_op(math.cos, u0, func)
            if func == "sin":  # sin(u0 + v) = sin u0 cos v + cos u0 sin v
                coeffs = [s0 * cn + c0 * sn for sn, cn in zip(s, c)]
            else:  # cos(u0 + v) = cos u0 cos v - sin u0 sin v
                coeffs = [c0 * cn - s0 * sn for sn, cn in zip(s, c)]
    return _SVal(dict(enumerate(coeffs)), trunc).prune()


def _float_op(fn, u0, what):
    try:
        return fn(float(u0))
    except (OverflowError, ValueError):
        arg = "%r" % float(u0) if has_double(u0) else "an argument past 2^1024"
        raise ExpansionError("%s(%s) is out of double range" % (what, arg)) from None


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
        try:
            return math.pow(a, b)
        except (OverflowError, ValueError):
            raise ExpansionError(
                "constant power %r^%r is not a finite real" % (a, b)) from None
    return None


def _is_centered_atom(node, basepoint):
    if isinstance(node, Var):
        return basepoint == 0.0
    return (isinstance(node, Sub) and isinstance(node.lhs, Var)
            and isinstance(node.rhs, Num) and node.rhs.value == basepoint)


def _expand(node, basepoint, order):
    if isinstance(node, Num):
        return _SVal({0: Fraction(node.value)})
    if isinstance(node, Var):
        return _SVal({0: Fraction(basepoint), 1: Fraction(1)})
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
        if not math.isfinite(expo):
            raise ExpansionError("exponent %r is not finite" % expo)
        if _is_centered_atom(node.base, basepoint):
            e = rational(expo)  # an integer stays an int: ints add fast
            return _SVal({0: Fraction(1)},
                         base=e.numerator if e.denominator == 1 else e)
        if expo == math.floor(expo) and abs(expo) <= 1024:
            n = int(expo)
            base = _expand(node.base, basepoint, order)
            if n >= 0:
                return _powi(base, n)
            if base.is_constant() and base.constant_value() != 0:
                return _SVal({0: base.constant_value() ** n})
            raise ExpansionError(
                "negative powers are only supported on (x - basepoint)")
        base = _expand(node.base, basepoint, order)
        if base.is_constant():
            c = float(base.constant_value())
            if c <= 0.0:
                raise ExpansionError(
                    "real power of a non-positive constant")
            return _SVal({0: math.pow(c, expo)})
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
    series at the base point. `order` bounds intrinsic jet expansions
    (config.DEFAULT_ORDER when None); exact algebraic content (polynomials,
    verbatim power terms) is kept verbatim."""
    if isinstance(expr, str):
        expr = parse(expr)
    if order is None:
        order = config.DEFAULT_ORDER
    if order < 0:
        raise ExpansionError("jet order must be nonnegative, got %r" % order)
    basepoint = float(basepoint)
    try:
        val = _expand(expr, basepoint, int(order))
        # exact until here: each exponent and the order rounds to a double
        m = math.floor(val.base)
        if val.coeffs and not has_double(min(val.coeffs) + m,
                                         max(val.coeffs) + m):
            raise OverflowError
        trunc = None if val.order == math.inf else float(val.order)
        coeffs = {n + m: finite_float(c) for n, c in val.coeffs.items()}
    except (OverflowError, ValueError):
        raise ExpansionError("an exponent, order or coefficient exceeds "
                             "double range") from None
    return GenSeries.keyed(basepoint, Fraction(val.base - m), nonzero(coeffs),
                           trunc)
