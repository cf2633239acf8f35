"""Expression front end: text -> AST of tag tuples -> generalized power series.

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
import operator
from fractions import Fraction

from . import config
from .coeffseq import GenSeries, finite_float, has_double, nonzero, rational
from .errors import ExpansionError, LatticeError, ParseError

_INTRINSICS = ("exp", "sin", "cos")


# --------------------------------------------------------------------------
# AST: tag tuples
#
#     ("num", value)  ("x",)  (op, lhs, rhs) for op in + - * / ^
#     ("neg", operand)  ("call", name, arg)
#
# Tokens are tuples too: (kind, text, value, line, column), kind one of
# num, name, op and end.


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
            tokens.append(("num", lit, val, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], 0.0, line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, 0.0, line, col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("end", "", 0.0, line, col))
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
        if tok[0] != "end":
            self.pos += 1
        return tok

    def at_op(self, ops):
        """The operator text of the next token when it is one of ops."""
        kind, text = self.peek()[:2]
        return text if kind == "op" and text in ops else None

    def expect_op(self, text):
        if self.at_op(text) is None:
            raise ParseError("expected %r" % text, *self.peek()[3:])
        return self.advance()

    def expr(self):
        node = self.term()
        while op := self.at_op("+-"):
            self.advance()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while op := self.at_op("*/"):
            self.advance()
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.at_op("-"):
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            return ("^", base, self.unary())  # right-associative
        return base

    def atom(self):
        kind, text, value, line, column = self.advance()
        if kind == "num":
            return ("num", value)
        if kind == "name":
            if text == "x":
                return ("x",)
            if text in _INTRINSICS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", text, arg)
            raise ParseError("unknown identifier %r" % text, line, column)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected expression", line, column)


def parse(text: str):
    """Parse an expression into its AST of tag tuples (see above); errors
    carry line and column."""
    p = _Parser(_tokenize(text))
    node = p.expr()
    kind, text, _, line, column = p.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input %r" % text, line, column)
    return node


# --------------------------------------------------------------------------
# Printer


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _num_text(v):
    if v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# binary operator: (separator, precedence, lhs need, rhs need). Right
# children of the left-associative operators print one level tighter, so
# chains like a * (b / c) re-parse to the same tree; ^ is right-associative.
_BINARY = {
    "+": (" + ", _PREC_ADD, _PREC_ADD, _PREC_ADD + 1),
    "-": (" - ", _PREC_ADD, _PREC_ADD, _PREC_ADD + 1),
    "*": (" * ", _PREC_MUL, _PREC_MUL, _PREC_MUL + 1),
    "/": (" / ", _PREC_MUL, _PREC_MUL, _PREC_MUL + 1),
    "^": ("^", _PREC_POW, _PREC_POW + 1, _PREC_POW),
}


def _wrap(node, need):
    text, prec = _print(node)
    return "(" + text + ")" if prec < need else text


def _print(node):
    """(text, precedence) of an AST node."""
    tag = node[0]
    if tag == "num":
        return _num_text(node[1]), _PREC_ATOM
    if tag == "x":
        return "x", _PREC_ATOM
    if tag == "call":
        return "%s(%s)" % (node[1], _print(node[2])[0]), _PREC_ATOM
    if tag == "neg":
        return "-" + _wrap(node[1], _PREC_NEG), _PREC_NEG
    if tag not in _BINARY:
        raise TypeError("not an expression node: %r" % (node,))
    sep, prec, lneed, rneed = _BINARY[tag]
    return _wrap(node[1], lneed) + sep + _wrap(node[2], rneed), prec


def to_text(node) -> str:
    """Render an AST back to parseable text; parse(to_text(e)) == e."""
    return _print(node)[0]


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


def _div(a, b):
    if b == 0:
        raise ExpansionError("division by zero in constant expression")
    return a / b


def _pow(a, b):
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        raise ExpansionError(
            "constant power %r^%r is not a finite real" % (a, b)) from None


_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": _div, "^": _pow}


def _fold_const(node):
    """Evaluate a variable-free subtree to a float, or None."""
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "neg":
        v = _fold_const(node[1])
        return None if v is None else -v
    if tag not in _FOLD:  # x, or a call
        return None
    a = _fold_const(node[1])
    b = _fold_const(node[2])
    if a is None or b is None:
        return None
    return _FOLD[tag](a, b)


def _centered_at(node):
    """The base point c of a node (x - c), else None."""
    if node[0] == "-" and node[1] == ("x",) and node[2][0] == "num":
        return node[2][1]
    return None


def _expand(node, basepoint, order):
    tag = node[0]
    if tag == "num":
        return _SVal({0: Fraction(node[1])})
    if tag == "x":
        return _SVal({0: Fraction(basepoint), 1: Fraction(1)})
    if tag == "neg":
        return _scale(_expand(node[1], basepoint, order), -1)
    if tag == "call":
        return _compose_intrinsic(node[1], _expand(node[2], basepoint, order),
                                  order)
    if tag in ("+", "-", "*"):
        a = _expand(node[1], basepoint, order)
        b = _expand(node[2], basepoint, order)
        return _mul(a, b) if tag == "*" else _add(a, b, 1 if tag == "+" else -1)
    if tag == "/":
        den = _expand(node[2], basepoint, order)
        if not den.is_constant():
            raise ExpansionError("division only by nonzero constants")
        c = den.constant_value()
        if c == 0:
            raise ExpansionError("division by zero")
        num = _expand(node[1], basepoint, order)
        return _scale(num, (Fraction(1) / c) if isinstance(c, Fraction)
                      else 1.0 / c)
    if tag == "^":
        return _expand_pow(node[1], node[2], basepoint, order)
    raise TypeError("not an expression node: %r" % (node,))


def _expand_pow(base_node, expo_node, basepoint, order):
    expo = _fold_const(expo_node)
    if expo is None:
        raise ExpansionError("exponent must be a constant expression")
    if not math.isfinite(expo):
        raise ExpansionError("exponent %r is not finite" % expo)
    center = _centered_at(base_node)
    if center == basepoint or (base_node == ("x",) and basepoint == 0.0):
        e = rational(expo)  # an integer stays an int: ints add fast
        return _SVal({0: Fraction(1)},
                     base=e.numerator if e.denominator == 1 else e)
    if expo == math.floor(expo) and abs(expo) <= 1024:
        n = int(expo)
        base = _expand(base_node, basepoint, order)
        if n >= 0:
            return _powi(base, n)
        if base.is_constant() and base.constant_value() != 0:
            return _SVal({0: base.constant_value() ** n})
        raise ExpansionError(
            "negative powers are only supported on (x - basepoint)")
    base = _expand(base_node, basepoint, order)
    if base.is_constant():
        c = float(base.constant_value())
        if c <= 0.0:
            raise ExpansionError("real power of a non-positive constant")
        return _SVal({0: math.pow(c, expo)})
    if center is not None:
        raise ExpansionError("power term centered at %r, expected base point %r"
                             % (center, basepoint))
    raise ExpansionError(
        "real exponents are only supported on (x - basepoint)")


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
