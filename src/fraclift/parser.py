"""Expression front end: text -> AST of tag tuples -> generalized power series.

Grammar (EBNF), conventional infix with ^ binding tightest and
right-associative; precedence and associativity are Python's with ^ for **,
so -x^2 is -(x^2), x^-1 is x^(-1) and x^2^3 is x^(2^3):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | "x" | NAME "(" expr ")" | "(" expr ")" ;
    NAME    = "exp" | "sin" | "cos" ;

An exponent is any constant expression, read as the double of its exact
value. It may be real on a constant or on any subexpression equal to x - a,
a the expansion base point (x at a = 0; x - 1/2 or -0.5 + x at a = 0.5), and
a nonnegative integer on any other. Division is by nonzero constants only.
So every expressible function is a single-lattice generalized power series.

Series expansion works in exact rational arithmetic wherever the inputs
are rational, kept on integers: a working value holds integer numerators
over one integer denominator. A sum rescales the numerators to the least
common denominator; a constant divisor scales them by its integer ratio; a
product is an integer convolution over the product of the denominators,
stripped of the factor the numerators share with it by one gcd, so no
Fraction is built and no gcd taken per coefficient (D. E. Knuth, The Art
of Computer Programming, vol. 2, sec. 4.5.1). Cauchy products of intrinsic
jets carry no rounding at all; each coefficient rounds to a double once at
the end, as the correctly rounded quotient of its numerator and the
denominator. A value that holds a float (2^0.5, or exp(u0) at a nonzero u0)
keeps Fraction and float coefficients, combined in one fixed order.
Exponents are exact too: coeffseq.rational reads each power of x - a once,
and a working value keeps an exact base exponent and integer keys n, so its
exponents base + n share one lattice by construction; products add bases
and orders exactly, and the series takes its phase as the base mod 1.

An intrinsic of a jet u = u0 + v (v without constant term) to order N is not
composed from the Taylor polynomial of the intrinsic, which costs O(N^3)
coefficient operations, but read off the differential equation it satisfies,
in O(N^2), or O(N * nnz(v)) since zero v_k are skipped. While v is rational
the recurrences run on integers, the scaled derivatives b_k = D^k v^(k)(0)
and G_n = D^n g^(n)(0); Leibniz's rule on g' = g v' gives

    g = exp(v):             G_n = sum_{k=1..n} C(n-1,k-1) b_k G_{n-k}
    s = sin(v), c = cos(v): S_n = sum_{k=1..n} C(n-1,k-1) b_k C_{n-k}
                            C_n = -sum_{k=1..n} C(n-1,k-1) b_k S_{n-k}

with G_0 = C_0 = 1, S_0 = 0. The jet to order N is then the numerators
G_n D^(N-n) N!/n! over the one denominator D^N N!, stripped of their common
factor by one gcd, where a Fraction loop pays a multiply, an add and a
divide by n per step, each with its own gcds. The integer D makes every b_k
whole: walking k upward, it grows only where D^k leaves the denominator d_k
of v^(k)(0) uncleared, by m = d_k / gcd(d_k, D^k), and the earlier b_j take
m^j; so v = c x keeps D = den(c), where the lcm of all d_k would be far
larger. When v holds a float (a float u0 upstream, or 2^0.5) the
recurrences run in Taylor form, n g_n = sum_k k v_k g_{n-k}, on floats. A
nonzero u0 enters once at the end, as the factor exp(u0) or through
sin(u0 + v) = sin u0 cos v + cos u0 sin v and cos(u0 + v) = cos u0 cos v -
sin u0 sin v. References: R. P. Brent and H. T. Kung, "Fast algorithms for
manipulating formal power series", J. ACM 25(4), 1978; D. E. Knuth, The
Art of Computer Programming, vol. 2, sec. 4.7.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import config
from .coeffseq import GenSeries, finite_float, has_double, kept, rational
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
    try:
        node = p.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         *p.peek()[3:]) from None
    kind, text, _, line, column = p.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input %r" % text, line, column)
    return node


# --------------------------------------------------------------------------
# Series expansion


class _SVal:
    """Working series value: the sum of coeffs[n] / den * (x - a)^(base + n)
    over integer keys n, plus the order beyond which terms are unknown
    (math.inf = exact). An exact value holds integer numerators over one
    positive integer den; a value that holds a float has den None and
    Fraction or float coefficients, combined in the order the float
    results depend on. The base and a finite order are exact (int or
    Fraction), so no exponent has two keys."""

    __slots__ = ("base", "coeffs", "order", "den")

    def __init__(self, coeffs, order=math.inf, base=0, den=1):
        self.base = base
        self.coeffs = {n: c for n, c in coeffs.items() if c}
        self.order = order
        self.den = den

    def prune(self):
        if self.order != math.inf:  # keep the keys n with base + n <= order
            top = _floor_diff(self.order, self.base)
            self.coeffs = {n: c for n, c in self.coeffs.items() if n <= top}
        return self

    def min_exponent(self):
        return self.base + min(self.coeffs) if self.coeffs else 0

    def is_constant(self):
        return self.coeffs.keys() <= {-self.base}


def _mixed(coeffs, order=math.inf, base=0):
    """A value from Fraction and float coefficients; exact, as integers over
    their least common denominator, once no float is left."""
    coeffs = {n: c for n, c in coeffs.items() if c}
    if any(type(c) is float for c in coeffs.values()):
        return _SVal(coeffs, order, base, None)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return _SVal({n: c.numerator * (den // c.denominator)
                  for n, c in coeffs.items()}, order, base, den)


def _values(a):
    """a's coefficients as Fractions and floats, for arithmetic with a float."""
    if a.den is None:
        return a.coeffs
    return {n: Fraction(c, a.den) for n, c in a.coeffs.items()}


def _key_shift(a, b):
    """The integer m with b.base = a.base + m, up to config.INT_TOL."""
    d = b.base - a.base
    m = round(d)
    if abs(d - m) > config.INT_TOL:
        raise LatticeError("exponents %r and %r lie on different lattices"
                           % (float(a.min_exponent()), float(b.min_exponent())))
    return m


def _add(a, b, sign=1):
    if a.coeffs:
        base, m = a.base, _key_shift(a, b) if b.coeffs else 0
    else:
        base, m = b.base, 0
    order = min(a.order, b.order)
    if a.den and b.den:  # exact: integers over the least common denominator
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, sign * (den // b.den)
        coeffs = {n: c * sa for n, c in a.coeffs.items()}
        for n, c in b.coeffs.items():
            coeffs[n + m] = coeffs.get(n + m, 0) + sb * c
        return _SVal(coeffs, order, base, den).prune()
    coeffs = dict(_values(a))
    for n, c in _values(b).items():
        coeffs[n + m] = coeffs.get(n + m, 0) + sign * c
    return _mixed(coeffs, order, base).prune()


def _scale(a, p, q=1):
    """a times p/q: ints p != 0 and q > 0, or a float p and q = 1."""
    if a.den and type(p) is not float:
        return _SVal({n: p * v for n, v in a.coeffs.items()}, a.order,
                     a.base, q * a.den)
    c = p if q == 1 else Fraction(p, q)
    return _mixed({n: c * v for n, v in _values(a).items()}, a.order, a.base)


def _snapped(r):
    """r, or the p/q (q <= 1000) r's double reads as where r holds a literal
    rational left at its double's value (2^10 divides r's denominator then,
    and no q <= 1000): 0.0001 + 0.9999 is 1, as their float sum reads."""
    if type(r) is Fraction and r.denominator % 1024 == 0:
        s = rational(float(r))
        return s if s.denominator <= 1000 else r
    return r


def _plus(r, s):
    """r + s for exact r and s, with no Fraction built when either is 0."""
    return r + s if r and s else r or s


def _floor_diff(r, s):
    """floor(r - s) for exact r and s, on their integer ratios: no Fraction
    is built."""
    (p, q), (u, v) = r.as_integer_ratio(), s.as_integer_ratio()
    return (p * v - u * q) // (q * v)


def _mul(a, b):
    # the exponent sums build no Fraction the product does not hold: a zero
    # base adds nothing, and the order adds the integer key before the base.
    # An exact factor's order, math.inf, stays out of the sums: inf + r
    # would round the exact exponent r to a double
    order = _snapped(min((_plus(o + min(m.coeffs), m.base) if m.coeffs else o
                          for o, m in ((a.order, b), (b.order, a))
                          if o != math.inf), default=math.inf))
    base = _snapped(_plus(a.base, b.base))
    top = order if order == math.inf else _floor_diff(order, base)
    exact = a.den and b.den
    pa = sorted(a.coeffs.items() if exact else _values(a).items())
    pb = sorted(b.coeffs.items() if exact else _values(b).items())
    acc = {}
    for na, ca in pa:
        for nb, cb in pb:
            n = na + nb
            if n > top:
                break
            acc[n] = acc.get(n, 0) + ca * cb
    if not exact:
        return _mixed(acc, order, base)
    # one gcd strips the factor the numerators share with den = da db. Past
    # 1024 bits it is mostly the power of two of a float literal (1e-300 is
    # odd over 2^1049), shifted off so the division takes the odd part only
    den = a.den * b.den
    g = math.gcd(den, *acc.values())
    if g.bit_length() > 1024:
        t = (g & -g).bit_length() - 1
        acc = {n: v >> t for n, v in acc.items()}
        den >>= t
        g >>= t
    if g > 1:
        acc = {n: v // g for n, v in acc.items()}
    return _SVal(acc, order, base, den // g)


def _powi(a, n):
    out = _SVal({0: 1})
    while n > 0:
        if n & 1:
            out = _mul(out, a)
        a = _mul(a, a) if n > 1 else a
        n >>= 1
    return out


def _scaled_derivatives(terms):
    """(D, [(k, b_k)]) for v = sum p_k / q_k x^k over the terms (k, p_k, q_k),
    k >= 1 ascending, p_k != 0: the b_k = D^k v^(k)(0) = D^k k! p_k / q_k, all
    integers. D grows only where D^k misses the reduced denominator d_k of
    k! p_k / q_k, by m = d_k / gcd(d_k, D^k), and the earlier b_j then take
    m^j, so v = c x keeps D = den(c)."""
    scale, b = 1, []
    for k, p, q in terms:
        num = math.factorial(k) * p
        g = math.gcd(num, q)
        num, den = num // g, q // g
        power = scale ** k
        if power % den:
            m = den // math.gcd(den, power)
            scale *= m
            b = [(j, bj * m ** j) for j, bj in b]
            power = scale ** k
        b.append((k, num * (power // den)))
    return scale, b


def _taylor(scaled, scale):
    """(numerators, den) of the Taylor coefficients F_n / (D^n n!) of scaled
    derivatives F_n: F_n D^(N-n) N!/n! over D^N N!, N the top order,
    stripped of their common factor by one gcd."""
    out = list(scaled)
    den = 1
    for n in range(len(out) - 1, 0, -1):
        out[n] *= den
        den *= n * scale
    out[0] *= den
    g = math.gcd(den, *out)
    if g > 1:
        out = [v // g for v in out]
    return out, den // g


def _exp_jet(terms, top):
    """(G, D): the scaled derivatives G_n of exp(v), n <= top, v as in
    _scaled_derivatives."""
    # G_n = D^n g^(n)(0) from g' = g v': G_n = sum_k C(n-1,k-1) b_k G_(n-k)
    scale, b = _scaled_derivatives(terms)
    g = [1] + [0] * top
    for n in range(1, top + 1):
        acc = 0
        for k, bk in b:
            if k > n:
                break
            acc += math.comb(n - 1, k - 1) * bk * g[n - k]
        g[n] = acc
    return g, scale


def _sin_cos_jet(terms, top):
    """(S, C, D): the scaled derivatives of sin(v) and cos(v), n <= top."""
    # S_n = sum_k C(n-1,k-1) b_k C_(n-k), C_n = -sum_k C(n-1,k-1) b_k S_(n-k)
    scale, b = _scaled_derivatives(terms)
    s = [0] * (top + 1)
    c = [1] + [0] * top
    for n in range(1, top + 1):
        acc_s = acc_c = 0
        for k, bk in b:
            if k > n:
                break
            w = math.comb(n - 1, k - 1) * bk
            acc_s += w * c[n - k]
            acc_c -= w * s[n - k]
        s[n] = acc_s
        c[n] = acc_c
    return s, c, scale


def _float_exp_jet(du, top):
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


def _float_sin_cos_jet(du, top):
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
    on integers while v is rational."""
    trunc = min(order, inner.order)
    top = max(math.floor(trunc), 0)
    if inner.coeffs and (inner.base.denominator != 1 or inner.min_exponent() < 0):
        raise ExpansionError(
            "argument of %s must be an analytic jet (offending exponent %r)"
            % (func, float(inner.min_exponent())))
    shift = inner.base.numerator
    u = sorted((n + shift, c) for n, c in inner.coeffs.items()
               if n + shift <= top)
    u0 = u.pop(0)[1] if u and u[0][0] == 0 else 0
    exact = inner.den is not None or all(type(c) is Fraction for _, c in u)
    # the jets of exp, or of sin and cos: scaled derivatives while exact
    if exact:
        if inner.den is None:  # a rational v beside a float u0, or past top
            terms = [(k, c.numerator, c.denominator) for k, c in u]
        else:
            terms = [(k, c, inner.den) for k, c in u]
            u0 = Fraction(u0, inner.den) if u0 else 0
        *jets, scale = (_exp_jet if func == "exp" else _sin_cos_jet)(terms, top)
    else:
        du = [(k, k * c) for k, c in u]
        jets = ([_float_exp_jet(du, top)] if func == "exp"
                else _float_sin_cos_jet(du, top))
    if u0 == 0:
        jet = jets[func == "cos"]
        if not exact:
            return _mixed(dict(enumerate(jet)), trunc).prune()
        nums, den = _taylor(jet, scale)
        return _SVal(dict(enumerate(nums)), trunc, 0, den).prune()
    f0 = [_float_op(fn, u0, func) for fn in
          ((math.exp,) if func == "exp" else (math.sin, math.cos))]
    if exact:  # each coefficient rounds once, to meet the float func(u0)
        jets = [[v / den for v in nums] for nums, den in
                (_taylor(jet, scale) for jet in jets)]
    if func == "exp":
        coeffs = [f0[0] * g for g in jets[0]]
    else:
        (s0, c0), (s, c) = f0, jets
        if func == "sin":  # sin(u0 + v) = sin u0 cos v + cos u0 sin v
            coeffs = [s0 * cn + c0 * sn for sn, cn in zip(s, c)]
        else:  # cos(u0 + v) = cos u0 cos v - sin u0 sin v
            coeffs = [c0 * cn - s0 * sn for sn, cn in zip(s, c)]
    return _mixed(dict(enumerate(coeffs)), trunc).prune()


def _float_op(fn, u0, what):
    try:
        return fn(float(u0))
    except (OverflowError, ValueError):
        fits = type(u0) is float or has_double(u0.denominator, u0.numerator)
        arg = "%r" % float(u0) if fits else "an argument past 2^1024"
        raise ExpansionError("%s(%s) is out of double range" % (what, arg)) from None


_CHAIN = ("+", "-", "*")


def _expand(node, basepoint, order):
    tag = node[0]
    if tag == "num":
        p, q = node[1].as_integer_ratio()
        return _SVal({0: p}, den=q)
    if tag == "x":
        p, q = basepoint.as_integer_ratio()
        return _SVal({0: p, 1: q}, den=q)
    if tag == "neg":
        return _scale(_expand(node[1], basepoint, order), -1)
    if tag == "call":
        return _compose_intrinsic(node[1], _expand(node[2], basepoint, order),
                                  order)
    if tag in _CHAIN:
        # a left-deep chain of + - * folds left to right in a loop, so a sum
        # or product of any length expands without recursing along it
        chain = []
        while node[0] in _CHAIN:
            chain.append(node)
            node = node[1]
        acc = _expand(node, basepoint, order)
        for tag, _, right in reversed(chain):
            b = _expand(right, basepoint, order)
            acc = (_mul(acc, b) if tag == "*"
                   else _add(acc, b, 1 if tag == "+" else -1))
        return acc
    if tag == "/":
        den = _expand(node[2], basepoint, order)
        if not den.is_constant():
            raise ExpansionError("division only by nonzero constants")
        c = den.coeffs.get(-den.base, 0)
        if not c:
            raise ExpansionError("division by zero")
        num = _expand(node[1], basepoint, order)
        if den.den is None:  # a float c
            return _scale(num, 1.0 / c)
        return _scale(num, den.den, c) if c > 0 else _scale(num, -den.den, -c)
    if tag == "^":
        return _expand_pow(node[1], node[2], basepoint, order)
    raise TypeError("not an expression node: %r" % (node,))


# The most bits an exact constant power c^n may give its numerator or
# denominator, judged from c's before c^n is computed: (2^1000)^1000 fits
_POWER_BITS = 1 << 21


def _holds_x(node):
    return "x" in node or any(_holds_x(n) for n in node[1:] if type(n) is tuple)


def _expand_pow(base_node, expo_node, basepoint, order):
    # the exponent: the correctly rounded double of the constant it expands
    # to; a truncated one only where no x can hide past its order
    e = _expand(expo_node, basepoint, order)
    if not e.is_constant() or e.order != math.inf and _holds_x(expo_node):
        raise ExpansionError("exponent must be a constant expression")
    c = e.coeffs.get(-e.base, 0)
    expo = c / e.den if e.den else c
    if not math.isfinite(expo):
        raise ExpansionError("exponent %r is not finite" % expo)
    base = _expand(base_node, basepoint, order)
    if base.order == math.inf and base.coeffs == {1 - base.base: base.den}:
        # the base is x - basepoint: the power term, verbatim
        e = rational(expo)  # an integer stays an int: ints add fast
        return _SVal({0: 1}, base=e.numerator if e.denominator == 1 else e)
    c = base.coeffs.get(-base.base, 0) if base.is_constant() else None
    if base.den and c is not None:  # an exact constant base, as a Fraction
        c = Fraction(c, base.den)
    if expo.is_integer() and abs(expo) <= 1024:
        n = int(expo)
        if type(c) is Fraction and _POWER_BITS < abs(n) * max(
                c.numerator.bit_length(), c.denominator.bit_length()):
            raise ExpansionError("constant power ^%d passes %d bits"
                                 % (n, _POWER_BITS))
        if n >= 0:
            return _powi(base, n)
        if c:
            return _mixed({0: c ** n})
        raise ExpansionError(
            "negative powers are only supported on (x - basepoint)")
    if c is not None:
        if c <= 0:
            raise ExpansionError("real power of a non-positive constant")
        return _mixed({0: math.pow(float(c), expo)})
    if (base.base == 0 and base.coeffs.keys() == {0, 1}
            and base.coeffs[1] == base.den):  # x - c, c not the base point
        p, q = basepoint.as_integer_ratio()
        c = Fraction(p * base.den - base.coeffs[0] * q, q * base.den)
        shown = float(c) if float(c) != basepoint else c  # c exact if need be
        raise ExpansionError("power term centered at %s, expected base point "
                             "%r" % (shown, basepoint))
    raise ExpansionError("real exponents are only supported on (x - basepoint)")


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
        if val.coeffs and not has_double(1, min(val.coeffs) + m,
                                         max(val.coeffs) + m):
            raise OverflowError
        trunc = None if val.order == math.inf else float(val.order)
        den = val.den  # an exact coefficient rounds once, as int / int
        keys = sorted(val.coeffs)
        vals = [c / den if den else finite_float(c)
                for c in map(val.coeffs.__getitem__, keys)]
    except (OverflowError, ValueError):
        raise ExpansionError("an exponent, order or coefficient exceeds "
                             "double range") from None
    except RecursionError:
        raise ExpansionError("expression nested too deeply") from None
    return GenSeries._of(basepoint, Fraction(val.base - m),
                         *kept(keys, vals, m, ExpansionError, "a coefficient"),
                         trunc)
