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
a nonnegative integer on any other. A product or power of polynomials that
could hold more than 2 config.MAX_JET_ORDER + 1 terms is refused before it
is computed. The tokenizer keeps where each token starts, and the line and
column are counted from it only for an error. Division is by nonzero
constants only, not by a constant working value of finite order, which the
jet order truncated and may hide x past it; such a base takes positive
integer powers only, which keep its order, and ^0. So every expressible
function is a single-lattice generalized power series.

Series expansion works in exact rational arithmetic wherever the inputs
are rational, kept on integers. A jet (a value of finite order) is in
derivative form: it holds integers A_n over one denominator den and a scale
D, and stands for the sum of A_n / (den D^n n!) (x - a)^(base + n) over keys
n >= 0, so A_n / (den D^n) is the n-th derivative at a of the value over
(x - a)^base. A product of jets is the binomial convolution c_n = sum_i
C(n, i) a_i b_(n-i), the product of exponential generating functions (P.
Flajolet and R. Sedgewick, Analytic Combinatorics, 2009, ch. II), summed
over Pascal rows or, for a short or sparse factor, pair by pair, and
stripped of the factor it shares with den by one gcd. An exact value of
infinite order, a polynomial, holds Taylor numerators A_n / den instead,
which carry no n!: polynomials add and multiply as plain integer
convolutions, the same loops without the binomials, and one takes its n!
at its first sum or product with a jet. A factor that is one term at key
0, such as x^p or a constant, takes none of the product's bookkeeping: the
other factor keeps its keys, relabelled to the product's base, and its
integers take the term's coefficient (_relabel). Every subtree with no x
folds once into its value, an exact rational as an integer pair or, where
the working values would hold one, a double, and meets a working value only
where it scales, adds to or divides one. Calls fold too: a call of a
constant carries no truncation order, exp and cos of an exact 0 are 1 and
sin of it 0, any other is the double of the function. So every working
value holds x, and a constant one is truncated exactly when its order is
finite. A float constant in a run of products, 2^0.5 or a float-valued
call such as exp(1), waits until the run's other products are done and
scales their product once, so exact products cancel before anything
rounds: 2^0.5*exp(x)*sin(x) holds no x^8. A sum takes the lower base and
moves the other operand's keys up, by falling factorials in derivative
form, over the least common den and scale; a constant divisor scales den by
its integer ratio. No Fraction is built and no gcd taken per coefficient
(D. E. Knuth, The Art of Computer Programming, vol. 2, sec. 4.5.1), and a
jet's integers carry no N!/n!, as Taylor numerators over one denominator
would. Each coefficient rounds to a double
once at the end, as the correctly rounded quotient of two integers,
A_n / (den D^n n!) or A_n / den, and the lift of an expression at phase 0
rounds its derivatives, i! times that quotient at i = base + n, once the
same way (to_lifted). A value that holds a float (2^0.5, or exp(u0) at a
nonzero u0), or a jet whose keys would span more than _KEYS
(x^-5000 + exp(x)), keeps Taylor coefficients, Fraction and float, combined
in one fixed order. Exponents are exact too: coeffseq.rational reads each
power of x - a once, and a working value keeps an exact base exponent and
integer keys n, so its exponents base + n share one lattice by
construction; products add bases and orders exactly, on their integer
ratios, into an int where the sum is whole, so no Fraction arithmetic runs
on them and no finite order meets math.inf; the series takes its phase as
the base mod 1.

An intrinsic of a jet u = u0 + v (v without constant term) to order N is not
composed from the Taylor polynomial of the intrinsic, which costs O(N^3)
coefficient operations, but read off the differential equation it satisfies,
in O(N^2), or O(N * nnz(v)) since zero v_k are skipped. Leibniz's rule on
g' = g v' gives one recurrence in two forms. In derivative form, on the
scaled derivatives b_k = D^k v^(k)(0) and G_n = D^n g^(n)(0),

    g = exp(v):             G_n = sum_{k=1..n} C(n-1,k-1) b_k G_{n-k}
    s = sin(v), c = cos(v): S_n = sum_{k=1..n} C(n-1,k-1) b_k C_{n-k}
                            C_n = -sum_{k=1..n} C(n-1,k-1) b_k S_{n-k}

with G_0 = C_0 = 1, S_0 = 0; in Taylor form the same sums without the
binomials, over b_k = k v_k, give n g_n, n s_n and n c_n. While v is rational
the derivative form runs on integers and gives the jet over den 1 with scale
D, where a Fraction loop pays a multiply, an add and a divide by n per step,
each with its own gcds; its binomials come from the Pascal rows, cut past
the cached ones to b's highest key. The integer D makes every b_k whole:
walking k upward, it grows only where D^k leaves the denominator d_k of
v^(k)(0) uncleared, by m = d_k / gcd(d_k, D^k), and the earlier b_j take
m^j; so v = c x keeps D = den(c), where the lcm of all d_k would be far
larger, and the integers of exp(1e-300 x) stay near 53 n bits. When v holds a
float (a float u0 upstream, or 2^0.5) the Taylor form runs, on floats. A
nonzero u0 enters once at the end, as the factor exp(u0) or through
sin(u0 + v) = sin u0 cos v + cos u0 sin v and cos(u0 + v) = cos u0 cos v -
sin u0 sin v. References: R. P. Brent and H. T. Kung, "Fast algorithms for
manipulating formal power series", J. ACM 25(4), 1978; D. E. Knuth, The Art
of Computer Programming, vol. 2, sec. 4.7.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, eq, mul, truediv

from . import config
from .coeffseq import GenSeries, finite_float, has_double, kept, rational
from .errors import ExpansionError, ExponentError, GammaOverflowError
from .errors import InputError, LatticeError, ParseError
from .lifted import LiftedSeq, lift_gen

_INTRINSICS = ("exp", "sin", "cos")


# --------------------------------------------------------------------------
# AST: tag tuples
#
#     ("num", value)  ("x",)  (op, lhs, rhs) for op in + - * / ^
#     ("neg", operand)  ("call", name, arg)
#
# The tokens are two columns: their kinds, the operator itself for
# + - * / ^ ( ), else num, name or end; and (text, value, start) tuples,
# start the index in the text where the token begins. Line and column are
# counted from it only where an error names them.

_OPERATORS = "+-*/^()"


def _tokenize(text):
    kinds, tokens = [], []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _OPERATORS:
            kinds.append(ch)
            tokens.append((ch, 0.0, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdigit() or (ch == "." and i + 1 < n
                              and text[i + 1].isdigit()):
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
                raise ParseError("bad number %r" % lit,
                                 *_position(text, i)) from None
            if math.isinf(val):
                raise ParseError("number %r exceeds double range" % lit,
                                 *_position(text, i))
            kinds.append("num")
            tokens.append((lit, val, i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            kinds.append("name")
            tokens.append((text[i:j], 0.0, i))
            i = j
        else:
            raise ParseError("unexpected character %r" % ch,
                             *_position(text, i))
    kinds.append("end")
    tokens.append(("", 0.0, n))
    return kinds, tokens


def _position(text, i):
    """(line, column) of the index i, both from 1."""
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


# --------------------------------------------------------------------------
# Parser (recursive descent)


def parse(text: str):
    """Parse an expression into its AST of tag tuples (see above); errors
    carry line and column. An argument that is not text (None, bytes)
    raises ParseError."""
    if not isinstance(text, str):
        raise ParseError("an expression must be text, not %s"
                         % type(text).__name__)
    kinds, tokens = _tokenize(text)
    pos = 0

    def error(message, at):
        return ParseError(message, *_position(text, tokens[at][2]))

    def expect(op):
        nonlocal pos
        if kinds[pos] != op:
            raise error("expected %r" % op, pos)
        pos += 1

    def expr():
        nonlocal pos
        node = term()
        while (op := kinds[pos]) == "+" or op == "-":
            pos += 1
            node = (op, node, term())
        return node

    def term():
        nonlocal pos
        node = unary()
        while (op := kinds[pos]) == "*" or op == "/":
            pos += 1
            node = (op, node, unary())
        return node

    def unary():
        nonlocal pos
        if kinds[pos] == "-":
            pos += 1
            return ("neg", unary())
        return power()

    def power():
        nonlocal pos
        base = atom()
        if kinds[pos] == "^":
            pos += 1
            return ("^", base, unary())  # right-associative
        return base

    def atom():
        nonlocal pos
        at, kind = pos, kinds[pos]
        if kind == "end":
            raise error("expected expression", at)
        pos += 1
        if kind == "num":
            return ("num", tokens[at][1])
        if kind == "name":
            name = tokens[at][0]
            if name == "x":
                return ("x",)
            if name in _INTRINSICS:
                expect("(")
                arg = expr()
                expect(")")
                return ("call", name, arg)
            raise error("unknown identifier %r" % name, at)
        if kind == "(":
            node = expr()
            expect(")")
            return node
        raise error("expected expression", at)

    try:
        node = expr()
    except RecursionError:
        raise error("expression nested too deeply", pos) from None
    if kinds[pos] != "end":
        raise error("unexpected trailing input %r" % tokens[pos][0], pos)
    return node


# --------------------------------------------------------------------------
# Series expansion


class _SVal:
    """Working series value. An exact value holds integers A_n over one
    positive integer den and a positive integer scale D at keys n >= 0, the
    base at or below the lowest exponent: a jet (finite order) stands for
    the sum of A_n / (den D^n n!) (x - a)^(base + n), a polynomial (infinite
    order, D = 1) for that of A_n / den (x - a)^(base + n), and takes its n!
    at its first sum or product with a jet (_jet). A value that holds a
    float has den None and Taylor coefficients, Fraction or float, at
    integer keys n of either sign. All carry the order beyond which terms
    are unknown: math.inf, the one float it takes, marks an exact value.
    The base and a finite order are exact, an int where whole, else a
    Fraction, so no exponent has two keys; both are read by type, never
    compared with math.inf. A coeffs dict is never changed in place, so
    values may share one."""

    __slots__ = ("base", "coeffs", "order", "den", "scale")

    def __init__(self, coeffs, order=math.inf, base=0, den=1, scale=1):
        self.base = base
        self.coeffs = coeffs  # nonzero, or pruned next
        self.order = order
        self.den = den
        self.scale = scale

    def prune(self):
        """Drop the zero coefficients and the keys n past the order, where
        base + n > order."""
        if type(self.order) is float:
            self.coeffs = {n: c for n, c in self.coeffs.items() if c}
        else:
            top = _floor_diff(self.order, self.base)
            self.coeffs = {n: c for n, c in self.coeffs.items()
                           if c and n <= top}
        return self

    def min_exponent(self):
        return _plus(self.base, min(self.coeffs)) if self.coeffs else 0

    def is_constant(self):
        return self.coeffs.keys() <= {-self.base}


def _denominators(den, scale, top):
    """[den D^n n! for n = 0..top]."""
    out = [den]
    for n in range(1, top + 1):
        den *= scale * n
        out.append(den)
    return out


def _at(a, e):
    """(p, q): the Taylor coefficient p/q of an exact value at the integer
    exponent e (0 where a has no term there)."""
    n = e - a.base
    return _ratios(a, math.floor(n)).get(n, (0, 1))


def _jet(a, order, top):
    """a in derivative form to key top, for a sum or product of the finite
    order given: a polynomial's Taylor numerators take n!, a jet stands."""
    if type(a.order) is not float or a.den is None:
        return a
    return _SVal({n: c * math.factorial(n) for n, c in a.coeffs.items()
                  if n <= top}, order, a.base, a.den)


# The most keys a jet spans in derivative form. Past it, as in
# x^-5000 + exp(x), the factorials would dwarf the coefficients, and the
# value keeps Taylor Fractions as a value with a float does
_KEYS = 4096


def _mixed(coeffs, order=math.inf, base=0):
    """A value from Taylor coefficients, Fraction or float; exact once no
    float is left, over the least common denominator: Taylor numerators
    at infinite order, else in derivative form while its keys span at most
    _KEYS."""
    coeffs = {n: c for n, c in coeffs.items() if c}
    lo = min(coeffs, default=0)
    if (any(type(c) is float for c in coeffs.values()) or type(order)
            is not float and max(coeffs, default=0) - lo > _KEYS):
        return _SVal(coeffs, order, base, None)
    if lo < 0:
        coeffs = {n - lo: c for n, c in coeffs.items()}
        base = _plus(base, lo)
    if type(order) is not float:
        coeffs = {n: c * math.factorial(n) for n, c in coeffs.items()}
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return _SVal({n: c.numerator * (den // c.denominator)
                  for n, c in coeffs.items()}, order, base, den)


def _ratios(a, top=math.inf):
    """{n: (p, q)}: a's Taylor coefficients p / q at the keys n up to top,
    cut before any is converted; a float p stands over q = 1."""
    if a.den is None:
        return {n: (c, 1) if type(c) is float else c.as_integer_ratio()
                for n, c in a.coeffs.items() if n <= top}
    if type(a.order) is float:
        return {n: (c, a.den) for n, c in a.coeffs.items() if n <= top}
    qs = _denominators(a.den, a.scale, min(top, max(a.coeffs, default=0)))
    return {n: (c, qs[n]) for n, c in a.coeffs.items() if n <= top}


def _values(a):
    """a's Taylor coefficients as Fractions and floats, for the Taylor-form
    path (a float, or keys past _KEYS)."""
    return a.coeffs if a.den is None else {
        n: Fraction(p, q) for n, (p, q) in _ratios(a).items()}


def _key_shift(a, b):
    """The integer m with b.base = a.base + m, up to config.INT_TOL, read
    on the bases' integer ratios against the tolerance's exact value."""
    if type(a.base) is int is type(b.base):
        return b.base - a.base
    (p, q), (u, v) = a.base.as_integer_ratio(), b.base.as_integer_ratio()
    n, d = u * q - p * v, q * v  # b.base - a.base = n / d
    m = (2 * n + d) // (2 * d)
    t, s = config.INT_TOL.as_integer_ratio()
    if abs(n - m * d) * s > t * d:
        raise LatticeError("exponents %r and %r lie on different lattices"
                           % (float(a.min_exponent()), float(b.min_exponent())))
    return m


def _moved(a, t, scale, s, jet):
    """a's numerators times s, moved up t keys and onto the scale D, a
    multiple of a's: A_n (D/D_a)^n D^t (n+t)!/n! at key n + t for a jet,
    A_n at key n + t for a polynomial's Taylor numerators (D = 1)."""
    coeffs = _rescaled(a, scale)
    if t == 0 or not jet:
        return {n + t: c * s for n, c in coeffs.items()}
    s *= scale ** t
    return {n + t: c * s * math.perm(n + t, t) for n, c in coeffs.items()}


def _add(a, b, sign=1):
    if a.coeffs:
        base, m = a.base, _key_shift(a, b) if b.coeffs else 0
    else:
        base, m = b.base, 0
    order = _least(a.order, b.order)
    lo = min(m, 0)
    exact, jet = a.den and b.den, type(order) is not float
    if exact and jet:
        top = _floor_diff(order, _plus(base, lo))
        a, b = _jet(a, order, top + lo), _jet(b, order, top + lo - m)
    if exact and (not jet or max(max(a.coeffs, default=0) - lo,
                                 max(b.coeffs, default=0) + m - lo) <= _KEYS):
        # two exact values: the lower base takes both over one den, as
        # Taylor numerators if both are polynomials, else in derivative form
        den, scale = math.lcm(a.den, b.den), math.lcm(a.scale, b.scale)
        coeffs = _moved(a, -lo, scale, den // a.den, jet)
        for n, c in _moved(b, m - lo, scale, sign * (den // b.den),
                           jet).items():
            coeffs[n] = coeffs.get(n, 0) + c
        return _SVal(coeffs, order, _plus(base, lo), den, scale).prune()
    coeffs = dict(_values(a))
    for n, c in _values(b).items():
        coeffs[n + m] = coeffs.get(n + m, 0) + sign * c
    return _mixed(coeffs, order, base).prune()


def _scale(a, c):
    """a times the folded constant c, a's order and base kept: an exact c
    scales a's numerators and den, a float one its Taylor coefficients."""
    if c == _ZERO:
        return _SVal({}, a.order, a.base)
    if type(c) is float or not a.den:
        c = c if type(c) is float else Fraction(*c)
        return _mixed({n: c * v for n, v in _values(a).items()}, a.order,
                      a.base)
    p, q = c
    return _SVal({n: p * v for n, v in a.coeffs.items()}, a.order, a.base,
                 q * a.den, a.scale)


def _snapped(r):
    """r, or the p/q (q <= 1000) r's double reads as where r holds a literal
    rational left at its double's value (2^10 divides r's denominator then,
    and no q <= 1000): 0.0001 + 0.9999 is 1, as their float sum reads."""
    if type(r) is Fraction and r.denominator % 1024 == 0:
        s = rational(float(r))
        return s if s.denominator <= 1000 else r
    return r


def _plus(r, s):
    """r + s for exact r and s (int or Fraction), on their integer ratios:
    an int where whole, and no Fraction built where either is 0."""
    if not s:
        return r
    if not r:
        return s
    if type(r) is int is type(s):
        return r + s
    (p, q), (u, v) = r.as_integer_ratio(), s.as_integer_ratio()
    return _exact(p * v + u * q, q * v)


def _exact(p, q):
    """The exponent or order p/q (ints, q > 0): an int where whole, else
    a Fraction, the one built."""
    return p // q if p % q == 0 else Fraction(p, q)


def _least(r, s):
    """min(r, s) for orders, exact or math.inf, compared on integer
    ratios: no Fraction's comparison with a float or another Fraction."""
    if type(s) is float:
        return r
    if type(r) is float:
        return s
    (p, q), (u, v) = r.as_integer_ratio(), s.as_integer_ratio()
    return s if u * q < p * v else r


def _floor_diff(r, s):
    """floor(r - s) for exact r and s, on their integer ratios: no Fraction
    is built."""
    (p, q), (u, v) = r.as_integer_ratio(), s.as_integer_ratio()
    return (p * v - u * q) // (q * v)


# The most terms a product or power of polynomials may hold, as many as two
# of degree config.MAX_JET_ORDER multiply to; judged before it is computed
_TERMS = 2 * config.MAX_JET_ORDER + 1

# Pascal rows kept between calls, C(n, i) for n up to this order; a longer
# product walks its higher rows again, so what stays behind is bounded
_ROW_CACHE = 128
_ROWS = [[1]]


def _pascal(top, width):
    """The rows [C(n, 0), ..., C(n, n)] for n = 0..top, by Pascal's rule;
    past the cached ones each is cut to its first width entries, all that
    the next cut row needs, so a row cut to one entry stays [1]."""
    rows = _ROWS
    while len(rows) <= min(top, _ROW_CACHE):
        row = rows[-1]
        rows.append([1, *map(add, row, row[1:]), 1])
    if top < len(rows):
        return rows[:top + 1]
    row = rows[-1][:width]
    if width == 1:
        return chain(rows, repeat(row, top + 1 - len(rows)))
    return chain(rows, (row := [1, *map(add, row, row[1:]), 1][:width]
                        for _ in range(len(rows), top + 1)))


def _mul(a, b):
    # a factor that is one exact term at key 0, such as x^p or a constant,
    # relabels the other; any other pair, or one _relabel declines, takes
    # the general product
    one, other = (a, b) if len(a.coeffs) == 1 and 0 in a.coeffs else (b, a)
    if len(one.coeffs) == 1 and 0 in one.coeffs and one.den:
        out = _relabel(other, one.coeffs[0], one.den, *_exponents(a, b))
        if out is not None:
            return out
    return _product(a, b)


def _exponents(a, b):
    """(order, base) of the product a * b: each finite order adds the
    other factor's lowest exponent and the least sum is the order, and the
    bases add. Exact, on integer ratios, so the sums build no Fraction the
    product does not hold; an exact factor's order, math.inf, stays out of
    them, since inf + r would round r to a double."""
    order = math.inf
    for o, m in ((a.order, b), (b.order, a)):
        if type(o) is not float:
            if m.coeffs:
                o = _plus(o, _plus(min(m.coeffs), m.base))
            order = _least(order, o)
    return _snapped(order), _snapped(_plus(a.base, b.base))


def _relabel(a, c, d, order, base):
    """a times a term c/d at key 0, the product's order and base given:
    a's keys stay, relabelled from a.base to base, and its numerators take
    c over den d a.den, a polynomial's first its n! in a jet. None where the
    general product must run: a holds a float, or could pass _TERMS or
    _KEYS."""
    jet = type(order) is not float
    top = _floor_diff(order, base) if jet else order
    if not a.den or (jet and _KEYS < min(top, max(a.coeffs, default=0))
                     or not jet and len(a.coeffs) > _TERMS):
        return None
    if not a.coeffs:
        return _SVal({}, order, base)
    if jet:
        a = _jet(a, order, top)
    coeffs = a.coeffs
    if jet and max(coeffs, default=top) > top:
        coeffs = {n: v for n, v in coeffs.items() if n <= top}
    if c == d:
        return _SVal(coeffs, order, base, a.den, a.scale)
    return _SVal({n: c * v for n, v in coeffs.items()}, order, base,
                 a.den * d, a.scale)


def _product(a, b):
    order, base = _exponents(a, b)
    jet = type(order) is not float  # else both factors are polynomials
    top = _floor_diff(order, base) if jet else order
    if not jet and len(a.coeffs) * len(b.coeffs) > _TERMS and _TERMS <= (
            max(a.coeffs) - min(a.coeffs) + max(b.coeffs) - min(b.coeffs)):
        raise ExpansionError("polynomial product passes %d terms" % _TERMS)
    if not (a.den and b.den) or jet and _KEYS < min(
            top, max(a.coeffs, default=0) + max(b.coeffs, default=0)):
        # Taylor coefficients, in the fixed order
        return _mixed(_pairs(_values(a), _values(b), top, False), order, base)
    if not (a.coeffs and b.coeffs):
        return _SVal({}, order, base)
    if jet:
        a, b = _jet(a, order, top), _jet(b, order, top)
    # c_n = sum_i a_i b_(n-i) on Taylor numerators, or on the derivatives
    # over the common scale the binomial convolution c_n = sum_i C(n, i)
    # a_i b_(n-i): pair by pair where that takes less than _ROW_COST steps
    # per row the row sums would walk, so a product with a short polynomial
    # or of sparse ones walks no rows
    scale = math.lcm(a.scale, b.scale)
    pa, pb = _rescaled(a, scale), _rescaled(b, scale)
    rows = min(top, max(pa) + max(pb)) + 1
    pairwise = len(pa) * len(pb) < _ROW_COST * rows
    acc = (_pairs if pairwise else _convolved)(pa, pb, top, jet)
    acc = {n: v for n, v in acc.items() if v}
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
    return _SVal(acc, order, base, den // g, scale)


def _rescaled(a, scale):
    """a's numerators on the scale D, a multiple of a's: A_n (D/D_a)^n."""
    r = scale // a.scale
    if r == 1:
        return a.coeffs
    return {n: c * r ** n for n, c in a.coeffs.items()}


# One row of _convolved costs about as much as this many pair steps of
# _pairs: a polynomial of t terms times the jet of exp(x/2) or cos(x/2) at
# orders 16 to 256 convolves faster pair by pair up to about t = 16
_ROW_COST = 16


def _pairs(pa, pb, top, binomial):
    """The convolution of {n: a_n} and {n: b_n} to key top, binomial or
    not, one pair of terms at a time; the binomials read from the cached
    Pascal rows where the product's keys stay within them."""
    acc, rows = {}, None
    pb = sorted(pb.items())
    if binomial and (last := min(top, max(pa) + pb[-1][0])) <= _ROW_CACHE:
        rows = _pascal(last, last + 1)
    for i, x in sorted(pa.items()):
        for j, y in pb:
            n = i + j
            if n > top:
                break
            xy = x * y
            if binomial:
                xy *= rows[n][i] if rows else math.comb(n, i)
            acc[n] = acc.get(n, 0) + xy
    return acc


def _convolved(pa, pb, top, binomial):
    """The convolution of {n: a_n} and {n: b_n} to key top, binomial or
    not, row by row: each c_n is one sum, over the Pascal row n if binomial,
    stepping over the keys of the factor with the wider stride only (2 for
    sin and cos)."""
    ka, kb = min(pa), min(pb)
    sa, sb = math.gcd(*(n - ka for n in pa)), math.gcd(*(n - kb for n in pb))
    if sa < sb:
        pa, pb, sa, sb, ka, kb = pb, pa, sb, sa, kb, ka
    na, nb = max(pa), max(pb)
    va, rb = [0] * (na + 1), [0] * (nb + 1)  # rb[nb - j] = b_j
    for n, c in pa.items():
        va[n] = c
    for n, c in pb.items():
        rb[nb - n] = c
    g = math.gcd(sa, sb)  # c_n = 0 unless n = ka + kb mod g
    last = min(top, na + nb)
    acc = {}
    for n, row in enumerate(_pascal(last, last + 1) if binomial
                            else repeat(None, last + 1)):
        lo, hi = max(ka, n - nb), min(na, n - kb) + 1
        lo += (ka - lo) % sa
        if lo < hi and (n - ka - kb) % g == 0:
            terms = va[lo:hi:sa]
            if binomial:
                terms = map(mul, row[lo:hi:sa], terms)
            acc[n] = sum(map(mul, terms, rb[nb - n + lo:nb - n + hi:sa]))
    return acc


def _powi(a, n):
    out = _SVal({0: 1})
    while n > 0:
        if n & 1:
            out = _mul(out, a)
        a = _mul(a, a) if n > 1 else a
        n >>= 1
    return out


def _scaled_derivatives(terms):
    """(D, [(k, b_k)]) for v with v^(k)(0) = p_k / q_k over the terms
    (k, p_k, q_k), k >= 1 ascending, p_k != 0: the b_k = D^k p_k / q_k, all
    integers. D grows only where D^k misses the reduced denominator d_k of
    p_k / q_k, by m = d_k / gcd(d_k, D^k), and the earlier b_j then take
    m^j, so v = c x keeps D = den(c)."""
    scale, b = 1, []
    for k, num, q in terms:
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


def _exp_jet(b, top, taylor):
    """g = exp(v) to key top, from g' = g v': in derivative form the scaled
    derivatives G_n, b the [(k, b_k)] of _scaled_derivatives; in Taylor
    form the coefficients g_n, b the [(k, k v_k)]."""
    # G_n = sum_k C(n-1,k-1) b_k G_(n-k), or n g_n = sum_k b_k g_(n-k)
    g = [Fraction(1) if taylor else 1] + [0] * top
    rows = (repeat(None, top) if taylor
            else _pascal(top - 1, b[-1][0] if b else 1))
    for n, row in enumerate(rows, 1):
        acc = 0
        for k, bk in b:
            if k > n:
                break
            acc += (row[k - 1] * bk if row else bk) * g[n - k]
        g[n] = (acc / n if acc else 0) if taylor else acc
    return g


def _sin_cos_jet(b, top, taylor):
    """(s, c): s = sin(v) and c = cos(v) to key top, from s' = c v' and
    c' = -s v', in either form as _exp_jet."""
    # S_n = sum_k C(n-1,k-1) b_k C_(n-k), C_n = -sum_k C(n-1,k-1) b_k S_(n-k)
    s = [0] * (top + 1)
    c = [Fraction(1) if taylor else 1] + [0] * top
    rows = (repeat(None, top) if taylor
            else _pascal(top - 1, b[-1][0] if b else 1))
    for n, row in enumerate(rows, 1):
        acc_s = acc_c = 0
        for k, bk in b:
            if k > n:
                break
            w = row[k - 1] * bk if row else bk
            acc_s += w * c[n - k]
            acc_c -= w * s[n - k]
        s[n] = (acc_s / n if acc_s else 0) if taylor else acc_s
        c[n] = (acc_c / n if acc_c else 0) if taylor else acc_c
    return s, c


def _compose_intrinsic(func, inner, order):
    """func(inner) to the jet order: func(u0) combined with func(v), v =
    inner - u0, whose derivatives come from the recurrences above, on
    integers while v is rational."""
    trunc = _least(order, inner.order)
    cut = math.floor(trunc)  # past it no key is known: below 0, none
    top = max(cut, 0)
    if inner.coeffs and (inner.base.denominator != 1 or inner.min_exponent() < 0):
        raise ExpansionError(
            "argument of %s must be an analytic jet (offending exponent %r)"
            % (func, float(inner.min_exponent())))
    # v's Taylor coefficients u_k = p / q, k = n + base <= top
    shift = inner.base.numerator
    u = sorted((n + shift, p, q)
               for n, (p, q) in _ratios(inner, top - shift).items())
    _, p, q = u.pop(0) if u and u[0][0] == 0 else (0, 0, 1)
    u0 = p if type(p) is float else (p, q)
    # the jets of exp, or of sin and cos: scaled derivatives while v is
    # rational (a float u0 beside it enters at the end), else Taylor form
    taylor = not inner.den and any(type(p) is float for _, p, _ in u)
    if taylor:
        b = [(k, k * p if type(p) is float else Fraction(k * p, q))
             for k, p, q in u]
    else:
        scale, b = _scaled_derivatives((k, math.factorial(k) * p, q)
                                       for k, p, q in u)
    jets = ([_exp_jet(b, top, taylor)] if func == "exp"
            else _sin_cos_jet(b, top, taylor))
    if not p:
        jet = jets[func == "cos"]
        if taylor:
            return _mixed(dict(enumerate(jet)), trunc).prune()
        return _SVal({n: c for n, c in enumerate(jet) if c and n <= cut},
                     trunc, 0, 1, scale)
    f0 = [_float_op(fn, u0, func) for fn in
          ((math.exp,) if func == "exp" else (math.sin, math.cos))]
    if not taylor:  # each coefficient rounds once, to meet the float func(u0)
        qs = _denominators(1, scale, top)
        jets = [list(map(truediv, jet, qs)) for jet in jets]
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
    """fn at the double of u0, a float or an integer pair (p, q), q > 0."""
    try:
        return fn(_double(u0))
    except (OverflowError, ValueError):
        fits = type(u0) is float or has_double(u0[1], u0[0])
        arg = "%r" % _double(u0) if fits else "an argument past 2^1024"
        raise ExpansionError("%s(%s) is out of double range" % (what, arg)) from None


# --------------------------------------------------------------------------
# Folded constants
#
# A subtree with no x, calls included, expands once into its value: an
# exact rational as a reduced pair (p, q), q > 0, or a double, never 0.0.
# They combine as the working values they stand for would: exact arithmetic
# while both are exact, else the doubles, each exact one rounded once as
# Fraction's float() rounds it; a float result of 0.0 is the exact 0, as
# _mixed drops it, and every error is the one the working values raise.

_ZERO = (0, 1)


def _val(c):
    """The working value of c, a folded constant or already one."""
    if type(c) is _SVal:
        return c
    if type(c) is float:
        return _SVal({0: c}, math.inf, 0, None)
    p, q = c
    return _SVal({0: p} if p else {}, den=q)


def _constant(v):
    """The folded constant of a constant working value, of either form: a
    Taylor coefficient the prune left a Fraction reads as its pair."""
    p, q = _at(v, 0)
    return p if type(p) is float else _ratio(p, q)


def _ratio(p, q):
    """The reduced pair of p/q, q > 0."""
    g = math.gcd(p, q)
    return (p, q) if g == 1 else (p // g, q // g)


def _double(c):
    """The double of a folded constant."""
    return c if type(c) is float else c[0] / c[1]


def _floated(x):
    """A float result as a folded constant: 0.0 is the exact 0."""
    return x if x else _ZERO


def _folded_sum(a, b, sign):
    """a + sign b."""
    if type(a) is tuple and type(b) is tuple:
        (p, q), (u, v) = a, b
        return _ratio(p * v + sign * u * q, q * v)
    if b == _ZERO:
        return a
    if a == _ZERO:
        return sign * b
    return _floated(_double(a) + sign * _double(b))


def _folded_product(a, b):
    if type(a) is tuple and type(b) is tuple:
        (p, q), (u, v) = a, b
        return _ratio(p * u, q * v)
    if a == _ZERO or b == _ZERO:
        return _ZERO
    return _floated(_double(a) * _double(b))


def _folded_power(c, expo):
    """c^expo, expo a finite double: an integer power up to 1024 exactly,
    or on a float by _powi's squarings; any other by math.pow."""
    if expo.is_integer() and abs(expo) <= 1024:
        n = int(expo)
        if n < 0 and c == _ZERO:
            raise ExpansionError(
                "negative powers are only supported on (x - basepoint)")
        if type(c) is float:
            return _floated(c ** n) if n < 0 else _constant(_powi(_val(c), n))
        p, q = c
        if _POWER_BITS < abs(n) * max(p.bit_length(), q.bit_length()):
            raise ExpansionError("constant power ^%d passes %d bits"
                                 % (n, _POWER_BITS))
        if n >= 0:  # coprime parts need no gcd
            return p ** n, q ** n
        p, q = q ** -n, p ** -n
        return (p, q) if q > 0 else (-p, -q)
    if (c if type(c) is float else c[0]) <= 0:
        raise ExpansionError("real power of a non-positive constant")
    return _floated(math.pow(_double(c), expo))


# --------------------------------------------------------------------------
# The tree walk

_CHAIN = ("+", "-", "*")


def _expand(node, basepoint, order):
    """The working value of an expression tree."""
    return _val(_value(node, basepoint, order))


def _value(node, basepoint, order):
    """node's working value, or its folded constant where it holds no x."""
    tag = node[0]
    if tag == "num":
        p, q = node[1].as_integer_ratio()
        return p, q
    if tag == "x":  # x^1 at base point 0, else a + (x - a)
        p, q = basepoint.as_integer_ratio()
        return _SVal({0: p, 1: q}, den=q) if p else _SVal({0: 1}, base=1)
    if tag == "neg":
        a = _value(node[1], basepoint, order)
        if type(a) is _SVal:
            return _scale(a, (-1, 1))
        return -a if type(a) is float else (-a[0], a[1])
    if tag == "call" and node[1] in _INTRINSICS:
        # a call of a folded constant folds too: it is exact at an exact 0,
        # else the double of the function, and carries no jet order
        a = _value(node[2], basepoint, order)
        if type(a) is _SVal:
            return _compose_intrinsic(node[1], a, order)
        if a == _ZERO:
            return _ZERO if node[1] == "sin" else (1, 1)
        return _floated(_float_op(getattr(math, node[1]), a, node[1]))
    if tag in _CHAIN:
        return _chain(node, basepoint, order)
    if tag == "/":
        return _quotient(node[1], node[2], basepoint, order)
    if tag == "^":
        return _power(node[1], node[2], basepoint, order)
    raise TypeError("not an expression node: %r" % (node,))


def _chain(node, basepoint, order):
    # a left-deep chain of + - * folds left to right in a loop, so a sum or
    # product of any length expands without recursing along it. A float
    # constant met by a working value waits, the float constants after it
    # multiplied in as they come, until the run of products it stands in
    # is done, and then scales the run's product once: exact products
    # cancel before any rounding; an exact constant scales the working
    # value at once. A factor that could pass _TERMS is multiplied in
    # order, so its product is refused where it was
    chain = []
    while node[0] in _CHAIN:
        chain.append(node)
        node = node[1]
    acc = _value(node, basepoint, order)
    k = None  # the float factor waiting
    for link in reversed(chain):  # by index: a short node is no tree
        tag, b = link[0], _value(link[2], basepoint, order)
        if tag == "*":
            if type(acc) is not _SVal and type(b) is not _SVal:
                acc = _folded_product(acc, b)
                continue
            a, c = (acc, b) if type(b) is not _SVal else (b, acc)
            if type(c) is _SVal or len(a.coeffs) > _TERMS:
                acc = _mul(_val(acc), _val(b))
            elif type(c) is float:
                k, acc = c if k is None else k * c, a
            else:
                acc = _scale(a, c)
            continue
        if k is not None:
            acc, k = _scale(acc, _floated(k)), None
        sign = 1 if tag == "+" else -1
        if type(acc) is not _SVal and type(b) is not _SVal:
            acc = _folded_sum(acc, b, sign)
        else:
            acc = _add(_val(acc), _val(b), sign)
    return acc if k is None else _scale(acc, _floated(k))


def _quotient(num_node, den_node, basepoint, order):
    # a nonzero constant, not one the jet order truncated, which may hide
    # x past its order. The divisor expands first, and a zero one is
    # refused before the numerator expands
    den = _value(den_node, basepoint, order)
    if type(den) is _SVal:
        if not den.is_constant() or type(den.order) is not float:
            raise ExpansionError("division only by nonzero constants")
        den = _constant(den)
    if type(den) is float:
        inv = 1.0 / den
    else:
        p, q = den
        if not p:
            raise ExpansionError("division by zero")
        inv = (q, p) if p > 0 else (-q, -p)
    num = _value(num_node, basepoint, order)
    if type(num) is not _SVal:
        return _folded_product(inv, num)
    return _scale(num, inv)


# The most bits an exact constant power c^n may give its numerator or
# denominator, judged from c's before c^n is computed: (2^1000)^1000 fits
_POWER_BITS = 1 << 21


def _power_term(expo):
    """(x - basepoint)^expo, verbatim: an integer exponent stays an int,
    since ints add fast."""
    e = rational(expo)
    return _SVal({0: 1}, base=e.numerator if e.denominator == 1 else e)


def _power(base_node, expo_node, basepoint, order):
    # the exponent: the correctly rounded double of the constant it expands
    # to, not of one the jet order truncated
    e = _value(expo_node, basepoint, order)
    if type(e) is _SVal:
        if not e.is_constant() or type(e.order) is not float:
            raise ExpansionError("exponent must be a constant expression")
        e = _constant(e)
    expo = _double(e)
    if not math.isfinite(expo):
        raise ExpansionError("exponent %r is not finite" % expo)
    if base_node[0] == "x" and not basepoint:
        return _power_term(expo)
    base = _value(base_node, basepoint, order)
    if type(base) is not _SVal:
        return _folded_power(base, expo)
    exact = type(base.order) is float
    if (exact and base.den and len(base.coeffs) == 1
            and eq(*_at(base, 1))):
        return _power_term(expo)
    n = int(expo) if expo.is_integer() and abs(expo) <= 1024 else None
    # a constant base powers as a folded one: an exact one always, one the
    # jet order truncated under positive integer powers alone, keeping its
    # order as the products would. A zero base's positive powers run _powi
    # below, which keeps its exponent
    if base.is_constant() and (base.coeffs if n and n > 0 else exact):
        out = _val(_folded_power(_constant(base), expo))
        out.order = base.order
        return out
    if n is not None:
        if n < 0:
            raise ExpansionError(
                "negative powers are only supported on (x - basepoint)")
        # a polynomial's power, judged before its squarings as _mul judges each
        t = len(base.coeffs)
        if (n > 1 and t > 1 and exact
                and math.comb(n + t - 1, t - 1) > _TERMS
                and n * (max(base.coeffs) - min(base.coeffs)) >= _TERMS):
            raise ExpansionError("polynomial power ^%d passes %d terms"
                                 % (n, _TERMS))
        return _powi(base, n)
    p1, q1 = _at(base, 1) if base.den else (0, 1)
    if len(base.coeffs) == 2 and p1 == q1:  # x - c, c not the base point
        p0, q0 = _at(base, 0)
        p, q = basepoint.as_integer_ratio()
        c = Fraction(p * q0 - p0 * q, q * q0)
        shown = float(c) if float(c) != basepoint else c  # c exact if need be
        raise ExpansionError("power term centered at %s, expected base point "
                             "%r" % (shown, basepoint))
    raise ExpansionError("real exponents are only supported on (x - basepoint)")


def _expanded(expr, basepoint, order, *finish):
    """[fn(val, basepoint, m) for fn in finish]: val the working value of
    expr (AST or text) at the base point, m = floor(val.base). An expr that
    is neither, or a tuple not of parse's shape, raises InputError."""
    tree = not isinstance(expr, str)
    if not tree:
        expr = parse(expr)
    elif type(expr) is not tuple:
        raise InputError("an expression must be text or a tree from parse, "
                         "not %s" % type(expr).__name__)
    if order is None:
        order = config.DEFAULT_ORDER
    elif not isinstance(order, int):
        order = finite_float(order, ExponentError, "jet order")
    if order < 0:
        raise ExpansionError("jet order must be nonnegative, got %r" % order)
    if order > config.MAX_JET_ORDER:
        raise ExpansionError("jet order %r passes the limit %d"
                             % (order, config.MAX_JET_ORDER))
    basepoint = finite_float(basepoint, InputError, "basepoint")
    try:
        val = _expand(expr, basepoint, int(order))
        # exact until here: each exponent and the order rounds to a double
        m = math.floor(val.base)
        if val.coeffs and not has_double(1, min(val.coeffs) + m,
                                         max(val.coeffs) + m):
            raise OverflowError
        return [fn(val, basepoint, m) for fn in finish]
    except (OverflowError, ValueError):
        raise ExpansionError("an exponent, order or coefficient exceeds "
                             "double range") from None
    except RecursionError:
        raise ExpansionError("expression nested too deeply") from None
    except (TypeError, IndexError, AttributeError, KeyError):
        if not tree:  # parse's trees have its shape
            raise
        raise InputError("%.60r is not an expression tree" % (expr,)) from None


def _rounded(val, m):
    """(keys, qs, vals): the keys n to_series keeps, moved by m, the
    denominators {n: q_n} of their Taylor coefficients A_n / q_n, and those
    coefficients rounded once as int / int; refused where to_series refuses
    a coefficient."""
    keys = sorted(val.coeffs)
    if type(val.order) is float:
        qs = dict.fromkeys(keys, val.den)
    else:
        qs = _denominators(val.den, val.scale, keys[-1] if keys else 0)
    keys, vals = kept(keys, [val.coeffs[n] / qs[n] for n in keys], m,
                      ExpansionError, "a coefficient")
    return keys, qs, vals


def _series(val, basepoint, m):
    if val.den:
        keys, _, vals = _rounded(val, m)
    else:
        keys = sorted(val.coeffs)
        keys, vals = kept(keys, [finite_float(val.coeffs[n]) for n in keys],
                          m, ExpansionError, "a coefficient")
    return GenSeries._of(basepoint, _phase(val.base, m), keys, vals,
                         None if type(val.order) is float
                         else float(val.order))


def _phase(base, m):
    """base - m as a Fraction, m = floor(base): no Fraction wraps one."""
    if type(base) is not Fraction:
        return Fraction(base - m)
    if not m:
        return base
    p, q = base.as_integer_ratio()
    return Fraction(p - m * q, q)


def to_series(expr, basepoint: float = 0.0, order: int | None = None) -> GenSeries:
    """Expand an expression (AST or text) into a truncated generalized power
    series at the base point. `order` bounds intrinsic jet expansions
    (config.DEFAULT_ORDER when None, at most config.MAX_JET_ORDER); exact
    algebraic content (polynomials, verbatim power terms) is kept verbatim.
    A base point that is no finite number, or an expr that is neither text
    nor a tree of parse's shape, raises InputError, and an order that is no
    finite number ExponentError."""
    return _expanded(expr, basepoint, order, _series)[0]


def _lifted(val, basepoint, m):
    # a float, a phase other than 0, or an index whose factorial would
    # overflow every value (x^1e300)
    if not val.den or val.base != m or max(val.coeffs, default=0) + m > _KEYS:
        return lift_gen(_series(val, basepoint, m))
    # the terms to_series keeps; the one at index i = base + n lifts to
    # i! A_n / (den D^n n!), rounded once
    index, qs, _ = _rounded(val, m)
    if index and index[0] < 0:  # refused as lift_gen refuses it
        raise ExponentError("term at exponent %r has no preimage under "
                            "projection (Gamma pole)" % float(index[0]))
    vals = []
    for i in index:
        p, q = val.coeffs[i - m] * math.factorial(i), qs[i - m]
        # past the double range an infinity, which kept refuses
        vals.append(p / q if has_double(q, p)
                    else math.inf if p > 0 else -math.inf)
    return LiftedSeq._of(basepoint, Fraction(0),
                         *kept(index, vals, 0, GammaOverflowError,
                               "a lifted value"),
                         None if type(val.order) is float
                         else rational(float(val.order)))


def to_lifted(expr, basepoint: float = 0.0,
              order: int | None = None) -> LiftedSeq:
    """Expand an expression as to_series does and lift it: at phase 0, the
    exact derivatives f^(i)(a) at the indices i, each rounded once to a
    double; at any other phase, or where the expansion holds a float,
    lift_gen of to_series. Refuses what lift_gen refuses."""
    return _expanded(expr, basepoint, order, _lifted)[0]


def to_series_and_lifted(expr, basepoint: float = 0.0,
                         order: int | None = None):
    """(to_series, to_lifted) of the expression, from one expansion."""
    return tuple(_expanded(expr, basepoint, order, _series, _lifted))
