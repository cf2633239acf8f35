"""Generalized power series on one exponent lattice.

A GenSeries is a finite sum of real-power terms b*(x-a)^e whose exponents
all lie on one lattice {phase + n : n integer}. It is stored exactly, as

    (basepoint, phase, {n: b}, truncation_order)

with phase a Fraction in [0, 1): key n stands for the exponent n + phase, so
an exponent is an integer key, never a float matched within a tolerance.
Ordinary truncated Taylor jets are the phase-0 case. .terms holds plain
(exponent, coefficient) float pairs, exponent-sorted; the exponents are the
correctly rounded doubles of n + phase.

Floats join a lattice in one place, the float entry: the positional
constructor GenSeries(basepoint, pairs, order), series_from_json, and each
real-exponent literal of an expression (the parser). The exponent of
smallest magnitude fixes the phase, read by `rational` as the fraction it
stands for, and config.INT_TOL decides whether each other exponent lies on
that lattice (a member takes the nearest key). Every operation after that
builds its result from keys and exact rational phases.

series_eval sums a series by Horner's rule where its keys are evenly
spaced, every g-th integer (g = 1: consecutive keys, a Taylor jet; g = 2:
the odd or even keys of sin and cos): with dx = x - a, sum c_n dx^(n +
phase) is then dx^e_lo times a polynomial in dx^g, run from the highest
key in dx^g when |dx| <= 1 and from the lowest key in dx^-g, times dx^e_hi,
when |dx| > 1, so no partial sum overflows where no term does: at most two
powers per evaluation, and an error of a few rounding units per term
relative to sum |c_n dx^e_n|. Other keys take one power per term. The rule
reads the one sort of the keys that .terms is built from, so it costs no
pass of its own, and every evaluation of a series at a point gives the
same double.

Coefficient sequences (a jet's entries f^(i)(a), on the integers) are
lifted sequences at offset 0. Both kinds share one class body,
LatticeValues, and rl_series, project and lift_gen one scale step, scaled.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from . import config
from .errors import (
    BasepointError,
    EvalDomainError,
    ExponentError,
    GammaOverflowError,
    InputError,
    LatticeError,
    TruncationError,
)

# Largest denominator `rational` tries: decimals with up to three digits
# after the point, and every p/q with q <= 12, are read exactly.
_MAX_DENOMINATOR = 1000

# How far, in units of max(1, |x|), a double may lie from the rational it is
# read as: a few roundings (as in 0.85 - 1). Rationals with denominators up
# to 1000 lie at least 1e-6 apart, so at most one is this close.
_SLACK = 4.0 * sys.float_info.epsilon

# Halfway from the largest double (2^1024 - 2^971) to 2^1024; ties round up
_DOUBLE_BOUND = 2**1024 - 2**970

# The largest relative size of a truncated series' last term where it is read
_TAIL_TOL = 1e-8

def fmt17(v):
    """A float with 17 significant digits, which reads back exactly: the
    number format of every machine-readable output. A value that is not a
    finite double raises GammaOverflowError, so no output holds inf or nan."""
    x = float(v)
    if not math.isfinite(x):
        raise GammaOverflowError("an output value is %r, not a finite double"
                                 % x)
    return format(x, ".17g")


def read_json(text, what, read):
    """read(doc) for the JSON document in text. Malformed JSON, a missing
    field or a value of the wrong type raises InputError naming what."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s JSON: %s" % (what, exc)) from None
    try:
        return read(doc)
    except KeyError as exc:
        raise InputError("%s JSON lacks the field %s" % (what, exc)) from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError("malformed %s JSON: %s" % (what, exc)) from None


def finite_float(v):
    """float(v), refusing infinities and NaN with ValueError."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError("not a finite number: %r" % (v,))
    return x


def has_double(q, *ns) -> bool:
    """Whether each exact number n/q (ints, q > 0) rounds to a finite
    double: lies below _DOUBLE_BOUND in magnitude."""
    bound = _DOUBLE_BOUND * q
    return all(-bound < n < bound for n in ns)


def nonzero(values):
    """{key: value} without the values below COEF_EPS in magnitude."""
    eps = config.COEF_EPS
    return {n: v for n, v in values.items() if abs(v) >= eps}


def scaled(values, keys, factors, m, what):
    """{n + m: values[n] * g} for n, g in zip(keys, factors) without products
    below COEF_EPS in magnitude, the last step of rl_series, project and
    lift_gen; one that is not a finite double raises GammaOverflowError."""
    eps = config.COEF_EPS
    out = {n + m: v for n, g in zip(keys, factors)
           if abs(v := values[n] * g) >= eps}
    if not all(map(math.isfinite, out.values())):
        bad = next(v for v in out.values() if not math.isfinite(v))
        raise GammaOverflowError("%s is %r, not a finite double" % (what, bad))
    return out


def add_values(a, b):
    """The keywise sum of two {key: value} maps, without zeros."""
    out = dict(a)
    for n, v in b.items():
        out[n] = out.get(n, 0.0) + v
    return nonzero(out)


def rational(x) -> Fraction:
    """The exact rational a float exponent or order stands for: the p/q with
    q <= 1000 within a few roundings of x (4 eps max(1, |x|)), found among
    the convergents of x's continued fraction, else the double's own binary
    value. So the doubles of 1/3, 0.1 and -5/3, and 0.85 - 1 as computed in
    doubles, read as 1/3, 1/10, -5/3 and -3/20, while pi/3 keeps its binary
    value. Non-finite x raises ExponentError."""
    x = float(x)
    if not math.isfinite(x):
        raise ExponentError("%r is not a finite exponent or order" % x)
    slack = _SLACK * max(1.0, abs(x))
    n0 = math.floor(x)
    y = x - n0
    if y <= slack:
        return Fraction(n0)
    if 1.0 - y <= slack:
        return Fraction(n0 + 1)
    p0, q0, p1, q1 = 1, 0, 0, 1  # convergents of y: 1/0, then 0/1
    while y and (y := 1.0 / y) <= _MAX_DENOMINATOR:
        a = math.floor(y)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > _MAX_DENOMINATOR:
            break
        if abs(x - (n0 * q1 + p1) / q1) <= slack:
            return Fraction(n0 * q1 + p1, q1)
        y -= a
    return Fraction(x)


def _phase_of(exponents):
    # the lattice phase the float entry reads: that of the exponent of
    # smallest magnitude, whose fractional part carries the most bits
    r = rational(min(exponents, key=abs))
    return r - math.floor(r)


def _lattice(pairs, phase=None):
    """(phase, {n: c}) for float (exponent, coefficient) pairs: the float
    entry. Unless given, the phase is read from the exponents; an exponent
    within config.INT_TOL of n + phase joins key n, and equal keys add.
    Raises ExponentError for a non-finite exponent, InputError for a
    non-finite coefficient and LatticeError for one off the lattice."""
    if not pairs:
        return Fraction(0), {}
    exps = [e for e, _ in pairs]
    if not all(map(math.isfinite, exps)):
        raise ExponentError("exponent %r is not finite"
                            % next(e for e in exps if not math.isfinite(e)))
    if phase is None:
        phase = _phase_of(exps)
    ph = phase.numerator / phase.denominator
    tol = config.INT_TOL
    coeffs = {}
    for e, c in pairs:
        d = e - ph
        n = round(d)
        if abs(d - n) > tol:
            raise LatticeError(
                "exponents %r and %r lie on different lattices"
                % (min(exps, key=abs), e))
        coeffs[n] = coeffs.get(n, 0.0) + c
    if not all(map(math.isfinite, coeffs.values())):
        raise InputError("a coefficient is not finite")
    return phase, nonzero(coeffs)


class LatticeValues:
    """Values on a shifted integer lattice: the fields _names names, a base
    point, the lattice's exact rational place, a map {int: float} with no
    value below COEF_EPS in magnitude, then the subclass's own. _keyed takes
    them by name as given; instances compare and print field by field, add
    at one base point (the subclass's _sum adds the maps) and scale."""

    # a __dict__ slot keeps attribute reads fast on the dict _keyed installs
    __slots__ = ("__dict__",)
    _names = ()
    _noun = ""  # what the error messages call two instances

    @classmethod
    def _keyed(cls, **fields):
        x = object.__new__(cls)
        x.__dict__ = fields
        return x

    def _fields(self):
        return tuple([self.__dict__[name] for name in self._names])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % pair for pair in zip(self._names, self._fields())))

    @property
    def is_zero(self):
        return not self._fields()[2]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.basepoint != other.basepoint:
            raise BasepointError(
                "cannot add %s at base points %r and %r"
                % (self._noun, self.basepoint, other.basepoint))
        return self._sum(other)

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        fields = dict(zip(self._names, self._fields()))
        name = self._names[2]
        fields[name] = nonzero({n: c * v for n, v in fields[name].items()})
        return self._keyed(**fields)

    __rmul__ = __mul__


class GenSeries(LatticeValues):
    """Finite generalized power series around a base point: coefficient
    coeffs[n] (at least COEF_EPS in magnitude) at exponent n + phase.

    GenSeries(basepoint, pairs, truncation_order) is the float entry for
    (exponent, coefficient) pairs, which merges equal exponents and rejects
    exponents off a single lattice; GenSeries.keyed takes keys directly.
    truncation_order, when not None, records the order beyond which terms
    are an unrepresented remainder (a truncated transcendental jet).
    """

    _names = ("basepoint", "phase", "coeffs", "truncation_order")
    _noun = "series"
    # .terms and series_eval's Horner step, set together on the first read
    _terms = None

    def __init__(self, basepoint, terms=(), truncation_order=None):
        self.phase, self.coeffs = _lattice(
            [(float(e), float(c)) for e, c in terms])
        self.basepoint = float(basepoint)
        self.truncation_order = truncation_order

    @classmethod
    def keyed(cls, basepoint, phase, coeffs, truncation_order=None):
        """sum coeffs[n] * (x-basepoint)^(n + phase) as given: phase a
        Fraction in [0, 1), coeffs {int: float}, none below COEF_EPS."""
        return cls._keyed(basepoint=basepoint, phase=phase, coeffs=coeffs,
                          truncation_order=truncation_order)

    @property
    def terms(self):
        """The terms as (exponent, coefficient) float pairs, exponent-sorted."""
        if self._terms is None:
            p, q = self.phase.numerator, self.phase.denominator
            items = sorted(self.coeffs.items())
            # series_eval's Horner step, read from this one sort of the keys
            self._step = _even_step(items, self.coeffs)
            self._terms = tuple([((n * q + p) / q, c) for n, c in items])
        return self._terms

    def coefficient(self, exponent):
        """The coefficient at the lattice point within config.INT_TOL of
        exponent, or 0.0."""
        d = exponent - self.phase.numerator / self.phase.denominator
        if not math.isfinite(d) or abs(d - round(d)) > config.INT_TOL:
            return 0.0
        return self.coeffs.get(round(d), 0.0)

    def exponents(self):
        return [e for e, _ in self.terms]

    def _sum(self, other):
        order = min((o for o in (self.truncation_order, other.truncation_order)
                     if o is not None), default=None)
        a, b = (self, other) if self.coeffs else (other, self)
        if b.coeffs and a.phase != b.phase:
            # two phases: the exponents enter again as floats
            return GenSeries(self.basepoint, a.terms + b.terms, order)
        return GenSeries.keyed(self.basepoint, a.phase,
                               add_values(a.coeffs, b.coeffs), order)


def _even_step(items, coeffs):
    """g >= 1 where the keys of the key-sorted items are every g-th integer
    from the lowest one, else 0."""
    n = len(items)
    if n < 3:
        return items[1][0] - items[0][0] if n == 2 else 1
    lo, hi = items[0][0], items[-1][0]
    g = items[1][0] - lo
    # n distinct keys fill the n points lo, lo + g, ..., hi
    if hi - lo == g * (n - 1) and all(
            map(coeffs.__contains__, range(lo + g, hi, g))):
        return g
    return 0


def monomial(exponent, coefficient=1.0):
    """Single power term coefficient*x^exponent."""
    return GenSeries(0.0, ((exponent, coefficient),))


def series_eval(f: GenSeries, x) -> float:
    """Evaluate sum of coefficient*(x-a)^exponent: by Horner's rule where the
    keys are evenly spaced, else one power per term.

    With dx = x - a and exponents n + phase, keys every g-th integer make
    the sum dx^e_lo times a polynomial in m = dx^g. For |dx| <= 1 Horner
    runs in m from the highest key down and the result takes dx^e_lo; for
    |dx| > 1 it runs in 1/m from the lowest key up and takes dx^e_hi. So no
    partial sum grows past the sum of |coefficient|: keys -160..160 at
    dx = 10 would pass 10^320 in dx. Other keys are summed term by term, so
    time and memory follow the term count whatever the key span: a Horner
    pass across uneven gaps costs more than the powers it saves unless the
    series is evaluated many times, and the caller that does (the
    quadrature oracle's integrand) meets Taylor jets, evenly spaced.

    Error (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 5): over n terms, at most about (3n + 4) u times sum
    |coefficient * dx^exponent|, u = 2^-53: 2 roundings per Horner step, 1
    more from m or 1/m, and the first power with the last product. The
    exponents are e_lo or e_hi as a double plus integers, so that double's
    rounding scales every term alike, as a termwise sum's rounding of e_n
    scales its term. Which sum is taken depends on the keys alone, so a
    series evaluated at a point twice gives the same double.

    Non-integer exponents (a nonzero phase) require x > a; negative
    exponents require x != a. A power that overflows, or a value that is not
    a finite double, raises EvalDomainError."""
    x = float(x)
    dx = x - f.basepoint
    terms = f._terms or f.terms  # the slot once built: no property call
    if not terms:
        return 0.0
    if dx <= 0.0:
        e0 = terms[0][0]
        if f.phase:
            raise EvalDomainError(
                "non-integer exponent %r needs x > basepoint (x=%r, a=%r)"
                % (e0, x, f.basepoint))
        if dx == 0.0 and e0 < 0.0:
            raise EvalDomainError(
                "negative exponent %r undefined at the base point" % e0)
    g = f._step
    s = 0.0
    try:
        if not g:
            for e, c in terms:
                s += c * math.pow(dx, e)
            value = s
        elif -1.0 <= dx <= 1.0:
            m = dx if g == 1 else math.pow(dx, g)
            for _, c in reversed(terms):
                s = s * m + c
            value = s * math.pow(dx, terms[0][0])
        else:
            m = 1.0 / dx if g == 1 else math.pow(dx, -g)
            for _, c in terms:
                s = s * m + c
            value = s * math.pow(dx, terms[-1][0])
    except OverflowError:
        raise EvalDomainError(
            "series value at x=%r exceeds double range" % x) from None
    if not math.isfinite(value):
        raise EvalDomainError(
            "series value at x=%r is %r, not a finite double" % (x, value))
    return value


def eval_within_reach(f: GenSeries, x, truncated) -> float:
    """series_eval(f, x). When f stands for a truncated jet (truncated; the
    lifted route's results do not record it), a last term at x above
    _TAIL_TOL max(1, |value|) raises TruncationError: a heuristic guard
    against evaluating past the jet's reach."""
    value = series_eval(f, x)
    if truncated and f.terms:
        e_last, c_last = f.terms[-1]
        tail = abs(c_last) * abs(x - f.basepoint) ** e_last
        if tail > _TAIL_TOL * max(1.0, abs(value)):
            raise TruncationError(
                "series truncation too coarse at x=%r (last term %g)"
                % (x, tail))
    return value


def int_derivative(f: GenSeries, n: int = 1) -> GenSeries:
    """Exact termwise derivative of integer order n (falling-factorial
    products), independent of the Gamma kernel; for n < 0 the (-n)-fold
    antiderivative with zero constants, which refuses exponent -1."""
    if not isinstance(n, int):
        raise ExponentError("order %r is not an integer" % (n,))
    coeffs = {}
    for key, (exp, c) in zip(sorted(f.coeffs), f.terms):
        for _ in range(n):
            c *= exp
            exp -= 1.0
        for _ in range(-n):
            exp += 1.0
            if exp == 0.0:
                raise ExponentError("antiderivative of exponent -1 term")
            c /= exp
        if abs(c) >= config.COEF_EPS:
            coeffs[key - n] = c
    order = None if f.truncation_order is None else f.truncation_order - n
    return GenSeries.keyed(f.basepoint, f.phase, coeffs, order)


def series_to_json(f: GenSeries) -> str:
    """Canonical JSON: {"basepoint": a, "terms": [{"exp": e, "coef": c}...]},
    exponent-sorted, 17 significant digits. A phase the exponents do not
    determine (one the float entry would read differently) follows the terms
    as "phase_exact": "p/q", and "truncation_order": N comes last when the
    series is a truncated jet."""
    terms = f.terms
    parts = ", ".join(
        '{"exp": %s, "coef": %s}' % (fmt17(e), fmt17(c)) for e, c in terms
    )
    phase = ""
    if terms and _phase_of([e for e, _ in terms]) != f.phase:
        phase = ', "phase_exact": "%s"' % f.phase
    order = ("" if f.truncation_order is None
             else ', "truncation_order": %s' % fmt17(f.truncation_order))
    return '{"basepoint": %s, "terms": [%s]%s%s}' % (
        fmt17(f.basepoint), parts, phase, order)


def series_from_json(text: str) -> GenSeries:
    """Inverse of series_to_json, preferring "phase_exact" to the phase the
    exponents give; malformed input raises InputError."""
    def read(doc):
        pairs = [(finite_float(t["exp"]), finite_float(t["coef"]))
                 for t in doc["terms"]]
        phase = doc.get("phase_exact")
        if phase is not None:
            phase = Fraction(phase)
            if not 0 <= phase < 1:
                raise ValueError("phase_exact %s is not in [0, 1)" % phase)
        order = doc.get("truncation_order")
        return GenSeries.keyed(finite_float(doc["basepoint"]),
                               *_lattice(pairs, phase),
                               None if order is None else finite_float(order))

    return read_json(text, "series", read)
