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
stands for, and config.int_tol decides whether each other exponent lies on
that lattice (a member takes the nearest key). Every operation after that
builds its result from keys and exact rational phases.

Coefficient sequences (a jet's entries f^(i)(a), on the integers) are
lifted sequences at offset 0; see `lifted`.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cached_property

from . import config
from .errors import (
    BasepointError,
    EvalDomainError,
    ExponentError,
    InputError,
    LatticeError,
)

# Largest denominator `rational` tries: decimals with up to three digits
# after the point, and every p/q with q <= 12, are read exactly.
_MAX_DENOMINATOR = 1000

# How far, in units of max(1, |x|), a double may lie from the rational it is
# read as: a few roundings (as in 0.85 - 1). Rationals with denominators up
# to 1000 lie at least 1e-6 apart, so at most one is this close.
_SLACK = 4.0 * sys.float_info.epsilon


def fmt17(v):
    """A float with 17 significant digits, which reads back exactly: the
    number format of every machine-readable output."""
    return format(float(v), ".17g")


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


def has_double(*rs) -> bool:
    """Whether each exact number r (an int or Fraction) rounds to a finite
    double: lies below the midpoint of the largest double, 2^1024 - 2^971,
    and 2^1024, where rounding to even goes up."""
    return all(abs(r) < 2**1024 - 2**970 for r in rs)


def nonzero(values):
    """{key: value} without the values below COEF_EPS in magnitude."""
    eps = config.COEF_EPS
    return {n: v for n, v in values.items() if abs(v) >= eps}


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
    within config.int_tol of n + phase joins key n, and equal keys add.
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
    tol = config.int_tol
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


class GenSeries:
    """Finite generalized power series around a base point: coefficient
    coeffs[n] (at least COEF_EPS in magnitude) at exponent n + phase.

    GenSeries(basepoint, pairs, truncation_order) is the float entry for
    (exponent, coefficient) pairs, which merges equal exponents and rejects
    exponents off a single lattice; GenSeries.keyed takes keys directly.
    truncation_order, when not None, records the order beyond which terms
    are an unrepresented remainder (a truncated transcendental jet).
    Series compare equal when all four fields do.
    """

    def __init__(self, basepoint, terms=(), truncation_order=None):
        self.phase, self.coeffs = _lattice(
            [(float(e), float(c)) for e, c in terms])
        self.basepoint = float(basepoint)
        self.truncation_order = truncation_order

    @classmethod
    def keyed(cls, basepoint, phase, coeffs, truncation_order=None):
        """sum coeffs[n] * (x-basepoint)^(n + phase) as given: phase a
        Fraction in [0, 1), coeffs {int: float}, none below COEF_EPS."""
        f = object.__new__(cls)
        f.__dict__.update(basepoint=basepoint, phase=phase, coeffs=coeffs,
                          truncation_order=truncation_order)
        return f

    def _fields(self):
        return self.basepoint, self.phase, self.coeffs, self.truncation_order

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("GenSeries(basepoint=%r, phase=%r, coeffs=%r, "
                "truncation_order=%r)" % self._fields())

    @cached_property
    def terms(self):
        """The terms as (exponent, coefficient) float pairs, exponent-sorted."""
        p, q = self.phase.numerator, self.phase.denominator
        return tuple([((n * q + p) / q, c)
                      for n, c in sorted(self.coeffs.items())])

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, exponent):
        """The coefficient at the lattice point within config.int_tol of
        exponent, or 0.0."""
        d = exponent - self.phase.numerator / self.phase.denominator
        if not math.isfinite(d) or abs(d - round(d)) > config.int_tol:
            return 0.0
        return self.coeffs.get(round(d), 0.0)

    def exponents(self):
        return [e for e, _ in self.terms]

    def __add__(self, other):
        if not isinstance(other, GenSeries):
            return NotImplemented
        if self.basepoint != other.basepoint:
            raise BasepointError(
                "cannot add series at base points %r and %r"
                % (self.basepoint, other.basepoint)
            )
        orders = [o for o in (self.truncation_order, other.truncation_order)
                  if o is not None]
        order = min(orders) if orders else None
        a, b = (self, other) if self.coeffs else (other, self)
        if b.coeffs and a.phase != b.phase:
            # two phases: the exponents enter again as floats
            return GenSeries(self.basepoint, a.terms + b.terms, order)
        return GenSeries.keyed(self.basepoint, a.phase,
                               add_values(a.coeffs, b.coeffs), order)

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return GenSeries.keyed(self.basepoint, self.phase, nonzero(
            {n: c * v for n, v in self.coeffs.items()}), self.truncation_order)

    __rmul__ = __mul__

    def __call__(self, x):
        return series_eval(self, x)


def monomial(exponent, coefficient=1.0, basepoint=0.0):
    """Single power term coefficient*(x-basepoint)^exponent."""
    return GenSeries(basepoint, ((exponent, coefficient),))


def series_eval(f: GenSeries, x) -> float:
    """Evaluate sum of coefficient*(x-a)^exponent.

    Non-integer exponents (a nonzero phase) require x > a; negative
    exponents require x != a."""
    x = float(x)
    dx = x - f.basepoint
    terms = f.terms
    if dx <= 0.0 and terms:
        e0 = terms[0][0]
        if f.phase:
            raise EvalDomainError(
                "non-integer exponent %r needs x > basepoint (x=%r, a=%r)"
                % (e0, x, f.basepoint))
        if dx == 0.0 and e0 < 0.0:
            raise EvalDomainError(
                "negative exponent %r undefined at the base point" % e0)
    total = 0.0
    try:
        for e, c in terms:
            total += c * math.pow(dx, e)
    except OverflowError:
        raise EvalDomainError(
            "series value at x=%r exceeds double range" % x) from None
    return total


def int_derivative(f: GenSeries, n: int = 1) -> GenSeries:
    """Exact termwise integer-order derivative (falling-factorial products);
    independent of the Gamma kernel."""
    coeffs = {}
    for key, (exp, c) in zip(sorted(f.coeffs), f.terms):
        for _ in range(n):
            c *= exp
            exp -= 1.0
        if abs(c) >= config.COEF_EPS:
            coeffs[key - n] = c
    order = None if f.truncation_order is None else f.truncation_order - n
    return GenSeries.keyed(f.basepoint, f.phase, coeffs, order)


def int_antiderivative(f: GenSeries, n: int = 1) -> GenSeries:
    """Exact termwise n-fold antiderivative with zero constants; exponent -1
    terms are outside its domain."""
    coeffs = {}
    for key, (exp, c) in zip(sorted(f.coeffs), f.terms):
        for _ in range(n):
            exp += 1.0
            if exp == 0.0:
                raise ExponentError("antiderivative of exponent -1 term")
            c /= exp
        coeffs[key + n] = c
    order = None if f.truncation_order is None else f.truncation_order + n
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
