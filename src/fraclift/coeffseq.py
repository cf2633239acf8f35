"""Generalized power series on one exponent lattice.

A GenSeries is a finite sum of real-power terms b*(x-a)^e whose exponents
all lie on one lattice {phase + n : n integer}. It is stored exactly, as

    (basepoint, phase, keys, vals, truncation_order)

with phase a Fraction in [0, 1), keys ascending ints and vals the aligned
float coefficients: key n stands for the exponent n + phase, so an exponent
is an integer key, never a float matched within a tolerance. Ordinary
truncated Taylor jets are the phase-0 case. .coeffs is a read-only {n: b}
view, and .terms the (exponent, coefficient) float pairs, the exponents
being the correctly rounded doubles of n + phase; both are built on first
read.

Floats join a lattice in one place, the float entry: the positional
constructor GenSeries(basepoint, pairs, order), series_from_json, and each
real-exponent literal of an expression (the parser). The exponent of
smallest magnitude fixes the phase, read by `rational` as the fraction it
stands for, and config.INT_TOL decides whether each other exponent lies on
that lattice (a member takes the nearest key). The entry builds the
lattice's own doubles for the rounded keys, the list .exponents() gives,
and one list comparison with the input exponents settles membership where
every key lies within 2^21 of 0; only a column that differs, or keys past
that bound, take the tolerance scan. Where no key merged and no value was
dropped, that checked list is kept as the series' exponent column, which
.terms reads. Every operation after that builds its result from keys and
exact rational phases.

series_eval sums a series by Horner's rule where its keys are evenly
spaced, every g-th integer (g = 1: consecutive keys, a Taylor jet; g = 2:
the odd or even keys of sin and cos): with dx = x - a, sum c_n dx^(n +
phase) is then dx^e_lo times a polynomial in dx^g, run from the highest
key in dx^g when |dx| <= 1 and from the lowest key in dx^-g, times dx^e_hi,
when |dx| > 1, so no partial sum overflows where no term does: at most two
powers per evaluation, and an error of a few rounding units per term
relative to sum |c_n dx^e_n|. Other keys take one power per term. g is
found once per series, so every evaluation at a point gives the same double.

Coefficient sequences (a jet's entries f^(i)(a), on the integers) are
lifted sequences at offset 0. Both kinds share one class body,
LatticeValues, and every computed value one step, `kept`, which refuses a
value that is not a finite double and drops those below COEF_EPS. A column
is tested finite by one C-level sum; it is scanned value by value only
where that sum is not finite.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from fractions import Fraction
from itertools import compress, islice
from operator import lt, sub
from types import MappingProxyType

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

# The largest key magnitude at which an exponent equal to its key's lattice
# double is a lattice member without the tolerance scan: below it a half-ulp
# of the exponent, and of the exponent less the phase, is at most 2^-32, so
# |fl(e - phase) - n| stays under config.INT_TOL. Past it equality proves
# nothing and the scan decides.
_EXACT_KEYS = 2**21

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
    field or a value of the wrong type raises InputError naming what, and
    so does text that is not a str (None, bytes)."""
    if not isinstance(text, str):
        raise InputError("%s JSON must be text, not %s"
                         % (what, type(text).__name__))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s JSON: %s" % (what, exc)) from None
    except RecursionError:
        raise InputError("%s JSON nested too deeply" % what) from None
    try:
        return read(doc)
    except KeyError as exc:
        raise InputError("%s JSON lacks the field %s" % (what, exc)) from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError("malformed %s JSON: %s" % (what, exc)) from None


def finite_float(v, error=ValueError, what="number"):
    """float(v), refusing with error what is no finite number: an infinity,
    NaN, a string or an int past the double range."""
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise error("%s is not a finite %s" % (_shown(v), what))
    return x


def point(v, what="evaluation point"):
    """float(v) of a point or base point, refusing with InputError what is
    no number of double range: a string, None or an int past 2^1024. An
    infinity or NaN passes, for the caller's domain to decide."""
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        raise InputError("%s %s is not a number" % (what, _shown(v))) from None


def _shown(v):
    # repr(v), cut to 60 characters
    r = repr(v)
    return r if len(r) <= 60 else r[:57] + "..."


def has_double(q, *ns) -> bool:
    """Whether each exact number n/q (ints, q > 0) rounds to a finite
    double: lies below _DOUBLE_BOUND in magnitude."""
    bound = _DOUBLE_BOUND * q
    return all(-bound < n < bound for n in ns)


def _not_finite(column):
    # the first value of a float column that is not finite, else None: one
    # C-level sum, and a scan only where the sum is not finite, to name the
    # bad value or clear finite values whose sum overflowed
    if math.isfinite(sum(column)):
        return None
    return next((v for v in column if not math.isfinite(v)), None)


def kept(keys, vals, m, error, what):
    """(keys moved by m, vals) without the values below COEF_EPS in
    magnitude; a value that is not a finite double raises error. The values
    are tested finite by their sum, and scanned only when it is not."""
    bad = _not_finite(vals)
    if bad is not None:
        raise error("%s is %r, not a finite double" % (what, bad))
    if m:
        keys = [n + m for n in keys]
    eps = config.COEF_EPS
    if vals and min(map(abs, vals)) < eps:
        keep = [abs(v) >= eps for v in vals]
        keys, vals = list(compress(keys, keep)), list(compress(vals, keep))
    return keys, vals


def rational(x) -> Fraction:
    """The exact rational a float exponent or order stands for: the p/q with
    q <= 1000 within a few roundings of x (4 eps max(1, |x|)), found among
    the convergents of x's continued fraction, else the double's own binary
    value. So the doubles of 1/3, 0.1 and -5/3, and 0.85 - 1 as computed in
    doubles, read as 1/3, 1/10, -5/3 and -3/20, while pi/3 keeps its binary
    value. x that is no finite number raises ExponentError.

    x is checked first; the answer is then a plan, cached per double, as
    the float entry's phase and the per-lattice plans of rl, lifted and
    gamma.lattice_scaled are: each cache keeps config.PLAN_CACHE entries,
    least recently used dropped first, and holds only exact values, so a
    call's result never depends on the calls before it."""
    return _rational(finite_float(x, ExponentError, "exponent or order"))


@functools.lru_cache(maxsize=config.PLAN_CACHE)
def _rational(x):
    # rational's plan: x a finite double. A negative x is read through -x,
    # whose fractional part x - floor(x) is exact, so rational(-x) is
    # -rational(x) and a shift by -k undoes the shift by k
    if x < 0.0:
        return -_rational(-x)
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
    return _phase(min(exponents, key=abs))


@functools.lru_cache(maxsize=config.PLAN_CACHE)
def _phase(x):
    # _phase_of's plan, cached per finite double x as rational's is: the
    # fractional part of the rational x stands for
    r = _rational(x)
    return Fraction(r.numerator % r.denominator, r.denominator)


def _doubles(keys, p, q):
    # the exponents n + p/q of keys as correctly rounded doubles
    if q == 1:
        return list(map(float, keys))
    return [(n * q + p) / q for n in keys]


def _lattice(pairs, phase=None):
    """(phase, keys, vals, exps) for (exponent, coefficient) pairs read as
    floats: the float entry. Unless given, the phase is read from the
    exponents; an exponent within config.INT_TOL of n + phase joins key n,
    and equal keys add in input order. exps is the keys' lattice doubles
    where no key merged and no value was dropped, else None. Raises
    ExponentError for a non-finite exponent, LatticeError for one off the
    lattice and InputError for a coefficient that is not a finite double or
    pairs that are no sequence of pairs."""
    if not isinstance(pairs, (list, tuple)):
        try:
            pairs = list(pairs)
        except TypeError:
            raise InputError("the terms %s are not a sequence of pairs"
                             % _shown(pairs)) from None
    if not pairs:
        return Fraction(0), [], [], None
    # two lists, no n-tuples: CPython keeps up to 2000 freed tuples of each
    # length below 20, which a column tuple per series would fill
    try:
        exps = [float(e) for e, _ in pairs]
        vals = [float(c) for _, c in pairs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError("a term is not a pair of numbers: %s" % exc) from None
    bad = _not_finite(exps)
    if bad is not None:
        raise ExponentError("exponent %r is not finite" % bad)
    read = phase is None
    if read:
        phase = _phase_of(exps)
    p, q = phase.numerator, phase.denominator
    ph = p / q
    ds = [e - ph for e in exps] if ph else exps
    keys = list(map(float.__round__, ds))  # round(), without its dispatch
    ascending = all(map(lt, keys, islice(keys, 1, None)))
    lo, hi = (keys[0], keys[-1]) if ascending else (min(keys), max(keys))
    lattice = _doubles(keys, p, q)
    # membership by equality first (_EXACT_KEYS); the scan where it fails
    if ((lattice != exps or lo < -_EXACT_KEYS or hi > _EXACT_KEYS)
            and max(map(abs, map(sub, ds, keys))) > config.INT_TOL):
        off = [e for e, d, n in zip(exps, ds, keys)
               if abs(d - n) > config.INT_TOL]
        first = min(exps, key=abs)
        if not read:
            raise LatticeError("exponent %r lies off the lattice %s + n"
                               % (off[0], phase))
        if first in off:  # the exponent the phase was read from
            raise LatticeError(
                "exponent %r has a fractional part below what rational "
                "resolves at its magnitude (%.2g)"
                % (first, _SLACK * abs(first)))
        raise LatticeError("exponents %r and %r lie on different lattices"
                           % (first, off[0]))
    if not ascending:
        # out of order or repeated: sort, adding equal keys in input order
        acc = dict.fromkeys(sorted(keys), 0.0)
        for n, c in zip(keys, vals):
            acc[n] += c
        keys, vals, lattice = list(acc), list(acc.values()), None
    size = len(vals)
    keys, vals = kept(keys, vals, 0, InputError, "a coefficient")
    return phase, keys, vals, lattice if len(vals) == size else None


class LatticeValues:
    """Values on a shifted integer lattice: a base point, the lattice's
    exact rational place (the field _place names), ascending int keys and
    the aligned float vals, none below COEF_EPS in magnitude, and a
    truncation order or None. _of takes them as given; columns are shared
    and never changed in place. The view _view names is built on first
    read."""

    # a __dict__ slot keeps attribute reads fast on the dict _of installs
    __slots__ = ("__dict__",)
    _place = ""  # "phase" or "offset"
    _view = ""  # "coeffs" or "values"
    _noun = ""  # what the error messages call two instances
    _map = None

    @classmethod
    def _of(cls, basepoint, place, keys, vals, truncation_order=None):
        x = object.__new__(cls)
        x.__dict__ = {"basepoint": basepoint, cls._place: place, "keys": keys,
                      "vals": vals, "truncation_order": truncation_order}
        return x

    @classmethod
    def keyed(cls, basepoint, place, mapping, truncation_order=None):
        """The instance holding mapping {key: value} as given: no value is
        checked or dropped."""
        keys = sorted(mapping)
        return cls._of(basepoint, place, keys, [mapping[n] for n in keys],
                       truncation_order)

    def _fields(self):
        d = self.__dict__
        return (d["basepoint"], d[self._place], d["keys"], d["vals"],
                d["truncation_order"])

    def _with(self, keys, vals, truncation_order):
        return self._of(self.basepoint, self._fields()[1], keys, vals,
                        truncation_order)

    def _mapping(self):
        if self._map is None:
            self._map = MappingProxyType(dict(zip(self.keys, self.vals)))
        return self._map

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        b, place, _, _, order = self._fields()
        return "%s(basepoint=%r, %s=%r, %s=%r, truncation_order=%r)" % (
            type(self).__name__, b, self._place, place, self._view,
            dict(self._mapping()), order)

    @property
    def is_zero(self):
        return not self.keys

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.basepoint != other.basepoint:
            raise BasepointError(
                "cannot add %s at base points %r and %r"
                % (self._noun, self.basepoint, other.basepoint))
        order = min((o for o in (self.truncation_order, other.truncation_order)
                     if o is not None), default=None)
        return self._sum(other, order)

    def _merged(self, other, order):
        # the keywise sum on one lattice
        acc = dict(zip(self.keys, self.vals))
        for n, v in zip(other.keys, other.vals):
            acc[n] = acc.get(n, 0.0) + v
        keys = sorted(acc)
        return self._with(*kept(keys, [acc[n] for n in keys], 0, InputError,
                                "a sum"), order)

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return self._with(*kept(self.keys, [v * c for v in self.vals], 0,
                                InputError, "a product"),
                          self.truncation_order)

    __rmul__ = __mul__


class GenSeries(LatticeValues):
    """Finite generalized power series around a base point: coefficient
    vals[i] (at least COEF_EPS in magnitude) at exponent keys[i] + phase.

    GenSeries(basepoint, pairs, truncation_order) is the float entry for
    (exponent, coefficient) pairs, which merges equal exponents and rejects
    exponents off a single lattice; GenSeries.keyed takes keys directly.
    truncation_order, when not None, records the order beyond which terms
    are an unrepresented remainder (a truncated transcendental jet). A
    basepoint, order or term that is no finite number, or terms that are
    not a sequence of pairs, raise InputError.
    """

    _place = "phase"
    _view = "coeffs"
    _noun = "series"
    _terms = None  # .terms, built on the first read
    _plan = None  # series_eval's Horner step and end exponents, likewise
    _exps = None  # the float entry's checked exponent column, if it holds

    def __init__(self, basepoint, terms=(), truncation_order=None):
        self.phase, self.keys, self.vals, self._exps = _lattice(terms)
        self.basepoint = finite_float(basepoint, InputError, "basepoint")
        self.truncation_order = (
            None if truncation_order is None
            else finite_float(truncation_order, InputError, "truncation order"))

    coeffs = property(LatticeValues._mapping)

    @property
    def terms(self):
        """The terms as (exponent, coefficient) float pairs, exponent-sorted."""
        if self._terms is None:
            # from a list: tuple() of an iterator takes a length-10 tuple
            # from CPython's free lists and resizes it, so freed ones pile
            # up in the lists of other lengths
            exps = self._exps
            self._terms = tuple([*zip(
                self.exponents() if exps is None else exps, self.vals)])
        return self._terms

    def exponents(self):
        """The exponents n + phase as doubles, ascending, in a new list."""
        return _doubles(self.keys, self.phase.numerator,
                        self.phase.denominator)

    def coefficient(self, exponent):
        """The coefficient at the lattice point within config.INT_TOL of
        exponent, or 0.0."""
        d = exponent - self.phase.numerator / self.phase.denominator
        if not math.isfinite(d) or abs(d - round(d)) > config.INT_TOL:
            return 0.0
        return self.coeffs.get(round(d), 0.0)

    def _sum(self, other, order):
        a, b = (self, other) if self.keys else (other, self)
        if b.keys and a.phase != b.phase:
            # two phases: the exponents enter again as floats
            return GenSeries(self.basepoint, a.terms + b.terms, order)
        return a._merged(b, order)


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
    series is evaluated many times. The caller that does, the quadrature
    oracle's integrand, mostly meets evenly spaced Taylor jets, but not
    always: x^(1/2) * cos(-x/2 + x^2) has keys 0, 2, 3, ... (cos(-x/2 +
    x^2) has no x^1 term), so each of its evaluations takes one power per
    term.

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
    x = point(x)
    dx = x - f.basepoint
    vals = f.vals
    if not vals:
        return 0.0
    plan = f._plan
    if plan is None:  # g >= 1 where the keys are every g-th integer, else 0
        keys, p, q = f.keys, f.phase.numerator, f.phase.denominator
        g = keys[1] - keys[0] if len(keys) > 1 else 1
        if keys != list(range(keys[0], keys[0] + g * len(keys), g)):
            g = 0
        plan = f._plan = (g, (keys[0] * q + p) / q, (keys[-1] * q + p) / q)
    g, e_lo, e_hi = plan
    if dx <= 0.0:
        if f.phase:
            raise EvalDomainError(
                "non-integer exponent %r needs x > basepoint (x=%r, a=%r)"
                % (e_lo, x, f.basepoint))
        if dx == 0.0 and e_lo < 0.0:
            raise EvalDomainError(
                "negative exponent %r undefined at the base point" % e_lo)
    s = 0.0
    try:
        if not g:
            for e, c in f.terms:
                s += c * math.pow(dx, e)
            value = s
        elif -1.0 <= dx <= 1.0:
            m = dx if g == 1 else math.pow(dx, g)
            for c in reversed(vals):
                s = s * m + c
            value = s * math.pow(dx, e_lo)
        else:
            m = 1.0 / dx if g == 1 else math.pow(dx, -g)
            for c in vals:
                s = s * m + c
            value = s * math.pow(dx, e_hi)
    except OverflowError:
        raise EvalDomainError(
            "series value at x=%r exceeds double range" % x) from None
    if not math.isfinite(value):
        raise EvalDomainError(
            "series value at x=%r is %r, not a finite double" % (x, value))
    return value


def eval_within_reach(f: GenSeries, x) -> float:
    """series_eval(f, x). When f is a truncated jet (its truncation_order
    is set), a last term at x above _TAIL_TOL max(1, |value|) raises
    TruncationError: a heuristic guard against evaluating past the jet's
    reach."""
    value = series_eval(f, x)
    if f.truncation_order is not None and f.keys:
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
    antiderivative with zero constants, which refuses exponent -1. A
    coefficient that leaves the double range raises GammaOverflowError, as
    rl_series does. A term stops at its first zero or non-finite
    coefficient, so a huge n costs no more than a small one."""
    if not isinstance(n, int):
        raise ExponentError("order %r is not an integer" % (n,))
    vals = []
    for exp, c in f.terms:
        if n <= exp < 0.0 and exp.is_integer():  # passes exponent -1
            raise ExponentError("antiderivative of exponent -1 term")
        for _ in range(n):
            c *= exp
            exp -= 1.0
            if c == 0.0 or not math.isfinite(c):
                break
        for _ in range(-n):
            exp += 1.0
            c /= exp
            if c == 0.0 or not math.isfinite(c):
                break
        vals.append(c)
    order = f.truncation_order
    if order is not None:
        if not has_double(1, n):
            raise ExponentError("order %s passes the double range" % _shown(n))
        order -= n
    return f._with(*kept(f.keys, vals, -n, GammaOverflowError,
                         "a coefficient"), order)


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
        basepoint = finite_float(doc["basepoint"])
        phase, keys, vals, exps = _lattice(pairs, phase)
        f = GenSeries._of(basepoint, phase, keys, vals,
                          None if order is None else finite_float(order))
        f._exps = exps
        return f

    return read_json(text, "series", read)
