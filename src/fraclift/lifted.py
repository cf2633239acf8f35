"""The lifted space: sequences on a shifted integer lattice.

A LiftedSeq represents a function rho on the real line that vanishes off the
lattice Z - offset, with rho(j - offset) = values[j] and an exact rational
offset (a float one read as the rational it stands for, coeffseq.rational).
It holds the indices j and the values as the key and value columns of
coeffseq.LatticeValues. A sequence on the integers (a jet's entries
f^(i)(a)) is its own embedding, the lifted sequence at offset 0, and
on_integers() restricts back. Fractional differentiation becomes pure
offset arithmetic:

    shift(rho, k): offset += k, values untouched

which commutes exactly, by construction, for all real orders (an order
enters as the rational it stands for, coeffseq.rational). A lifted jet
keeps its truncation order N as an exact rational, and shift lowers it by
k, so the lifted route reports N - k as the termwise route does.

Projection sends index j to exponent t = j - offset with coefficient
values[j] / Gamma(t+1). At an integer offset the poles t+1 <= 0 are the
indices j < offset, sliced off at once, so at offset 0 projection
annihilates exactly the sequences on the negative indices. lift_gen inverts
projection on series without negative-integer exponents, putting exponent
n + phase at index n (phase 0) or n + 1 (offset 1 - phase).

Both directions multiply their value column by Gamma along the lattice in
one pass, gamma.lattice_scaled, as they read it from the lattice's table,
walked once from one scalar anchor by Pochhammer steps, at arguments
rounded once from their exact rationals; coeffseq.kept then drops the
products below COEF_EPS and refuses a non-finite one. project's table
divides, 1/Gamma(t+2) = (1/Gamma(t+1))/(t+1), on t+1 = j + 1 - offset;
lift_gen's multiplies, Gamma(e+2) = (e+1) Gamma(e+1), on e+1 = n + phase
+ 1. So
a lifted value depends only on its own index. gamma.pole_top
finds the poles of either lattice with one exact test: project drops those
indices, and lift_gen refuses a series with a term on one.

What depends only on the lattice is a plan, cached: shift's per (offset
p/q, order k as a checked double) holds k's rational r and the new offset;
lift_gen's per phase p/q and project's per offset p/q hold the lattice's
pole top, the key shift and the result's offset or phase. A call keeps the
work on its keys (the double-range test at its end keys, the pole
bisection, slicing and the scaled table read). Each plan cache keeps
config.PLAN_CACHE entries and holds only ints and Fractions, so no result
depends on the calls before it.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import config
from .coeffseq import GenSeries, LatticeValues, finite_float, fmt17
from .coeffseq import has_double, kept, rational, read_json
from .errors import BasepointError, ExponentError, GammaOverflowError
from .errors import InputError
from .gamma import lattice_scaled, pole_top, poles


def _index(j) -> int:
    # an integral index as an int; InputError for anything else
    try:
        n = int(j)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != j:
        raise InputError("lifted index %r is not an integer" % (j,))
    return n


def _exact(x) -> Fraction:
    # an int or Fraction as it is, a float as the rational it stands for
    if isinstance(x, float):
        return rational(x)
    try:
        return Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        raise InputError("%.60r is not a rational number" % (x,)) from None


class LiftedSeq(LatticeValues):
    """Finite-support lifted sequence: values on the lattice Z - offset.

    The constructor cleans its input: integral indices as ints, float
    values, none below COEF_EPS, and an int or Fraction offset or truncation
    order exact, a float one read by `rational`; a basepoint or value that
    is not a finite double, an index that is not an integer, an offset
    that is no number or values that are not a mapping raise InputError.
    LiftedSeq.keyed takes the values as given."""

    _place = "offset"
    _view = "values"
    _noun = "lifted sequences"

    def __init__(self, basepoint, offset=0, values=None,
                 truncation_order=None):
        self.basepoint = finite_float(basepoint, InputError, "basepoint")
        self.offset = _exact(offset)
        self.truncation_order = (None if truncation_order is None
                                 else _exact(truncation_order))
        try:
            items = (values or {}).items()
        except AttributeError:
            raise InputError("the lifted values %.60r are not a mapping of "
                             "index to value" % (values,)) from None
        try:
            values = {_index(j): float(v) for j, v in items}
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError("a lifted value is not a number: %s" % exc) from None
        keys = sorted(values)
        self.keys, self.vals = kept(keys, [values[j] for j in keys], 0,
                                    InputError, "a lifted value")

    values = property(LatticeValues._mapping)

    def _sum(self, other, order):
        if self.offset != other.offset:
            raise BasepointError(
                "cannot add lifted sequences on different lattices "
                "(offsets %s and %s)" % (self.offset, other.offset))
        return self._merged(other, order)

    def on_integers(self) -> LiftedSeq:
        """Restriction to the integer lattice, as a sequence at offset 0.
        Zero unless the offset is an integer (the function vanishes off its
        own lattice)."""
        k = self.offset
        keys, vals = (([j - int(k) for j in self.keys], self.vals)
                      if k.denominator == 1 else ([], []))
        return LiftedSeq._of(self.basepoint, Fraction(0), keys, vals,
                             self.truncation_order)


@functools.lru_cache(maxsize=config.PLAN_CACHE)
def _shift_plan(p, q, k):
    # (r, offset): the order k (a finite double) as the rational r it stands
    # for, and the offset p/q + r
    r = rational(k)
    return r, Fraction(p * r.denominator + r.numerator * q, q * r.denominator)


def shift(rho: LiftedSeq, k) -> LiftedSeq:
    """Apply the order-k shift (differentiation by k after projection).
    An order that is no finite number raises ExponentError."""
    k = finite_float(k, ExponentError, "order")
    r, offset = _shift_plan(rho.offset.numerator, rho.offset.denominator, k)
    order = rho.truncation_order
    return LiftedSeq._of(rho.basepoint, offset, rho.keys, rho.vals,
                         None if order is None else order - r)


@functools.lru_cache(maxsize=config.PLAN_CACHE)
def _project_plan(p, q):
    # (top, m, phase) at offset p/q: exponent j - p/q = key + phase with
    # key = j + m, m = floor(-p/q), and the pole top of the Gamma argument
    # t + 1 = j + (q - p)/q
    m = -((p + q - 1) // q)
    return pole_top(q - p, q), m, Fraction(-p - m * q, q)


def project(rho: LiftedSeq) -> GenSeries:
    """Project a lifted sequence to its series.

    Index j lands at exponent t = j - offset with coefficient
    values[j]/Gamma(t+1); entries with t+1 on a Gamma pole vanish exactly.
    At offset 0 this is the projection of a jet's sequence, entry i over i!
    at exponent i. The series' truncation order is rho's, as a double."""
    p, q = rho.offset.numerator, rho.offset.denominator
    keys = rho.keys
    # the exponents j - offset and Gamma arguments j + 1 - offset need doubles
    if keys and not has_double(q, keys[0] * q - p, (keys[-1] + 1) * q - p):
        raise ExponentError("an exponent j - offset lies past double range")
    top, m, phase = _project_plan(p, q)
    n = poles(top, keys)
    keys = keys[n:]
    vals = lattice_scaled(q - p, q, 0, keys, rho.vals[n:], "recip")
    order = rho.truncation_order
    return GenSeries._of(rho.basepoint, phase,
                         *kept(keys, vals, m, GammaOverflowError,
                               "a coefficient"),
                         None if order is None else float(order))


@functools.lru_cache(maxsize=config.PLAN_CACHE)
def _lift_plan(p, q):
    # (top, m, offset) at phase p/q: the pole top of e + 1 = n + (p + q)/q,
    # and key n going to index n + m at the offset, 1 - p/q (n and 0 at
    # phase 0)
    return (pole_top(p + q, q), 1 if p else 0,
            Fraction(q - p, q) if p else Fraction(0))


def lift_gen(f: GenSeries) -> LiftedSeq:
    """Preimage of projection: the term at exponent e = n + phase goes to
    index n + 1 at offset 1 - phase (index n at offset 0 when the phase is
    0) with coefficient * Gamma(e+1), so that project inverts it exactly.
    Terms at negative integer exponents sit under a Gamma pole and have no
    preimage. A truncated jet's order is kept, read by `rational`."""
    keys = f.keys
    p, q = f.phase.numerator, f.phase.denominator
    top, m, offset = _lift_plan(p, q)
    if poles(top, keys):
        raise ExponentError(
            "term at exponent %r has no preimage under projection "
            "(Gamma pole)" % ((keys[0] * q + p) / q))
    vals = lattice_scaled(p + q, q, 0, keys, f.vals, "gamma")
    order = f.truncation_order
    return LiftedSeq._of(f.basepoint, offset,
                         *kept(keys, vals, m, GammaOverflowError,
                               "a lifted value"),
                         None if order is None else rational(order))


def _exact_json(name, r):
    # '"name": r' in 17 digits, and '"name_exact": "p/q"' after it when no
    # double holds r or `rational` reads r's double as another rational
    if not has_double(r.denominator, r.numerator):
        raise ExponentError("the %s lies past double range" % name)
    x = float(r)
    text = '"%s": %s' % (name, fmt17(x))
    if Fraction(x) != r or rational(x) != r:
        text += ', "%s_exact": "%s"' % (name, r)
    return text


def _read_exact(doc, name):
    # the field _exact_json wrote: "name_exact" if present, which must
    # round to "name", else "name" read by `rational`
    x = finite_float(doc[name])
    if name + "_exact" not in doc:
        return rational(x)
    exact = Fraction(doc[name + "_exact"])
    if float(exact) != x:
        raise ValueError("%s_exact %s disagrees with %s %s"
                         % (name, exact, name, doc[name]))
    return exact


def lifted_to_json(rho: LiftedSeq) -> str:
    """Canonical JSON: {"basepoint": a, "offset": k, "values":
    [{"index": j, "value": v}...]}, index-sorted, 17 significant digits.
    An offset that no double holds (1/3), or whose double `rational` reads
    as another (the binary value of 0.1 + 0.2, as 3/10), is written a second
    time as "offset_exact": "p/q", which a reader prefers. A truncation
    order comes last, when set, in the same form."""
    parts = ", ".join(
        '{"index": %d, "value": %s}' % (j, fmt17(v))
        for j, v in zip(rho.keys, rho.vals)
    )
    order = rho.truncation_order
    return '{"basepoint": %s, %s, "values": [%s]%s}' % (
        fmt17(rho.basepoint), _exact_json("offset", rho.offset), parts,
        "" if order is None else ", " + _exact_json("truncation_order", order))


def lifted_from_json(text: str) -> LiftedSeq:
    """Inverse of lifted_to_json ("offset" or "truncation_order" alone is
    read by `rational`); malformed input raises InputError."""
    def read(doc):
        values = {v["index"]: finite_float(v["value"]) for v in doc["values"]}
        order = (_read_exact(doc, "truncation_order")
                 if "truncation_order" in doc else None)
        return LiftedSeq(finite_float(doc["basepoint"]),
                         _read_exact(doc, "offset"), values, order)

    return read_json(text, "lifted", read)
