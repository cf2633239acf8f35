"""Coefficient sequences on the integer lattice, and generalized power series.

A CoeffSeq stores the jet of a function at a base point a: entry i holds the
i-th derivative value f^(i)(a). Entries may occupy negative indices; those
are invisible to projection, which is the whole point:

    project(sigma) = sum_i  sigma(i) / Gamma(i+1) * (x-a)^i

Since 1/Gamma(i+1) is exactly zero for i <= -1, projection annihilates
precisely the sequences supported on negative indices, and lift_jet (its
partial inverse, multiply by Gamma(i+1)) recovers a sequence only up to that
kernel.

A GenSeries is a finite sum of real-power terms b*(x-a)^e whose exponents all
lie on one lattice {phase + n : n integer}. Ordinary truncated Taylor jets
are the integer-lattice case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import config
from .errors import (
    BasepointError,
    EvalDomainError,
    ExponentError,
    InputError,
    LatticeError,
)
from .gamma import gamma_chain


class Term(NamedTuple):
    exponent: float
    coefficient: float


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


def _congruent_mod_1(a, b, tol):
    d = math.fmod(a - b, 1.0)
    if d < 0.0:
        d += 1.0
    return d <= tol or 1.0 - d <= tol


@dataclass(frozen=True)
class CoeffSeq:
    """Finite-support map i -> sigma(i) at a fixed base point."""

    basepoint: float
    entries: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for i, v in self.entries.items():
            v = float(v)
            if abs(v) >= config.COEF_EPS:
                clean[int(i)] = v
        object.__setattr__(self, "basepoint", float(self.basepoint))
        object.__setattr__(self, "entries", clean)

    def __getitem__(self, i):
        return self.entries.get(i, 0.0)

    def support(self):
        return sorted(self.entries)

    @property
    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        if self.basepoint != other.basepoint:
            raise BasepointError(
                "cannot add sequences at base points %r and %r"
                % (self.basepoint, other.basepoint)
            )
        merged = dict(self.entries)
        for i, v in other.entries.items():
            merged[i] = merged.get(i, 0.0) + v
        return CoeffSeq(self.basepoint, merged)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return CoeffSeq(self.basepoint, {i: c * v for i, v in self.entries.items()})

    __rmul__ = __mul__

    def shift(self, k: int) -> CoeffSeq:
        """Integer shift: result(i) = self(i+k). Shift by +1 is the jet of
        the derivative."""
        if k != int(k):
            raise ExponentError("sequence shift requires an integer order")
        k = int(k)
        return CoeffSeq(self.basepoint, {i - k: v for i, v in self.entries.items()})


@dataclass(frozen=True)
class GenSeries:
    """Finite generalized power series around a base point.

    Terms are kept exponent-sorted with nonzero coefficients; construction
    rejects exponent sets that do not share a single lattice mod 1.
    truncation_order, when not None, records the order beyond which terms are
    an unrepresented remainder (a truncated transcendental jet); None means
    the series is exact.
    """

    basepoint: float
    terms: tuple[Term, ...] = ()
    truncation_order: float | None = None

    def __post_init__(self):
        merged: dict[float, float] = {}
        for t in self.terms:
            e = float(t[0])
            c = float(t[1])
            merged[e] = merged.get(e, 0.0) + c
        cleaned = tuple(
            Term(e, c)
            for e, c in sorted(merged.items())
            if abs(c) >= config.COEF_EPS
        )
        tol = config.int_tol
        for t in cleaned[1:]:
            if not _congruent_mod_1(t.exponent, cleaned[0].exponent, tol):
                raise LatticeError(
                    "exponents %r and %r lie on different lattices"
                    % (cleaned[0].exponent, t.exponent)
                )
        object.__setattr__(self, "basepoint", float(self.basepoint))
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def from_coeffs(cls, basepoint, coeffs, truncation_order=None):
        """Build from {exponent: coefficient}."""
        return cls(basepoint, tuple(Term(e, c) for e, c in coeffs.items()),
                   truncation_order)

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, exponent, tol=None):
        t = config.int_tol if tol is None else tol
        for e, c in self.terms:
            if abs(e - exponent) <= t:
                return c
        return 0.0

    def exponents(self):
        return [t.exponent for t in self.terms]

    def lattice_phase(self):
        """Common fractional part of the exponents in [0, 1); 0.0 if empty.

        Snaps to 0 when the lattice is the integers up to tolerance."""
        if not self.terms:
            return 0.0
        e0 = self.terms[0].exponent
        phase = e0 - math.floor(e0)
        if phase <= config.int_tol or 1.0 - phase <= config.int_tol:
            return 0.0
        return phase

    def is_jet(self, tol=None):
        """True when every exponent is a nonnegative integer (an analytic
        jet)."""
        t = config.int_tol if tol is None else tol
        for e, _ in self.terms:
            r = math.floor(e + 0.5)
            if r < 0 or abs(e - r) > t:
                return False
        return True

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
        return GenSeries(self.basepoint, self.terms + other.terms,
                         min(orders) if orders else None)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return GenSeries(self.basepoint,
                         tuple(Term(e, c * v) for e, v in self.terms),
                         self.truncation_order)

    __rmul__ = __mul__

    def __call__(self, x):
        return series_eval(self, x)


def monomial(exponent, coefficient=1.0, basepoint=0.0):
    """Single power term coefficient*(x-basepoint)^exponent."""
    return GenSeries(basepoint, (Term(exponent, coefficient),))


def project(seq: CoeffSeq) -> GenSeries:
    """Project a sequence to its series: coefficient sigma(i)/Gamma(i+1) at
    exponent i. Negative-index entries are annihilated exactly (Gamma pole),
    so the kernel of this map is the set of sequences vanishing on i >= 0."""
    items = sorted(seq.entries.items())
    rs = gamma_chain([i + 1.0 for i, _ in items], "recip")
    return GenSeries(seq.basepoint, tuple(
        Term(float(i), v * r) for (i, v), r in zip(items, rs) if r != 0.0))


def lift_jet(f: GenSeries, tol=None) -> CoeffSeq:
    """Partial inverse of project on analytic jets: entry round(e) gets
    coefficient * Gamma(e+1). Rejects negative or non-integer exponents."""
    t = config.int_tol if tol is None else tol
    ns = []
    for e, _ in f.terms:
        r = math.floor(e + 0.5)
        if r < 0 or abs(e - r) > t:
            raise ExponentError(
                "exponent %r is not a nonnegative integer; no jet preimage" % e
            )
        ns.append(int(r))
    gs = gamma_chain([n + 1.0 for n in ns], "gamma")
    return CoeffSeq(f.basepoint, {
        n: c * g for n, (_, c), g in zip(ns, f.terms, gs)})


def series_eval(f: GenSeries, x) -> float:
    """Evaluate sum of coefficient*(x-a)^exponent.

    Non-integer exponents require x > a; negative exponents require x != a.
    At x <= a an exponent within int_tol of an integer is evaluated at that
    integer."""
    x = float(x)
    dx = x - f.basepoint
    terms = f.terms
    if dx <= 0.0:
        terms = _integer_terms(f, x, dx)
    total = 0.0
    try:
        for e, c in terms:
            total += c * math.pow(dx, e)
    except OverflowError:
        raise EvalDomainError(
            "series value at x=%r exceeds double range" % x) from None
    return total


def _integer_terms(f, x, dx):
    # the terms with each exponent rounded to its integer; at dx <= 0 no
    # other exponent is defined, and at dx == 0 no negative one
    tol = config.int_tol
    out = []
    for e, c in f.terms:
        r = math.floor(e + 0.5)
        if abs(e - r) > tol:
            raise EvalDomainError(
                "non-integer exponent %r needs x > basepoint (x=%r, a=%r)"
                % (e, x, f.basepoint)
            )
        if r < 0 and dx == 0.0:
            raise EvalDomainError(
                "negative exponent %r undefined at the base point" % e
            )
        out.append((float(r), c))
    return out


def int_derivative(f: GenSeries, n: int = 1) -> GenSeries:
    """Exact termwise integer-order derivative (falling-factorial products);
    independent of the Gamma kernel."""
    terms = []
    for e, c in f.terms:
        coef = c
        exp = e
        for _ in range(n):
            coef *= exp
            exp -= 1.0
        if coef != 0.0:
            terms.append(Term(exp, coef))
    order = None if f.truncation_order is None else f.truncation_order - n
    return GenSeries(f.basepoint, tuple(terms), order)


def int_antiderivative(f: GenSeries, n: int = 1) -> GenSeries:
    """Exact termwise n-fold antiderivative with zero constants; exponent -1
    terms are outside its domain."""
    terms = []
    for e, c in f.terms:
        coef = c
        exp = e
        for _ in range(n):
            exp += 1.0
            if exp == 0.0:
                raise ExponentError("antiderivative of exponent -1 term")
            coef /= exp
        terms.append(Term(exp, coef))
    order = None if f.truncation_order is None else f.truncation_order + n
    return GenSeries(f.basepoint, tuple(terms), order)


def series_to_json(f: GenSeries) -> str:
    """Canonical JSON: {"basepoint": a, "terms": [{"exp": e, "coef": c}...]},
    exponent-sorted, 17 significant digits, with "truncation_order": N after
    the terms when the series is a truncated jet."""
    parts = ", ".join(
        '{"exp": %s, "coef": %s}' % (fmt17(e), fmt17(c)) for e, c in f.terms
    )
    order = ("" if f.truncation_order is None
             else ', "truncation_order": %s' % fmt17(f.truncation_order))
    return '{"basepoint": %s, "terms": [%s]%s}' % (
        fmt17(f.basepoint), parts, order)


def series_from_json(text: str) -> GenSeries:
    """Inverse of series_to_json; malformed input raises InputError."""
    def read(doc):
        terms = tuple(Term(finite_float(t["exp"]), finite_float(t["coef"]))
                      for t in doc["terms"])
        order = doc.get("truncation_order")
        return GenSeries(finite_float(doc["basepoint"]), terms,
                         None if order is None else finite_float(order))

    return read_json(text, "series", read)
