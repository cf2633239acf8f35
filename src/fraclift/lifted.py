"""The lifted space: sequences on a shifted integer lattice.

A LiftedSeq represents a function rho on the real line that vanishes off the
lattice Z - offset, with rho(j - offset) = values[j] and an exact rational
offset. A jet's sequence (entry i = f^(i)(a)) is the lifted sequence at
offset 0, so embed() is the identity and on_integers() restricts back.
Fractional differentiation becomes pure offset arithmetic:

    shift(rho, k): offset += k, values untouched

which commutes exactly, by construction, for all real orders (an order
enters as the rational it stands for, coeffseq.rational).

Projection sends index j to exponent t = j - offset with coefficient
values[j] / Gamma(t+1). At an integer offset the poles t+1 <= 0 are the
indices j < offset, dropped at once, so at offset 0 projection annihilates
exactly the sequences on the negative indices. lift_gen inverts projection
on series without negative-integer exponents, putting exponent n + phase at
index n (phase 0) or n + 1 (offset 1 - phase).

Both directions evaluate Gamma along the lattice with gamma.gamma_chain,
one scalar anchor per run of terms and a Pochhammer step per lattice step:
project divides, 1/Gamma(t+2) = (1/Gamma(t+1))/(t+1), on the arguments
t+1 = ((j+1)q - p)/q of the exact offset p/q; lift_gen multiplies,
Gamma(e+2) = (e+1) Gamma(e+1). Poles and values outside the normal double
range fall back to recip_gamma and gamma, term by term.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction

from . import config
from .coeffseq import GenSeries, add_values, finite_float, fmt17, nonzero
from .coeffseq import rational, read_json
from .errors import BasepointError, ExponentError, GammaPoleError
from .gamma import gamma_chain, is_pole


@dataclass(frozen=True)
class LiftedSeq:
    """Finite-support lifted sequence: values on the lattice Z - offset.

    The constructor cleans its input (integer indices, float values, none
    below COEF_EPS); the library's own results are built as given."""

    basepoint: float
    offset: Fraction = Fraction(0)
    values: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "basepoint", float(self.basepoint))
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "values", nonzero(
            {int(j): float(v) for j, v in self.values.items()}))

    @classmethod
    def _keyed(cls, basepoint, offset, values):
        rho = object.__new__(cls)
        rho.__dict__.update(basepoint=basepoint, offset=offset, values=values)
        return rho

    @property
    def is_zero(self):
        return not self.values

    def __add__(self, other):
        if not isinstance(other, LiftedSeq):
            return NotImplemented
        if self.basepoint != other.basepoint:
            raise BasepointError(
                "cannot add lifted sequences at base points %r and %r"
                % (self.basepoint, other.basepoint)
            )
        if self.offset != other.offset:
            raise BasepointError(
                "cannot add lifted sequences on different lattices "
                "(offsets %s and %s)" % (self.offset, other.offset)
            )
        return LiftedSeq._keyed(self.basepoint, self.offset,
                                add_values(self.values, other.values))

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return LiftedSeq._keyed(self.basepoint, self.offset, nonzero(
            {j: c * v for j, v in self.values.items()}))

    __rmul__ = __mul__

    def on_integers(self) -> LiftedSeq:
        """Restriction to the integer lattice, as a sequence at offset 0.
        Zero unless the offset is an integer (the function vanishes off its
        own lattice)."""
        if self.offset.denominator != 1:
            return LiftedSeq._keyed(self.basepoint, Fraction(0), {})
        k = int(self.offset)
        return LiftedSeq._keyed(self.basepoint, Fraction(0), {
            j - k: v for j, v in self.values.items()})


def embed(seq: LiftedSeq) -> LiftedSeq:
    """Zero-off-lattice embedding of a sequence on the integers: a sequence
    already is the lifted sequence at offset 0, so this is the identity."""
    return seq


def shift(rho: LiftedSeq, k) -> LiftedSeq:
    """Apply the order-k shift (differentiation by k after projection)."""
    return LiftedSeq._keyed(rho.basepoint, rho.offset + rational(k),
                            rho.values)


def project(rho: LiftedSeq) -> GenSeries:
    """Project a lifted sequence to its series.

    Index j lands at exponent t = j - offset with coefficient
    values[j]/Gamma(t+1); entries with t+1 on a Gamma pole vanish exactly.
    At offset 0 this is the projection of a jet's sequence, entry i over i!
    at exponent i."""
    # offset p/q: index j has t + 1 = num/q with num = (j+1)q - p, and the
    # int/int divisions round exactly as float(Fraction) would
    p, q = rho.offset.numerator, rho.offset.denominator
    items = sorted(rho.values.items())
    if q == 1:  # t + 1 = j + 1 - p: the indices below p sit on the poles
        items = items[bisect.bisect_left(items, (p,)):]
    rs = gamma_chain([((j + 1) * q - p) / q for j, _ in items], "recip")
    # exponent j - p/q = key + phase with key = j + m, m = floor(-p/q)
    m = -((p + q - 1) // q)
    eps = config.COEF_EPS
    return GenSeries.keyed(rho.basepoint, Fraction(-p - m * q, q), {
        j + m: w for (j, v), r in zip(items, rs) if abs(w := v * r) >= eps})


def lift_gen(f: GenSeries) -> LiftedSeq:
    """Preimage of projection: the term at exponent e = n + phase goes to
    index n + 1 at offset 1 - phase (index n at offset 0 when the phase is
    0) with coefficient * Gamma(e+1), so that project inverts it exactly.
    Terms at negative integer exponents sit under a Gamma pole and have no
    preimage."""
    terms = f.terms
    try:
        gs = gamma_chain([e + 1.0 for e, _ in terms], "gamma")
    except GammaPoleError:
        e = next(e for e, _ in terms if is_pole(e + 1.0))
        raise ExponentError(
            "term at exponent %r has no preimage under projection "
            "(Gamma pole)" % e
        ) from None
    up = 1 if f.phase else 0
    eps = config.COEF_EPS
    return LiftedSeq._keyed(f.basepoint, up - f.phase, {
        n + up: w for n, (_, c), g in zip(sorted(f.coeffs), terms, gs)
        if abs(w := c * g) >= eps})


def lifted_to_json(rho: LiftedSeq) -> str:
    """Canonical JSON: {"basepoint": a, "offset": k, "values":
    [{"index": j, "value": v}...]}, index-sorted, 17 significant digits.
    An offset that no double holds exactly (1/3, or shifts by 0.1 and then
    0.2) is written a second time as "offset_exact": "p/q", which a reader
    prefers."""
    parts = ", ".join(
        '{"index": %d, "value": %s}' % (j, fmt17(v))
        for j, v in sorted(rho.values.items())
    )
    offset = fmt17(rho.offset)
    if Fraction(float(rho.offset)) != rho.offset:
        offset += ', "offset_exact": "%s"' % rho.offset
    return '{"basepoint": %s, "offset": %s, "values": [%s]}' % (
        fmt17(rho.basepoint), offset, parts)


def lifted_from_json(text: str) -> LiftedSeq:
    """Inverse of lifted_to_json; malformed input raises InputError."""
    def read(doc):
        values = {}
        for v in doc["values"]:
            j = v["index"]
            if j != int(j):
                raise ValueError("index %r is not an integer" % (j,))
            values[int(j)] = finite_float(v["value"])
        offset = Fraction(finite_float(doc["offset"]))
        if "offset_exact" in doc:
            exact = Fraction(doc["offset_exact"])
            if float(exact) != offset:
                raise ValueError("offset_exact %s disagrees with offset %s"
                                 % (exact, doc["offset"]))
            offset = exact
        return LiftedSeq(finite_float(doc["basepoint"]), offset, values)

    return read_json(text, "lifted", read)
