"""The lifted space: sequences carrying an accumulated real shift offset.

A LiftedSeq represents a function rho on the real line that vanishes off the
lattice Z - offset, with rho(j - offset) = values[j]. Fractional
differentiation becomes pure offset arithmetic:

    shift(rho, k): offset += k, values untouched

which commutes exactly, by construction, for all real orders. Offsets are
accumulated as exact rationals (each float order converts exactly), so
shift(shift(rho, a), b) and shift(rho_by_a_plus_b) agree identically whenever
the scalar sums do; order of application never matters at all.

Projection generalizes the coefficient-sequence projection to the shifted
lattice: index j contributes exponent t = j - offset with coefficient
values[j] / Gamma(t+1), and Gamma poles annihilate entries exactly as in the
unshifted case. embed() carries a plain sequence in with offset 0; lift_gen()
inverts projection on series without negative-integer exponents.

Both directions evaluate Gamma along the lattice with gamma.gamma_chain,
one scalar anchor per run of terms and a Pochhammer step per lattice step:
project divides, 1/Gamma(t+2) = (1/Gamma(t+1))/(t+1), on the arguments
t+1 = ((j+1)q - p)/q of the exact offset p/q; lift_gen multiplies,
Gamma(e+2) = (e+1) Gamma(e+1). Poles and values outside the normal double
range fall back to recip_gamma and gamma, term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import coeffseq as cs
from . import config
from .coeffseq import CoeffSeq, GenSeries, Term, finite_float, fmt17, read_json
from .errors import BasepointError, ExponentError, GammaPoleError
from .gamma import gamma_chain, is_pole


@dataclass(frozen=True)
class LiftedSeq:
    """Finite-support lifted sequence: values on the lattice Z - offset."""

    basepoint: float
    offset: Fraction = Fraction(0)
    values: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for j, v in self.values.items():
            v = float(v)
            if abs(v) >= config.COEF_EPS:
                clean[int(j)] = v
        object.__setattr__(self, "basepoint", float(self.basepoint))
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "values", clean)

    @property
    def offset_float(self):
        return float(self.offset)

    @property
    def is_zero(self):
        return not self.values

    def __getitem__(self, j):
        return self.values.get(j, 0.0)

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
        merged = dict(self.values)
        for j, v in other.values.items():
            merged[j] = merged.get(j, 0.0) + v
        return LiftedSeq(self.basepoint, self.offset, merged)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return LiftedSeq(self.basepoint, self.offset,
                         {j: c * v for j, v in self.values.items()})

    __rmul__ = __mul__

    def on_integers(self) -> CoeffSeq:
        """Restriction to the integer lattice. Zero unless the offset is an
        integer (the function vanishes off its own lattice)."""
        if self.offset.denominator != 1:
            return CoeffSeq(self.basepoint, {})
        k = int(self.offset)
        return CoeffSeq(self.basepoint, {j - k: v for j, v in self.values.items()})


def embed(seq: CoeffSeq) -> LiftedSeq:
    """Zero-off-lattice embedding: offset 0, values copied; restricting back
    to the integers returns the original sequence."""
    return LiftedSeq(seq.basepoint, Fraction(0), dict(seq.entries))


def shift(rho: LiftedSeq, k) -> LiftedSeq:
    """Apply the order-k shift (differentiation by k after projection)."""
    return LiftedSeq(rho.basepoint, rho.offset + Fraction(float(k)), rho.values)


def project(obj) -> GenSeries:
    """Project a lifted sequence (or a plain CoeffSeq) to its series.

    Index j lands at exponent t = j - offset with coefficient
    values[j]/Gamma(t+1); entries with t+1 on a Gamma pole vanish exactly.
    With offset 0 this is exactly the sequence projection."""
    if isinstance(obj, CoeffSeq):
        return cs.project(obj)
    # offset p/q: index j has t + 1 = num/q with num = (j+1)q - p, and the
    # int/int divisions round exactly as float(Fraction) would
    p, q = obj.offset.numerator, obj.offset.denominator
    items = sorted(obj.values.items())
    nums = [(j + 1) * q - p for j, _ in items]
    rs = gamma_chain([num / q for num in nums], "recip")
    return GenSeries(obj.basepoint, tuple(
        Term((num - q) / q, v * r)
        for num, (_, v), r in zip(nums, items, rs) if r != 0.0))


def lift_gen(f: GenSeries, tol=None) -> LiftedSeq:
    """Preimage of projection: index round(e + offset) gets coefficient *
    Gamma(e+1), where the offset is (-phase) mod 1 of the exponent lattice so
    that every index is an integer and project inverts exactly. Terms at
    negative integer exponents sit under a Gamma pole and have no preimage."""
    t = config.int_tol if tol is None else tol
    phase = f.lattice_phase()
    offset = 1.0 - phase if phase > 0.0 else 0.0
    xs = [e + 1.0 for e, _ in f.terms]
    try:
        gs = gamma_chain(xs, "gamma", tol=t)
    except GammaPoleError:
        e = next(e for (e, _), x in zip(f.terms, xs) if is_pole(x, t))
        raise ExponentError(
            "term at exponent %r has no preimage under projection "
            "(Gamma pole)" % e
        ) from None
    values = {int(math.floor(e + offset + 0.5)): c * g
              for (e, c), g in zip(f.terms, gs)}
    return LiftedSeq(f.basepoint, Fraction(offset), values)


def lifted_to_json(rho: LiftedSeq) -> str:
    """Canonical JSON: {"basepoint": a, "offset": k, "values":
    [{"index": j, "value": v}...]}, index-sorted, 17 significant digits.
    An offset that no double holds exactly (shifts by 0.1 and then 0.2) is
    written a second time as "offset_exact": "p/q", which a reader prefers."""
    parts = ", ".join(
        '{"index": %d, "value": %s}' % (j, fmt17(v))
        for j, v in sorted(rho.values.items())
    )
    offset = fmt17(rho.offset_float)
    if Fraction(rho.offset_float) != rho.offset:
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
