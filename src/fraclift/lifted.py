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
one scalar anchor and a Pochhammer step per lattice step, at arguments
rounded once from their exact rationals: project divides, 1/Gamma(t+2) =
(1/Gamma(t+1))/(t+1), on t+1 = j + 1 - offset; lift_gen multiplies,
Gamma(e+2) = (e+1) Gamma(e+1), on e+1 = n + phase + 1. gamma.lattice_poles
finds the poles of either lattice with one exact test: project drops those
indices, and lift_gen refuses a series with a term on one.
"""

from __future__ import annotations

from fractions import Fraction

from . import config
from .coeffseq import GenSeries, add_values, finite_float, fmt17, has_double
from .coeffseq import nonzero, rational, read_json
from .errors import BasepointError, ExponentError
from .gamma import gamma_chain, lattice_poles


class LiftedSeq:
    """Finite-support lifted sequence: values on the lattice Z - offset.

    The constructor cleans its input (integer indices, float values, none
    below COEF_EPS); the library's own results are built as given.
    Sequences compare equal when base point, offset and values do."""

    def __init__(self, basepoint, offset=0, values=None):
        self.basepoint = float(basepoint)
        self.offset = Fraction(offset)
        self.values = nonzero(
            {int(j): float(v) for j, v in (values or {}).items()})

    @classmethod
    def _keyed(cls, basepoint, offset, values):
        rho = object.__new__(cls)
        rho.__dict__.update(basepoint=basepoint, offset=offset, values=values)
        return rho

    def _fields(self):
        return self.basepoint, self.offset, self.values

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "LiftedSeq(basepoint=%r, offset=%r, values=%r)" % self._fields()

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
    # exponent j - p/q = key + phase with key = j + m, m = floor(-p/q); the
    # Gamma argument t + 1 = j + (q - p)/q
    p, q = rho.offset.numerator, rho.offset.denominator
    keys = sorted(rho.values)
    # the exponents j - offset and Gamma arguments j + 1 - offset need doubles
    if keys and not has_double(keys[0] - rho.offset,
                               keys[-1] + 1 - rho.offset):
        raise ExponentError("an exponent j - offset lies past double range")
    keys = keys[lattice_poles(q - p, q, keys):]
    rs = gamma_chain(1 - rho.offset, keys, "recip")
    m = -((p + q - 1) // q)
    values = rho.values
    eps = config.COEF_EPS
    return GenSeries.keyed(rho.basepoint, Fraction(-p - m * q, q), {
        j + m: w for j, r in zip(keys, rs) if abs(w := values[j] * r) >= eps})


def lift_gen(f: GenSeries) -> LiftedSeq:
    """Preimage of projection: the term at exponent e = n + phase goes to
    index n + 1 at offset 1 - phase (index n at offset 0 when the phase is
    0) with coefficient * Gamma(e+1), so that project inverts it exactly.
    Terms at negative integer exponents sit under a Gamma pole and have no
    preimage."""
    keys = sorted(f.coeffs)
    p, q = f.phase.numerator, f.phase.denominator
    if lattice_poles(p + q, q, keys):
        raise ExponentError(
            "term at exponent %r has no preimage under projection "
            "(Gamma pole)" % ((keys[0] * q + p) / q))
    gs = gamma_chain(f.phase + 1, keys, "gamma")
    up = 1 if f.phase else 0
    coeffs = f.coeffs
    eps = config.COEF_EPS
    return LiftedSeq._keyed(f.basepoint, up - f.phase, {
        n + up: w for n, g in zip(keys, gs) if abs(w := coeffs[n] * g) >= eps})


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
