"""The lifted space: sequences on a shifted integer lattice.

A LiftedSeq represents a function rho on the real line that vanishes off the
lattice Z - offset, with rho(j - offset) = values[j] and an exact rational
offset (a float one read as the rational it stands for, coeffseq.rational).
A sequence on the integers (a jet's entries f^(i)(a)) is its own embedding,
the lifted sequence at offset 0, and on_integers() restricts back.
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

Both directions evaluate Gamma along the lattice with gamma.lattice_chain,
one scalar anchor and a Pochhammer step per lattice step, at arguments
rounded once from their exact rationals: project divides, 1/Gamma(t+2) =
(1/Gamma(t+1))/(t+1), on t+1 = j + 1 - offset; lift_gen multiplies,
Gamma(e+2) = (e+1) Gamma(e+1), on e+1 = n + phase + 1. gamma.lattice_poles
finds the poles of either lattice with one exact test: project drops those
indices, and lift_gen refuses a series with a term on one.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffseq import GenSeries, LatticeValues, add_values, finite_float
from .coeffseq import fmt17, has_double, nonzero, rational, read_json, scaled
from .errors import BasepointError, ExponentError
from .gamma import lattice_chain, lattice_poles


class LiftedSeq(LatticeValues):
    """Finite-support lifted sequence: values on the lattice Z - offset.

    The constructor cleans its input: integer indices, float values, none
    below COEF_EPS, and an int or Fraction offset exact, a float one read
    by `rational`. The library's own results are built as given."""

    _names = ("basepoint", "offset", "values")
    _noun = "lifted sequences"

    def __init__(self, basepoint, offset=0, values=None):
        self.basepoint = float(basepoint)
        self.offset = (rational(offset) if isinstance(offset, float)
                       else Fraction(offset))
        self.values = nonzero(
            {int(j): float(v) for j, v in (values or {}).items()})

    def _sum(self, other):
        if self.offset != other.offset:
            raise BasepointError(
                "cannot add lifted sequences on different lattices "
                "(offsets %s and %s)" % (self.offset, other.offset))
        return LiftedSeq._keyed(basepoint=self.basepoint, offset=self.offset,
                                values=add_values(self.values, other.values))

    def on_integers(self) -> LiftedSeq:
        """Restriction to the integer lattice, as a sequence at offset 0.
        Zero unless the offset is an integer (the function vanishes off its
        own lattice)."""
        k = self.offset
        values = ({j - int(k): v for j, v in self.values.items()}
                  if k.denominator == 1 else {})
        return LiftedSeq._keyed(basepoint=self.basepoint, offset=Fraction(0),
                                values=values)


def shift(rho: LiftedSeq, k) -> LiftedSeq:
    """Apply the order-k shift (differentiation by k after projection)."""
    r, p, q = rational(k), rho.offset.numerator, rho.offset.denominator
    offset = Fraction(p * r.denominator + r.numerator * q, q * r.denominator)
    return LiftedSeq._keyed(basepoint=rho.basepoint, offset=offset,
                            values=rho.values)


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
    if keys and not has_double(q, keys[0] * q - p, (keys[-1] + 1) * q - p):
        raise ExponentError("an exponent j - offset lies past double range")
    keys = keys[lattice_poles(q - p, q, keys):]
    rs = lattice_chain(q - p, q, 0, keys, "recip", 0)
    m = -((p + q - 1) // q)
    return GenSeries._keyed(
        basepoint=rho.basepoint, phase=Fraction(-p - m * q, q),
        coeffs=scaled(rho.values, keys, rs, m, "a coefficient"),
        truncation_order=None)


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
    gs = lattice_chain(p + q, q, 0, keys, "gamma", 0)
    return LiftedSeq._keyed(
        basepoint=f.basepoint, offset=Fraction(q - p, q) if p else f.phase,
        values=scaled(f.coeffs, keys, gs, 1 if p else 0, "a lifted value"))


def lifted_to_json(rho: LiftedSeq) -> str:
    """Canonical JSON: {"basepoint": a, "offset": k, "values":
    [{"index": j, "value": v}...]}, index-sorted, 17 significant digits.
    An offset that no double holds (1/3), or whose double `rational` reads
    as another (the binary value of 0.1 + 0.2, as 3/10), is written a second
    time as "offset_exact": "p/q", which a reader prefers."""
    parts = ", ".join(
        '{"index": %d, "value": %s}' % (j, fmt17(v))
        for j, v in sorted(rho.values.items())
    )
    offset = fmt17(rho.offset)
    x = float(rho.offset)
    if Fraction(x) != rho.offset or rational(x) != rho.offset:
        offset += ', "offset_exact": "%s"' % rho.offset
    return '{"basepoint": %s, "offset": %s, "values": [%s]}' % (
        fmt17(rho.basepoint), offset, parts)


def lifted_from_json(text: str) -> LiftedSeq:
    """Inverse of lifted_to_json ("offset" alone is read by `rational`);
    malformed input raises InputError."""
    def read(doc):
        values = {}
        for v in doc["values"]:
            j = v["index"]
            if j != int(j):
                raise ValueError("index %r is not an integer" % (j,))
            values[int(j)] = finite_float(v["value"])
        offset = finite_float(doc["offset"])
        if "offset_exact" in doc:
            exact = Fraction(doc["offset_exact"])
            if float(exact) != offset:
                raise ValueError("offset_exact %s disagrees with offset %s"
                                 % (exact, doc["offset"]))
            offset = exact
        return LiftedSeq(finite_float(doc["basepoint"]), offset, values)

    return read_json(text, "lifted", read)
