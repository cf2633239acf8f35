"""Gamma kernel with explicit pole semantics.

One scalar body, the ratio Gamma(p)/Gamma(q), and three views of it that
differ in how they treat the poles at nonpositive integers:

  gamma_ratio(p,q)  Gamma(p)/Gamma(q) with the four pole cases resolved:
                    no poles -> value; denominator pole -> 0; both poles ->
                    the joint limit (-1)^(n-m) n!/m!; numerator pole -> error
  gamma(x)          Gamma(x)/Gamma(1): raises at poles and on overflow
  recip_gamma(x)    Gamma(1)/Gamma(x), the entire reciprocal: exactly 0.0 at
                    poles, raises on overflow

These three, sinpi and is_pole take finite doubles only: an infinity or a NaN
raises ExponentError. Every result is a finite double, or a FracliftError.

The body sorts (p, q) into the four pole cases first, and a joint pole
p = -m, q = -n becomes the off-pole ratio Gamma(n+1)/Gamma(m+1). Off the
poles, integer arguments at most 301 apart (or both within 301 of 0) take
one falling factorial, math.perm, rounded once from the exact integer or
quotient: Gamma(n) and 1/Gamma(n) are the doubles of (n-1)! and 1/(n-1)!,
and a joint limit the double of (-1)^(n-m) n!/m!. Arguments that both lie
past 172 on one side take the difference of Stirling's series (DLMF
5.11.1), from x and the order k = x - y, negative ones after the
reflection Gamma(x) Gamma(1-x) = pi/sin(pi x) (DLMF 5.5.3): no two large
log|Gamma| values are subtracted. A chain passes its exact order, and the
phase of its lattice for the sines, where the doubles x and x - k, far
out, no longer carry them. Any other ratio is exp of a difference of
math.lgamma (inf past its range, x above about 2.5e305), Gamma negative
exactly on (-2j-1, -2j), j >= 0; log Gamma(1) is exactly 0, so gamma and
recip_gamma keep every bit of the log-space value.

Pole detection is tolerance-based (the constant config.INT_TOL, 1e-9) so
that lattice arithmetic performed in doubles lands on the intended case.

lattice_scaled evaluates one of these quantities along a whole series and
multiplies a value column by it; gamma_chain returns the values. The
arguments are the lattice points n + c for ascending integer keys n and an
exact rational c, linked by the Pochhammer step Gamma(x+1) = x Gamma(x)
(DLMF 5.5.1):

  "gamma"   Gamma(x+1)   = Gamma(x) * x
  "recip"   1/Gamma(x+1) = (1/Gamma(x)) / x
  "ratio"   R(x+1)       = R(x) * x / (x-k)    for R(x) = Gamma(x)/Gamma(x-k)

Each lattice and kind has a table of its values at consecutive lattice
points, kept by this module: one scalar-kernel anchor, at the point past
the poles with the smallest |x| + |x-k| among those with x and x-k above
-1/2, where a log-space value is most accurate, and one step per point on
from it, its factor x/(x-k) rounded once from the exact rationals. A
product chain's rounding error grows linearly with its length (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3), while a
log-space value carries an error proportional to |log Gamma|. A call walks
its lattice's table on to its keys; later calls read it. So a value
depends only on its lattice, key and order, and each argument is the
correctly rounded double of its rational (n q + p)/q.

Every n + c lies the same exact distance from the integers, so one test of
that distance against INT_TOL decides a lattice's poles, and they are its
leading keys (pole_top, poles). A table's floor lies above them, so the keys
below it get the scalar cases, as do the keys more than config.TABLE_SPAN
steps from the anchor or past a value that left the normal double range:
the scalar kernel raises the overflow errors and returns the underflow
zeros. The integer lattice takes the same path: each step of its table is
a scalar kernel value, an exact falling factorial rounded once, so Gamma(n)
and 1/Gamma(n) read the doubles of (n-1)! and 1/(n-1)!, and a ratio under
an integer order the scalar kernel's values, bit for bit. The series layers
pass c and k as ints, building no Fraction.
"""

import functools
import math
import sys
from bisect import bisect_left, bisect_right
from operator import mul

from . import config
from .coeffseq import finite_float
from .config import INT_TOL
from .errors import ExponentError, GammaOverflowError, GammaPoleError

__all__ = [
    "gamma",
    "recip_gamma",
    "gamma_ratio",
    "sinpi",
    "is_pole",
    "pole_top",
    "poles",
    "gamma_chain",
    "lattice_scaled",
]

_EXP_OVERFLOW = 709.782712893384  # log(DBL_MAX)
_EXP_UNDERFLOW = -745.1332191019412  # log of smallest denormal

# largest order of a falling-factorial ratio in gamma_ratio, and the
# largest argument of one with any order
_MAX_EXACT_FACT = 301

# past this magnitude (where Gamma itself leaves the double range) a ratio
# of two arguments on one side takes the Stirling difference
_STIRLING = 172.0

# B_2j / (2j (2j-1)) and 1 - 2j of Stirling's series, j = 1, 2, 3; the next
# term is below 2e-19 past _STIRLING
_STIRLING_TERMS = ((1 / 12, -1), (-1 / 360, -3), (1 / 1260, -5))

_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


def _finite(x):
    # the domain of every scalar function: a finite double
    return finite_float(x, ExponentError, "double (a Gamma argument)")


def _is_nonpos_int(x):
    # round is exact, where floor(x + 0.5) rounds past 2^52
    return x <= INT_TOL and abs(x - round(x)) <= INT_TOL


def _lgamma(x):
    # log|Gamma(x)| off the poles; inf where math.lgamma overflows
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _sign(x):
    # the sign of Gamma(x) off the poles: < 0 exactly on (-2j-1, -2j), j >= 0
    return -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def _overflow(p, q):
    return GammaOverflowError(
        "gamma ratio Gamma(%r)/Gamma(%r) exceeds double range" % (p, q))


def is_pole(x):
    """True when the finite double x is within config.INT_TOL of a
    nonpositive integer; ExponentError at +-inf and NaN."""
    return _is_nonpos_int(_finite(x))


def sinpi(x):
    """sin(pi*x) of a finite double with exact argument reduction (accurate
    near every integer); ExponentError at +-inf and NaN."""
    x = _finite(x)
    sign = 1.0
    if x < 0.0:
        x = -x
        sign = -1.0
    r = math.fmod(x, 2.0)  # exact
    if r >= 1.0:
        sign = -sign
        r -= 1.0  # exact
    if r > 0.5:
        r = 1.0 - r  # exact (Sterbenz)
    return sign * math.sin(math.pi * r)


def gamma(x):
    """Gamma(x) of a finite double, the ratio Gamma(x)/Gamma(1). Raises
    GammaPoleError at nonpositive integers, GammaOverflowError above ~171.6
    and ExponentError at +-inf and NaN."""
    x = _finite(x)
    return _ratio(x, 1.0, x - 1.0)


def recip_gamma(x):
    """1/Gamma(x) of a finite double, the ratio Gamma(1)/Gamma(x): the entire
    extension, exactly 0.0 at every nonpositive integer, and 0.0 where it
    underflows. Raises GammaOverflowError where it leaves the double range
    (x below about -171.6, off the poles) and ExponentError at +-inf and
    NaN."""
    x = _finite(x)
    return _ratio(1.0, x, 1.0 - x)


def _stirling(x, y, k):
    # log(Gamma(x)/Gamma(y)) for x, y > _STIRLING and k = x - y: the
    # difference of Stirling's series (DLMF 5.11.1), whose leading terms
    # take k itself, not x - y
    if k < 0.0:
        return -_stirling(y, x, -k)
    d = (x - 0.5) * math.log1p(k / y) + k * math.log(y) - k
    return d + sum(c * (x ** e - y ** e) for c, e in _STIRLING_TERMS)


def _ratio(p, q, k, twins=None):
    # Gamma(p)/Gamma(q) of finite doubles for the order k = p - q, before
    # the perturbation hook: the four pole cases, then one off-pole body. A
    # chain passes its order exactly, and as twins its lattice's point n = 0
    # and that point less k, each reduced mod 2 from the rationals: far out,
    # the doubles p and q no longer carry the phase of the reflection's sines
    x, y, sign, a = p, q, 1.0, None
    if _is_nonpos_int(q):
        if not _is_nonpos_int(p):
            return 0.0
        # the joint limit at p=-m, q=-n: (-1)^(n-m) Gamma(n+1)/Gamma(m+1),
        # whose numerator is n! exactly
        m, n = -round(p), -round(q)
        x, y, k, a = n + 1.0, m + 1.0, float(n - m), n
        sign = -1.0 if (n - m) % 2 else 1.0
    elif _is_nonpos_int(p):
        raise GammaPoleError("gamma ratio undefined: numerator pole at %r "
                             "with finite denominator" % p)
    if x.is_integer() and k.is_integer() and min(
            abs(k), max(abs(x), abs(y))) <= _MAX_EXACT_FACT:
        # (x-1)!/(y-1)! = a!/b!, a falling factorial of k steps rounded
        # once by float(int) or int/int true division
        a = int(x) - 1 if a is None else a
        b = a - int(k)
        try:
            v = float(math.perm(a, a - b)) if a >= b else 1 / math.perm(b, b - a)
        except OverflowError:
            raise _overflow(p, q) from None
        return sign * v
    if min(x, y) > _STIRLING:
        d = _stirling(x, y, k)
    elif max(x, y) < -_STIRLING:
        # Gamma(x)/Gamma(y) = sin(pi y)/sin(pi x) Gamma(1-y)/Gamma(1-x)
        s = sinpi(twins[1]) / sinpi(twins[0]) if twins else sinpi(y) / sinpi(x)
        d = _stirling(1.0 - y, 1.0 - x, k) + math.log(abs(s))
        sign = math.copysign(1.0, s)
    else:
        d, sign = _lgamma(x) - _lgamma(y), sign * _sign(x) * _sign(y)
    if d > _EXP_OVERFLOW:
        raise _overflow(p, q)
    if d < _EXP_UNDERFLOW:
        return 0.0
    return sign * math.exp(d)


def _perturbed(values):
    # the verification hook: every nonzero ratio scaled by (1 + eps)
    eps = config.perturbation()
    if eps == 0.0:
        return values
    return [v * (1.0 + eps) if v != 0.0 else v for v in values]


def gamma_ratio(p, q):
    """Gamma(p)/Gamma(q) of finite doubles, in log space with sign tracking.

    Pole handling: denominator pole -> exact 0.0; both arguments on poles
    p=-m, q=-n -> the joint limit (-1)^(n-m)*n!/m!; numerator pole alone ->
    GammaPoleError. A ratio beyond double range raises GammaOverflowError,
    and an infinite or NaN argument ExponentError. Integer arguments at most
    301 apart, or both within 301 of 0, are resolved by exact factorial
    arithmetic, so e.g. gamma_ratio(n+1, n) == n without rounding. Two
    arguments past 172 on one side take the Stirling difference, accurate to
    a few units in the last place of log|Gamma(p)/Gamma(q)|.
    """
    p, q = _finite(p), _finite(q)
    return _perturbed([_ratio(p, q, p - q)])[0]


# -------------------------------------------------------------------------
# Pochhammer chains along a lattice

# kind -> (Gamma power a, reciprocal power b): the chain computes
# Gamma(x)**a / Gamma(x - k)**b
_CHAIN_KINDS = {"gamma": (1, 0), "recip": (0, 1), "ratio": (1, 1)}

# The values of each lattice and kind, (r, Q, K, kind) -> (lo, vals, floor,
# ceil): vals[j] at index lo + j, x = (index Q + r)/Q; only the indices in
# [floor, ceil] are tabled, at most config.TABLE_SPAN steps from the anchor.
# All tables are dropped once they hold more than config.TABLE_CEILING values.
#
# Before the table, a call reads its chain's plan, cached per (P, Q, K,
# kind) under config.PLAN_CACHE as the series layers' plans are: the scalar
# function of the keys off the table (a ratio's a closure on the exact order
# and the twins of its phase, no perturbation in it) and the table's lattice,
# reduced by gcd(P, Q, K), with the index shift of its keys. The perturbation
# is applied to each call's factors after the table is read, before they
# multiply the call's values.
_tables = {}
_held = 0


def pole_top(p, q):
    """The highest integer n that puts n + p/q (ints, q > 0) on a Gamma pole,
    within config.INT_TOL of a nonpositive integer, or None. Every n + p/q
    lies the same exact distance from the integers, so one test decides the
    lattice: the poles are the n <= -m, m the integer nearest p/q, or there
    are none."""
    m = (2 * p + q) // (2 * q)  # floor(p/q + 1/2)
    return None if abs(p - m * q) / q > INT_TOL else -m  # q may pass 2^1024


def poles(top, keys):
    """How many of the ascending integer keys lie at or below top, a
    pole_top: the leading keys on the poles."""
    return 0 if top is None else bisect_right(keys, top)


def gamma_chain(c, keys, kind, k=0):
    """[q(x) for x = n + c, n in keys] for exact rationals c and k
    (Fraction or int) and q = gamma ("gamma"), recip_gamma ("recip") or
    x -> gamma_ratio(x, x - k) ("ratio"): lattice_scaled on a column of
    ones, whose products are the factors themselves."""
    kp, kq = (k.numerator, k.denominator) if kind == "ratio" else (0, 1)
    return lattice_scaled(c.numerator * kq, c.denominator * kq,
                          kp * c.denominator, keys, [1.0] * len(keys), kind)


def lattice_scaled(P, Q, K, keys, vals, kind):
    """[v * q(x) for v, x = (n Q + P)/Q in zip(vals, keys)] for q = gamma
    ("gamma"), recip_gamma ("recip") or x -> gamma_ratio(x, x - K/Q)
    ("ratio"; K = 0 for the others), each factor read from the lattice's
    table. keys are ascending ints, vals the value column aligned with
    them, and P, K and Q > 0 ints. Each argument is the correctly rounded
    double of its rational, and each factor follows the pole, overflow,
    underflow-to-zero and perturbation rules of the scalar function it
    stands for; a ratio's scalar cases take the order K/Q and the lattice's
    phase exactly, not as the difference of two rounded doubles. The keys
    that put x, or a ratio's x - K/Q, on a pole lie below the table's floor
    and get the scalar cases. Where every key lies on the table, each value
    is multiplied once by its factor as it is read (one slice for
    consecutive keys), and no factor list is built; otherwise the factors
    are gathered, a ratio's perturbed, and then the column is multiplied.
    The products are not checked."""
    if not keys:
        return []
    scalar, i, r, q, k = _chain_plan(P, Q, K, kind)
    lo, table, j, e = _table(r, q, k, kind, keys, i)
    d = i - lo
    if (j == 0 and e == len(keys)
            and (kind != "ratio" or not config.perturbation())):
        if keys[-1] - keys[0] == e - 1:  # consecutive keys: one slice
            return list(map(mul, vals, table[keys[0] + d:keys[-1] + d + 1]))
        return [v * table[n + d] for n, v in zip(keys, vals)]
    mid = keys[j:e]
    out = [scalar((n * Q + P) / Q) for n in keys[:j]]
    out += (table[mid[0] + d:mid[-1] + d + 1]
            if mid and mid[-1] - mid[0] == e - j - 1
            else [table[n + d] for n in mid])
    out += [scalar((n * Q + P) / Q) for n in keys[e:]]
    if kind == "ratio":
        out = _perturbed(out)
    return list(map(mul, vals, out))


@functools.lru_cache(maxsize=config.PLAN_CACHE)
def _chain_plan(P, Q, K, kind):
    # lattice_scaled's plan: the scalar function of the keys off the table (a
    # ratio's a closure on the exact order and the twins of its phase), and
    # the table's lattice (r, Q, K)/g, g = gcd(P, Q, K), which holds key n at
    # index n + i
    if kind == "gamma":
        scalar = gamma
    elif kind == "recip":
        scalar = recip_gamma
    else:
        kf = K / Q
        twins = (P % (2 * Q) / Q, (P - K) % (2 * Q) / Q)

        def scalar(x):
            return _ratio(x, x - kf, kf, twins)
    g = math.gcd(P, Q, K)
    i, r = divmod(P // g, Q // g)
    return scalar, i, r, Q // g, K // g


def _table(r, Q, K, kind, keys, i):
    # (lo, vals, j, e): the table of the lattice x = index + r/Q, order K/Q
    # and kind, walked on to the indices n + i of keys[j:e], the keys within
    # its bounds. A new one starts at the anchor: the first index past the
    # poles with x > max(0, k) - 1/2, where |x| + |x - k| is |k| for x
    # between 0 and k and grows outside. A stored table that needs no walk
    # is returned as it is
    global _held
    key = (r, Q, K, kind)
    entry = _tables.get(key)
    stored = entry is not None
    if not stored:
        a, b = _CHAIN_KINDS[kind]
        t = (2 * max(K, 0) - Q - 2 * r) // (2 * Q) + 1
        tops = [pole_top(p, Q) for p, used in ((r, a), (r - K, b)) if used]
        floor = max([t - config.TABLE_SPAN]
                    + [n + 1 for n in tops if n is not None])
        t = max(t, floor)
        vals = _walk(r, Q, K, kind, t - 1, None, 1, 1)
        entry = ((t, vals, floor, t + config.TABLE_SPAN) if vals
                 else (t, [], t, t - 1))
    lo, vals, floor, ceil = entry
    j = bisect_left(keys, floor - i)
    e = bisect_right(keys, ceil - i, j)
    down = lo - keys[j] - i if j < e else 0
    up = keys[e - 1] + i - lo - len(vals) + 1 if j < e else 0
    if stored and down <= 0 and up <= 0:
        return lo, vals, j, e
    if down > 0:
        more = _walk(r, Q, K, kind, lo, vals[0], down, -1)
        lo, vals = lo - len(more), more[::-1] + vals
        floor = lo if len(more) < down else floor
    if up > 0:
        more = _walk(r, Q, K, kind, lo + len(vals) - 1, vals[-1], up, 1)
        vals = vals + more
        ceil = lo + len(vals) - 1 if len(more) < up else ceil
    _held += len(vals) - (len(entry[1]) if stored else 0)
    if _held > config.TABLE_CEILING:
        _tables.clear()
        _held = len(vals)
    _tables[key] = (lo, vals, floor, ceil)
    return (lo, vals, bisect_left(keys, floor - i),
            bisect_right(keys, ceil - i))


def _walk(r, Q, K, kind, t, v, count, step):
    # the values at t + step, t + 2 step, ... (count of them) on from v at
    # t, cut short before the first that leaves the normal double range: one
    # Pochhammer step each, or the scalar kernel, at x and x - k rounded
    # once, for the anchor (v None) and on the integer lattice (Q = 1, a
    # ratio under an integer order: exact falling factorials)
    a, b = _CHAIN_KINDS[kind]
    out = []
    for w in range(t + step, t + step * (count + 1), step):
        if v is None or Q == 1:
            n = w * Q + r
            try:
                v = (_ratio(n / Q, (n - K) / Q, K / Q) if a and b
                     else gamma(n / Q) if a else recip_gamma(n / Q))
            except GammaOverflowError:
                break
        else:
            # up: V(x+1) = V(x) f at x = w - 1 + r/Q, down: V(x) = V(x+1) / f
            # at x = w + r/Q, for f = x**a / (x-k)**b rounded once
            n = (w - 1 if step > 0 else w) * Q + r
            f = (n if a else Q) / (n - K if b else Q)
            v = v * f if step > 0 else v / f
        if not _NORMAL_MIN <= abs(v) <= _NORMAL_MAX:
            break
        out.append(v)
    return out
