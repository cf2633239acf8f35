"""Gamma kernel with explicit pole semantics.

Three views of the same function, differing in how they treat the poles at
nonpositive integers:

  gamma(x)          value; raises at poles and on overflow
  recip_gamma(x)    the entire reciprocal; exactly 0.0 at poles, never raises
  gamma_ratio(p,q)  Gamma(p)/Gamma(q) with the four pole cases resolved:
                    no poles -> value; denominator pole -> 0; both poles ->
                    the joint limit (-1)^(n-m) n!/m!; numerator pole -> error

Off the poles, log|Gamma(x)| is math.lgamma (inf past its range, x above
about 2.5e305), and Gamma is negative exactly on (-2j-1, -2j), j >= 0.
Exact integer arguments take exact factorial paths: Gamma(n) and 1/Gamma(n)
from tables of the doubles of 0!..170! and of their reciprocals, and a
ratio of two as one falling factorial, math.perm, each rounded once.

Pole detection is tolerance-based (the constant config.INT_TOL, 1e-9) so
that lattice arithmetic performed in doubles lands on the intended case.

Non-finite arguments never reach the floor-based tests: NaN and -inf have
no limit and give NaN (is_pole gives False); +inf gives Gamma = +inf, so
gamma(+inf) and +inf over a finite q in gamma_ratio raise
GammaOverflowError, while 1/Gamma(+inf) and a finite, non-pole numerator
over Gamma(+inf) give 0.0.

gamma_chain evaluates one of these quantities along a whole series. Its
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
leading keys (lattice_poles). The caller, which has already decided them,
passes their count, and those keys get the scalar cases. So do the keys
more than _SPAN steps from the anchor or past a value that left the normal
double range: the scalar kernel raises the overflow errors and returns the
underflow zeros. On the integer lattice Gamma and 1/Gamma read the
factorial tables at arguments 1..171, and a ratio under an integer order
tables the scalar kernel's falling factorials, bit for bit. The
series layers pass c and k to lattice_chain as ints, building no Fraction.
"""

import bisect
import math
import sys
from itertools import accumulate
from operator import mul

from . import config
from .config import INT_TOL
from .errors import GammaOverflowError, GammaPoleError

__all__ = [
    "gamma",
    "recip_gamma",
    "gamma_ratio",
    "sinpi",
    "is_pole",
    "lattice_poles",
    "gamma_chain",
    "lattice_chain",
]

_EXP_OVERFLOW = 709.782712893384  # log(DBL_MAX)
_EXP_UNDERFLOW = -745.1332191019412  # log of smallest denormal

# largest exact-integer argument of a factorial ratio in gamma_ratio
_MAX_EXACT_FACT = 301

# 0!, 1!, ..., 170!, each the correctly rounded double of the exact integer
# (171! exceeds the double range), and the doubles of their reciprocals
_FACTORIALS = list(map(float, accumulate(range(1, 171), mul, initial=1)))
_RECIP_FACTORIALS = [1.0 / f for f in _FACTORIALS]

_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


def _is_nonpos_int(x):
    try:
        r = math.floor(x + 0.5)
    except (OverflowError, ValueError):  # +-inf, NaN: never a pole
        return False
    return r <= 0.0 and abs(x - r) <= INT_TOL


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
    """True when x is within config.INT_TOL of a nonpositive integer."""
    return _is_nonpos_int(float(x))


def sinpi(x):
    """sin(pi*x) with exact argument reduction (accurate near every
    integer); NaN at +-inf and NaN."""
    x = float(x)
    if not math.isfinite(x):
        return math.nan
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
    """Gamma(x). Raises GammaPoleError at nonpositive integers and
    GammaOverflowError above ~171.6 and at +inf; -inf and NaN give NaN."""
    x = float(x)
    if not math.isfinite(x):
        if x > 0.0:
            raise GammaOverflowError("gamma(inf) exceeds double range")
        return math.nan
    if x == math.floor(x):
        n = int(x)
        if n <= 0:
            raise GammaPoleError("gamma pole at %r" % x)
        if n <= 171:
            return _FACTORIALS[n - 1]
        raise GammaOverflowError("gamma(%r) exceeds double range" % x)
    if _is_nonpos_int(x):
        raise GammaPoleError("gamma pole at %r" % x)
    log_abs = _lgamma(x)
    if log_abs > _EXP_OVERFLOW:
        raise GammaOverflowError("gamma(%r) exceeds double range" % x)
    return _sign(x) * math.exp(log_abs)


def recip_gamma(x):
    """1/Gamma(x), the entire extension: exactly 0.0 at every nonpositive
    integer. Never raises: +inf gives 0.0, -inf and NaN give NaN."""
    x = float(x)
    if not math.isfinite(x):
        return 0.0 if x > 0.0 else math.nan
    if x == math.floor(x):
        n = int(x)
        if n <= 0:
            return 0.0
        if n <= 171:
            return _RECIP_FACTORIALS[n - 1]
    if _is_nonpos_int(x):
        return 0.0
    d = -_lgamma(x)
    if d > _EXP_OVERFLOW:
        return _sign(x) * math.inf
    if d < _EXP_UNDERFLOW:
        return 0.0
    return _sign(x) * math.exp(d)


def _exact_int(x):
    # exact, small-enough integer for factorial arithmetic
    return x == math.floor(x) and abs(x) <= _MAX_EXACT_FACT


def _exact_ratio(p, q):
    # both arguments exact integers: the factorial ratio a!/b! as a falling
    # factorial, correctly rounded by float(int) or int/int true division
    pi, qi = int(p), int(q)
    if pi >= 1 and qi >= 1:  # (p-1)!/(q-1)!
        a, b = pi - 1, qi - 1
    elif pi >= 1:  # denominator pole only
        return 0.0
    elif qi >= 1:  # numerator pole only
        raise GammaPoleError("gamma ratio undefined: numerator pole at %d" % pi)
    else:  # both poles p=-m, q=-n: joint limit (-1)^(n-m) n!/m!
        a, b = -qi, -pi
    try:
        v = float(math.perm(a, a - b)) if a >= b else 1 / math.perm(b, b - a)
    except OverflowError:
        raise _overflow(p, q) from None
    return -v if pi < 1 and (a - b) % 2 else v


def _log_ratio(p, q):
    # Gamma(p)/Gamma(q) in log space for arguments that are not both exact
    # integers; tolerance-snapped poles take the same four cases
    p_pole = _is_nonpos_int(p)
    q_pole = _is_nonpos_int(q)
    if p_pole and q_pole:
        m = -math.floor(p + 0.5)
        n = -math.floor(q + 0.5)
        sign = 1.0 if math.fmod(n - m, 2.0) == 0.0 else -1.0
        d = _lgamma(n + 1.0) - _lgamma(m + 1.0)
        if d > _EXP_OVERFLOW:
            raise _overflow(p, q)
        return sign * math.exp(d)
    if q_pole:
        return 0.0
    if p_pole:
        raise GammaPoleError(
            "gamma ratio undefined: numerator pole at %r with finite denominator" % p
        )
    d = _lgamma(p) - _lgamma(q)  # neither is a pole
    if d > _EXP_OVERFLOW:
        raise _overflow(p, q)
    if d < _EXP_UNDERFLOW:
        return 0.0
    return _sign(p) * _sign(q) * math.exp(d)


def _non_finite_ratio(p, q):
    # Gamma(+inf) = +inf; NaN and -inf have no limit
    if math.isnan(p) or math.isnan(q) or p == -math.inf or q == -math.inf:
        return math.nan
    if q != math.inf:  # p = +inf over a finite Gamma(q)
        raise _overflow(p, q)
    if p == math.inf:
        return math.nan
    if _is_nonpos_int(p):
        raise GammaPoleError(
            "gamma ratio undefined: numerator pole at %r" % p)
    return 0.0


def _ratio(p, q):
    # Gamma(p)/Gamma(q) of floats, before the perturbation hook
    if not (math.isfinite(p) and math.isfinite(q)):
        return _non_finite_ratio(p, q)
    if _exact_int(p) and _exact_int(q):
        return _exact_ratio(p, q)
    return _log_ratio(p, q)


def _perturbed(values):
    # the verification hook: every nonzero ratio scaled by (1 + eps)
    eps = config.perturbation()
    if eps == 0.0:
        return values
    return [v * (1.0 + eps) if v != 0.0 else v for v in values]


def gamma_ratio(p, q):
    """Gamma(p)/Gamma(q) computed in log space with sign tracking.

    Pole handling: denominator pole -> exact 0.0; both arguments on poles
    p=-m, q=-n -> the joint limit (-1)^(n-m)*n!/m!; numerator pole alone ->
    GammaPoleError. A ratio beyond double range raises GammaOverflowError.
    Exact integer arguments are resolved by exact factorial arithmetic, so
    e.g. gamma_ratio(n+1, n) == n without rounding. Non-finite arguments:
    +inf over a finite q raises GammaOverflowError, a finite p over +inf
    gives 0.0 (GammaPoleError if p is a pole), anything else NaN.
    """
    return _perturbed([_ratio(float(p), float(q))])[0]


# -------------------------------------------------------------------------
# Pochhammer chains along a lattice

# kind -> (Gamma power a, reciprocal power b): the chain computes
# Gamma(x)**a / Gamma(x - k)**b
_CHAIN_KINDS = {"gamma": (1, 0), "recip": (0, 1), "ratio": (1, 1)}

# The values of each lattice and kind, (r, Q, K, kind) -> (lo, vals, floor,
# ceil): vals[j] at index lo + j, x = (index Q + r)/Q; only the indices in
# [floor, ceil] are tabled, at most _SPAN steps from the anchor. All tables
# are dropped once they hold more than _CEILING values (about 2 MB).
_SPAN = 4096
_CEILING = 1 << 16
_tables = {}
_held = 0


def _pole_top(p, q):
    # the highest n with n + p/q (q > 0) within INT_TOL of a pole, or None
    m = (2 * p + q) // (2 * q)  # floor(p/q + 1/2)
    return None if abs(p - m * q) / q > INT_TOL else -m  # q may pass 2^1024


def lattice_poles(p, q, keys):
    """How many of the ascending integer keys n put n + p/q (q > 0) on a
    Gamma pole, within config.INT_TOL of a nonpositive integer. Every n + p/q
    lies the same exact distance from the integers, so one test decides the
    lattice: the poles are the leading keys n <= -m, m the integer nearest
    p/q, or there are none."""
    top = _pole_top(p, q)
    return 0 if top is None else bisect.bisect_right(keys, top)


def gamma_chain(c, keys, kind, k=0):
    """lattice_chain at n + c for exact rationals c and k (Fraction or int),
    its poles counted by lattice_poles."""
    a, b = _CHAIN_KINDS[kind]
    kp, kq = (k.numerator, k.denominator) if kind == "ratio" else (0, 1)
    P, Q, K = c.numerator * kq, c.denominator * kq, kp * c.denominator
    return lattice_chain(P, Q, K, keys, kind, max(
        a and lattice_poles(P, Q, keys), b and lattice_poles(P - K, Q, keys)))


def lattice_chain(P, Q, K, keys, kind, poles):
    """[q(x) for x = (n Q + P)/Q, n in keys] for q = gamma ("gamma"),
    recip_gamma ("recip") or x -> gamma_ratio(x, x - K/Q) ("ratio"; K = 0
    for the others), read from the lattice's table. keys are ascending ints,
    and P, K and Q > 0 ints. Each argument is the correctly rounded double
    of its rational, and each value follows the pole, overflow,
    underflow-to-zero and perturbation rules of the scalar function it
    stands for. The caller counts poles, the leading keys that put x, or a
    ratio's x - K/Q, on a pole (lattice_poles); those keys get the scalar
    cases."""
    kf = K / Q
    if kind == "gamma":
        scalar, table = gamma, _FACTORIALS
    elif kind == "recip":
        scalar, table = recip_gamma, _RECIP_FACTORIALS
    else:
        def scalar(x):
            return _ratio(x, x - kf)
    if kind != "ratio" and P % Q == 0:
        i = P // Q - 1  # table index of the key n: x - 1 = n + i
        return [table[j] if 0 <= (j := n + i) <= 170 else scalar(float(j + 1))
                for n in keys]
    out = [scalar((n * Q + P) / Q) for n in keys[:poles]]
    if poles < len(keys):
        # the table of the lattice (P, Q, K)/g holds key n at index n + i
        g = math.gcd(P, Q, K)
        i, r = divmod(P // g, Q // g)
        keys = keys[poles:]
        lo, vals, j, e = _table(r, Q // g, K // g, kind, keys, i)
        mid, d = keys[j:e], i - lo
        out += [scalar((n * Q + P) / Q) for n in keys[:j]]
        out += (vals[mid[0] + d:mid[-1] + d + 1]  # consecutive keys: a slice
                if mid and mid[-1] - mid[0] == e - j - 1
                else [vals[n + d] for n in mid])
        out += [scalar((n * Q + P) / Q) for n in keys[e:]]
    return _perturbed(out) if kind == "ratio" else out


def _table(r, Q, K, kind, keys, i):
    # (lo, vals, j, e): the table of the lattice x = index + r/Q, order K/Q
    # and kind, walked on to the indices n + i of keys[j:e], the keys within
    # its bounds. A new one starts at the anchor: the first index past the
    # poles with x > max(0, k) - 1/2, where |x| + |x - k| is |k| for x
    # between 0 and k and grows outside
    global _held
    key = (r, Q, K, kind)
    entry = _tables.get(key)
    if entry is None:
        a, b = _CHAIN_KINDS[kind]
        t = (2 * max(K, 0) - Q - 2 * r) // (2 * Q) + 1
        tops = [_pole_top(p, Q) for p, used in ((r, a), (r - K, b)) if used]
        floor = max([t - _SPAN] + [n + 1 for n in tops if n is not None])
        t = max(t, floor)
        vals = _walk(r, Q, K, kind, t - 1, None, 1, 1)
        entry = (t, vals, floor, t + _SPAN) if vals else (t, [], t, t - 1)
        _held += len(vals)
    lo, vals, floor, ceil = entry
    j = bisect.bisect_left(keys, floor - i)
    e = bisect.bisect_right(keys, ceil - i, j)
    down = lo - keys[j] - i if j < e else 0
    up = keys[e - 1] + i - lo - len(vals) + 1 if j < e else 0
    if down > 0:
        more = _walk(r, Q, K, kind, lo, vals[0], down, -1)
        lo, vals = lo - len(more), more[::-1] + vals
        floor = lo if len(more) < down else floor
    if up > 0:
        more = _walk(r, Q, K, kind, lo + len(vals) - 1, vals[-1], up, 1)
        vals = vals + more
        ceil = lo + len(vals) - 1 if len(more) < up else ceil
    if down > 0 or up > 0 or key not in _tables:
        _held += len(vals) - len(entry[1])
        if _held > _CEILING:
            _tables.clear()
            _held = len(vals)
        _tables[key] = (lo, vals, floor, ceil)
    return (lo, vals, bisect.bisect_left(keys, floor - i),
            bisect.bisect_right(keys, ceil - i))


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
                v = (_ratio(n / Q, (n - K) / Q) if a and b
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
