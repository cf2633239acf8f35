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

and one multiply-divide per lattice step replaces a log-Gamma evaluation
per term. The argument at each key is the correctly rounded double of its
rational (n q + p)/q, evaluated once; a step count is the difference of two
keys, and the steps go by 1 in doubles from a key's argument. Each chain
starts from one scalar-kernel anchor at the key with the smallest |x| + |x-k|, where the
log-space value is most accurate, and walks up and down from it: a product
chain's rounding error grows linearly with its length (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 3), while a log-space value
carries an error proportional to |log Gamma|.

Every n + c lies the same exact distance from the integers, so one test of
that distance against INT_TOL decides a lattice's poles, and they are its
leading keys (lattice_poles). The caller, which has already decided them,
passes their count, and those keys get the scalar cases. The key after a
gap of more than _MAX_GAP steps, or after a running value that left the
normal double range, is re-anchored by the scalar kernel, which also raises
the overflow errors and returns the underflow zeros. The integer lattice
under an integer order takes the exact factorial paths term by term, the
tables at arguments 1..171 and the scalar kernel elsewhere, bit for bit. The
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

# Longest gap between neighbouring keys bridged by stepping; the term after
# a wider one is re-anchored by the scalar kernel. On CPython 3.11 a step
# takes about 0.11 us, a scalar ratio 1.2 us (10 steps) and a scalar Gamma
# or 1/Gamma 0.6-0.75 us (5-7 steps); the bound decides outputs, so it stays.
_MAX_GAP = 32


def lattice_poles(p, q, keys):
    """How many of the ascending integer keys n put n + p/q (q > 0) on a
    Gamma pole, within config.INT_TOL of a nonpositive integer. Every n + p/q
    lies the same exact distance from the integers, so one test decides the
    lattice: the poles are the leading keys n <= -m, m the integer nearest
    p/q, or there are none."""
    m = (2 * p + q) // (2 * q)  # floor(p/q + 1/2)
    if abs(p - m * q) / q > INT_TOL:  # int/int: q may pass 2^1024
        return 0
    return bisect.bisect_right(keys, -m)


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
    for the others), by Pochhammer steps between neighbours. keys are
    ascending ints, and P, K and Q > 0 ints. Each argument is the correctly
    rounded double of its rational, and each value follows the pole,
    overflow, underflow-to-zero and perturbation rules of the scalar
    function it stands for. The caller counts poles, the leading keys that
    put x, or a ratio's x - K/Q, on a pole (lattice_poles); those keys get
    the scalar cases."""
    a, b = _CHAIN_KINDS[kind]
    kf = K / Q
    if kind == "gamma":
        scalar, table = gamma, _FACTORIALS
    elif kind == "recip":
        scalar, table = recip_gamma, _RECIP_FACTORIALS
    else:
        def scalar(x):
            return _ratio(x, x - kf)
    integral = not (P % Q or K % Q)
    if integral and kind != "ratio":
        i = P // Q - 1  # table index of the key n: x - 1 = n + i
        return [table[j] if 0 <= (j := n + i) <= 170 else scalar(float(j + 1))
                for n in keys]
    xs = [(n * Q + P) / Q for n in keys]
    e = len(keys)
    # the keys the scalar kernel takes term by term: those on a pole, or a
    # ratio's whole integer lattice under an integer order (math.perm)
    h = e if integral else poles
    out = [0.0] * e
    for i in range(h):
        out[i] = scalar(xs[i])
    if h < e:
        # the anchor is where |x| + |x - k|, convex in x, is smallest: at the
        # first key with x >= k/2 (2(n Q + P) >= K), or at the key before it
        m = bisect.bisect_left(keys, -((2 * P - K) // (2 * Q)), h)
        if m == e or m > h and (abs(xs[m - 1]) + abs(xs[m - 1] - kf)
                                <= abs(xs[m]) + abs(xs[m] - kf)):
            m -= 1
        out[m] = scalar(xs[m])
        # up:   V(x+1) = V(x) * x**a / (x-k)**b     for x = x_m, x_m + 1, ...
        _walk(keys, xs, out, m, e, 1, (a, 0.0, b, kf), scalar)
        # down: V(x) = V(x+1) * (x-k)**b / x**a     for x = x_m - 1, ...
        _walk(keys, xs, out, m, h - 1, -1, (b, kf, a, 0.0), scalar)
    return _perturbed(out) if kind == "ratio" else out


def _walk(keys, xs, out, m, stop, step, factors, scalar):
    # out[t] for t = m + step, m + 2 step, ... before stop, from out[m]: each
    # lattice step multiplies by (z - nk) if na and divides by (z - dk) if da,
    # for z running up from the previous key's argument, or down from it
    # minus 1; the step count is the keys' difference. The key past a gap
    # wider than _MAX_GAP, or after a value out of normal range, is
    # re-anchored by the scalar kernel. The range is checked at the end of
    # each gap: a step scales |V| by |z/(z-k)|, which crosses 1 only at
    # z = k/2, next to the anchor, so away from it |V| only grows or only
    # shrinks (for Gamma alone, up to its O(1) dip between 0 and 2), and a
    # value that leaves the range inside a gap is still out of it at the end.
    na, nk, da, dk = factors
    dz = float(step)
    shift = 0.0 if step > 0 else -1.0
    lo, hi, gap = _NORMAL_MIN, _NORMAL_MAX, _MAX_GAP
    v, n0, y = out[m], keys[m], xs[m]
    for t in range(m + step, stop, step):
        n = keys[t]
        steps = (n - n0) * step
        x = xs[t]
        if steps > gap or not lo <= abs(v) <= hi:
            v = scalar(x)
        else:
            z = y + shift
            while steps:
                v = v * (z - nk if na else 1.0) / (z - dk if da else 1.0)
                z += dz
                steps -= 1
            if not lo <= abs(v) <= hi:
                v = scalar(x)
        out[t] = v
        n0 = n
        y = x
