"""Gamma kernel with explicit pole semantics.

Three views of the same function, differing in how they treat the poles at
nonpositive integers:

  gamma(x)          value; raises at poles and on overflow
  recip_gamma(x)    the entire reciprocal; exactly 0.0 at poles, never raises
  gamma_ratio(p,q)  Gamma(p)/Gamma(q) with the four pole cases resolved:
                    no poles -> value; denominator pole -> 0; both poles ->
                    the joint limit (-1)^(n-m) n!/m!; numerator pole -> error

Gamma is evaluated with the 9-term Lanczos approximation (g = 7) on the
half-line x >= 0.5 and carried to the rest of the real line through the
reflection formula Gamma(x) Gamma(1-x) = pi / sin(pi x). sin(pi x) uses exact
argument reduction so reflected values stay accurate arbitrarily close to the
poles. Exact integer arguments take exact factorial paths: Gamma(n) from
a table of the doubles of 0!..170!, and a ratio of two as one falling
factorial, both rounded once.

Pole detection is tolerance-based (config.int_tol, default 1e-9) so that
lattice arithmetic performed in doubles lands on the intended case.

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

and one multiply-divide per lattice step replaces a Lanczos evaluation per
term. The argument at each key is the correctly rounded double of its
rational (n q + p)/q, evaluated once; a step count is the difference of two
keys, and the steps go by 1 in doubles from a key's argument. Each chain
starts from one scalar-kernel anchor at the key with the smallest |x| + |x-k|, where the
log-space value is most accurate, and walks up and down from it: a product
chain's rounding error grows linearly with its length (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 3), while a log-space value
carries an error proportional to |log Gamma|.

Every n + c lies the same exact distance from the integers, so one test of
that distance against int_tol decides a lattice's poles, and they are its
leading keys (lattice_poles); those get the scalar cases. The key after a
gap of more than _MAX_GAP steps, or after a running value that left the
normal double range, is re-anchored by the scalar kernel, which also raises
the overflow errors and returns the underflow zeros. The integer lattice
under an integer order goes to the scalar kernel term by term, so it takes
the exact factorial paths and equals them bit for bit.
"""

import bisect
import math
import sys
from itertools import accumulate
from operator import mul

from . import config
from .errors import GammaOverflowError, GammaPoleError

__all__ = [
    "gamma",
    "recip_gamma",
    "gamma_ratio",
    "sinpi",
    "is_pole",
    "lattice_poles",
    "gamma_chain",
]

_HALF_LOG_TWO_PI = 0.9189385332046727417803297364  # log(2 pi)/2
_LOG_PI = 1.1447298858494001741434273514  # log(pi)
_EXP_OVERFLOW = 709.782712893384  # log(DBL_MAX)
_EXP_UNDERFLOW = -745.1332191019412  # log of smallest denormal

# largest exact-integer argument of a factorial ratio in gamma_ratio
_MAX_EXACT_FACT = 301

# 0!, 1!, ..., 170!, each the correctly rounded double of the exact integer;
# 171! exceeds the double range
_FACTORIALS = list(map(float, accumulate(range(1, 171), mul, initial=1)))

_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max


def _is_nonpos_int(x, tol):
    try:
        r = math.floor(x + 0.5)
    except (OverflowError, ValueError):  # +-inf, NaN: never a pole
        return False
    return r <= 0.0 and abs(x - r) <= tol


def _loggamma_pos(x):
    # Lanczos g=7; requires x >= 0.5 where the rational part is positive.
    # The nine-term sum is written out and added left to right.
    z = x - 1.0
    acc = (0.99999999999980993
           + 676.5203681218851 / (z + 1.0)
           - 1259.1392167224028 / (z + 2.0)
           + 771.32342877765313 / (z + 3.0)
           - 176.61502916214059 / (z + 4.0)
           + 12.507343278686905 / (z + 5.0)
           - 0.13857109526572012 / (z + 6.0)
           + 9.9843695780195716e-6 / (z + 7.0)
           + 1.5056327351493116e-7 / (z + 8.0))
    t = z + 7.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _signed_loggamma(x, tol):
    # (log|Gamma(x)|, sign, is_pole) for a float x; (inf, 1.0, True) at poles
    if _is_nonpos_int(x, tol):
        return math.inf, 1.0, True
    if x >= 0.5:
        return _loggamma_pos(x), 1.0, False
    # reflection: Gamma(x) = pi / (sin(pi x) * Gamma(1 - x))
    s = sinpi(x)
    log_abs = _LOG_PI - math.log(abs(s)) - _loggamma_pos(1.0 - x)
    return log_abs, (1.0 if s > 0.0 else -1.0), False


def _overflow(p, q):
    return GammaOverflowError(
        "gamma ratio Gamma(%r)/Gamma(%r) exceeds double range" % (p, q))


def is_pole(x, tol=None):
    """True when x is within tol (config.int_tol when None) of a
    nonpositive integer."""
    return _is_nonpos_int(float(x), config.int_tol if tol is None else tol)


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
    log_abs, sign, pole = _signed_loggamma(x, config.int_tol)
    if pole:
        raise GammaPoleError("gamma pole at %r" % x)
    if log_abs > _EXP_OVERFLOW:
        raise GammaOverflowError("gamma(%r) exceeds double range" % x)
    return sign * math.exp(log_abs)


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
            return 1.0 / _FACTORIALS[n - 1]
    log_abs, sign, pole = _signed_loggamma(x, config.int_tol)
    if pole:
        return 0.0
    d = -log_abs
    if d > _EXP_OVERFLOW:
        return sign * math.inf
    if d < _EXP_UNDERFLOW:
        return 0.0
    return sign * math.exp(d)


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


def _log_ratio(p, q, tol):
    # Gamma(p)/Gamma(q) in log space for arguments that are not both exact
    # integers; tolerance-snapped poles take the same four cases
    p_pole = _is_nonpos_int(p, tol)
    q_pole = _is_nonpos_int(q, tol)
    if p_pole and q_pole:
        m = -math.floor(p + 0.5)
        n = -math.floor(q + 0.5)
        sign = 1.0 if math.fmod(n - m, 2.0) == 0.0 else -1.0
        d = _loggamma_pos(n + 1.0) - _loggamma_pos(m + 1.0)
        if d > _EXP_OVERFLOW:
            raise _overflow(p, q)
        return sign * math.exp(d)
    if q_pole:
        return 0.0
    if p_pole:
        raise GammaPoleError(
            "gamma ratio undefined: numerator pole at %r with finite denominator" % p
        )
    la, sa, _ = _signed_loggamma(p, tol)
    lb, sb, _ = _signed_loggamma(q, tol)
    d = la - lb
    if d > _EXP_OVERFLOW:
        raise _overflow(p, q)
    if d < _EXP_UNDERFLOW:
        return 0.0
    return sa * sb * math.exp(d)


def _non_finite_ratio(p, q, tol):
    # Gamma(+inf) = +inf; NaN and -inf have no limit
    if math.isnan(p) or math.isnan(q) or p == -math.inf or q == -math.inf:
        return math.nan
    if q != math.inf:  # p = +inf over a finite Gamma(q)
        raise _overflow(p, q)
    if p == math.inf:
        return math.nan
    if _is_nonpos_int(p, tol):
        raise GammaPoleError(
            "gamma ratio undefined: numerator pole at %r" % p)
    return 0.0


def _ratio(p, q, tol):
    # Gamma(p)/Gamma(q) of floats, before the perturbation hook
    if not (math.isfinite(p) and math.isfinite(q)):
        return _non_finite_ratio(p, q, tol)
    if _exact_int(p) and _exact_int(q):
        return _exact_ratio(p, q)
    return _log_ratio(p, q, tol)


def _perturbed(values):
    # the verification hook: every nonzero ratio scaled by (1 + eps)
    eps = config.gamma_perturb
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
    return _perturbed([_ratio(float(p), float(q), config.int_tol)])[0]


# -------------------------------------------------------------------------
# Pochhammer chains along a lattice

# kind -> (Gamma power a, reciprocal power b): the chain computes
# Gamma(x)**a / Gamma(x - k)**b
_CHAIN_KINDS = {"gamma": (1, 0), "recip": (0, 1), "ratio": (1, 1)}

# Longest gap between neighbouring keys bridged by stepping; the term after
# a wider one is re-anchored by the scalar kernel, which costs about as much
# as 16 steps.
_MAX_GAP = 32


def lattice_poles(p, q, keys):
    """How many of the ascending integer keys n put n + p/q (q > 0) on a
    Gamma pole, within config.int_tol of a nonpositive integer. Every n + p/q
    lies the same exact distance from the integers, so one test decides the
    lattice: the poles are the leading keys n <= -m, m the integer nearest
    p/q, or there are none."""
    m = (2 * p + q) // (2 * q)  # floor(p/q + 1/2)
    if abs(p - m * q) / q > config.int_tol:  # int/int: q may pass 2^1024
        return 0
    return bisect.bisect_right(keys, -m)


def gamma_chain(c, keys, kind, k=0):
    """[q(n + c) for n in keys] for q = gamma ("gamma"), recip_gamma
    ("recip") or x -> gamma_ratio(x, x - k) ("ratio"), by Pochhammer steps
    between neighbours.

    keys are ascending integers; c and k are exact rationals (Fraction or
    int), and k is used by "ratio" only. Each argument n + c is the correctly
    rounded double of its rational, and each value follows the pole,
    overflow, underflow-to-zero and perturbation rules of the scalar function
    it stands for: the leading keys on a pole (lattice_poles) get the scalar
    cases."""
    a, b = _CHAIN_KINDS[kind]
    if kind != "ratio":
        k = 0
    # x = n + c = N/Q and x - k = (N - K)/Q with N = n Q + P, all integers
    kq = k.denominator
    Q, P, K = c.denominator * kq, c.numerator * kq, k.numerator * c.denominator
    tol = config.int_tol
    kf = K / Q
    if kind == "gamma":
        scalar = gamma
    elif kind == "recip":
        scalar = recip_gamma
    else:
        def scalar(x):
            return _ratio(x, x - kf, tol)
    xs = [(n * Q + P) / Q for n in keys]
    e = len(keys)
    # the keys the scalar kernel takes term by term: those on a pole, or all
    # of the integer lattice under an integer order (exact factorial paths)
    h = e if Q == 1 else max(a and lattice_poles(P, Q, keys),
                             b and lattice_poles(P - K, Q, keys))
    out = [0.0] * e
    for i in range(h):
        out[i] = scalar(xs[i])
    if h < e:
        # the anchor is where |x| + |x - k|, convex in x, is smallest: at the
        # first key with x >= k/2 (2N >= K), or at the key before it
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
