"""Gamma kernel with explicit pole semantics.

Four views of the same function, differing in how they treat the poles at
nonpositive integers:

  gamma(x)          value; raises at poles and on overflow
  recip_gamma(x)    the entire reciprocal; exactly 0.0 at poles, never raises
  signed_loggamma   (log|Gamma|, sign, is_pole) triple for log-space work
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
arguments lie on one lattice {phase + n}, so neighbours are linked by the
Pochhammer step Gamma(x+1) = x Gamma(x) (DLMF 5.5.1):

  "gamma"   Gamma(x+1)   = Gamma(x) * x
  "recip"   1/Gamma(x+1) = (1/Gamma(x)) / x
  "ratio"   R(x+1)       = R(x) * x / (x-k)    for R(x) = Gamma(x)/Gamma(x-k)

and one multiply-divide per lattice step replaces a Lanczos evaluation per
term. Each run of terms starts from one scalar-kernel anchor at the term
with the smallest |x| + |x-k|, where the log-space value is most accurate,
and walks up and down from it: a product chain's rounding error grows
linearly with its length (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 3), while a log-space value carries an error
proportional to |log Gamma|. The scalar functions keep every case a step
cannot take: a term whose argument is non-finite or on a pole (within
int_tol) gets its scalar case and ends a run; the term after a gap of more
than _MAX_GAP steps, or after a running value that left the normal double
range, is re-anchored by the scalar kernel, which also raises the overflow
errors and returns the underflow zeros. The integer lattice under an
integer order goes to the scalar kernel term by term, so it takes the
exact factorial paths and equals them bit for bit.
"""

import bisect
import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from . import config
from .errors import GammaOverflowError, GammaPoleError, LatticeError

__all__ = [
    "SignedLogGamma",
    "signed_loggamma",
    "gamma",
    "recip_gamma",
    "gamma_ratio",
    "sinpi",
    "is_pole",
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


def _tol(tol):
    return config.int_tol if tol is None else tol


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


@dataclass(frozen=True)
class SignedLogGamma:
    """Magnitude-and-sign representation of Gamma(x).

    When is_pole is False, sign * exp(log_abs) reconstructs Gamma(x); at a
    pole log_abs is +inf and sign is fixed at +1.
    """

    log_abs: float
    sign: float
    is_pole: bool

    def value(self):
        if self.is_pole:
            raise GammaPoleError("gamma pole: no finite value")
        if self.log_abs > _EXP_OVERFLOW:
            raise GammaOverflowError("gamma value exceeds double range")
        return self.sign * math.exp(self.log_abs)


def signed_loggamma(x, tol=None):
    x = float(x)
    if not math.isfinite(x):
        if x > 0.0:
            return SignedLogGamma(math.inf, 1.0, False)
        return SignedLogGamma(math.nan, math.nan, False)
    return SignedLogGamma(*_signed_loggamma(x, _tol(tol)))


def is_pole(x, tol=None):
    """True when x is within tolerance of a nonpositive integer."""
    return _is_nonpos_int(float(x), _tol(tol))


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


def gamma(x, tol=None):
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
            raise GammaPoleError("gamma pole at %d" % n)
        if n <= 171:
            return _FACTORIALS[n - 1]
        raise GammaOverflowError("gamma(%d) exceeds double range" % n)
    log_abs, sign, pole = _signed_loggamma(x, _tol(tol))
    if pole:
        raise GammaPoleError("gamma pole at %r" % x)
    if log_abs > _EXP_OVERFLOW:
        raise GammaOverflowError("gamma(%r) exceeds double range" % x)
    return sign * math.exp(log_abs)


def recip_gamma(x, tol=None):
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
    log_abs, sign, pole = _signed_loggamma(x, _tol(tol))
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


def gamma_ratio(p, q, tol=None):
    """Gamma(p)/Gamma(q) computed in log space with sign tracking.

    Pole handling: denominator pole -> exact 0.0; both arguments on poles
    p=-m, q=-n -> the joint limit (-1)^(n-m)*n!/m!; numerator pole alone ->
    GammaPoleError. A ratio beyond double range raises GammaOverflowError.
    Exact integer arguments are resolved by exact factorial arithmetic, so
    e.g. gamma_ratio(n+1, n) == n without rounding. Non-finite arguments:
    +inf over a finite q raises GammaOverflowError, a finite p over +inf
    gives 0.0 (GammaPoleError if p is a pole), anything else NaN.
    """
    return _perturbed([_ratio(float(p), float(q), _tol(tol))])[0]


# -------------------------------------------------------------------------
# Pochhammer chains along a lattice

# kind -> (Gamma power a, reciprocal power b): the chain computes
# Gamma(x)**a / Gamma(x - k)**b
_CHAIN_KINDS = {"gamma": (1, 0), "recip": (0, 1), "ratio": (1, 1)}

# Longest gap between neighbouring terms bridged by stepping; the term after
# a wider one is re-anchored by the scalar kernel, which costs about as much
# as 16 steps.
_MAX_GAP = 32
_MAX_STEPS = 2.0**52  # a larger difference is no step count (and round(inf) raises)


def gamma_chain(xs, kind, k=0.0, tol=None):
    """[q(x) for x in xs] for q = gamma ("gamma"), recip_gamma ("recip") or
    x -> gamma_ratio(x, x - k) ("ratio"), by Pochhammer steps between
    neighbours.

    xs are floats in ascending order on one lattice {phase + n} (within
    tol), such as a series' e+1 values; k is used by "ratio" only. Each value
    follows the pole, overflow, underflow-to-zero and perturbation rules of
    the scalar function it stands for; non-finite arguments and poles are
    handed to that function. Neighbours whose difference is not an integer
    within tol raise LatticeError. Where neighbouring floats are not exactly
    one apart, a chained value is Gamma's at the lattice point reached from
    the anchor, which near a pole can differ from the pointwise value by
    about (rounding of the argument)/(distance to the pole)."""
    a, b = _CHAIN_KINDS[kind]
    tol = _tol(tol)
    k = float(k) if kind == "ratio" else 0.0
    if kind == "gamma":
        def scalar(x):
            return gamma(x, tol)
    elif kind == "recip":
        def scalar(x):
            return recip_gamma(x, tol)
    else:
        def scalar(x):
            return _ratio(x, x - k, tol)
    if k.is_integer() and all(map(float.is_integer, xs)):
        # the integer lattice under an integer order: the scalar kernel's
        # exact factorial paths, term by term
        out = [scalar(x) for x in xs]
        return _perturbed(out) if kind == "ratio" else out

    n = len(xs)
    out = [0.0] * n
    # A pole needs x or x - k below 1/2, so with every argument finite only
    # the terms below max(k, 0) + 1 are tested, and only on a side whose
    # lattice comes near the integers: the arguments lie within tol of one
    # lattice, so a term within tol of an integer puts the first term within
    # 2 tol of one (1/8 more covers the rounding of the arguments).
    near = 0.125 + 2.0 * tol
    if math.isfinite(sum(xs)) and math.isfinite(k):
        head = bisect.bisect_left(xs, max(k, 0.0) + 1.0)
        test_x = a and head and abs(xs[0] - round(xs[0])) <= near
        test_r = b and head and abs(xs[0] - k - round(xs[0] - k)) <= near
    else:
        head, test_x, test_r = n, True, True
    inf, floor = math.inf, math.floor
    start = 0
    for i in range(head if test_x or test_r else 0):
        x = xs[i]
        r = x - k
        if not (-inf < x < inf and -inf < r < inf) or (
                test_x and x < 0.5 and abs(x - floor(x + 0.5)) <= tol) or (
                test_r and r < 0.5 and abs(r - floor(r + 0.5)) <= tol):
            _float_run(xs, out, start, i, a, b, k, scalar, tol)
            out[i] = scalar(x)  # non-finite or on a pole: ends a run
            start = i + 1
    _float_run(xs, out, start, n, a, b, k, scalar, tol)
    return _perturbed(out) if kind == "ratio" else out


def _float_run(xs, out, s, e, a, b, k, scalar, tol):
    # out[s:e] for a run of finite terms off the poles. The anchor is where
    # |x| + |x - k|, convex in x, is smallest: at the first term at or above
    # its minimum k/2, or at the term before it.
    if s == e:
        return
    m = bisect.bisect_left(xs, 0.5 * k, s, e)
    if m == e or (m > s and abs(xs[m - 1]) + abs(xs[m - 1] - k)
                  <= abs(xs[m]) + abs(xs[m] - k)):
        m -= 1
    out[m] = scalar(xs[m])
    # up:   V(z+1) = V(z) * z**a / (z-k)**b     for z = x, x+1, ...
    _walk(xs, out, m, e, 1, (a, 0.0, b, k), scalar, tol)
    # down: V(z) = V(z+1) * (z-k)**b / z**a     for z = x-1, x-2, ...
    _walk(xs, out, m, s - 1, -1, (b, k, a, 0.0), scalar, tol)


def _walk(xs, out, m, stop, step, factors, scalar, tol):
    # out[t] for t = m + step, m + 2 step, ... before stop, from out[m]: each
    # lattice step multiplies by (z - nk) if na and divides by (z - dk) if da,
    # for z running from xs[m] up, or from xs[m] - 1 down. The term past a gap
    # wider than _MAX_GAP, or after a value out of normal range, is
    # re-anchored by the scalar kernel. The range is checked at the end of
    # each gap: a step scales |V| by |z/(z-k)|, which crosses 1 only at
    # z = k/2, next to the anchor, so away from it |V| only grows or only
    # shrinks (for Gamma alone, up to its O(1) dip between 0 and 2), and a
    # value that leaves the range inside a gap is still out of it at the end.
    na, nk, da, dk = factors
    dz = float(step)
    shift = 0.0 if step > 0 else -1.0
    lo, hi, slack = _NORMAL_MIN, _NORMAL_MAX, 2.0 * tol
    v, y = out[m], xs[m]
    for t in range(m + step, stop, step):
        x = xs[t]
        d = (x - y) * dz
        if -slack <= d - 1.0 <= slack:
            n = 1
        else:
            n = round(d) if -0.5 < d < _MAX_STEPS else -1
            if n < 0 or not -slack <= d - n <= slack:
                n = _lattice_steps(*((y, x) if step > 0 else (x, y)), tol)
        if n > _MAX_GAP or not lo <= abs(v) <= hi:
            v = scalar(x)
        else:
            z = y + shift
            while n:
                v = v * (z - nk if na else 1.0) / (z - dk if da else 1.0)
                z += dz
                n -= 1
            if not lo <= abs(v) <= hi:
                v = scalar(x)
        out[t] = v
        y = x


def _lattice_steps(lo, hi, tol):
    # steps from lo up to its neighbour hi when they are not an integer apart
    # within 2 tol: allow the rounding of the arguments themselves, or raise
    d = hi - lo
    n = round(d) if -0.5 < d < _MAX_STEPS else -1
    if n < 0 or abs(d - n) > 2.0 * tol + 4.0 * math.ulp(abs(lo) + abs(hi)):
        raise LatticeError(
            "Gamma chain arguments %r and %r are not neighbours on one lattice"
            % (lo, hi))
    return n
