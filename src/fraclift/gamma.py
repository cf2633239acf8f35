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
poles. Exact integer arguments take exact factorial paths.

Pole detection is tolerance-based (config.int_tol, default 1e-9) so that
lattice arithmetic performed in doubles lands on the intended case.
"""

import math
from dataclasses import dataclass

from . import config
from .errors import GammaOverflowError, GammaPoleError

__all__ = [
    "SignedLogGamma",
    "signed_loggamma",
    "gamma",
    "recip_gamma",
    "gamma_ratio",
    "sinpi",
    "is_pole",
]

_HALF_LOG_TWO_PI = 0.9189385332046727417803297364  # log(2 pi)/2
_LOG_PI = 1.1447298858494001741434273514  # log(pi)
_EXP_OVERFLOW = 709.782712893384  # log(DBL_MAX)
_EXP_UNDERFLOW = -745.1332191019412  # log of smallest denormal

# largest exact-integer argument routed through math.factorial
_MAX_EXACT_FACT = 301


def _tol(tol):
    return config.int_tol if tol is None else tol


def _is_nonpos_int(x, tol):
    r = math.floor(x + 0.5)
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
    return SignedLogGamma(*_signed_loggamma(float(x), _tol(tol)))


def is_pole(x, tol=None):
    """True when x is within tolerance of a nonpositive integer."""
    return _is_nonpos_int(float(x), _tol(tol))


def sinpi(x):
    """sin(pi*x) with exact argument reduction (accurate near every
    integer)."""
    x = float(x)
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
    GammaOverflowError above ~171.6."""
    x = float(x)
    if x == math.floor(x):
        n = int(x)
        if n <= 0:
            raise GammaPoleError("gamma pole at %d" % n)
        if n <= 171:
            return float(math.factorial(n - 1))
        raise GammaOverflowError("gamma(%d) exceeds double range" % n)
    log_abs, sign, pole = _signed_loggamma(x, _tol(tol))
    if pole:
        raise GammaPoleError("gamma pole at %r" % x)
    if log_abs > _EXP_OVERFLOW:
        raise GammaOverflowError("gamma(%r) exceeds double range" % x)
    return sign * math.exp(log_abs)


def recip_gamma(x, tol=None):
    """1/Gamma(x), the entire extension: exactly 0.0 at every nonpositive
    integer. Never raises."""
    x = float(x)
    if x == math.floor(x):
        n = int(x)
        if n <= 0:
            return 0.0
        if n <= 171:
            return 1.0 / math.factorial(n - 1)
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
    # both arguments exact integers: factorial arithmetic, correctly rounded
    # by int/int true division
    pi, qi = int(p), int(q)
    if pi >= 1 and qi >= 1:
        num, den = math.factorial(pi - 1), math.factorial(qi - 1)
    elif pi >= 1:  # denominator pole only
        return 0.0
    elif qi >= 1:  # numerator pole only
        raise GammaPoleError("gamma ratio undefined: numerator pole at %d" % pi)
    else:  # both poles p=-m, q=-n: joint limit (-1)^(n-m) n!/m!
        m, n = -pi, -qi
        num, den = math.factorial(n), math.factorial(m)
        if (n - m) % 2:
            num = -num
    try:
        return num / den
    except OverflowError:
        raise _overflow(p, q) from None


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


def gamma_ratio(p, q, tol=None):
    """Gamma(p)/Gamma(q) computed in log space with sign tracking.

    Pole handling: denominator pole -> exact 0.0; both arguments on poles
    p=-m, q=-n -> the joint limit (-1)^(n-m)*n!/m!; numerator pole alone ->
    GammaPoleError. A ratio beyond double range raises GammaOverflowError.
    Exact integer arguments are resolved by exact factorial arithmetic, so
    e.g. gamma_ratio(n+1, n) == n without rounding.
    """
    p = float(p)
    q = float(q)
    if _exact_int(p) and _exact_int(q):
        value = _exact_ratio(p, q)
    else:
        value = _log_ratio(p, q, _tol(tol))
    if config.gamma_perturb != 0.0 and value != 0.0:
        value *= 1.0 + config.gamma_perturb
    return value
