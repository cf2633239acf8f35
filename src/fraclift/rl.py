"""Direct Riemann-Liouville differintegral on generalized power series.

Termwise power rule: order k sends b*(x-a)^e to

    gamma_ratio(e+1, e+1-k) * b * (x-a)^(e-k)

A term is annihilated exactly when e+1-k is a nonpositive integer while e+1
is not (the denominator-pole case); when both hit poles (negative-integer
exponents under integer orders) the joint limit reproduces the classical
derivative. A numerator pole alone (negative-integer exponent, non-integer
order) is outside the power rule and raises.

rl_series works on keys, with k read as the rational it stands for
(coeffseq.rational): the result has the exact phase phase - k (mod 1). The
Gamma arguments e+1 and e+1-k of one series lie the same exact distance
from the integers, so gamma.pole_top decides each lattice's poles with one
test, gamma.poles counts them, and the annihilated terms are one run of
keys, sliced off the key and value columns unevaluated. gamma.lattice_scaled
multiplies the other coefficients by their ratios in one pass as it reads
them from the lattice's table, stepped once from one anchor by R(e+1) =
R(e) * (e+1)/(e+1-k), and gives the keys before that run (joint and
numerator poles) the scalar cases above; coeffseq.kept then drops the
products below COEF_EPS and refuses a non-finite one. The truncation order
N - k is exact, N less the rational k stands for, as on the lifted route.
rl_term evaluates a single term, refusing a non-finite coefficient as
rl_series does, and rl_kernel_predicate tests one exponent: the scalar
reference.

The exact work that depends only on the lattice and the order is a plan,
cached per (phase p/q, order k as a checked double): k's rational r, the
pole tops of e+1 and e+1-k, the ratio chain's lattice and the result's key
shift and phase. A call keeps the work on its keys: the 2^52 test at the two
end keys, the pole bisections, slicing and the scaled table read.
Each plan cache keeps config.PLAN_CACHE entries and holds only ints and
Fractions, so no result depends on the calls before it.

This is the non-commutative side of the constructions in `lifted`: composing
two orders can annihilate a term that the summed order keeps.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import config
from .coeffseq import GenSeries, finite_float, kept, rational
from .errors import ExponentError, GammaOverflowError, InputError
from .gamma import gamma_ratio, is_pole, lattice_scaled, pole_top, poles

# From 2^52 on every double is an integer, so a pole test there cannot tell.
_INTEGRAL_FLOATS = 2.0**52


def _kernel_arg(alpha, k):
    """alpha+1-k, the Gamma argument whose pole annihilates the term."""
    arg = alpha + 1.0 - k
    if not abs(arg) < _INTEGRAL_FLOATS:
        raise ExponentError(
            "alpha+1-k = %r for exponent %r and order %r: not a number, or "
            "at or beyond 2^52, where every double is an integer, so the pole "
            "test cannot tell"
            % (arg, alpha, k))
    return arg


def _exponent_and_order(alpha, k):
    return (finite_float(alpha, ExponentError, "exponent"),
            finite_float(k, ExponentError, "order"))


def rl_kernel_predicate(alpha, k) -> bool:
    """True when the term (x-a)^alpha is annihilated by order k: alpha+1-k is
    a nonpositive integer and alpha+1 is not itself a pole (within
    config.INT_TOL). Raises ExponentError when alpha or k is no finite
    number or |alpha+1-k| >= 2^52."""
    alpha, k = _exponent_and_order(alpha, k)
    return is_pole(_kernel_arg(alpha, k)) and not is_pole(alpha + 1.0)


def rl_term(b, alpha, k):
    """Order-k differintegral of a single power term.

    Returns the resulting (exponent, coefficient) pair, or None when the
    term is kernel-annihilated.
    Raises GammaPoleError when alpha is a negative integer and k is not an
    integer (numerator pole; undefined coefficient), GammaOverflowError
    when the coefficient or its Gamma ratio exceeds double range, as
    rl_series raises, ExponentError when alpha or k is no finite number or
    |alpha+1-k| >= 2^52, and InputError when b is no finite number."""
    b = finite_float(b, InputError, "coefficient")
    alpha, k = _exponent_and_order(alpha, k)
    ratio = gamma_ratio(alpha + 1.0, _kernel_arg(alpha, k))
    if ratio == 0.0:
        return None
    c = b * ratio
    if not math.isfinite(c):
        raise GammaOverflowError("a coefficient is %r, not a finite double"
                                 % c)
    return alpha - k, c


@functools.lru_cache(maxsize=config.PLAN_CACHE)
def _plan(p, q, k):
    # rl's plan for order k (a finite double) on the lattice of phase p/q:
    # k as the rational r = kp/kq it stands for, the pole tops of e + 1 and
    # e + 1 - k, the ratio chain's lattice P, Q, K and the result's key
    # shift m and phase s/d. e + 1 = n + (p + q)/q and e + 1 - k = n + (p kq
    # + q kq - kp q)/(q kq); n + p/q goes to n + m + s/d, s/d in [0, 1)
    r = rational(k)
    kp, kq = r.numerator, r.denominator
    d = q * kq
    m, s = divmod(p * kq - kp * q, d)
    return (r, pole_top(p + q, q), pole_top((p + q) * kq - kp * q, d),
            (p + q) * kq, d, kp * q, m, Fraction(s, d))


def _run(f, k):
    # (keys, lo, hi, plan): annihilated_run's columns with the plan of f's
    # lattice and the order k, which is checked before any plan is read
    k = finite_float(k, ExponentError, "order")
    keys = f.keys
    p, q = f.phase.numerator, f.phase.denominator
    if keys:  # |e + 1 - k| is largest at an end of the keys
        _kernel_arg((keys[0] * q + p) / q, k)
        _kernel_arg((keys[-1] * q + p) / q, k)
    plan = _plan(p, q, k)
    lo = poles(plan[1], keys)
    return keys, lo, max(lo, poles(plan[2], keys)), plan


def annihilated_run(f: GenSeries, k):
    """(keys, lo, hi, r): f's ascending keys, of which keys[:lo] put e+1 on
    a Gamma pole (within config.INT_TOL) and order k annihilates keys[lo:hi]
    (e+1-k a pole, e+1 not), and k as the rational r it stands for. Raises
    ExponentError when k is no finite number or |e+1-k| >= 2^52 at either
    end."""
    keys, lo, hi, plan = _run(f, k)
    return keys, lo, hi, plan[0]


def rl_series(f: GenSeries, k) -> GenSeries:
    """Termwise differintegral of order k; annihilated terms are removed.
    A truncated input of order N yields one of the exact order N - k."""
    keys, lo, hi, (r, _, _, P, Q, K, m, phase) = _run(f, k)
    vals = f.vals
    if lo < hi:
        keys, vals = keys[:lo] + keys[hi:], vals[:lo] + vals[hi:]
    vals = lattice_scaled(P, Q, K, keys, vals, "ratio")
    return GenSeries._of(f.basepoint, phase,
                         *kept(keys, vals, m, GammaOverflowError,
                               "a coefficient"), f._less(r))
