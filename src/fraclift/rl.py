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
from the integers, so gamma.lattice_poles decides each lattice's poles with
one test, and the annihilated terms are one run of keys, dropped
unevaluated. gamma.gamma_chain steps the other ratios along the lattice,
R(e+1) = R(e) * (e+1)/(e+1-k), and gives the joint-pole and numerator-pole
keys the scalar cases above. rl_term evaluates a single term, and
rl_kernel_predicate tests one exponent; they are the scalar reference.

This is the non-commutative side of the constructions in `lifted`: composing
two orders can annihilate a term that the summed order keeps.
"""

from __future__ import annotations

import math

from . import config
from .coeffseq import GenSeries, rational
from .errors import ExponentError
from .gamma import gamma_chain, gamma_ratio, is_pole, lattice_poles

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


def rl_kernel_predicate(alpha, k) -> bool:
    """True when the term (x-a)^alpha is annihilated by order k: alpha+1-k is
    a nonpositive integer and alpha+1 is not itself a pole (within
    config.int_tol). Raises ExponentError when |alpha+1-k| >= 2^52."""
    return is_pole(_kernel_arg(alpha, k)) and not is_pole(alpha + 1.0)


def rl_term(b, alpha, k):
    """Order-k differintegral of a single power term.

    Returns the resulting (exponent, coefficient) pair, or None when the
    term is kernel-annihilated.
    Raises GammaPoleError when alpha is a negative integer and k is not an
    integer (numerator pole; undefined coefficient), GammaOverflowError
    when the coefficient's Gamma ratio exceeds double range, and
    ExponentError when |alpha+1-k| >= 2^52."""
    ratio = gamma_ratio(alpha + 1.0, _kernel_arg(alpha, k))
    if ratio == 0.0:
        return None
    return alpha - k, b * ratio


def annihilated_run(f: GenSeries, k):
    """(keys, lo, hi, r): f's keys in ascending order, of which keys[lo:hi]
    are the terms order k annihilates (e+1-k a Gamma pole within
    config.int_tol, e+1 not), and k as the rational r it stands for. Raises
    ExponentError when |e+1-k| >= 2^52 at either end."""
    k = float(k)
    keys = sorted(f.coeffs)
    p, q = f.phase.numerator, f.phase.denominator
    if keys:  # |e + 1 - k| is largest at an end of the keys
        _kernel_arg((keys[0] * q + p) / q, k)
        _kernel_arg((keys[-1] * q + p) / q, k)
    r = rational(k)
    kp, kq = r.numerator, r.denominator
    # e + 1 = n + (p + q)/q, and e + 1 - k = n + (p kq + q kq - kp q)/(q kq)
    lo = lattice_poles(p + q, q, keys)
    hi = lattice_poles((p + q) * kq - kp * q, q * kq, keys)
    return keys, lo, max(lo, hi), r


def rl_series(f: GenSeries, k) -> GenSeries:
    """Termwise differintegral of order k; annihilated terms are removed.
    A truncated input of order N yields a truncated output of order N-k."""
    k = float(k)
    keys, lo, hi, r = annihilated_run(f, k)
    if lo < hi:
        keys = keys[:lo] + keys[hi:]
    ratios = gamma_chain(f.phase + 1, keys, "ratio", r)
    psi = f.phase - r  # exponent n + phase goes to n + psi
    m = math.floor(psi)
    coeffs = f.coeffs
    eps = config.COEF_EPS
    order = None if f.truncation_order is None else f.truncation_order - k
    return GenSeries.keyed(f.basepoint, psi - m, {
        n + m: v for n, g in zip(keys, ratios)
        if abs(v := coeffs[n] * g) >= eps}, order)
