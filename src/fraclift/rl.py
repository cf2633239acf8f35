"""Direct Riemann-Liouville differintegral on generalized power series.

Termwise power rule: order k sends b*(x-a)^e to

    gamma_ratio(e+1, e+1-k) * b * (x-a)^(e-k)

A term is annihilated exactly when e+1-k is a nonpositive integer while e+1
is not (the denominator-pole case); when both hit poles (negative-integer
exponents under integer orders) the joint limit reproduces the classical
derivative. A numerator pole alone (negative-integer exponent, non-integer
order) is outside the power rule and raises.

This is the non-commutative side of the constructions in `lifted`: composing
two orders can annihilate a term that the summed order keeps.
"""

from __future__ import annotations

from . import config
from .coeffseq import GenSeries, Term
from .errors import ExponentError
from .gamma import gamma_ratio, is_pole

# From 2^52 on every double is an integer, so a pole test there cannot tell.
_INTEGRAL_FLOATS = 2.0**52


def _kernel_arg(alpha, k):
    """alpha+1-k, the Gamma argument whose pole annihilates the term."""
    arg = alpha + 1.0 - k
    if abs(arg) >= _INTEGRAL_FLOATS:
        raise ExponentError(
            "alpha+1-k = %r for exponent %r and order %r: at or beyond 2^52 "
            "every double is an integer, so the pole test cannot tell"
            % (arg, alpha, k))
    return arg


def rl_kernel_predicate(alpha, k, tol=None) -> bool:
    """True when the term (x-a)^alpha is annihilated by order k: alpha+1-k is
    a nonpositive integer and alpha+1 is not itself a pole. Raises
    ExponentError when |alpha+1-k| >= 2^52."""
    t = config.int_tol if tol is None else tol
    return is_pole(_kernel_arg(alpha, k), t) and not is_pole(alpha + 1.0, t)


def rl_term(b, alpha, k, tol=None):
    """Order-k differintegral of a single power term.

    Returns the resulting Term, or None when the term is kernel-annihilated.
    Raises GammaPoleError when alpha is a negative integer and k is not an
    integer (numerator pole; undefined coefficient), GammaOverflowError
    when the coefficient's Gamma ratio exceeds double range, and
    ExponentError when |alpha+1-k| >= 2^52."""
    ratio = gamma_ratio(alpha + 1.0, _kernel_arg(alpha, k), tol)
    if ratio == 0.0:
        return None
    return Term(alpha - k, b * ratio)


def rl_series(f: GenSeries, k, tol=None) -> GenSeries:
    """Termwise differintegral of order k; annihilated terms are removed.
    A truncated input of order N yields a truncated output of order N-k."""
    k = float(k)
    terms = []
    for e, c in f.terms:
        t = rl_term(c, e, k, tol)
        if t is not None:
            terms.append(t)
    order = None if f.truncation_order is None else f.truncation_order - k
    return GenSeries(f.basepoint, tuple(terms), order)
