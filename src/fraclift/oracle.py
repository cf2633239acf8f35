"""Independent numerical Riemann-Liouville differintegral.

Validates the termwise Gamma-ratio rule from the integral definition, through
a route that shares no fraclift code with the Gamma kernel: the quadrature is
double-exponential (tanh-sinh, Takahasi & Mori, Publ. RIMS 9, 1974) in the
standard library, and the 1/Gamma prefactor is math.gamma. The kernel's
log|Gamma| is math.lgamma, so the two share CPython's Gamma code, at other
arguments: the oracle's Gamma at the integral's order m, the kernel's at
e + 1 and e + 1 - k for each exponent e.

Negative orders evaluate the fractional integral directly:

    I^m f(x) = (1/Gamma(m)) * int_a^x f(t) (x-t)^(m-1) dt,   m = -k > 0

The substitution t = a + L(1 + tanh(pi/2 sinh u))/2, L = x - a, makes the
integrand decay double-exponentially in u at both ends, so the integrable
singularities of (t-a)^e and of (x-t)^(m-1) need no knowledge of their
exponents. Each node's distance to the nearer end is L q/(1+q) and to the
other end L/(1+q), q = exp(-pi sinh|u|): both are taken from q, never by
subtracting t from x or a, which loses them once t rounds to an end. The
term f(x) (x-t)^(m-1) is integrated in closed form, f(x) L^m / m, and the
nodes take the rest, (f(t) - f(x)) (x-t)^(m-1), which vanishes at the
kernel end: for m near 0 the kernel alone decays too slowly in u to be
truncated, and its weight overflows at the last nodes. The trapezoid rule
runs on |u| <= 6.5 with nested steps h = 1/2 ... 1/128 (the node table is
built on the first quadrature) and returns when two successive levels
agree to 1e-10 relative. The first level walks each end outward in u;
among the nodes within 1e-3 (x - a) of that end, the first whose term is
at most 2^-60 of the running level-1 value ends that end's walk, on every
level (the tail cut of Bailey, Jeyabalan & Li, Experimental Mathematics
14, 2005). A smooth integrand's walks end by u = 3.5, while a slowly
decaying end such as t^-0.95 at the base point never gets that small and
keeps all its nodes. An ArithmeticError or EvalDomainError from f, a level
sum that is not finite (the integral diverged) and levels that never
agree raise OracleError.

Nonnegative orders use the standard differintegral construction: integrate
down to a negative order, then take an n-th derivative (n = ceil(k)) by
Richardson-extrapolated central differences at steps h0, h0/2 and h0/4,
h0 = min(1e-3, (x-a)/(4n)) times max(1, x-a): the step grows with x - a, so
at large x it stays far above the spacing of the doubles near x. When the
h0 and h0/2 differences agree to 1e-6 max(1, |d1|), their extrapolation is
the result and h0/4 is never taken; at small x - a, where the step is a
fixed share of x - a, they do not agree and the third level runs. An even
n's stencil has x itself as its middle point at every step, and the
integral there is taken once. A step whose n-th power overflows, or
underflows, to zero or only below the smallest normal double (where the
difference, rounding noise of f near x, divided by it reads as a large
wrong value), or a result that is not finite, raises OracleError, as do
orders above 2: the n-th difference amplifies rounding by h^-n, and at
n = 3 the result misses the termwise rule by up to 6e-4.

compare() tabulates the termwise rule against the oracle as plain
(x, termwise, oracle, abs_diff) rows.
"""

from __future__ import annotations

import functools
import math
import sys

from . import config
from .coeffseq import GenSeries, eval_within_reach, finite_float, point
from .coeffseq import series_eval
from .errors import EvalDomainError, ExponentError, InputError
from .errors import OracleError
from .rl import rl_series

# The trapezoid steps 2^-1 ... 2^-_LEVELS on |u| <= _U_MAX, and the relative
# agreement of two successive levels that ends the refinement; the node
# distance to its end (as a share of x - a) inside which a term of at most
# _TAIL of the running level-1 value ends its side's walk; the largest
# central-difference step (for x - a <= 1), the agreement of the first two
# stencils that ends the ladder, and the highest order answered (see above)
_LEVELS = 7
_U_MAX = 6.5
_QUAD_TOL = 1e-10
_TAIL_NEAR = 1e-3
_TAIL = 2.0**-60
_FD_STEP = 1e-3
_LADDER_TOL = 1e-6
_MAX_ORDER = 2.0


@functools.cache
def _node_levels():
    """Per level, the nodes u = j h > 0 that level adds (u = 0 is taken
    apart), as (q/(1+q), 1/(1+q), weight) with weight = pi cosh(u) q/(1+q)^2
    = (dt/du)/L; built on the first quadrature, not at import."""
    levels = []
    for level in range(1, _LEVELS + 1):
        h = 0.5**level
        new = []
        for j in range(1, int(_U_MAX / h) + 1, 1 if level == 1 else 2):
            u = j * h
            q = math.exp(-math.pi * math.sinh(u))
            if q == 0.0:
                break
            new.append((q / (1.0 + q), 1.0 / (1.0 + q),
                        math.pi * math.cosh(u) * q / (1.0 + q) ** 2))
        levels.append(tuple(new))
    return tuple(levels)


def _frac_integral(f, a, m, x):
    """The order-m fractional integral at x, m > 0."""
    big = x - a
    beta = m - 1.0
    total = prev = 0.0
    # each side's walk in u ends past the node whose `near` is its cut; no
    # cut is 0.0, past every node
    cut_kernel = cut_base = 0.0
    try:
        # f(x) (x-t)^(m-1) integrates to f(x) L^m / m; the nodes take the
        # rest, (f(t) - f(x)) (x-t)^(m-1), which vanishes at the kernel end
        fx = f(x)
        exact = fx * big**m / m
        # u = 0: the midpoint, weight pi/4
        s = 0.25 * math.pi * (f(x - 0.5 * big) - fx) * (0.5 * big) ** beta
        for level, nodes in enumerate(_node_levels(), 1):
            for near, far, w in nodes:
                if near <= cut_kernel and near <= cut_base:
                    break
                d = big * near
                # by the kernel end, x - t = d; where t rounds to x the
                # integrand is 0
                t = x - d
                if near > cut_kernel and t < x:
                    term = w * (f(t) - fx) * d**beta
                    s += term
                    # level 1 (value exact + L s / 2) sets the cut, once
                    # the node lies near the end
                    if (level == 1 and near < _TAIL_NEAR and big * abs(term)
                            <= _TAIL * abs(2.0 * exact + big * s)):
                        cut_kernel = near
                # by the base point, unless t rounds onto a
                t = a + d
                if near > cut_base and t > a:
                    term = w * (f(t) - fx) * (big * far) ** beta
                    s += term
                    if (level == 1 and near < _TAIL_NEAR and big * abs(term)
                            <= _TAIL * abs(2.0 * exact + big * s)):
                        cut_base = near
            total = 0.5 * total + 0.5**level * s
            value = exact + big * total
            if not math.isfinite(value):
                raise OracleError("fractional integral diverged at x=%r" % x)
            if level > 1 and big * abs(total - prev) <= _QUAD_TOL * abs(value):
                return value / math.gamma(m)
            prev = total
            s = 0.0
    except (ArithmeticError, EvalDomainError) as exc:
        raise OracleError(
            "fractional integral diverged at x=%r (%s: %s)"
            % (x, type(exc).__name__, exc)) from None
    raise OracleError(
        "fractional integral did not converge at x=%r (last two levels %g, %g)"
        % (x, exact + big * prev, value))


def _stencil(g, x, n, h, centre):
    # n-th central difference, O(h^2); an even n's middle point is x itself,
    # whose value g(x) the caller passes as centre
    s = 0.0
    for i in range(n + 1):
        c = math.comb(n, i) * (1.0 if i % 2 == 0 else -1.0)
        s += c * (centre if 2 * i == n else g(x + (n / 2.0 - i) * h))
    return s / h**n


def rl_oracle(f, a, k, x) -> float:
    """Numerical differintegral of order k <= 2 at x of a pointwise-evaluable
    f, with base point a. Negative k: direct tanh-sinh quadrature; k >= 0:
    differentiate (Richardson central differences) after integrating down.
    A base point or point that is no number raises InputError, an infinite
    or NaN one EvalDomainError, and an order that is no finite number
    ExponentError."""
    a = point(a, "base point")
    x = point(x, "point")
    if not (math.isfinite(a) and math.isfinite(x)):
        raise EvalDomainError(
            "oracle needs a finite base point and point (x=%r, a=%r)" % (x, a))
    k = finite_float(k, ExponentError, "order")
    if x <= a:
        raise EvalDomainError("oracle needs x > a (x=%r, a=%r)" % (x, a))
    if k > _MAX_ORDER:
        raise OracleError("order %r above oracle limit %r" % (k, _MAX_ORDER))
    if k < -config.INT_TOL:
        return _frac_integral(f, a, -k, x)
    n = math.ceil(k - config.INT_TOL)
    if n == 0:
        return f(x)
    frac = k - n  # in [-1, 0)
    if abs(frac) <= config.INT_TOL:
        g = f
    else:
        def g(y):
            return _frac_integral(f, a, -frac, y)

    h0 = min(_FD_STEP, 0.25 * (x - a) / max(1, n)) * max(1.0, x - a)
    try:  # the stencils divide by h^n for h = h0, h0/2 and h0/4
        h0 ** n
    except OverflowError:
        raise OracleError("difference step %g at x=%r overflows in h^%d"
                          % (h0, x, n)) from None
    if (h0 / 4.0) ** n < sys.float_info.min:
        raise OracleError("difference step %g at x=%r underflows in h^%d"
                          % (h0 / 4.0, x, n))
    centre = g(x) if n % 2 == 0 else None
    d0 = _stencil(g, x, n, h0, centre)
    d1 = _stencil(g, x, n, h0 / 2.0, centre)
    r01 = (4.0 * d1 - d0) / 3.0
    if abs(d1 - d0) <= _LADDER_TOL * max(1.0, abs(d1)):
        value = r01
    else:
        d2 = _stencil(g, x, n, h0 / 4.0, centre)
        r12 = (4.0 * d2 - d1) / 3.0
        value = (16.0 * r12 - r01) / 15.0
    if not math.isfinite(value):
        raise OracleError("difference ladder at x=%r is not finite" % x)
    return value


def compare(f: GenSeries, k, xs) -> list:
    """Termwise rule vs. integral oracle on a list of evaluation points: one
    (x, termwise, oracle, |difference|) row per point.

    Every x must lie strictly above the base point, and a truncated series
    within its reach there (coeffseq.eval_within_reach). The oracle
    integrates the same coefficients on base point 0 up to x - a, so the
    integrand's distance to the base point is t itself, to full relative
    accuracy, whatever a is; its errors name the point x - a. xs that is
    not a sequence raises InputError."""
    try:
        xs = list(xs)
    except TypeError:
        raise InputError("the comparison points %.60r are not a sequence"
                         % (xs,)) from None
    g = rl_series(f, k)
    at_zero = GenSeries._of(0.0, f.phase, f.keys, f.vals)
    rows = []
    for x in xs:
        x = point(x, "comparison point")
        if x <= f.basepoint:
            raise EvalDomainError(
                "comparison point %r not above base point %r" % (x, f.basepoint))
        eval_within_reach(f, x)
        termwise = series_eval(g, x)
        oracle_val = rl_oracle(lambda t: series_eval(at_zero, t), 0.0, k,
                               x - f.basepoint)
        rows.append((x, termwise, oracle_val, abs(termwise - oracle_val)))
    return rows
