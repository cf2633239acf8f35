"""Independent numerical Riemann-Liouville differintegral.

Validates the termwise Gamma-ratio rule from the integral definition, through
a route that shares no code with the Gamma kernel: quadrature is QUADPACK via
scipy (Gauss-Jacobi-type weighting absorbs the weak (x-t)^(m-1) endpoint
singularity exactly), and the 1/Gamma prefactor uses math.gamma from the
standard library. scipy is imported on the first quadrature, not with the
module.

Negative orders evaluate the fractional integral directly:

    I^m f(x) = (1/Gamma(m)) * int_a^x f(t) (x-t)^(m-1) dt,   m = -k > 0

Nonnegative orders use the standard differintegral construction: integrate
down to a negative order, then take an n-th derivative (n = ceil(k)) by
Richardson-extrapolated central differences (3 levels, from a step of
min(1e-3, (x-a)/(4n)) times max(1, x-a): the step grows with x - a, so at
large x it stays far above the spacing of the doubles near x). Orders above
2 are refused with OracleError: the n-th difference amplifies rounding by
h^-n, and at n = 3 the result misses the termwise rule by up to 6e-4. The quadrature tolerances (absolute 1e-9, relative 1e-8, 256
subintervals) are module constants; a quadrature whose error estimate stays
more than 100 times above them raises OracleError.

compare() tabulates the termwise rule against the oracle as plain
(x, termwise, oracle, abs_diff) rows.
"""

from __future__ import annotations

import math

from . import config
from .coeffseq import GenSeries, series_eval
from .errors import EvalDomainError, ExponentError, OracleError, TruncationError
from .rl import rl_series

# QUADPACK's absolute and relative tolerances and its subinterval limit; the
# largest central-difference step (for x - a <= 1), and the highest order
# answered (see above)
_ABS_TOL = 1e-9
_REL_TOL = 1e-8
_SUBDIVISIONS = 256
_FD_STEP = 1e-3
_MAX_ORDER = 2.0


def _frac_integral(f, a, m, x):
    """The order-m fractional integral at x, m > 0."""
    # scipy is imported here, on the first quadrature, so that importing
    # fraclift and every command but the oracle's stay free of its start-up
    from scipy import integrate

    beta = m - 1.0
    if abs(beta) <= 1e-12:
        val, err = integrate.quad(
            f, a, x, epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=_SUBDIVISIONS)
    else:
        val, err = integrate.quad(
            f, a, x, weight="alg", wvar=(0.0, beta),
            epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=_SUBDIVISIONS)
    if not math.isfinite(val):
        raise OracleError("fractional integral diverged at x=%r" % x)
    if err > max(100.0 * _ABS_TOL, 100.0 * _REL_TOL * abs(val), 1e-7):
        raise OracleError(
            "quadrature did not converge at x=%r (error estimate %g)" % (x, err))
    return val / math.gamma(m)


def _stencil(g, x, n, h):
    # n-th central difference, O(h^2)
    s = 0.0
    for i in range(n + 1):
        c = math.comb(n, i) * (1.0 if i % 2 == 0 else -1.0)
        s += c * g(x + (n / 2.0 - i) * h)
    return s / h**n


def rl_oracle(f, a, k, x) -> float:
    """Numerical differintegral of order k <= 2 at x of a pointwise-evaluable
    f, with base point a. Negative k: direct weighted quadrature; k >= 0:
    differentiate (Richardson central differences) after integrating down."""
    a = float(a)
    k = float(k)
    x = float(x)
    if not (math.isfinite(a) and math.isfinite(x)):
        raise EvalDomainError(
            "oracle needs a finite base point and point (x=%r, a=%r)" % (x, a))
    if not math.isfinite(k):
        raise ExponentError("order %r is not finite" % k)
    if x <= a:
        raise EvalDomainError("oracle needs x > a (x=%r, a=%r)" % (x, a))
    if k > _MAX_ORDER:
        raise OracleError("order %r above oracle limit %r" % (k, _MAX_ORDER))
    tol = config.int_tol
    if k < -tol:
        return _frac_integral(f, a, -k, x)
    n = math.ceil(k - tol)
    if n == 0:
        return f(x)
    frac = k - n  # in [-1, 0)
    if abs(frac) <= tol:
        g = f
    else:
        def g(y):
            return _frac_integral(f, a, -frac, y)

    h0 = min(_FD_STEP, 0.25 * (x - a) / max(1, n)) * max(1.0, x - a)
    d0 = _stencil(g, x, n, h0)
    d1 = _stencil(g, x, n, h0 / 2.0)
    d2 = _stencil(g, x, n, h0 / 4.0)
    r01 = (4.0 * d1 - d0) / 3.0
    r12 = (4.0 * d2 - d1) / 3.0
    return (16.0 * r12 - r01) / 15.0


def compare(f: GenSeries, k, xs) -> list:
    """Termwise rule vs. integral oracle on a list of evaluation points: one
    (x, termwise, oracle, |difference|) row per point.

    Every x must lie strictly above the base point; for truncated series a
    last-term heuristic guards against evaluating past the jet's reach."""
    g = rl_series(f, k)
    rows = []
    for x in xs:
        x = float(x)
        if x <= f.basepoint:
            raise EvalDomainError(
                "comparison point %r not above base point %r" % (x, f.basepoint))
        fx = series_eval(f, x)
        if f.truncation_order is not None and f.terms:
            e_last, c_last = f.terms[-1]
            tail = abs(c_last) * abs(x - f.basepoint) ** e_last
            if tail > _REL_TOL * max(1.0, abs(fx)):
                raise TruncationError(
                    "series truncation too coarse at x=%r (last term %g)"
                    % (x, tail))
        termwise = series_eval(g, x)
        oracle_val = rl_oracle(lambda t: series_eval(f, t), f.basepoint, k, x)
        rows.append((x, termwise, oracle_val, abs(termwise - oracle_val)))
    return rows
