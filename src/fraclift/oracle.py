"""Independent numerical Riemann-Liouville differintegral.

Validates the termwise Gamma-ratio rule from the integral definition, through
a route that shares no code with the Gamma kernel: quadrature is QUADPACK via
scipy (Gauss-Jacobi-type weighting absorbs the weak (x-t)^(m-1) endpoint
singularity exactly), and the 1/Gamma prefactor uses math.gamma from the
standard library.

Negative orders evaluate the fractional integral directly:

    I^m f(x) = (1/Gamma(m)) * int_a^x f(t) (x-t)^(m-1) dt,   m = -k > 0

Nonnegative orders use the standard differintegral construction: integrate
down to a negative order, then take an n-th derivative (n = ceil(k)) by
Richardson-extrapolated central differences (3 levels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from . import config
from .coeffseq import GenSeries, fmt17, series_eval
from .errors import EvalDomainError, OracleError, TruncationError
from .rl import rl_series


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    max_subdivisions: int = 256
    fd_step: float = 1e-3
    max_order: float = 3.0

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0 or self.fd_step <= 0.0:
            raise ValueError("tolerances and fd_step must be positive")
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be at least 16")


DEFAULT_CONFIG = QuadratureConfig()


def _frac_integral(f, a, m, x, cfg):
    """(value, abserr) of the order-m fractional integral, m > 0."""
    beta = m - 1.0
    if abs(beta) <= 1e-12:
        val, err = integrate.quad(
            f, a, x, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
            limit=cfg.max_subdivisions)
    else:
        val, err = integrate.quad(
            f, a, x, weight="alg", wvar=(0.0, beta),
            epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
            limit=cfg.max_subdivisions)
    if not math.isfinite(val):
        raise OracleError("fractional integral diverged at x=%r" % x)
    if err > max(100.0 * cfg.abs_tol, 100.0 * cfg.rel_tol * abs(val), 1e-7):
        raise OracleError(
            "quadrature did not converge at x=%r (error estimate %g)" % (x, err))
    g = math.gamma(m)
    return val / g, err / abs(g)


def _stencil(g, x, n, h):
    # n-th central difference, O(h^2)
    s = 0.0
    for i in range(n + 1):
        c = math.comb(n, i) * (1.0 if i % 2 == 0 else -1.0)
        s += c * g(x + (n / 2.0 - i) * h)
    return s / h**n


def rl_oracle_with_error(f, a, k, x, cfg=None):
    """Like rl_oracle but also returns the estimated absolute error."""
    cfg = cfg or DEFAULT_CONFIG
    a = float(a)
    k = float(k)
    x = float(x)
    if x <= a:
        raise EvalDomainError("oracle needs x > a (x=%r, a=%r)" % (x, a))
    if k > cfg.max_order:
        raise OracleError(
            "order %r above oracle limit %r" % (k, cfg.max_order))
    tol = config.int_tol
    if k < -tol:
        return _frac_integral(f, a, -k, x, cfg)
    n = math.ceil(k - tol)
    if n == 0:
        return f(x), 0.0
    frac = k - n  # in [-1, 0)
    samples = []  # (|g|, reported quad error) per stencil evaluation
    if abs(frac) <= tol:
        def g(y):
            v = f(y)
            samples.append((abs(v), 0.0))
            return v
    else:
        def g(y):
            v, e = _frac_integral(f, a, -frac, y, cfg)
            samples.append((abs(v), e))
            return v

    h0 = min(cfg.fd_step, 0.25 * (x - a) / max(1, n))
    d0 = _stencil(g, x, n, h0)
    d1 = _stencil(g, x, n, h0 / 2.0)
    d2 = _stencil(g, x, n, h0 / 4.0)
    r01 = (4.0 * d1 - d0) / 3.0
    r12 = (4.0 * d2 - d1) / 3.0
    value = (16.0 * r12 - r01) / 15.0
    # error estimate: Richardson truncation residue plus stencil noise
    # amplification (per-evaluation jitter of a few ulps, or the reported
    # quadrature error, divided by h^n at the finest level)
    h_fin = (h0 / 4.0) ** n
    gscale = max(v for v, _ in samples)
    qerr = max(e for _, e in samples)
    noise = (4.0**n * 2.5 * 2.3e-16 * gscale + 0.1 * 2.0**n * qerr) / h_fin
    est = 10.0 * abs(value - r12) + noise + 1e-13 * (1.0 + abs(value))
    return value, est


def rl_oracle(f, a, k, x, cfg=None) -> float:
    """Numerical differintegral of order k at x of a pointwise-evaluable f,
    with base point a. Negative k: direct weighted quadrature; k >= 0:
    differentiate (Richardson central differences) after integrating down."""
    return rl_oracle_with_error(f, a, k, x, cfg)[0]


@dataclass
class EvalTable:
    """(x, termwise, oracle, |difference|) rows from compare()."""

    rows: list[tuple[float, float, float, float]]

    def to_csv(self) -> str:
        out = ["x,termwise,oracle,abs_diff"]
        for x, tv, ov, d in self.rows:
            out.append(",".join(fmt17(v) for v in (x, tv, ov, d)))
        return "\n".join(out) + "\n"


def compare(f: GenSeries, k, xs, cfg=None) -> EvalTable:
    """Termwise rule vs. integral oracle on a list of evaluation points.

    Every x must lie strictly above the base point; for truncated series a
    last-term heuristic guards against evaluating past the jet's reach."""
    cfg = cfg or DEFAULT_CONFIG
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
            if tail > cfg.rel_tol * max(1.0, abs(fx)):
                raise TruncationError(
                    "series truncation too coarse at x=%r (last term %g)"
                    % (x, tail))
        termwise = series_eval(g, x)
        oracle_val = rl_oracle(lambda t: series_eval(f, t), f.basepoint, k, x, cfg)
        rows.append((x, termwise, oracle_val, abs(termwise - oracle_val)))
    return EvalTable(rows)
