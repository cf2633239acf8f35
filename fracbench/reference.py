"""Checks of the program's outputs against computations made apart from it.

Only the standard library is used: `math.lgamma` for Γ ratios (the sign is
worked out separately), exact Fractions for pole tests, `math.fsum` for
sums, and `math` for evaluating expressions. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

# Same relative tolerances as the program's verify suites.
COEF_RTOL = 1e-10  # gamma-ratio suites, D8', semigroup-safe
ORACLE_RTOL = 1e-5  # oracle-vs-termwise
EXP_TOL = 1e-9  # exponent matching, as verify.series_residual


def _gamma_sign(x):
    """Sign of Γ(x) for x off the poles."""
    if x > 0:
        return 1.0
    return -1.0 if math.floor(x) % 2 else 1.0


def is_pole(q):
    """q is a nonpositive integer (exact)."""
    return q.denominator == 1 and q <= 0


def rl_terms(exps, coefs, k):
    """Order-k termwise derivative of sum c*x^e with exact exponents:
    [(exact exponent, coefficient)], annihilated terms left out. The
    numerator pole (e a negative integer) never occurs in the inputs."""
    out = []
    for e, c in zip(exps, coefs):
        top, bottom = e + 1, e + 1 - k
        if is_pole(bottom):
            continue
        log_ratio = math.lgamma(float(top)) - math.lgamma(float(bottom))
        sign = _gamma_sign(float(top)) * _gamma_sign(float(bottom))
        out.append((e - k, c * sign * math.exp(log_ratio)))
    return out


def compare_terms(got, want, label):
    """`got` is a list of (float exponent, coefficient) from the program,
    `want` a list of (exact exponent, coefficient). Term by term: same
    exponents within EXP_TOL, coefficients within COEF_RTOL."""
    if len(got) != len(want):
        return ["%s: %d terms, expected %d" % (label, len(got), len(want))]
    problems = []
    got = sorted(got)
    for (e1, _), (e2, _) in zip(got, got[1:]):
        if e2 - e1 <= EXP_TOL:
            problems.append("%s: two terms at exponents %r and %r"
                            % (label, e1, e2))
    for (ge, gc), (we, wc) in zip(got, sorted(want)):
        if abs(ge - float(we)) > EXP_TOL:
            problems.append("%s: exponent %r, expected %s" % (label, ge, we))
        elif abs(gc - wc) > COEF_RTOL * max(abs(gc), abs(wc)):
            problems.append("%s: coefficient %r at x^%s, expected %r"
                            % (label, gc, we, wc))
        if len(problems) >= 3:
            break
    return problems


def eval_sum(terms, x):
    """(value, sum of |terms|) of sum c*x^e."""
    parts = [c * math.pow(x, e) for e, c in terms]
    return math.fsum(parts), math.fsum(abs(p) for p in parts)


def compare_eval(got, terms, x, label):
    """series_eval output against an fsum of the same terms."""
    want, scale = eval_sum(terms, x)
    if abs(got - want) > 1e-12 * scale + 1e-300:
        return ["%s: series_eval(%r) = %r, expected %r" % (label, x, got, want)]
    return []


def check_series(req, out):
    """out: dict with "rl" and "lifted" term lists and "rl_value" and
    "lifted_value" evaluations at req.x."""
    problems = []
    if len(req.orders) == 1:
        (k,) = req.orders
        want_rl = rl_terms(req.exps, req.coefs, k)
        want_lifted = want_rl
    else:
        k1, k2 = req.orders
        step = rl_terms(req.exps, req.coefs, k1)
        want_rl = rl_terms([e for e, _ in step], [c for _, c in step], k2)
        # the lifted route loses nothing: one step of the summed order
        want_lifted = rl_terms(req.exps, req.coefs, k1 + k2)
    problems += compare_terms(out["rl"], want_rl, "rl_series")
    problems += compare_terms(out["lifted"], want_lifted, "lifted")
    problems += compare_eval(out["rl_value"], out["rl"], req.x, "rl value")
    problems += compare_eval(out["lifted_value"], out["lifted"], req.x,
                             "lifted value")
    return problems


# --------------------------------------------------------------------------
# expand


def eval_tree(node, x):
    kind = node[0]
    if kind == "num":
        return float(node[1])
    if kind == "xpow":
        return math.pow(x, float(node[1]))
    if kind == "add":
        return eval_tree(node[1], x) + eval_tree(node[2], x)
    if kind == "mul":
        return eval_tree(node[1], x) * eval_tree(node[2], x)
    if kind == "ipow":
        return eval_tree(node[1], x) ** node[2]
    if kind == "call":
        return getattr(math, node[1])(eval_tree(node[2], x))
    raise ValueError(kind)


def check_expand(req, out):
    """out: "series" (terms of the expansion), "value" (its series_eval at
    req.x), "rl" (terms of rl_series), "rl_value", and "oracle" when the
    request ran the oracle."""
    problems = []
    terms = out["series"]
    want = eval_tree(req.tree, req.x)
    got, scale = eval_sum(terms, req.x)
    # Truncation remainder: the functions are entire and x < 1/2, so the
    # terms past the jet order are below the last computed ones.
    top = sorted(terms)[-3:]
    remainder = math.fsum(abs(c * math.pow(req.x, e)) for e, c in top)
    problems += compare_terms(terms, [(req.xpow + round(e - float(req.xpow)), c)
                                      for e, c in terms], "expansion")
    problems += compare_eval(out["value"], terms, req.x, "expansion value")
    if abs(got - want) > 1e-11 * scale + remainder:
        problems.append("expansion at x=%r: %r, math gives %r"
                        % (req.x, got, want))
    if req.family == "exp_x":
        # x^p * exp(x): coefficient of x^(p+n) is exactly 1/n!
        for n, (e, c) in enumerate(sorted(terms)):
            if abs(e - float(req.xpow + n)) > EXP_TOL or \
                    c != float(Q(1, math.factorial(n))):
                problems.append("exp(x) jet term %d is %r*x^%r" % (n, c, e))
                break
        if len(terms) != req.order + 1:
            problems.append("exp(x) jet has %d terms, expected %d"
                            % (len(terms), req.order + 1))
    exact = [(req.xpow + round(e - float(req.xpow)), c) for e, c in terms]
    want_rl = rl_terms([e for e, _ in exact], [c for _, c in exact], req.k)
    problems += compare_terms(out["rl"], want_rl, "rl_series")
    problems += compare_eval(out["rl_value"], out["rl"], req.x, "rl value")
    if req.oracle:
        termwise = out["rl_value"]
        if abs(out["oracle"] - termwise) > ORACLE_RTOL * max(1.0, abs(termwise)):
            problems.append("oracle %r vs termwise %r at x=%r"
                            % (out["oracle"], termwise, req.x))
    return problems

