"""Identity verification suites.

Each lettered law from the construction is checked over randomized inputs
with explicit tolerances, and reported as a named pass/fail with the worst
residual observed. The CLI `verify` subcommand drives these; the acceptance
tests call them directly.

Residuals are relative: for series comparisons, max over the union of
exponents of |ca - cb| / max(|ca|, |cb|); exact-equality laws (shift
commutativity, kernel annihilation) report 0.0 or fail outright. The
sequences of the R, D and I laws are lifted sequences at offset 0.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from . import config
from .coeffseq import (
    GenSeries,
    int_antiderivative,
    int_derivative,
    monomial,
    series_eval,
)
from .gamma import gamma, gamma_chain, gamma_ratio, is_pole, recip_gamma, sinpi
from .lifted import LiftedSeq, embed, lift_gen, project, shift
from .oracle import rl_oracle
from .parser import to_series
from .rl import rl_series

K_SET = (0.5, 1.0, 1.5, -0.5, math.pi / 3.0)


SuiteResult = namedtuple("SuiteResult", "name passed max_residual cases note",
                         defaults=("",))


def series_residual(f: GenSeries, g: GenSeries, exp_tol=1e-9) -> float:
    """Worst relative coefficient difference over matched exponents; a term
    present on one side only counts as residual 1. The two lattices match
    when their phases agree within exp_tol (mod 1); their terms then match
    by key."""
    d = float(g.phase - f.phase)
    m = round(d)
    if abs(d - m) > exp_tol:
        return 1.0 if f.coeffs or g.coeffs else 0.0
    unmatched = {n + m: c for n, c in g.coeffs.items()}
    worst = 0.0
    for n, c in f.coeffs.items():
        cg = unmatched.pop(n, None)
        if cg is None:
            worst = max(worst, 1.0)
            continue
        den = max(abs(c), abs(cg))
        if den > 0.0:
            worst = max(worst, abs(c - cg) / den)
    if unmatched:
        worst = max(worst, 1.0)
    return worst


def seq_residual(a: LiftedSeq, b: LiftedSeq) -> float:
    """Worst relative difference of two sequences on the same lattice."""
    worst = 0.0
    for i in set(a.values) | set(b.values):
        va, vb = a.values.get(i, 0.0), b.values.get(i, 0.0)
        den = max(abs(va), abs(vb))
        if den > 0.0:
            worst = max(worst, abs(va - vb) / den)
    return worst


def _random_seq(rng, lo=-8, hi=16, nmax=12, basepoint=0.0) -> LiftedSeq:
    support = rng.sample(range(lo, hi + 1), rng.randint(1, nmax))
    return LiftedSeq(basepoint, 0,
                     {i: rng.uniform(-10.0, 10.0) for i in support})


def _random_jet(rng, order=config.DEFAULT_ORDER, basepoint=0.0) -> GenSeries:
    exps = rng.sample(range(0, order + 1), rng.randint(1, min(10, order + 1)))
    return GenSeries(basepoint,
                     tuple((float(e), rng.uniform(-10.0, 10.0)) for e in exps))


def _random_lifted(rng) -> LiftedSeq:
    sigma = _random_seq(rng)
    rho = embed(sigma)
    return shift(rho, rng.uniform(-2.0, 2.0))


# --------------------------------------------------------------------------
# gamma suite


def suite_gamma(trials=200, seed=0, reflection_points=1000):
    rng = random.Random(seed)
    results = []

    worst = 0.0
    n = 0
    while n < reflection_points:
        x = rng.uniform(-30.0, 30.0)
        if abs(x - round(x)) <= 1e-6:
            continue
        n += 1
        worst = max(worst, abs(gamma(x) * gamma(1.0 - x) * sinpi(x) / math.pi - 1.0))
    results.append(SuiteResult("gamma-reflection", worst <= 1e-10, worst, n))

    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(0.1, 60.0)
        worst = max(worst, abs(gamma(x + 1.0) / (x * gamma(x)) - 1.0))
    results.append(SuiteResult("gamma-recurrence", worst <= 1e-12, worst, trials))

    ok = all(recip_gamma(float(-i)) == 0.0 for i in range(0, 51))
    results.append(SuiteResult("recip-gamma-pole-zeros", ok, 0.0, 51))

    worst = 0.0
    for _ in range(trials):
        p = rng.uniform(-20.0, 20.0)
        q = rng.uniform(-20.0, 20.0)
        if abs(p - round(p)) <= 1e-3 or abs(q - round(q)) <= 1e-3:
            continue
        worst = max(worst, abs(gamma_ratio(p, q) * gamma_ratio(q, p) - 1.0))
    results.append(SuiteResult("gamma-ratio-inverse", worst <= 1e-10, worst, trials))

    worst = 0.0
    for _ in range(trials):
        p = rng.uniform(0.1, 60.0)
        q = rng.uniform(-20.0, 20.0)
        if abs(q - round(q)) <= 1e-3:
            continue
        r1 = gamma_ratio(p, q)
        r2 = gamma(p) * recip_gamma(q)
        worst = max(worst, abs(r1 - r2) / max(abs(r1), abs(r2), 1e-30))
    results.append(SuiteResult("gamma-ratio-vs-product", worst <= 1e-10, worst, trials))

    worst, cases = _chain_vs_pointwise(rng, max(1, trials // 10))
    results.append(SuiteResult("gamma-chain-vs-pointwise", worst <= 1e-12,
                               worst, cases))
    return results


def _chain_vs_pointwise(rng, lattices):
    """gamma_chain against the scalar kernel term by term, on random lattices
    {phase + n} with gaps of 1-4 steps and random orders. Phases and orders
    are multiples of 1/1024, so every argument is exactly on its lattice and
    both sides evaluate Gamma at the same points. Half the lattices are
    pole-prone (phase 0 or 1/2, every other one with an order congruent to
    the phase), where the chain must reproduce the scalar pole cases exactly.
    Returns (worst relative difference, terms compared)."""
    worst, cases = 0.0, 0
    for i in range(lattices):
        phase = (rng.choice((0.0, 0.5)) if i % 2
                 else rng.randrange(1024) / 1024.0)
        k = (phase + rng.randint(-2, 3) if i % 4 == 1
             else rng.randint(-3072, 3072) / 1024.0)
        n = rng.randint(-30, 0)
        keys = []
        for _ in range(rng.randint(1, 40)):
            keys.append(n)
            n += rng.randint(1, 4)
        # the numerator pole alone is an error, and Gamma itself has no value
        # at a pole: those terms are left out of "ratio" and "gamma"
        fin = [n for n in keys if not is_pole(phase + n)]
        defined = [n for n in keys
                   if not is_pole(phase + n) or is_pole(phase + n - k)]
        ph = Fraction(phase)
        pairs = ((gamma_chain(ph, defined, "ratio", Fraction(k)),
                  [gamma_ratio(phase + n, phase + n - k) for n in defined]),
                 (gamma_chain(ph, keys, "recip"),
                  [recip_gamma(phase + n) for n in keys]),
                 (gamma_chain(ph, fin, "gamma"), [gamma(phase + n) for n in fin]))
        for chain, point in pairs:
            for c, p in zip(chain, point):
                if (c == 0.0) != (p == 0.0):
                    return math.inf, cases
                worst = max(worst, abs(c - p) / max(abs(c), abs(p), 1e-300))
                cases += 1
    return worst, cases


# --------------------------------------------------------------------------
# projection suite (R1', R2, linearity, kernel)


def suite_projection(trials=200, seed=1, order=config.DEFAULT_ORDER):
    rng = random.Random(seed)
    results = []

    worst = 0.0
    for _ in range(trials):
        f = _random_jet(rng, order)
        worst = max(worst, series_residual(project(lift_gen(f)), f))
    results.append(SuiteResult("R1'", worst <= 1e-12, worst, trials))

    worst = 0.0
    ok = True
    for _ in range(trials):
        sigma = _random_seq(rng)
        back = lift_gen(project(sigma))
        for i in back.values:
            if i < 0:
                ok = False
        expected = LiftedSeq(sigma.basepoint, 0,
                             {i: v for i, v in sigma.values.items() if i >= 0})
        worst = max(worst, seq_residual(back, expected))
    results.append(SuiteResult("R2", ok and worst <= 1e-12, worst, trials))

    worst = 0.0
    for _ in range(trials):
        a = _random_seq(rng)
        b = _random_seq(rng)
        c = rng.uniform(-5.0, 5.0)
        worst = max(worst, series_residual(project(a + b),
                                           project(a) + project(b)))
        worst = max(worst, series_residual(project(c * a), c * project(a)))
    results.append(SuiteResult("R-linearity", worst <= 1e-12, worst, trials))

    ok = True
    for _ in range(trials):
        neg = LiftedSeq(0.0, 0, {-rng.randint(1, 8): rng.uniform(-10, 10)
                                 for _ in range(3)})
        if not project(neg).is_zero:
            ok = False
        mixed = _random_seq(rng)
        has_nonneg = any(i >= 0 for i in mixed.values)
        if project(mixed).is_zero == has_nonneg:
            ok = False
    results.append(SuiteResult("R-kernel", ok, 0.0, trials))
    return results


# --------------------------------------------------------------------------
# shift-operator suite (D1-D8)


def suite_shift(trials=200, seed=2):
    rng = random.Random(seed)
    results = []

    ok = True
    for _ in range(trials):
        rho = _random_lifted(rng)
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        if shift(shift(rho, a), b) != shift(shift(rho, b), a):
            ok = False
    results.append(SuiteResult("D1", ok, 0.0, trials, "bit-identical"))

    ok = True
    for _ in range(trials):
        rho = _random_lifted(rng)
        # dyadic orders so a+b is itself exact in floating point
        a = rng.randrange(-(1 << 20), 1 << 20) / 1024.0
        b = rng.randrange(-(1 << 20), 1 << 20) / 1024.0
        if shift(shift(rho, a), b) != shift(rho, a + b):
            ok = False
    results.append(SuiteResult("D2", ok, 0.0, trials))

    ok = True
    for _ in range(trials):
        rho = _random_lifted(rng)
        a = rng.uniform(-3.0, 3.0)
        if shift(shift(rho, a), -a) != rho or shift(rho, 0.0) != rho:
            ok = False
    results.append(SuiteResult("D3", ok, 0.0, trials))

    ok = True
    for _ in range(trials):
        sigma = _random_seq(rng)
        tau = _random_seq(rng)
        k = rng.uniform(-3.0, 3.0)
        rho, pi_ = embed(sigma), embed(tau)
        if shift(rho + pi_, k) != shift(rho, k) + shift(pi_, k):
            ok = False
    results.append(SuiteResult("D4", ok, 0.0, trials))

    ok = True
    for _ in range(trials):
        rho = _random_lifted(rng)
        c = rng.uniform(-5.0, 5.0)
        k = rng.uniform(-3.0, 3.0)
        if shift(c * rho, k) != c * shift(rho, k):
            ok = False
    results.append(SuiteResult("D5", ok, 0.0, trials))

    worst = 0.0
    for _ in range(trials // 4):
        f = _random_jet(rng, 10)
        sigma = lift_gen(f)
        for n in (0, 1, 2, 3):
            worst = max(worst, series_residual(project(shift(sigma, n)),
                                               int_derivative(f, n)))
        for n in (1, 2):
            worst = max(worst, series_residual(project(shift(sigma, -n)),
                                               int_antiderivative(f, n)))
    results.append(SuiteResult("D6", worst <= 1e-12, worst, trials // 4))

    # D7: lifting the n-th derivative of the projection shifts the sequence,
    # except that negative indices (including resurrected ones for n > 0) are
    # zeroed by the jet lift.
    worst = 0.0
    for _ in range(trials // 4):
        sigma = _random_seq(rng)
        for n in (0, 1, 2, 3):
            lhs = lift_gen(int_derivative(project(sigma), n))
            expected = LiftedSeq(sigma.basepoint, 0,
                                 {i - n: v for i, v in sigma.values.items()
                                  if i >= max(n, 0)})
            worst = max(worst, seq_residual(lhs, expected))
    results.append(SuiteResult("D7", worst <= 1e-12, worst, trials // 4))

    worst = 0.0
    for _ in range(trials // 4):
        sigma = _random_seq(rng)
        for n in (0, 1, 2, 3):
            lhs = int_derivative(project(shift(sigma, -n)), n)
            worst = max(worst, series_residual(lhs, project(sigma)))
    results.append(SuiteResult("D8", worst <= 1e-12, worst, trials // 4))
    return results


# --------------------------------------------------------------------------
# embedding suite (I1-I4)


def suite_embedding(trials=200, seed=3, order=config.DEFAULT_ORDER):
    rng = random.Random(seed)
    results = []

    ok = True
    for _ in range(trials):
        sigma = _random_seq(rng)
        if embed(sigma).on_integers() != sigma:
            ok = False
    results.append(SuiteResult("I1", ok, 0.0, trials))

    ok = True
    for _ in range(trials):
        sigma = _random_seq(rng)
        k = rng.randint(-6, 6)
        moved = LiftedSeq(sigma.basepoint, 0,
                          {i - k: v for i, v in sigma.values.items()})
        if shift(embed(sigma), float(k)).on_integers() != moved:
            ok = False
    results.append(SuiteResult("I2", ok, 0.0, trials))

    ok = True
    for _ in range(trials):
        f = _random_jet(rng, order)
        sigma = lift_gen(f)
        if embed(sigma).on_integers() != sigma:
            ok = False
    results.append(SuiteResult("I3", ok, 0.0, trials))

    worst = 0.0
    for _ in range(trials):
        f = _random_jet(rng, order)
        worst = max(worst, series_residual(project(embed(lift_gen(f))), f))
    results.append(SuiteResult("I4", worst <= 1e-12, worst, trials))
    return results


# --------------------------------------------------------------------------
# diagram suite (D6', D8', kernel repair)


def diagram_inputs(order=config.DEFAULT_ORDER):
    return (
        monomial(1.0),
        monomial(2.0),
        to_series("exp(x)", 0.0, order),
        to_series("sin(x)", 0.0, order + 1),
    )


def suite_diagram(order=config.DEFAULT_ORDER):
    results = []
    fs = diagram_inputs(order)

    worst = 0.0
    cases = 0
    for f in fs:
        for k in K_SET:
            lifted_path = project(shift(lift_gen(f), k))
            direct = rl_series(f, k)
            worst = max(worst, series_residual(lifted_path, direct))
            cases += 1
    results.append(SuiteResult("D6'", worst <= 1e-12, worst, cases,
                               "project(shift(lift_gen(f), k)) vs termwise"))

    worst = 0.0
    cases = 0
    for f in fs:
        for k in K_SET:
            back = rl_series(project(shift(lift_gen(f), -k)), k)
            worst = max(worst, series_residual(back, f))
            cases += 1
    results.append(SuiteResult("D8'", worst <= 1e-10, worst, cases))

    # kernel repair: half-differentiating x^(-1/2) twice dies termwise but
    # survives through the lifted space, matching the order-1 result.
    f = monomial(-0.5)
    once = rl_series(f, 0.5)
    twice = rl_series(once, 0.5)
    direct = rl_series(f, 1.0)
    repaired = project(shift(shift(lift_gen(f), 0.5), 0.5))
    expected = monomial(-1.5, -0.5)
    resid = max(series_residual(repaired, direct),
                series_residual(repaired, expected))
    ok = once.is_zero and twice.is_zero and not direct.is_zero and resid <= 1e-12
    results.append(SuiteResult("diagram-kernel-repair", ok, resid, 1))
    return results


# --------------------------------------------------------------------------
# semigroup suite


def suite_semigroup(trials=100, seed=5):
    rng = random.Random(seed)
    results = []

    worst = 0.0
    done = 0
    while done < trials:
        f = _random_jet(rng, 8)
        j = rng.uniform(0.05, 1.95)
        k = rng.uniform(0.05, 1.95)
        # skip orders within 1e-6 of the kernel of any term
        if any(is_pole(e + 1.0 - o, 1e-6) and not is_pole(e + 1.0, 1e-6)
               for e in f.exponents() for o in (j, k, j + k)):
            continue
        two_step = rl_series(rl_series(f, j), k)
        one_step = rl_series(f, j + k)
        worst = max(worst, series_residual(two_step, one_step))
        done += 1
    results.append(SuiteResult("semigroup-safe", worst <= 1e-10, worst, trials))

    # boundary: first order annihilates a term the summed order keeps, so the
    # two-step path collapses to zero while the lifted path still reaches the
    # direct j+k answer.
    worst = 0.0
    ok = True
    done = 0
    while done < trials:
        m = rng.randint(0, 3)
        j = rng.uniform(0.05, 1.95)
        k = rng.uniform(0.05, 1.95)
        if abs(j - round(j)) < 0.05 or abs(k - round(k)) < 0.05:
            continue
        d = math.fmod(j - k, 1.0)
        if min(abs(d), 1.0 - abs(d)) < 0.05:
            continue
        alpha = j - 1.0 - m  # alpha + 1 - j = -m: order-j kernel
        f = monomial(alpha)
        step1 = rl_series(f, j)
        two_step = rl_series(step1, k)
        direct = rl_series(f, j + k)
        lifted_path = project(shift(shift(lift_gen(f), j), k))
        if not (step1.is_zero and two_step.is_zero and not direct.is_zero):
            ok = False
        worst = max(worst, series_residual(lifted_path, direct))
        done += 1
    results.append(SuiteResult("semigroup-boundary", ok and worst <= 1e-12,
                               worst, trials,
                               "two-step 0, direct nonzero, lifted = direct"))
    return results


# --------------------------------------------------------------------------
# oracle suite


def suite_oracle():
    worst = 0.0
    cases = 0
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.5):
        f = monomial(alpha)
        for k in (-1.0, -0.5, 0.5, 1.0, 1.5):
            g = rl_series(f, k)
            for x in (0.5, 1.0, 2.0):
                termwise = series_eval(g, x)
                num = rl_oracle(lambda t: series_eval(f, t), 0.0, k, x)
                resid = abs(num - termwise) / max(1.0, abs(termwise))
                worst = max(worst, resid)
                cases += 1
    return [SuiteResult("oracle-vs-termwise", worst <= 1e-5, worst, cases)]


SUITES = {
    "gamma": suite_gamma,
    "R": suite_projection,
    "D": suite_shift,
    "I": suite_embedding,
    "diagram": suite_diagram,
    "semigroup": suite_semigroup,
    "oracle": suite_oracle,
}


def run_suites(names, trials=200, seed=0, order=config.DEFAULT_ORDER):
    """Run named suites (or all); returns the flat list of SuiteResults."""
    if names in ("all", None):
        names = list(SUITES)
    elif isinstance(names, str):
        names = [names]
    out = []
    for i, name in enumerate(names):
        if name not in SUITES:
            raise KeyError("unknown suite %r (choose from %s)"
                           % (name, ", ".join(SUITES)))
        fn = SUITES[name]
        kwargs = {"seed": seed + 17 * i}
        if name in ("R", "I"):
            kwargs.update(trials=trials, order=order)
        elif name == "diagram":
            kwargs = {"order": order}
        elif name == "semigroup":
            kwargs.update(trials=min(trials, 100))
        elif name == "oracle":
            kwargs = {}
        else:
            kwargs.update(trials=trials)
        out.extend(fn(**kwargs))
    return out
