"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest

from fraclift.coeffseq import monomial
from fraclift.gamma import gamma, recip_gamma, sinpi
from fraclift.lifted import lift_gen, project, shift
from fraclift.oracle import compare
from fraclift.parser import to_series
from fraclift.rl import rl_series
from fraclift.verify import (
    K_SET,
    diagram_inputs,
    series_residual,
    suite_embedding,
    suite_projection,
    suite_shift,
)

SQRT_PI = math.sqrt(math.pi)


def report(num, ok, text):
    print("ACCEPTANCE %d: %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_1_gamma_kernel_accuracy():
    ok_half = abs(gamma(0.5) - SQRT_PI) <= 1e-12 * SQRT_PI

    rng = random.Random(0)
    worst = 0.0
    n = 0
    while n < 1000:
        x = rng.uniform(-30.0, 30.0)
        if abs(x - round(x)) <= 1e-6:
            continue
        n += 1
        worst = max(worst, abs(gamma(x) * gamma(1.0 - x) * sinpi(x) / math.pi - 1.0))
    ok_reflect = worst <= 1e-10

    ok_zeros = all(recip_gamma(float(-k)) == 0.0 for k in range(0, 51))

    report(1, ok_half and ok_reflect and ok_zeros,
           "gamma(0.5)=sqrt(pi) to 1e-12; reflection residual %.2e <= 1e-10 "
           "over 1000 points; recip_gamma exact zero at 0..-50" % worst)


def test_criterion_2_classic_half_derivative():
    rows = compare(monomial(1.0), 0.5, [0.25, 1.0, 2.25])
    worst_closed = 0.0
    worst_diff = 0.0
    for x, termwise, oracle_v, diff in rows:
        closed = 2.0 * math.sqrt(x / math.pi)
        worst_closed = max(worst_closed, abs(termwise - closed),
                           abs(oracle_v - closed))
        worst_diff = max(worst_diff, diff)
    report(2, worst_closed <= 1e-5 and worst_diff <= 1e-5,
           "half-derivative of x at {0.25, 1, 2.25}: both paths within "
           "%.2e of 2*sqrt(x/pi), oracle-termwise diff %.2e <= 1e-5"
           % (worst_closed, worst_diff))


def test_criterion_3_identity_suites():
    results = (suite_projection(trials=200, seed=1)
               + suite_shift(trials=200, seed=2)
               + suite_embedding(trials=200, seed=3))
    failures = [r.name for r in results if not r.passed]
    exact = {r.name: r for r in results}
    worst_r = max(exact[n].max_residual for n in ("R1'", "R2"))
    report(3, not failures and worst_r <= 1e-12,
           "200 randomized instances: R1'/R2 residual %.2e <= 1e-12; "
           "D1-D5 exact (shift commutativity bit-identical); I1-I4 pass"
           % worst_r)


def test_criterion_4_diagram_commutation():
    worst = 0.0
    cases = 0
    for f in diagram_inputs(16):
        for k in K_SET:
            lifted_path = project(shift(lift_gen(f), k))
            worst = max(worst, series_residual(lifted_path, rl_series(f, k)))
            cases += 1
    report(4, worst <= 1e-12,
           "project(shift(lift_gen(f), k)) = termwise series for "
           "f in {x, x^2, exp16, sin17}, k in {0.5, 1, 1.5, -0.5, pi/3}: "
           "residual %.2e <= 1e-12 over %d cases" % (worst, cases))


def test_criterion_5_half_derivative_semigroup_on_sin():
    sin17 = to_series("sin(x)", 0, 17)
    cos_ref = to_series("cos(x)", 0, 16)

    def through_14(series):
        worst = 0.0
        for e, c in cos_ref.terms:
            if e > 14.0:
                continue
            got = series.coefficient(e)
            worst = max(worst, abs(got - c) / max(abs(c), abs(got)))
        return worst

    rl_path = rl_series(rl_series(sin17, 0.5), 0.5)
    lifted_path = project(shift(shift(lift_gen(sin17), 0.5), 0.5))
    w1, w2 = through_14(rl_path), through_14(lifted_path)
    report(5, w1 <= 1e-10 and w2 <= 1e-10,
           "half-derivative twice of sin jet(17) reproduces cos jet through "
           "order 14: rl residual %.2e, lifted residual %.2e <= 1e-10" % (w1, w2))


def test_criterion_6_kernel_and_repair():
    f = monomial(-0.5)
    once = rl_series(f, 0.5)
    twice = rl_series(once, 0.5)
    direct = rl_series(f, 1.0)
    repaired = project(shift(shift(lift_gen(f), 0.5), 0.5))
    resid_direct = series_residual(repaired, direct)
    resid_closed = series_residual(repaired, monomial(-1.5, -0.5))
    ok = (once.is_zero and twice.is_zero
          and resid_direct <= 1e-12 and resid_closed <= 1e-12)
    report(6, ok,
           "rl(x^-1/2, 1/2) = 0 exactly, twice = 0; lifted shift-twice path "
           "= -0.5*x^-3/2 = rl(x^-1/2, 1) within %.2e <= 1e-12"
           % max(resid_direct, resid_closed))


def test_criterion_7_semigroup_caveat_boundary():
    # As specified, the generated family (final-pole, clean intermediates)
    # telescopes to zero on both routes. The composition failure the caveat
    # points to is the intermediate-kernel family (alpha+1-j nonpositive
    # integer, final order clean): there the two-step termwise path is 0,
    # the direct j+k application is not, and the lifted path reproduces the
    # direct answer. See the decisions ledger.
    rng = random.Random(7)
    good = 0
    total = 100
    worst = 0.0
    while good < total:
        m = rng.randint(0, 3)
        j = rng.uniform(0.05, 1.95)
        k = rng.uniform(0.05, 1.95)
        if abs(j - round(j)) < 0.05 or abs(k - round(k)) < 0.05:
            continue
        d = math.fmod(j - k, 1.0)
        if min(abs(d), 1.0 - abs(d)) < 0.05:
            continue
        alpha = j - 1.0 - m
        f = monomial(alpha)
        two_step = rl_series(rl_series(f, j), k)
        direct = rl_series(f, j + k)
        lifted_path = project(shift(shift(lift_gen(f), j), k))
        if not (two_step.is_zero and not direct.is_zero):
            break
        resid = series_residual(lifted_path, direct, exp_tol=1e-8)
        worst = max(worst, resid)
        if resid > 1e-12:
            break
        good += 1
    report(7, good == total,
           "%d/100 boundary cases: two-step termwise path annihilates, "
           "direct j+k term survives, lifted path matches direct within "
           "%.2e <= 1e-12" % (good, worst))


def test_criterion_8_cli_determinism_and_sensitivity():
    base = [sys.executable, "-m", "fraclift"]
    clean = subprocess.run(base + ["verify", "--suite", "all"],
                           capture_output=True, text=True)
    ok_clean = clean.returncode == 0

    env = dict(os.environ, FRACLIFT_GAMMA_PERTURB="1e-6")
    perturbed = subprocess.run(base + ["verify", "--suite", "all"],
                               capture_output=True, text=True, env=env)
    ok_perturbed = perturbed.returncode == 1

    cmd = base + ["deriv", "--expr", "exp(x)", "--k", "0.5",
                  "--order", "12", "--format", "json", "--at", "0.5"]
    out1 = subprocess.run(cmd, capture_output=True, text=True).stdout
    out2 = subprocess.run(cmd, capture_output=True, text=True).stdout
    ok_det = out1 == out2 and json.loads(out1)["k"] == 0.5

    report(8, ok_clean and ok_perturbed and ok_det,
           "verify --suite all exits 0; with 1e-6 gamma perturbation exits 1; "
           "json output byte-identical across runs")
