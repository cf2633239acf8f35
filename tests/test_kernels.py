"""The scalar Gamma kernel (fraclift.gamma): accuracy against the standard
library, pole tolerance and exact sin(pi x) reduction."""

import math
import random

import pytest

from fraclift.gamma import (
    _loggamma_pos,
    _signed_loggamma,
    is_pole,
    recip_gamma,
    sinpi,
)

# Lanczos g=7 coefficients, summed in a loop: the reference for the order of
# the written-out sum in fraclift.gamma
LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def loggamma_pos_loop(x):
    z = x - 1.0
    acc = LANCZOS[0]
    for i in range(1, 9):
        acc += LANCZOS[i] / (z + i)
    t = z + 7.5
    return 0.9189385332046727417803297364 + (z + 0.5) * math.log(t) - t + math.log(acc)


def test_signed_loggamma_against_stdlib():
    rng = random.Random(7)
    for _ in range(3000):
        x = rng.uniform(-170.0, 170.0)
        if abs(x - round(x)) < 1e-6:
            continue
        log_abs, sign, pole = _signed_loggamma(x, 1e-9)
        assert not pole
        assert abs(log_abs - math.lgamma(x)) <= 1e-11 * max(1.0, abs(math.lgamma(x)))
        assert sign == math.copysign(1.0, math.gamma(x)) if abs(x) < 170 else True


def test_lanczos_sum_in_loop_order():
    rng = random.Random(12)
    for _ in range(5000):
        x = rng.uniform(0.5, 170.0)
        assert _loggamma_pos(x) == loggamma_pos_loop(x)


def test_sinpi_exact_reduction():
    assert sinpi(0.5) == 1.0
    assert sinpi(-0.5) == -1.0
    assert sinpi(1.0) == 0.0
    assert sinpi(100.0) == 0.0
    # near-integer arguments keep full relative accuracy; odd integer part
    # flips the sign, and x - 25 is exact here (Sterbenz)
    x = 25.0 + 1e-8
    r = x - 25.0
    assert sinpi(x) == pytest.approx(-math.sin(math.pi * r), rel=1e-12)


def test_pole_detection_tolerance():
    assert is_pole(0.0, 1e-9)
    assert is_pole(-3.0 + 5e-10, 1e-9)
    assert not is_pole(-3.0 + 1e-8, 1e-9)
    assert not is_pole(2.0, 1e-9)
    assert recip_gamma(-3.0 + 5e-10) == 0.0
