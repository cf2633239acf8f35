"""The scalar Gamma kernel (fraclift.gamma): the sign rule and log|Gamma|
against the standard library, pole tolerance and exact sin(pi x)
reduction."""

import math
import random

import pytest

from fraclift.gamma import (
    _signed_loggamma,
    is_pole,
    recip_gamma,
    sinpi,
)


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
