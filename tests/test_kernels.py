"""The scalar Gamma kernel (fraclift.gamma): accuracy against the standard
library, pole tolerance and exact sin(pi x) reduction."""

import importlib
import math
import random

import pytest

from fraclift import KERNEL_BACKEND

# the module, which the package's gamma() function shadows as an attribute
kernel_module = importlib.import_module("fraclift.gamma")

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


@pytest.fixture(params=[KERNEL_BACKEND])
def kernel():
    """The kernel module, under the name fraclift.KERNEL_BACKEND reports."""
    return kernel_module


def test_signed_loggamma_against_stdlib(kernel):
    rng = random.Random(7)
    for _ in range(3000):
        x = rng.uniform(-170.0, 170.0)
        if abs(x - round(x)) < 1e-6:
            continue
        s = kernel.signed_loggamma(x, 1e-9)
        assert not s.is_pole
        assert abs(s.log_abs - math.lgamma(x)) <= 1e-11 * max(1.0, abs(math.lgamma(x)))
        assert s.sign == math.copysign(1.0, math.gamma(x)) if abs(x) < 170 else True


def test_lanczos_sum_in_loop_order():
    rng = random.Random(12)
    for _ in range(5000):
        x = rng.uniform(0.5, 170.0)
        assert kernel_module.signed_loggamma(x, 1e-9).log_abs == loggamma_pos_loop(x)


def test_sinpi_exact_reduction(kernel):
    assert kernel.sinpi(0.5) == 1.0
    assert kernel.sinpi(-0.5) == -1.0
    assert kernel.sinpi(1.0) == 0.0
    assert kernel.sinpi(100.0) == 0.0
    # near-integer arguments keep full relative accuracy; odd integer part
    # flips the sign, and x - 25 is exact here (Sterbenz)
    x = 25.0 + 1e-8
    r = x - 25.0
    assert kernel.sinpi(x) == pytest.approx(-math.sin(math.pi * r), rel=1e-12)


def test_pole_detection_tolerance(kernel):
    assert kernel.is_pole(0.0, 1e-9)
    assert kernel.is_pole(-3.0 + 5e-10, 1e-9)
    assert not kernel.is_pole(-3.0 + 1e-8, 1e-9)
    assert not kernel.is_pole(2.0, 1e-9)
    assert kernel.recip_gamma(-3.0 + 5e-10, 1e-9) == 0.0
