import math
import random

import pytest

from fraclift import config
from fraclift.errors import GammaOverflowError, GammaPoleError
from fraclift.gamma import (
    _signed_loggamma,
    gamma,
    gamma_ratio,
    is_pole,
    recip_gamma,
    sinpi,
)

SQRT_PI = math.sqrt(math.pi)  # Gamma(1/2)^2 = pi by reflection at x = 1/2


class TestGamma:
    def test_integer_values_exact(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0
        assert gamma(171.0) == float(math.factorial(170))

    def test_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-12)

    def test_poles_raise(self):
        for x in (0.0, -1.0, -7.0, -3.0 + 1e-10):
            with pytest.raises(GammaPoleError):
                gamma(x)

    def test_overflow(self):
        with pytest.raises(GammaOverflowError):
            gamma(172.0)
        with pytest.raises(GammaOverflowError):
            gamma(171.9)

    def test_messages_print_the_argument_as_a_double(self):
        for x, err in ((-1e308, GammaPoleError), (1e308, GammaOverflowError)):
            with pytest.raises(err) as exc:
                gamma(x)
            assert "1e+308" in str(exc.value) and len(str(exc.value)) < 120

    def test_against_stdlib(self):
        rng = random.Random(3)
        for _ in range(2000):
            x = rng.uniform(-150.0, 150.0)
            if abs(x - round(x)) < 1e-6 or x > 140:
                continue
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)


class TestRecipGamma:
    def test_examples(self):
        assert recip_gamma(-3.0) == 0.0
        assert recip_gamma(1.0) == 1.0
        assert recip_gamma(0.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-13)

    def test_exact_zero_at_all_small_poles(self):
        for n in range(0, 51):
            v = recip_gamma(float(-n))
            assert v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_never_raises(self):
        rng = random.Random(4)
        for _ in range(2000):
            recip_gamma(rng.uniform(-300.0, 300.0))

    def test_non_finite_arguments(self):
        assert recip_gamma(math.inf) == 0.0
        assert math.isnan(recip_gamma(-math.inf))
        assert math.isnan(recip_gamma(math.nan))

    def test_matches_reciprocal(self):
        rng = random.Random(5)
        for _ in range(1000):
            x = rng.uniform(-60.0, 60.0)
            if abs(x - round(x)) < 1e-6:
                continue
            assert recip_gamma(x) * math.gamma(x) == pytest.approx(1.0, rel=1e-12)


class TestGammaRatio:
    def test_plain(self):
        # Gamma(2) = 1, Gamma(3/2) = sqrt(pi)/2
        assert gamma_ratio(2.0, 1.5) == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_negative_denominator(self):
        # Gamma(3/2) = sqrt(pi)/2, Gamma(-1/2) = -2 sqrt(pi): ratio -1/4,
        # cross-checked by the power rule d^2/dx^2 x^{1/2} = -x^{-3/2}/4
        assert gamma_ratio(1.5, -0.5) == pytest.approx(-0.25, rel=1e-13)

    def test_denominator_pole_is_exact_zero(self):
        assert gamma_ratio(3.0, 0.0) == 0.0
        assert gamma_ratio(0.5, -2.0) == 0.0
        assert gamma_ratio(7.0, -1.0 + 1e-10) == 0.0  # tolerance snap

    def test_both_poles_joint_limit(self):
        # matches d/dx x^{-1} = -x^{-2} through the power rule
        assert gamma_ratio(0.0, -1.0) == -1.0
        assert gamma_ratio(-1.0, -3.0) == 6.0  # (-1)^(3-1) * 3!/1!
        assert gamma_ratio(-2.0, -3.0) == -3.0
        assert gamma_ratio(0.0, -2.0) == 2.0

    def test_numerator_pole_raises(self):
        with pytest.raises(GammaPoleError):
            gamma_ratio(-2.0, 1.0)
        with pytest.raises(GammaPoleError):
            gamma_ratio(0.0, 0.5)

    def test_exact_integer_ratios(self):
        # falling factorials come out exactly: classical derivatives of
        # polynomials carry no rounding
        assert gamma_ratio(5.0, 4.0) == 4.0
        assert gamma_ratio(6.0, 3.0) == 60.0
        assert gamma_ratio(3.0, 3.0) == 1.0

    def test_integer_paths_round_factorials_once(self):
        # every exact-integer value is the correctly rounded quotient of
        # factorials, joint poles included, up to the 301 bound
        for n in range(1, 172):
            assert gamma(float(n)) == float(math.factorial(n - 1))
            assert recip_gamma(float(n)) == 1.0 / math.factorial(n - 1)
        args = [-301, -200, -171, -40, -3, -1, 0, 1, 2, 5, 40, 171, 172, 250, 301]
        for p in args:
            for q in args:
                if p >= 1 and q >= 1:
                    num, den = math.factorial(p - 1), math.factorial(q - 1)
                elif p < 1 and q < 1:
                    num, den = math.factorial(-q), math.factorial(-p)
                    num = -num if (p - q) % 2 else num
                else:
                    continue
                try:
                    want = num / den
                except OverflowError:
                    with pytest.raises(GammaOverflowError):
                        gamma_ratio(float(p), float(q))
                    continue
                assert gamma_ratio(float(p), float(q)) == want

    def test_huge_arguments_stay_finite(self):
        v = gamma_ratio(300.5, 299.5)
        assert v == pytest.approx(299.5, rel=1e-11)

    def test_inverse_pairs(self):
        rng = random.Random(6)
        for _ in range(500):
            p = rng.uniform(-20.0, 20.0)
            q = rng.uniform(-20.0, 20.0)
            if abs(p - round(p)) < 1e-3 or abs(q - round(q)) < 1e-3:
                continue
            assert gamma_ratio(p, q) * gamma_ratio(q, p) == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_product(self):
        rng = random.Random(7)
        for _ in range(500):
            p = rng.uniform(0.1, 60.0)
            q = rng.uniform(-20.0, 20.0)
            if abs(q - round(q)) < 1e-3:
                continue
            assert gamma_ratio(p, q) == pytest.approx(
                gamma(p) * recip_gamma(q), rel=1e-10)

    def test_perturbation_hook(self):
        clean = gamma_ratio(2.0, 1.5)
        config.gamma_perturb = 1e-6
        assert gamma_ratio(2.0, 1.5) == pytest.approx(clean * (1 + 1e-6), rel=1e-15)
        assert gamma_ratio(3.0, 0.0) == 0.0  # zeros stay exact


class TestSignedLogGamma:
    def test_reconstruction(self):
        rng = random.Random(8)
        for _ in range(2000):
            x = rng.uniform(-170.0, 170.0)
            if abs(x - round(x)) < 1e-6:
                continue
            log_abs, sign, pole = _signed_loggamma(x, 1e-9)
            assert not pole
            assert sign in (1.0, -1.0)
            if log_abs < 700.0:
                assert sign * math.exp(log_abs) == gamma(x)
                assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_pole_flag(self):
        assert _signed_loggamma(-4.0, 1e-9) == (math.inf, 1.0, True)
        with pytest.raises(GammaPoleError):
            gamma(-4.0)


class TestReflection:
    def test_residual_bound(self):
        rng = random.Random(9)
        worst = 0.0
        n = 0
        while n < 1000:
            x = rng.uniform(-30.0, 30.0)
            if abs(x - round(x)) <= 1e-6:
                continue
            n += 1
            worst = max(worst, abs(gamma(x) * gamma(1.0 - x) * sinpi(x) / math.pi - 1.0))
        assert worst <= 1e-10

    def test_recurrence(self):
        rng = random.Random(10)
        for _ in range(1000):
            x = rng.uniform(0.1, 60.0)
            assert gamma(x + 1.0) / (x * gamma(x)) == pytest.approx(1.0, abs=1e-12)


def test_is_pole_tolerance_and_env_override():
    assert is_pole(-2.0 + 5e-10)
    assert not is_pole(-2.0 + 1e-8)
    config.int_tol = 1e-6
    assert is_pole(-2.0 + 1e-8)


def test_ratio_overflow_raises():
    # exact-integer path, joint pole limit, and log-space path
    for p, q in ((200.0, 1.0), (-1.0, -200.0), (200.5, 1.5)):
        with pytest.raises(GammaOverflowError):
            gamma_ratio(p, q)


class TestNonFinite:
    """Every entry point returns a value or raises a FracliftError at +-inf
    and NaN; none lets math.floor's OverflowError/ValueError through."""

    def test_gamma(self):
        with pytest.raises(GammaOverflowError):
            gamma(math.inf)
        assert math.isnan(gamma(-math.inf))
        assert math.isnan(gamma(math.nan))

    def test_is_pole(self):
        for x in (math.inf, -math.inf, math.nan):
            assert is_pole(x) is False

    def test_gamma_ratio(self):
        inf, nan = math.inf, math.nan
        with pytest.raises(GammaOverflowError):
            gamma_ratio(inf, 2.0)
        with pytest.raises(GammaOverflowError):
            gamma_ratio(inf, -3.0)
        assert gamma_ratio(2.5, inf) == 0.0
        with pytest.raises(GammaPoleError):
            gamma_ratio(-2.0, inf)
        for p, q in ((inf, inf), (-inf, 2.0), (2.0, -inf), (nan, 2.0),
                     (2.0, nan), (nan, inf)):
            assert math.isnan(gamma_ratio(p, q))

    def test_sinpi(self):
        for x in (math.inf, -math.inf, math.nan):
            assert math.isnan(sinpi(x))
