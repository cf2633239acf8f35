import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import W
from fraclift import config
from fraclift.errors import (
    ExponentError,
    FracliftError,
    GammaOverflowError,
    GammaPoleError,
    InputError,
)
from fraclift.gamma import (
    gamma,
    gamma_ratio,
    is_pole,
    pole_top,
    poles,
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

    def test_underflow_is_positive_zero(self):
        # below about -178 |Gamma| underflows; the zero is +0.0 on both
        # signs of Gamma, as gamma_ratio's and recip_gamma's are
        for x in (-190.5, -200.5, -1000.25):
            assert math.copysign(1.0, gamma(x)) == 1.0 and gamma(x) == 0.0

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


def _normal(v):
    # a double past the normal range's edges by a factor of 2 either way
    return 2 * sys.float_info.min <= abs(v) <= sys.float_info.max / 2


def _off_integers(x):
    return abs(x - round(x)) >= 1e-8


# |x| up to 1e15 on a log scale, either sign
_far = st.builds(lambda sign, e: sign * 10.0 ** e,
                 st.sampled_from((-1.0, 1.0)), st.floats(0.0, 15.0))


class TestAgainstMpmath:
    """The kernel against mpmath at 40 digits, a reference that shares no
    code with the math module the kernel calls: Gamma and 1/Gamma where
    they are normal doubles, and ratios out to |x| = 1e15, where two
    log|Gamma| values of up to 3e16 would cancel."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.floats(-171.0, 171.5, exclude_min=True,
                               exclude_max=True), _far),
           st.floats(-3.0, 3.0))
    @example(5000.25, 0.5)
    @example(1000001.5, 0.5)
    @example(1e12 + 0.5, 0.5)
    @example(4e14 + 1.0, 1 / 3)
    @example(-1e6 + 0.3, 0.5)
    @example(-999.75, -2.5)
    def test_gamma_recip_and_ratio(self, x, k):
        assume(_off_integers(x))
        y = x - k
        with mpmath.workdps(40):
            g = mpmath.gamma(x)
            cases = [(gamma, (x,), g), (recip_gamma, (x,), 1 / g)]
            if _off_integers(y):
                cases.append((gamma_ratio, (x, y), g / mpmath.gamma(y)))
        for f, args, want in cases:
            want = float(want)
            if _normal(want):
                got = f(*args)
                assert abs(got - want) <= 1e-12 * abs(want), (f, got, x, k)


class TestRecipGamma:
    def test_examples(self):
        assert recip_gamma(-3.0) == 0.0
        assert recip_gamma(1.0) == 1.0
        assert recip_gamma(0.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-13)

    def test_exact_zero_at_all_small_poles(self):
        for n in range(0, 51):
            v = recip_gamma(float(-n))
            assert v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_raises_only_past_the_double_range(self):
        # |1/Gamma(x)| passes the largest double only below x = -171.6
        rng = random.Random(4)
        raised = 0
        for _ in range(2000):
            x = rng.uniform(-300.0, 300.0)
            try:
                assert math.isfinite(recip_gamma(x))
            except GammaOverflowError:
                assert x < -171.0
                raised += 1
        assert 0 < raised < 2000
        assert recip_gamma(-170.5) == pytest.approx(
            1 / math.gamma(-170.5), rel=1e-12)

    def test_non_finite_arguments(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ExponentError, match="not a finite double"):
                recip_gamma(x)

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
        # factorials, joint poles included, up to the 301 bound; 1/(n-1)!
        # is int true division, not 1.0 over the rounded (n-1)!
        for n in range(1, 172):
            assert gamma(float(n)) == float(math.factorial(n - 1))
            assert recip_gamma(float(n)) == 1 / math.factorial(n - 1)
            assert recip_gamma(float(n)) == gamma_ratio(1.0, float(n))
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

    def test_integer_ratios_past_301_are_exact(self):
        # a falling factorial of at most 301 steps, from any integer
        assert gamma_ratio(302.0, 301.0) == 301.0
        assert gamma_ratio(5001.0, 5000.0) == 5000.0
        assert gamma_ratio(1e6 + 1, 1e6 - 2) == float(
            10**6 * (10**6 - 1) * (10**6 - 2))
        assert gamma_ratio(2e15, 2e15 + 3) == 1 / math.perm(2 * 10**15 + 2, 3)
        assert gamma_ratio(-500.0, -502.0) == 502.0 * 501.0
        assert gamma_ratio(-500.0, -501.0) == -501.0
        assert gamma_ratio(1000.0, -5.0) == 0.0
        with pytest.raises(GammaPoleError):
            gamma_ratio(-5.0, 1000.0)
        with pytest.raises(GammaOverflowError):
            gamma_ratio(1e6 + 301, 1e6)

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

    def test_perturbation_hook(self, perturb):
        clean = gamma_ratio(2.0, 1.5)
        perturb("1e-6")
        assert gamma_ratio(2.0, 1.5) == pytest.approx(clean * (1 + 1e-6), rel=1e-15)
        assert gamma_ratio(3.0, 0.0) == 0.0  # zeros stay exact

    def test_perturbation_read_once_from_the_environment(self, monkeypatch):
        clean = gamma_ratio(2.0, 1.5)
        monkeypatch.setenv("FRACLIFT_GAMMA_PERTURB", "1e-6")
        config.perturbation.cache_clear()
        assert gamma_ratio(2.0, 1.5) == clean * (1 + 1e-6)
        monkeypatch.setenv("FRACLIFT_GAMMA_PERTURB", "0")  # not read again
        assert gamma_ratio(2.0, 1.5) == clean * (1 + 1e-6)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", ""])
    def test_bad_perturbation_is_input_error(self, perturb, value):
        perturb(value)
        with pytest.raises(InputError, match="FRACLIFT_GAMMA_PERTURB"):
            gamma_ratio(2.0, 1.5)


class TestSignedLogGamma:
    def test_reconstruction(self):
        # the sign rule (Gamma < 0 exactly on (-2j-1, -2j)) and exp of
        # log|Gamma|, against the standard library's Gamma
        rng = random.Random(8)
        for _ in range(2000):
            x = rng.uniform(-170.0, 170.0)
            if abs(x - round(x)) < 1e-6:
                continue
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)
            assert recip_gamma(x) == pytest.approx(1 / math.gamma(x), rel=1e-12)

    def test_pole_flag(self):
        with pytest.raises(GammaPoleError):
            gamma(-4.0)
        with pytest.raises(GammaPoleError):
            gamma(-4.0 + 5e-10)
        for x in (0.0, -4.0, -4.0 + 5e-10, -4.0 - 5e-10, -170.0):
            assert recip_gamma(x) == 0.0


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


def test_is_pole_tolerance_and_env_override():
    # the window is the constant config.INT_TOL = 1e-9, which no setting
    # overrides
    assert config.INT_TOL == 1e-9
    assert is_pole(-2.0 + 5e-10)
    assert not is_pole(-2.0 + 1e-8)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(-4, 4), sign=st.sampled_from((-1, 1)),
       a=st.integers(4, 64), lo=st.integers(-24, 4),
       gaps=st.lists(st.integers(1, 3), max_size=16))
def test_lattice_poles_count_the_scalar_poles(m, sign, a, lo, gaps):
    # phases a 2^-35 (2^-33 ... 2^-29) from the integer m, around the
    # window's edge 1e-9 = 34.4 2^-35. Each n + c is a double exactly, so
    # the one lattice test and the scalar test see one distance
    c = m + sign * Fraction(a, 2**35)
    keys = [lo + sum(gaps[:i]) for i in range(len(gaps) + 1)]
    assert poles(pole_top(c.numerator, c.denominator), keys) == sum(
        is_pole(float(n + c)) for n in keys)


def _nudged(x):
    # (label, argument): x itself and 2^-32 either side, inside the window
    x = float(x)
    label = "%g" % x
    return [(label, x), (label + "+W", x + W), (label + "-W", x - W)]


def _off(x):
    return [(repr(x), x)]


def _joint_limit(p, q):
    """The double of (-1)^(n-m) n!/m! at p = -m, q = -n, or
    GammaOverflowError where it has none."""
    m, n = -round(p), -round(q)
    try:
        v = Fraction(math.factorial(n), math.factorial(m)) * (-1) ** (n - m)
        return float(v)
    except OverflowError:
        return GammaOverflowError


def _rows(case, ps, qs):
    return [pytest.param(case, p, q, id="%s(%s,%s)" % (case, lp, lq))
            for lp, p in ps for lq, q in qs]


# gamma_ratio's four pole cases, each at exact integers and 2^-32 off the
# poles: no pole -> the value; denominator pole alone -> 0.0; numerator
# pole alone -> GammaPoleError; joint pole -> the double of the limit
# (-1)^(n-m) n!/m! (0.0 for 1/400!, past the falling factorial's 301
# steps), or GammaOverflowError where it has none
POLE_CASES = (
    _rows("off", _off(2.0) + _off(-2.5), _off(1.5) + _off(-3.0 + 1e-8))
    + _rows("off", _off(1.0) + _off(5.0), _off(4.0) + _off(-3.0 + 1e-8))
    + _rows("denominator", _off(1.0) + _off(7.5),
            _nudged(0.0) + _nudged(-3.0) + [("-3+5e-10", -3.0 + 5e-10)])
    + _rows("denominator", _off(1000.0), _nudged(-5.0) + _off(-2.0 ** 60))
    + _rows("numerator", _nudged(0.0) + _nudged(-5.0),
            _off(0.5) + _off(2.0) + _off(1000.0))
    + [row for m, n in ((0, 1), (1, 3), (2, 3), (40, 60), (150, 20),
                        (171, 0), (0, 171), (400, 0))
       for row in _rows("joint", _nudged(-m), _nudged(-n))]
)


@pytest.mark.parametrize("case, p, q", POLE_CASES)
def test_pole_cases(case, p, q):
    assert (is_pole(p), is_pole(q)) == {
        "off": (False, False), "denominator": (False, True),
        "numerator": (True, False), "joint": (True, True)}[case]
    if case == "off":
        with mpmath.workdps(40):
            want = float(mpmath.gamma(p) / mpmath.gamma(q))
        assert gamma_ratio(p, q) == pytest.approx(want, rel=1e-13)
    elif case == "denominator":
        got = gamma_ratio(p, q)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        if p == 1.0:
            assert recip_gamma(q) == got
    elif case == "numerator":
        with pytest.raises(GammaPoleError, match="numerator pole"):
            gamma_ratio(p, q)
    elif (want := _joint_limit(p, q)) is GammaOverflowError:
        with pytest.raises(GammaOverflowError):
            gamma_ratio(p, q)
    else:
        assert gamma_ratio(p, q) == want


def test_ratio_overflow_raises():
    # exact-integer path, joint pole limit, and log-space path
    for p, q in ((200.0, 1.0), (-1.0, -200.0), (200.5, 1.5)):
        with pytest.raises(GammaOverflowError):
            gamma_ratio(p, q)


class TestNonFinite:
    """The scalar functions take finite doubles only: +-inf and NaN raise
    ExponentError, and every finite double gives a finite double (a bool
    for is_pole) or a FracliftError."""

    def test_gamma(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ExponentError, match="not a finite double"):
                gamma(x)

    def test_is_pole(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ExponentError):
                is_pole(x)

    def test_gamma_ratio(self):
        inf, nan = math.inf, math.nan
        for p, q in ((inf, 2.0), (inf, -3.0), (2.5, inf), (-2.0, inf),
                     (inf, inf), (-inf, 2.0), (2.0, -inf), (nan, 2.0),
                     (2.0, nan), (nan, inf)):
            with pytest.raises(ExponentError):
                gamma_ratio(p, q)

    def test_sinpi(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ExponentError):
                sinpi(x)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(), st.floats())
    @example(-1e306, -2e306)
    @example(200.0, 1e308)
    @example(-1e308, 1e308)
    @example(-180.5, 0.5)
    @example(1.0, -4503599627370497.0)  # an odd pole past 2^52
    def test_finite_double_or_library_error(self, x, y):
        for f, args in ((gamma, (x,)), (recip_gamma, (x,)), (sinpi, (x,)),
                        (is_pole, (x,)), (gamma_ratio, (x, y))):
            try:
                v = f(*args)
            except FracliftError:
                continue
            if f is is_pole:
                assert v is True or v is False
            else:
                assert math.isfinite(v), (f, args, v)
