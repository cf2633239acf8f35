import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_series_close
from fraclift.coeffseq import GenSeries, int_derivative, monomial
from fraclift.errors import ExponentError, GammaPoleError
from fraclift.lifted import lift_gen, project, shift
from fraclift.parser import to_series
from fraclift.rl import rl_kernel_predicate, rl_series, rl_term
from fraclift.verify import _near_pole

SQRT_PI = math.sqrt(math.pi)


class TestRlTerm:
    def test_half_derivative_of_x(self):
        e, c = rl_term(1.0, 1.0, 0.5)
        assert e == 0.5
        assert c == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_kernel_annihilation(self):
        assert rl_term(1.0, -0.5, 0.5) is None  # alpha+1-k = 0

    def test_joint_pole_limit(self):
        # matches d/dx x^-1 = -x^-2
        assert rl_term(1.0, -1.0, 1.0) == (-2.0, -1.0)

    def test_order_zero_identity(self):
        assert rl_term(1.0, 2.0, 0.0) == (2.0, 1.0)

    def test_numerator_pole_raises(self):
        with pytest.raises(GammaPoleError):
            rl_term(1.0, -1.0, 0.5)


class TestRlSeries:
    def test_classical_derivative_exact(self):
        f = GenSeries(0.0, ((0.0, 7.0), (2.0, -2.0), (4.0, 3.0)))
        assert rl_series(f, 1.0).terms == ((1.0, -4.0), (3.0, 12.0))

    def test_order_zero_identity(self):
        f = GenSeries(0.0, ((0.5, 2.0), (2.5, -1.0)))
        assert rl_series(f, 0.0) == f

    def test_kernel_term_removed(self):
        assert rl_series(monomial(-0.5), 0.5).is_zero

    def test_half_derivative_twice_is_derivative(self):
        sin15 = to_series("sin(x)", 0, 15)
        cos_series = to_series("cos(x)", 0, 14)
        twice = rl_series(rl_series(sin15, 0.5), 0.5)
        resid = 0.0
        for e, c in cos_series.terms:
            got = twice.coefficient(e)
            resid = max(resid, abs(got - c) / max(abs(c), abs(got)))
        assert resid <= 1e-10

    def test_linearity(self):
        f = GenSeries(0.0, ((0.5, 2.0), (1.5, -1.0)))
        g = GenSeries(0.0, ((1.5, 3.0), (2.5, 0.5)))
        for k in (0.5, -0.75, 2.0):
            assert_series_close(rl_series(f + g, k),
                                rl_series(f, k) + rl_series(g, k))
            assert_series_close(rl_series(2.5 * f, k), 2.5 * rl_series(f, k))

    def test_matches_int_derivative_on_polynomials(self):
        rng = random.Random(1)
        for _ in range(50):
            exps = rng.sample(range(0, 10), rng.randint(1, 6))
            f = GenSeries(0.0, tuple((float(e), rng.uniform(-10, 10))
                                     for e in exps))
            # order 0 and 1 are bit-exact (single multiply by the exact
            # integer ratio); higher orders differ from the stepwise falling
            # factorial only in association order
            for n in (0, 1):
                assert rl_series(f, float(n)) == int_derivative(f, n)
            for n in (2, 3):
                assert_series_close(rl_series(f, float(n)),
                                    int_derivative(f, n), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=12,
                    unique=True),
           st.sampled_from((-1, 1, 2, 3)), st.integers(-8, 8))
    @example([0, 300, 301, 302, 4999, 5000, 123456, 10**6], 3, 0)
    def test_integer_orders_exact_out_to_a_million(self, exps, n, j):
        # unit coefficients scaled by 2^j: both sides round each product of
        # at most three factors below 2^53 once, the termwise rule through
        # its falling factorial, so they agree bit for bit at every key,
        # past the 301 bound of the small factorial arguments and past the
        # span of a Gamma table
        f = GenSeries(0.0, tuple((float(e), 2.0**j) for e in exps))
        assert rl_series(f, n) == int_derivative(f, n)

    def test_truncation_order_propagates(self):
        f = to_series("exp(x)", 0, 8)
        g = rl_series(f, 0.5)
        assert g.truncation_order == pytest.approx(7.5)
        assert rl_series(monomial(2.0), 0.5).truncation_order is None


class TestKernelPredicate:
    def test_examples(self):
        assert rl_kernel_predicate(-0.5, 0.5)
        assert not rl_kernel_predicate(1.0, 0.5)
        assert rl_kernel_predicate(0.5, 2.5)  # alpha+1-k = -1

    def test_numerator_pole_disables(self):
        # alpha = -1, k = 1: both on poles -> joint limit applies, not kernel
        assert not rl_kernel_predicate(-1.0, 1.0)

    def test_tolerance(self):
        assert rl_kernel_predicate(-0.5 + 1e-10, 0.5)
        assert not rl_kernel_predicate(-0.5 + 1e-7, 0.5)

    def test_kernel_argument_beyond_float_integers_raises(self):
        # every double of magnitude >= 2^52 is an integer, so alpha+1-k
        # there would always look like a pole (or never be one)
        for alpha, k in ((1.0, 1e300), (1.0, -1e300), (0.5, 2.0**52 + 2)):
            with pytest.raises(ExponentError):
                rl_kernel_predicate(alpha, k)
            with pytest.raises(ExponentError):
                rl_term(1.0, alpha, k)
        assert rl_kernel_predicate(0.0, 2.0**52)  # alpha+1-k = 1 - 2^52


class TestSemigroup:
    def test_safe_compositions(self):
        rng = random.Random(2)
        done = 0
        while done < 50:
            exps = rng.sample(range(0, 9), rng.randint(1, 5))
            f = GenSeries(0.0, tuple((float(e), rng.uniform(-10, 10))
                                     for e in exps))
            j = rng.uniform(0.05, 1.95)
            k = rng.uniform(0.05, 1.95)
            # skip orders within 1e-6 of the kernel of any term
            if any(_near_pole(e + 1.0 - o) and not _near_pole(e + 1.0)
                   for e in f.exponents() for o in (j, k, j + k)):
                continue
            assert_series_close(rl_series(rl_series(f, j), k),
                                rl_series(f, j + k), rel=1e-10)
            done += 1

    def test_failure_witness(self):
        f = monomial(-0.5)
        assert rl_series(rl_series(f, 0.5), 0.5).is_zero
        direct = rl_series(f, 1.0)
        assert not direct.is_zero
        (e, c), = direct.terms
        assert e == -1.5
        assert c == pytest.approx(-0.5, rel=1e-13)

    def test_intermediate_kernel_breaks_composition(self):
        # first order lands the term on the kernel; the summed order misses
        # it, so two-step = 0 != direct, while the lifted path agrees with
        # the direct answer
        f = monomial(-0.3)  # alpha+1-j = 0 at j = 0.7
        two_step = rl_series(rl_series(f, 0.7), 0.6)
        direct = rl_series(f, 1.3)
        assert two_step.is_zero and not direct.is_zero
        lifted = project(shift(shift(lift_gen(f), 0.7), 0.6))
        assert_series_close(lifted, direct)

    def test_terminal_pole_telescopes_to_zero_on_both_routes(self):
        # when the *summed* order hits the kernel but neither single order
        # does, the pole sits in the final denominator of both routes: the
        # two-step and the direct application both vanish, and so does the
        # lifted path
        f = monomial(0.5)  # alpha+1-j-k = 0 for j+k = 1.5
        j, k = 0.75, 0.75
        assert not rl_series(f, j).is_zero
        assert rl_series(rl_series(f, j), k).is_zero
        assert rl_series(f, j + k).is_zero
        assert project(shift(shift(lift_gen(f), j), k)).is_zero
