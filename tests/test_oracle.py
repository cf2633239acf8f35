import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclift.cli import main
from fraclift.coeffseq import GenSeries, monomial, series_eval
from fraclift.errors import (
    EvalDomainError,
    ExponentError,
    OracleError,
    TruncationError,
)
from fraclift.oracle import compare, rl_oracle
from fraclift.parser import to_series
from fraclift.rl import rl_series

SQRT_PI = math.sqrt(math.pi)


class TestRlOracle:
    def test_half_derivative_of_identity(self):
        v = rl_oracle(lambda t: t, 0.0, 0.5, 1.0)
        assert v == pytest.approx(2.0 / SQRT_PI, abs=1e-6)

    def test_antiderivative_of_one(self):
        for x in (0.7, 2.0):
            assert rl_oracle(lambda t: 1.0, 0.0, -1.0, x) == pytest.approx(x, abs=1e-6)

    def test_first_derivative(self):
        v = rl_oracle(lambda t: t * t, 0.0, 1.0, 0.7)
        assert v == pytest.approx(1.4, abs=1e-6)

    def test_order_zero(self):
        assert rl_oracle(math.exp, 0.0, 0.0, 0.3) == math.exp(0.3)

    def test_domain_checks(self):
        with pytest.raises(EvalDomainError):
            rl_oracle(lambda t: t, 0.0, 0.5, 0.0)
        with pytest.raises(OracleError):
            rl_oracle(lambda t: t, 0.0, 3.5, 1.0)

    def test_underflowing_step_is_oracle_error(self):
        # h^n of the smallest difference step is 0 at x = 1e-300: the n-th
        # difference would divide by it
        with pytest.raises(OracleError, match="underflows"):
            rl_oracle(lambda t: t**0.5, 0.0, 1.5, 1e-300)
        with pytest.raises(OracleError, match="underflows"):
            rl_oracle(lambda t: 0.0, 0.0, 2.0, 1e-300)
        with pytest.raises(OracleError, match="underflows"):
            compare(to_series("x^0.5"), 1.5, [1e-300])

    def test_subnormal_step_is_oracle_error(self):
        # at x = 1e-160 the step's h^2 = 9.8e-324 is subnormal, not 0: the
        # second difference, rounding noise of f near x, divided by it read
        # 5.576e79 for D^(3/2) x (termwise 5.642e79) and -2.45e147 for
        # D^(3/2) x^(1/2) (termwise 0)
        for f in (lambda t: t, lambda t: t**0.5):
            with pytest.raises(OracleError, match="underflows in h\\^2"):
                rl_oracle(f, 0.0, 1.5, 1e-160)
        # at x = 1e-150, h^2 = 9.8e-304 is normal and the ladder answers
        x = 1e-150
        want = 1.0 / math.sqrt(math.pi * x)  # D^(3/2) x = x^(-1/2) / Gamma(1/2)
        assert rl_oracle(lambda t: t, 0.0, 1.5, x) == pytest.approx(want, rel=1e-9)

    def test_second_difference_integrates_its_centre_once(self):
        # the middle point of every step's stencil is x itself
        at_x = []

        def f(t):
            if t == 1.0:
                at_x.append(t)
            return t**0.5

        rl_oracle(f, 0.0, 1.5, 1.0)
        assert len(at_x) == 1

    def test_non_finite_ladder_is_oracle_error(self):
        # a function that overflows near x: every difference is inf - inf
        with pytest.raises(OracleError, match="not finite"):
            rl_oracle(lambda t: 1e308 / (t - 0.5) ** 2, 0.0, 1.0, 0.5 + 1e-3)

    def test_non_finite_inputs_refused_before_quadrature(self):
        calls = []

        def f(t):
            calls.append(t)
            return t

        nan, inf = math.nan, math.inf
        for a, k, x in ((0.0, 0.5, nan), (nan, 0.5, 1.0), (0.0, 0.5, inf),
                        (-inf, -0.5, 1.0)):
            with pytest.raises(EvalDomainError):
                rl_oracle(f, a, k, x)
        for k in (nan, inf, -inf):
            with pytest.raises(ExponentError):
                rl_oracle(f, 0.0, k, 1.0)
        assert not calls

    def test_kernel_case_is_numerically_zero(self):
        v = rl_oracle(lambda t: t**-0.5, 0.0, 0.5, 1.0)
        assert abs(v) <= 1e-8

    def test_nonsmooth_monomial_orders(self):
        # spot checks of the power rule at non-integer orders
        for alpha, k, x in ((0.5, 1.25, 2.0), (2.0, 0.5, 0.5), (3.5, -0.5, 1.0)):
            exact = (math.gamma(alpha + 1.0) / math.gamma(alpha + 1.0 - k)
                     * x ** (alpha - k))
            v = rl_oracle(lambda t: t**alpha, 0.0, k, x)
            assert v == pytest.approx(exact, rel=1e-5, abs=1e-6)

    def test_grid_agreement_with_termwise_rule(self):
        worst = 0.0
        for alpha in (0.0, 0.5, 1.0, 2.0, 3.5):
            f = monomial(alpha)
            for k in (-1.0, -0.5, 0.5, 1.0, 1.5):
                g = rl_series(f, k)
                for x in (0.5, 1.0, 2.0):
                    termwise = series_eval(g, x)
                    num = rl_oracle(lambda t: series_eval(f, t), 0.0, k, x)
                    worst = max(worst, abs(num - termwise) / max(1.0, abs(termwise)))
        assert worst <= 1e-5

    @pytest.mark.parametrize("alpha,k,x", [(0.5, 0.5, 1e12), (0.5, 0.5, 1e14),
                                           (0.5, 0.5, 1e16), (2.0, 1.5, 1e8)])
    def test_large_x_agrees_with_termwise_rule(self, alpha, k, x):
        # the difference step grows with x - a; a step capped at 1e-3 sank
        # below the spacing of the doubles near x (0.977 and then 0 for the
        # half-derivative of x^0.5, whose value is 0.886 everywhere)
        f = monomial(alpha)
        termwise = series_eval(rl_series(f, k), x)
        num = rl_oracle(lambda t: series_eval(f, t), 0.0, k, x)
        assert num == pytest.approx(termwise, rel=1e-8)

    def test_order_two_is_the_limit(self):
        # the second difference keeps the suite's 1e-5 on its monomials and
        # x*exp(x) over 0.25 <= x <= 2; the third loses it (6e-4 at k = 2.1,
        # 1e-4 at k = 3), so orders above 2 are refused
        fs = [monomial(alpha) for alpha in (0.0, 0.5, 1.0, 2.0, 3.5)]
        fs.append(to_series("x*exp(x)", 0, 32))
        worst = 0.0
        for f in fs:
            termwise = rl_series(f, 2.0)
            for x in (0.25, 0.5, 1.0, 1.5, 2.0):
                want = series_eval(termwise, x)
                num = rl_oracle(lambda t: series_eval(f, t), 0.0, 2.0, x)
                worst = max(worst, abs(num - want) / max(1.0, abs(want)))
        assert worst <= 1e-5
        for k in (2.1, 3.0):
            with pytest.raises(OracleError):
                rl_oracle(lambda t: t, 0.0, k, 1.0)


class TestQuadrature:
    @pytest.mark.parametrize("x", [0.4, 1.0, 1e8])
    def test_kernel_end_singularity(self, x):
        # int_0^x (x-t)^(-1/2) dt = 2 sqrt(x), all of it from the closed-form
        # term f(x) L^m / m; on the nodes alone, dropping those whose t
        # rounds to x would lose int_0^ulp(x) s^(-1/2) ds, about 1e-8
        v = rl_oracle(lambda t: 1.0, 0.0, -0.5, x) * SQRT_PI
        assert v == pytest.approx(2.0 * math.sqrt(x), rel=1e-14)

    @pytest.mark.parametrize("e", [-0.9, -0.95])
    @pytest.mark.parametrize("k", [-0.5, 0.25, 0.5])
    def test_slowly_decaying_end_keeps_its_nodes(self, e, k):
        # the base end of t^e decays in u like q^(e+1): its far terms stay
        # above the tail cut, and dropping them would miss by about 1e-5
        want = math.gamma(e + 1.0) / math.gamma(e + 1.0 - k)
        num = rl_oracle(lambda t: t**e, 0.0, k, 1.0)
        assert num == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("k", [-0.25, 0.25])
    def test_singular_at_both_ends(self, k):
        # x^(-3/4) exp(x): (t-a)^e and (x-t)^(m-1) both singular, neither
        # exponent told to the quadrature
        f = to_series("x^(-3/4)*exp(x)", 0, 32)
        g = rl_series(f, k)
        for x in (0.25, 0.5, 1.0):
            want = series_eval(g, x)
            num = rl_oracle(lambda t: series_eval(f, t), 0.0, k, x)
            assert abs(num - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("k", [-0.001, -0.03, 0.97, 0.999, 1.99])
    def test_orders_just_below_an_integer(self, k):
        # m = n - k near 0 makes (x-t)^(m-1) nearly 1/(x-t): the term f(x)
        # of the integrand is integrated in closed form, the nodes take the
        # rest, which vanishes at the kernel end
        f = GenSeries(0.0, ((0.5, 1.0), (1.5, 2.0)))
        g = rl_series(f, k)
        for x in (0.5, 2.0, 1e4):
            want = series_eval(g, x)
            num = rl_oracle(lambda t: series_eval(f, t), 0.0, k, x)
            assert abs(num - want) <= 1e-8 * max(1.0, abs(want))

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 12), data=st.data(),
           k=st.floats(-2.0, 2.0, exclude_min=True),
           x=st.floats(0.25, 2.0))
    def test_agrees_with_termwise_rule(self, q, data, k, x):
        p = data.draw(st.integers(0, q - 1), label="p")
        # keys from n0 up, the leading exponent n0 + p/q above -1
        n0 = data.draw(st.integers(-1 if p else 0, 2), label="n0")
        coefs = data.draw(st.lists(st.floats(-2.0, 2.0).filter(
            lambda c: abs(c) >= 1e-3), min_size=1, max_size=4), label="coefs")
        phase = Fraction(p, q)
        f = GenSeries.keyed(0.0, phase, {n0 + i: c for i, c in enumerate(coefs)})
        want = series_eval(rl_series(f, k), x)
        num = rl_oracle(lambda t: series_eval(f, t), 0.0, k, x)
        scale = max(1.0, abs(want))
        n = math.ceil(k)
        if n > 0:
            # the central differences act on I^(n-k) f, and their rounding
            # grows with it (to 10 times |want| when n0 + p/q nears -1)
            scale = max(scale, abs(series_eval(rl_series(f, k - n), x)))
        assert abs(num - want) <= 1e-7 * scale

    @pytest.mark.parametrize("f", [
        lambda t: t**-1.5,              # OverflowError near the base point
        lambda t: 1.0 / (t - 0.5),      # ZeroDivisionError at the midpoint
        lambda t: math.inf,             # a level sum that is not finite
    ])
    def test_divergent_integrand_is_an_oracle_error(self, f):
        with pytest.raises(OracleError, match="diverged"):
            rl_oracle(f, 0.0, -0.5, 1.0)

    def test_unresolved_integrand_is_an_oracle_error(self):
        with pytest.raises(OracleError, match="did not converge"):
            rl_oracle(lambda t: math.sin(1e4 * t), 0.0, -0.5, 1.0)


class TestCompare:
    def test_half_derivative_table(self):
        rows = compare(monomial(1.0), 0.5, [0.25, 1.0, 2.25])
        expected = [2.0 * math.sqrt(x / math.pi) for x, *_ in rows]
        for (x, termwise, oracle_v, diff), want in zip(rows, expected):
            assert termwise == pytest.approx(want, abs=1e-9)
            assert oracle_v == pytest.approx(want, abs=1e-5)
            assert diff <= 1e-5

    def test_classical_derivative_row(self):
        (x, termwise, oracle_v, diff), = compare(monomial(2.0), 1.0, [1.0])
        assert termwise == 2.0
        assert oracle_v == pytest.approx(2.0, abs=1e-6)

    def test_exp_jet(self):
        f = to_series("exp(x)", 0, 24)
        (_, _, _, diff), = compare(f, 0.5, [0.5])
        assert diff <= 1e-5

    def test_truncation_guard(self):
        f = to_series("exp(x)", 0, 6)
        with pytest.raises(TruncationError):
            compare(f, 0.5, [3.0])

    def test_truncation_guard_bound(self):
        # the last term may reach 1e-8 of the value, no more
        for c, ok in ((0.9e-8, True), (1.1e-8, False)):
            f = GenSeries(0.0, ((0.0, 1.0), (1.0, c)), truncation_order=2)
            if ok:
                compare(f, -0.5, [1.0])
            else:
                with pytest.raises(TruncationError):
                    compare(f, -0.5, [1.0])

    @pytest.mark.parametrize("a", [1.0, 3.0, 100.0, -2.5])
    def test_nonzero_basepoint(self, a):
        f = GenSeries(a, ((-0.5, 1.0), (0.5, 2.0)))
        for k in (-0.5, 0.25, 0.75, 1.5):
            rows = compare(f, k, [a + 0.5, a + 2.0])
            assert all(diff <= 2e-8 for *_, diff in rows)

    def test_point_below_basepoint_rejected(self):
        with pytest.raises(EvalDomainError):
            compare(monomial(1.0), 0.5, [0.0])

    def test_csv_shape_and_determinism(self, capsys):
        argv = ["oracle-compare", "--expr", "x", "--k", "0.5",
                "--at", "0.25", "--at", "1"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        lines = text.strip().split("\n")
        assert lines[0] == "x,termwise,oracle,abs_diff"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 4 for line in lines[1:])
        assert main(argv) == 0
        assert capsys.readouterr().out == text

