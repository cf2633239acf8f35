import math

import pytest

from fraclift.cli import main
from fraclift.coeffseq import monomial, series_eval
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

