import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraclift.errors import ExpansionError, LatticeError, ParseError
from fraclift.parser import parse, to_series, to_text

X = ("x",)


def num(v):
    return ("num", v)


class TestParse:
    def test_sum_of_powers(self):
        assert parse("x^2 + 3*x") == ("+", ("^", X, num(2.0)),
                                      ("*", num(3.0), X))

    def test_scaled_centered_power(self):
        assert parse("2*(x-1)^0.5") == ("*", num(2.0),
                                        ("^", ("-", X, num(1.0)), num(0.5)))

    def test_trailing_operator_position(self):
        with pytest.raises(ParseError) as err:
            parse("x +")
        assert err.value.column == 4
        assert err.value.line == 1

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("tan(x)")
        with pytest.raises(ParseError):
            parse("y + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x 2")

    def test_power_right_associative(self):
        assert parse("x^2^3") == ("^", X, ("^", num(2.0), num(3.0)))

    def test_precedence(self):
        assert parse("1+2*x") == ("+", num(1.0), ("*", num(2.0), X))
        assert parse("-x^2") == ("neg", ("^", X, num(2.0)))

    def test_negative_exponent_forms(self):
        assert parse("x^-0.5") == ("^", X, ("neg", num(0.5)))
        assert parse("(x-0)^(-0.5)") == ("^", ("-", X, num(0.0)),
                                         ("neg", num(0.5)))

    def test_intrinsics(self):
        assert parse("exp(sin(x))") == ("call", "exp", ("call", "sin", X))

    def test_literal_beyond_double_range(self):
        with pytest.raises(ParseError) as err:
            parse("x^1e400")
        assert err.value.column == 3

    def test_line_tracking(self):
        with pytest.raises(ParseError) as err:
            parse("1 +\n* 2")
        assert err.value.line == 2
        assert err.value.column == 1


def _random_ast(rng, depth):
    if depth == 0:
        return rng.choice([num(float(rng.randint(0, 9))),
                           num(rng.randint(1, 40) / 8.0), X])
    tag = ("+", "-", "*", "/", "neg", "^", "call")[rng.randint(0, 6)]
    if tag == "neg":
        return (tag, _random_ast(rng, depth - 1))
    if tag == "call":
        return (tag, rng.choice(["exp", "sin", "cos"]),
                _random_ast(rng, depth - 1))
    return (tag, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


class TestRoundTrip:
    def test_fixed_cases(self):
        for text in ("x^2 + 3*x", "2*(x-1)^0.5", "-x", "x + -x",
                     "exp(x)*sin(x) - cos(x^2)", "x^-0.5", "(x - 1)^(-2)",
                     "1/2*x", "x^2^3", "-(x + 1)*x"):
            ast = parse(text)
            assert parse(to_text(ast)) == ast

    def test_randomized(self):
        rng = random.Random(0)
        for _ in range(400):
            ast = _random_ast(rng, rng.randint(1, 4))
            assert parse(to_text(ast)) == ast


class TestToSeries:
    def test_exp_maclaurin(self):
        f = to_series("exp(x)", 0, 4)
        assert f.terms == tuple((float(i), float(Fraction(1, math.factorial(i))))
                                for i in range(5))
        assert f.truncation_order == 4.0

    def test_verbatim_power_term(self):
        f = to_series("(x-1)^(-0.5)", 1.0, 10)
        assert f.basepoint == 1.0
        assert f.terms == ((-0.5, 1.0),)
        assert f.truncation_order is None

    def test_bare_x_power_at_origin(self):
        f = to_series("x^0.5", 0.0, 10)
        assert f.terms == ((0.5, 1.0),)

    def test_cauchy_product(self):
        f = to_series("sin(x)*x", 0, 5)
        assert f.terms == ((2.0, 1.0),
                           (4.0, float(Fraction(-1, 6))),
                           (6.0, float(Fraction(1, 120))))

    def test_product_of_jets_is_exact(self):
        # exp(x)*exp(x) convolves to 2^i/i! with no rounding at all
        f = to_series("exp(x)*exp(x)", 0, 10)
        for i in range(11):
            assert f.coefficient(float(i)) == float(
                Fraction(2**i, math.factorial(i)))

    def test_mixed_lattice_rejected(self):
        with pytest.raises(LatticeError):
            to_series("x^0.5 + x^0.25", 0, 8)

    def test_power_term_at_wrong_center(self):
        with pytest.raises(ExpansionError):
            to_series("(x-1)^0.5", 0.0, 8)

    def test_division_rules(self):
        f = to_series("x/2", 0, 4)
        assert f.terms == ((1.0, 0.5),)
        assert to_series("x/(1+1)", 0, 4).terms == ((1.0, 0.5),)
        with pytest.raises(ExpansionError):
            to_series("1/x", 0, 4)
        with pytest.raises(ExpansionError):
            to_series("x/0", 0, 4)

    def test_negative_power_of_general_expression_rejected(self):
        with pytest.raises(ExpansionError):
            to_series("(1+x)^(-1)", 0, 4)

    def test_integer_power_of_subexpression(self):
        f = to_series("(1+x)^3", 0, 8)
        assert f.terms == ((0.0, 1.0), (1.0, 3.0),
                           (2.0, 3.0), (3.0, 1.0))

    def test_shifted_polynomial_recenters(self):
        # (x-2)^2 expanded at basepoint 1: u = x-1, (u-1)^2 = 1 - 2u + u^2
        f = to_series("(x-2)^2", 1.0, 8)
        assert f.terms == ((0.0, 1.0), (1.0, -2.0), (2.0, 1.0))

    def test_recentered_intrinsic(self):
        f = to_series("exp(x)", 1.0, 6)
        for i in range(7):
            assert f.coefficient(float(i)) == pytest.approx(
                math.e / math.factorial(i), rel=1e-14)

    def test_composition_against_mpmath(self):
        import mpmath as mp

        f = to_series("exp(sin(x))", 0, 8)
        ref = mp.taylor(lambda t: mp.exp(mp.sin(t)), 0, 8)
        for i, c in enumerate(ref):
            assert f.coefficient(float(i)) == pytest.approx(float(c),
                                                            rel=1e-13, abs=1e-15)

    def test_composition_with_shift_against_mpmath(self):
        import mpmath as mp

        f = to_series("cos(x^2 + x)", 0, 7)
        ref = mp.taylor(lambda t: mp.cos(t**2 + t), 0, 7)
        for i, c in enumerate(ref):
            assert f.coefficient(float(i)) == pytest.approx(float(c),
                                                            rel=1e-13, abs=1e-15)

    def test_non_analytic_intrinsic_argument_rejected(self):
        with pytest.raises(ExpansionError):
            to_series("exp(x^0.5)", 0, 6)

    def test_constant_exponent_expressions(self):
        f = to_series("x^(1/2)", 0, 4)
        assert f.terms == ((0.5, 1.0),)

    def test_polynomials_are_exact(self):
        f = to_series("x^5 - 2*x + 7", 0, 3)
        assert f.truncation_order is None
        assert f.terms == ((0.0, 7.0), (1.0, -2.0), (5.0, 1.0))

    def test_sin_cos_with_constant_term_against_mpmath(self):
        import mpmath as mp

        for text, fn in (("sin(1 + x - x^2/3)", mp.sin), ("cos(1 + x - x^2/3)", mp.cos)):
            f = to_series(text, 0, 10)
            ref = mp.taylor(lambda t: fn(1 + t - t**2 / 3), 0, 10)
            for i, c in enumerate(ref):
                assert f.coefficient(float(i)) == pytest.approx(float(c),
                                                                rel=1e-13, abs=1e-15)

    def test_one_exponent_one_term(self):
        # the product runs on the lattice 1/3 + Z; an exponent is one key
        # there, however the factors were grouped
        f = to_series("x^(1/3) * exp(x) * sin(-x)", 0, 32)
        exps = f.exponents()
        assert all(b - a > 1e-9 for a, b in zip(exps, exps[1:]))
        assert f.coefficient(13 / 3) == 0
        g = to_series("x^(1/3) * (exp(x) * sin(-x))", 0, 32)
        assert f.terms == g.terms

    def test_negative_order_rejected(self):
        with pytest.raises(ExpansionError):
            to_series("exp(x)", 0, -3)
        assert to_series("exp(x)", 0, 0).terms == ((0.0, 1.0),)

    def test_non_finite_constant_exponents_rejected(self):
        for text in ("x^(10^400)", "x^(1e200*1e200)", "x^((0-8)^(1/3))"):
            with pytest.raises(ExpansionError):
                to_series(text, 0, 4)


# factors (x^(p/q))^r as (p, q, r) triples, q <= 12
_power_products = st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12),
                                     st.integers(1, 12)),
                           min_size=2, max_size=4)


class TestExactExponents:
    @settings(max_examples=200, deadline=None)
    @given(_power_products)
    @example([(22, 3, 5), (-6, 1, 6)])  # x^(2/3), which float sums miss
    def test_products_land_on_the_exact_total(self, factors):
        total = sum(Fraction(p, q) * r for p, q, r in factors)
        assume(total.denominator <= 1000)  # read exactly as a literal
        text = " * ".join("(x^(%d/%d))^%d" % f for f in factors)
        f = to_series(text, 0, 8)
        key = math.floor(total)
        assert (f.phase, list(f.coeffs)) == (total - key, [key])
        g = to_series("%s + x^(%d/%d)" % (text, total.numerator,
                                          total.denominator), 0, 8)
        assert (g.phase, g.coeffs) == (total - key, {key: 2.0})

    def test_unsnapped_literals_sum_as_their_doubles(self):
        # 0.0001 and 0.1234 have denominators above 1000, so each enters as
        # its double's value; sums land where their float sums read
        for text, phase, keys in (("x^0.0001*x^0.9999", 0, [1]),
                                  ("x^0.1234*x^0.0766", Fraction(1, 5), [0]),
                                  ("exp(x^0.0001*x^0.9999)", 0, [0, 1, 2])):
            f = to_series(text, 0, 2)
            assert (f.phase, list(f.coeffs)) == (phase, keys)
        # and an order built the same way keeps the top key
        f = to_series("exp(x)*x^0.0001*x^0.9999 + exp(x)*x", 0, 2)
        assert (f.phase, f.coeffs) == (0, {1: 2.0, 2: 2.0, 3: 1.0})
        # exact sums of snapped literals stay exact past denominator 1000
        f = to_series("x^(1/7)*x^(1/11)*x^(1/13)")
        assert f.phase == Fraction(311, 1001)

    def test_exponents_past_the_double_range_cancel_exactly(self):
        # an intermediate exponent of 2e308 has no double; the exact product
        # x^(1e308) does, and an exact factor adds no order
        f = to_series("x^(1e308)*x^(1e308)*x^(-1e308)")
        assert f.terms == ((1e308, 1.0),)
        assert f.truncation_order is None
        g = to_series("exp(x)*x^(1e308)*x^(-1e308)", 0, 3)
        assert g.terms == to_series("exp(x)", 0, 3).terms
        assert g.truncation_order == 3.0

    def test_out_of_range_messages_are_short(self):
        for text in ("exp(1e300 + x)", "sin(1e308 + 1e308 + x)"):
            with pytest.raises(ExpansionError) as exc:
                to_series(text)
            assert len(str(exc.value)) < 120


def _poly_text(terms):
    return " + ".join("(%d/%d)*x^%d" % (p, q, k) for k, p, q in terms)


# rational polynomials with zero constant term, as (power, p, q) triples
_polys = st.lists(st.tuples(st.integers(1, 6),
                            st.integers(-9, 9).filter(bool),
                            st.integers(1, 9)),
                  min_size=1, max_size=4)


def _truncated_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        for j in range(order + 1 - i):
            out[i + j] += x * b[j]
    return out


def _reference_jets(poly, order):
    """exp(U), sin(U), cos(U) to the order by summing U^j / j!: the Taylor
    composition, computed the slow way as an exact reference."""
    u = [Fraction(0)] * (order + 1)
    for k, p, q in poly:
        if k <= order:
            u[k] += Fraction(p, q)
    jets = {name: [Fraction(0)] * (order + 1) for name in ("exp", "sin", "cos")}
    power = [Fraction(1)] + [Fraction(0)] * order
    for j in range(order + 1):
        c = Fraction(1, math.factorial(j))
        sign = -1 if (j // 2) % 2 else 1
        for i, v in enumerate(power):
            jets["exp"][i] += c * v
            jets["sin" if j % 2 else "cos"][i] += sign * c * v
        power = _truncated_mul(power, u, order)
    return jets


def _terms(coeffs):
    return tuple((float(i), float(c)) for i, c in enumerate(coeffs) if c)


class TestRecurrenceIdentities:
    """The exp and sin/cos recurrences run in exact arithmetic on rational
    input, so these identities hold coefficient for coefficient, exactly."""

    @settings(max_examples=30, deadline=None)
    @given(_polys, st.integers(0, 24))
    def test_against_taylor_composition(self, poly, order):
        u = _poly_text(poly)
        ref = _reference_jets(poly, order)
        for func in ("exp", "sin", "cos"):
            assert to_series("%s(%s)" % (func, u), 0, order).terms == \
                _terms(ref[func])
        product = _truncated_mul(ref["exp"], ref["cos"], order)
        assert to_series("exp(%s) * cos(%s)" % (u, u), 0, order).terms == \
            _terms(product)

    @settings(max_examples=40, deadline=None)
    @given(_polys, st.integers(0, 48))
    def test_pythagoras(self, poly, order):
        u = _poly_text(poly)
        f = to_series("sin(%s)^2 + cos(%s)^2" % (u, u), 0, order)
        assert f.terms == ((0.0, 1.0),)

    @settings(max_examples=40, deadline=None)
    @given(_polys, st.integers(0, 48))
    def test_exp_times_exp_of_negation(self, poly, order):
        u = _poly_text(poly)
        f = to_series("exp(%s) * exp(-(%s))" % (u, u), 0, order)
        assert f.terms == ((0.0, 1.0),)
