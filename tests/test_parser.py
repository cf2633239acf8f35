import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import deadline
from fraclift import parser
from fraclift.cli import main
from fraclift.coeffseq import GenSeries
from fraclift.config import COEF_EPS, MAX_JET_ORDER
from fraclift.errors import ExpansionError, ExponentError, GammaOverflowError
from fraclift.errors import LatticeError, ParseError
from fraclift.lifted import lift_gen
from fraclift.parser import parse, to_lifted, to_series

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


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}
_CALLS = {"exp": math.exp, "sin": math.sin, "cos": math.cos}


def _value(node, x):
    """The value of an AST at x, by Python's operators and math functions."""
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "x":
        return x
    if tag == "neg":
        return -_value(node[1], x)
    if tag == "call":
        return _CALLS[node[1]](_value(node[2], x))
    return _BINARY[tag](_value(node[1], x), _value(node[2], x))


def _outcome(evaluate):
    """repr of the value, or the type of the error, of evaluate()."""
    try:
        return repr(evaluate())
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc)


def _agrees(text, x):
    """(whether the AST of text evaluates at x as Python evaluates text with
    ^ read as **, whose precedence and associativity the grammar shares;
    whether both sides gave a value)."""
    python = _outcome(lambda: eval(text.replace("^", "**"),
                                   {"__builtins__": {}}, {"x": x, **_CALLS}))
    ours = _outcome(lambda: _value(parse(text), x))
    return ours == python, type(python) is str


def _random_text(rng, depth):
    """Text drawn without regard to precedence (numbers with a decimal point,
    x, unary minus, parentheses, calls and the binary operators), so that
    the parser alone decides how it groups."""
    if depth == 0:
        return rng.choice(["x", "%d.%d" % (rng.randint(0, 3), rng.randint(0, 9))])
    kind = rng.choice(("neg", "paren", "call", "binary", "binary", "binary"))
    inner = _random_text(rng, depth - 1)
    if kind == "neg":
        return "-" + inner
    if kind == "paren":
        return "(%s)" % inner
    if kind == "call":
        return "%s(%s)" % (rng.choice(list(_CALLS)), inner)
    return "%s %s %s" % (inner, rng.choice(list(_BINARY)),
                         _random_text(rng, depth - 1))


class TestPythonPrecedence:
    """The parser against an oracle it shares no code with: Python's own
    reading of the same text."""

    def test_fixed_cases(self):
        for text in ("-x^2.0", "x^-2.0", "2.0^3.0^2.0", "-2.0^0.5",
                     "x^2.0^-1.0", "1.0 - 2.0 - x", "8.0 / 4.0 / x",
                     "2.0 * x / 4.0 * 3.0", "x + -x", "-(x + 1.0)*x",
                     "exp(x)*sin(x) - cos(x^2.0)", "1.0/2.0*x", "- -x^3.0"):
            for x in (0.7, -1.3):
                assert _agrees(text, x)[0], (text, x)

    def test_randomized(self):
        rng = random.Random(0)
        valued = 0
        for _ in range(3000):
            text = _random_text(rng, rng.randint(1, 4))
            x = rng.choice((0.7, -1.3, 2.5))
            agrees, both_valued = _agrees(text, x)
            assert agrees, (text, x)
            valued += both_valued
        assert valued >= 2500


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

    @pytest.mark.parametrize("text, phase, keys", [
        # bases an integer apart up to config.INT_TOL join one lattice, on
        # the lower operand's base; 1.1e-9 apart they do not
        ("x^0.3333333343 + x^(1/3)",
         Fraction(1501199880143645, 4503599627370496), [0]),
        ("x^(1/3) + x^1.3333333343", Fraction(1, 3), [0, 1]),
        ("x^(-2/3) + x^0.3333333343", Fraction(1, 3), [-1, 0]),
        ("x^(1/3) + x^(-5.6666666657)", Fraction(1, 3), [-6, 0]),
        ("x^0.3333333344 + x^(1/3)", None, None),
        ("x^(1/3) + x^(-5.6666666656)", None, None),
    ])
    def test_lattice_tolerance_of_sums(self, text, phase, keys):
        if phase is None:
            with pytest.raises(LatticeError, match="different lattices"):
                to_series(text, 0, 4)
        else:
            f = to_series(text, 0, 4)
            assert (f.phase, f.keys) == (phase, keys)

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

    def test_long_sums_and_products_expand(self):
        # a left-deep chain of + - * folds in a loop, whatever its length
        assert to_series("+".join(["x"] * 2000), 0, 4).terms == ((1.0, 2000.0),)
        assert to_series("*".join(["x"] * 2000), 0, 4).terms == ((2000.0, 1.0),)
        f = to_series("+".join("x^%d" % i for i in range(1, 1001)), 0, 4)
        assert f.terms == tuple((float(i), 1.0) for i in range(1, 1001))

    def test_deep_nesting_is_an_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * 500 + "x" + ")" * 500)
        tree = X
        for _ in range(5000):
            tree = ("neg", tree)
        with pytest.raises(ExpansionError, match="nested too deeply"):
            to_series(tree, 0, 4)

    def test_non_finite_constant_exponents_rejected(self):
        for text in ("x^(10^400)", "x^(1e200*1e200)", "x^((0-8)^(1/3))"):
            with pytest.raises(ExpansionError):
                to_series(text, 0, 4)


@st.composite
def _spelled_powers(draw):
    """(text, reference text, base point): (x - a)^e with x - a and e
    spelled several ways, against x - a with a one literal. a = p/2^k is a
    double, so every spelling of it is exact."""
    p, k = draw(st.integers(-40, 40)), draw(st.integers(0, 4))
    a = p / 2**k
    split = draw(st.integers(-40, 40))
    spell_a = draw(st.sampled_from([
        repr(a), "%d/%d" % (p, 2**k),
        "%d/%d + %r" % (split, 2**k, (p - split) / 2**k)]))
    c = draw(st.sampled_from(["2", "3", "7", "0.1"]))
    base = draw(st.sampled_from(["x - (%s)", "-(%s) + x", "x + (-(%s))",
                                 c + "*(x - (%s))/" + c])) % spell_a
    r, q = draw(st.integers(-12, 12)), draw(st.sampled_from([1, 2, 3, 4, 8]))
    expo = draw(st.sampled_from([repr(r / q), "(%d/%d)" % (r, q),
                                 "(cos(0)*%d/%d)" % (r, q)]))
    return ("(%s)^%s" % (base, expo), "(x - %r)^(%d/%d)" % (a, r, q), a)


class TestPowersByValue:
    """A power reads its exponent, and its base x - a, from their
    expansions: the value decides, not the spelling."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_spelled_powers())
    def test_spellings_of_a_centered_power_agree(self, case):
        text, ref, a = case
        assert repr(to_series(text, a, 8)) == repr(to_series(ref, a, 8))

    @pytest.mark.parametrize("text, a, ref", [
        ("(x - 1/2)^0.5", 0.5, "(x - 0.5)^0.5"),
        ("(-0.5 + x)^0.5", 0.5, "(x - 0.5)^0.5"),
        ("(x + -0.5)^0.5", 0.5, "(x - 0.5)^0.5"),
        ("(2*(x-1)/2)^0.5", 1.0, "(x - 1)^0.5"),
        ("x^(cos(0)/2)", 0.0, "x^0.5"),
    ])
    def test_other_spellings_of_the_power_term(self, text, a, ref):
        assert to_series(text, a, 8) == to_series(ref, a, 8)

    def test_wrong_center_is_named(self):
        with pytest.raises(ExpansionError,
                           match=r"centered at 1\.0, expected base point 0\.0"):
            to_series("(x-1)^0.5", 0.0, 8)
        # a center whose double is the base point's is shown exactly
        with pytest.raises(ExpansionError, match="centered at 1/3, expected"):
            to_series("(x - 1/3)^0.5", 1 / 3, 8)

    def test_exponent_constant_only_by_truncation_is_refused(self):
        # sin(x) at order 0 and sin(x) - x at order 2 expand to 0, with the
        # x that the jet order cut off; an x-free truncated constant, as
        # cos(0), and an exact one, as x - x, are exponents
        for text, order in (("x^sin(x)", 0), ("x^(sin(x) - x)", 2),
                            ("x^(sin(x)^2 + cos(x)^2)", 8)):
            with pytest.raises(ExpansionError, match="constant expression"):
                to_series(text, 0, order)
        assert to_series("x^(cos(0)*3)", 0, 0) == to_series("x^3", 0, 0)
        assert to_series("2*x^(x - x)", 0, 0).terms == ((0.0, 2.0),)

    def test_constant_division_builds_no_fraction(self, monkeypatch):
        for text in ("3/2", "x/(1+1)", "(x + 1/3)/(-7)"):
            made = _fractions_made(
                monkeypatch, lambda: parser._expand(parse(text), 0.0, 8))
            assert made == 0, text

    @pytest.mark.parametrize("text", ["x^(((10^1000)^1000)^1000)",
                                      "((2^1024)^1024)^1024",
                                      "((10^1000)^1000)^1000 + x",
                                      "(((1/3)^1000)^1000)^1000"])
    def test_runaway_constant_powers_are_refused(self, capsys, text):
        with deadline(1.0):
            code = main(["deriv", "--expr", text, "--k", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "passes" in err

    def test_constant_powers_under_the_bound_answer_exactly(self):
        assert to_series("(10^400)^2/10^799").terms == ((0.0, 10.0),)
        assert to_series("(2^1000)^1000/(2^999)^1000").terms == (
            (0.0, float(2**1000)),)


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

    def test_product_with_a_power_builds_only_its_order(self, monkeypatch):
        # x^(1/3) times a jet: the product's order 32 + 1/3 is the one new
        # Fraction; its base, the power's lowest exponent and the top key
        # build none (four Fractions a product before)
        jet = parser._expand(parse("exp(x)*sin(x)"), 0.0, 32)
        power = parser._expand(parse("x^(1/3)"), 0.0, 32)
        for a, b in ((power, jet), (jet, power)):
            assert _fractions_made(monkeypatch, lambda: parser._mul(a, b)) == 1
            p = parser._mul(a, b)
            assert (p.base, p.order, max(p.coeffs)) == (
                Fraction(1, 3), Fraction(97, 3), max(jet.coeffs))

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


def _fraction_exp_jet(du, top):
    # the Fraction loop of exp(v): n g_n = sum_k k v_k g_(n-k), du = [(k, k v_k)]
    g = [Fraction(1)] + [0] * top
    for n in range(1, top + 1):
        acc = 0
        for k, kv in du:
            if k > n:
                break
            acc += kv * g[n - k]
        g[n] = acc / n if acc else 0
    return g


def _fraction_sin_cos_jet(du, top):
    # the Fraction loop of sin(v), cos(v): s' = c v', c' = -s v'
    s = [0] * (top + 1)
    c = [Fraction(1)] + [0] * top
    for n in range(1, top + 1):
        acc_s = acc_c = 0
        for k, kv in du:
            if k > n:
                break
            acc_s += kv * c[n - k]
            acc_c -= kv * s[n - k]
        s[n] = acc_s / n if acc_s else 0
        c[n] = acc_c / n if acc_c else 0
    return s, c


# jet coefficients: small rationals and the binary doubles literals read as
_jet_coefs = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.sampled_from([Fraction(0.1), Fraction(1.7), Fraction(-0.3)]))


@st.composite
def _inner_jets(draw):
    """(u, top): u_1..u_top all drawn (dense) or a few of them (sparse); the
    jets ignore u_0."""
    top = draw(st.integers(0, 64))
    u = [draw(_jet_coefs)] + [Fraction(0)] * top
    if top and draw(st.booleans()):
        u[1:] = draw(st.lists(_jet_coefs, min_size=top, max_size=top))
    else:
        for k in draw(st.lists(st.integers(1, max(top, 1)), max_size=4)):
            if k <= top:
                u[k] = draw(_jet_coefs)
    return u, top


def _single(k, c, top):
    u = [Fraction(0)] * (top + 1)
    u[k] = c
    return u, top


def _rationals(jet, scale):
    """The exact Taylor coefficients G_n / (D^n n!) of scaled derivatives."""
    return [Fraction(v, scale**n * math.factorial(n))
            for n, v in enumerate(jet)]


def _fractions_built(monkeypatch, text, order):
    return _fractions_made(monkeypatch, lambda: to_series(text, 0, order))


def _fractions_made(monkeypatch, run):
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    run()
    monkeypatch.undo()
    return len(made)


class TestIntegerJets:
    """On a rational jet the integer recurrences give the very rationals the
    Fraction loops give, so every double downstream is the same."""

    @settings(max_examples=60, deadline=None)
    @given(_inner_jets())
    @example(_single(1, Fraction(0.1), 64))
    @example(_single(2, Fraction(1.7), 64))
    @example(_single(0, Fraction(1), 0))
    def test_equal_to_fraction_loops(self, jet):
        u, top = jet
        du = [(k, k * u[k]) for k in range(1, top + 1) if u[k]]
        # the derivatives v^(k)(0) = k! u_k over one common denominator
        den = math.lcm(*(c.denominator for c in u[1:]))
        terms = [(k, math.factorial(k) * c.numerator * (den // c.denominator),
                  den) for k, c in enumerate(u) if k and c]
        scale, b = parser._scaled_derivatives(terms)
        g = parser._exp_jet(b, top, False)
        s, c = parser._sin_cos_jet(b, top, False)
        assert all(type(x) is int for x in g + s + c)
        assert _rationals(g, scale) == _fraction_exp_jet(du, top)
        assert ((_rationals(s, scale), _rationals(c, scale))
                == _fraction_sin_cos_jet(du, top))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(-9, 9).filter(bool),
                              st.integers(1, 9)), min_size=3, max_size=6),
           st.integers(0, 20))
    def test_nested_against_taylor_composition(self, dense, order):
        poly = [(k, p, q) for k, (p, q) in enumerate(dense, 1)]
        ref = _reference_jets(poly, order)

        def inner(jet):  # a jet less its constant, as (power, p, q) triples
            return [(k, c, 1) for k, c in enumerate(jet) if k and c]

        cases = {
            "exp(sin(%s))": _reference_jets(inner(ref["sin"]), order)["exp"],
            "sin(exp(%s) - 1)": _reference_jets(inner(ref["exp"]), order)["sin"],
            "cos(cos(%s) - 1)": _reference_jets(inner(ref["cos"]), order)["cos"],
        }
        for text, want in cases.items():
            got = parser._expand(parse(text % _poly_text(poly)), 0.0, order)
            assert got.base == 0
            assert parser._values(got) == {n: c for n, c in enumerate(want)
                                           if c}

    @pytest.mark.parametrize("order", [16, 32, 64])
    def test_fraction_count_is_linear(self, monkeypatch, order):
        # a Fraction loop builds O(N^2) Fractions here (16,974 at N = 64);
        # the integer recurrences build at most one per coefficient
        made = _fractions_built(monkeypatch, "cos(sin(exp(x)-1))", order)
        assert made <= 6 * (order + 1)

    @pytest.mark.parametrize("text", ["(exp(x)*sin(x)+cos(2*x/3))^6",
                                      "x^(1/3)*(1+x/3)^3*cos(x+x^2/5)"])
    def test_products_build_no_fraction_per_coefficient(self, monkeypatch, text):
        # products, sums and jets run on integers over one denominator: the
        # Fractions left are the literals' and the exponents', whatever the
        # order (one per output coefficient made 168 -> 600 and 93 -> 237)
        made = [_fractions_built(monkeypatch, text, order)
                for order in (16, 32, 64)]
        assert made[0] == made[1] == made[2]


# Taylor-form recurrence input [(k, k v_k)], k ascending: floats, or floats
# beside Fractions
_taylor_coefs = st.one_of(
    st.floats(-4, 4).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)))


@st.composite
def _taylor_inputs(draw):
    top = draw(st.integers(0, 48))
    ks = draw(st.lists(st.integers(1, max(top, 1)), unique=True,
                       max_size=top))
    return sorted((k, k * draw(_taylor_coefs)) for k in ks), top


class TestTaylorForm:
    """In Taylor form the recurrences are the float loops they replaced,
    which _fraction_exp_jet and _fraction_sin_cos_jet spell out: equal bit
    for bit, Fraction and float alike."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_taylor_inputs())
    @example(([(1, 0.1), (2, 2 * 1.7)], 32))
    @example(([(1, Fraction(1, 3)), (3, 3 * 2 ** 0.5)], 24))
    def test_equal_to_the_float_loops(self, case):
        du, top = case
        assert (repr(parser._exp_jet(du, top, True))
                == repr(_fraction_exp_jet(du, top)))
        assert (repr(parser._sin_cos_jet(du, top, True))
                == repr(_fraction_sin_cos_jet(du, top)))


class TestDenseRecurrences:
    """The recurrences read their binomials from the Pascal rows, walked
    again past the cached ones, cut to the argument's highest key."""

    def test_nested_intrinsic_at_the_order_limit(self):
        # math.comb per term made this take about 4 s
        with deadline(2.0):
            f = to_series("exp(sin(x))", 0, MAX_JET_ORDER)
        g = to_series("exp(sin(x))", 0, 64)
        assert all(f.coefficient(float(n)) == g.coefficient(float(n))
                   for n in range(65))
        assert [f.coefficient(float(n)) for n in range(6)] == [
            1.0, 1.0, 0.5, 0.0, -0.125, -1 / 15]

    @pytest.mark.parametrize("text", ["exp(sin(x))", "cos(exp(x) - 1)",
                                      "sin(x^2 + x)", "exp(x/3)",
                                      "cos(x^3 + x^140)"])
    def test_past_the_cached_rows_against_fraction_reference(self, text):
        order = parser._ROW_CACHE + 72
        assert repr(to_series(text, 0, order)) == repr(_ref_series(text,
                                                                   order))


# A reference expansion with one Fraction per coefficient, for the
# expressions drawn below (base point 0): the parser's products, sums and
# integer powers as they ran before its exact values moved to integers, with
# the Fraction jet loops above in place of its integer recurrences (they
# give the same rationals). A value is (base, {n: Fraction or float},
# order); a product or sum holding a float combines in the same order as the
# parser's, so the float results agree bit for bit too.


def _ref_min_exponent(v):
    return v[0] + min(v[1]) if v[1] else 0


def _ref_value(base, coeffs, order):
    if order != math.inf:
        top = math.floor(order - base)
        coeffs = {n: c for n, c in coeffs.items() if n <= top}
    return base, {n: c for n, c in coeffs.items() if c != 0}, order


def _ref_add(a, b, sign):
    (ba, ca, oa), (bb, cb, ob) = a, b
    base, coeffs, m = (ba, dict(ca), int(bb - ba)) if ca else (bb, {}, 0)
    for n, c in cb.items():
        coeffs[n + m] = coeffs.get(n + m, 0) + sign * c
    return _ref_value(base, coeffs, min(oa, ob))


def _ref_mul(a, b):
    order = min((o + _ref_min_exponent(m) for o, m in ((a[2], b), (b[2], a))
                 if o != math.inf), default=math.inf)
    base = a[0] + b[0]
    top = order if order == math.inf else math.floor(order - base)
    acc = {}
    for na, ca in sorted(a[1].items()):
        for nb, cb in sorted(b[1].items()):
            if na + nb > top:
                break
            acc[na + nb] = acc.get(na + nb, 0) + ca * cb
    return _ref_value(base, acc, order)


def _ref_jet(func, inner, order):
    # a zero-constant polynomial: v = sum u_k x^k over k = n + base >= 1
    shift = int(inner[0])
    du = sorted((n + shift, (n + shift) * c) for n, c in inner[1].items()
                if n + shift <= order)
    if func == "exp":
        jet = _fraction_exp_jet(du, order)
    else:
        jet = _fraction_sin_cos_jet(du, order)[func == "cos"]
    return _ref_value(0, dict(enumerate(jet)), order)


def _ref_const(node):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "neg":
        return -_ref_const(node[1])
    a, b = _ref_const(node[1]), _ref_const(node[2])
    return a / b if tag == "/" else math.pow(a, b)


def _ref_expand(node, order):
    tag = node[0]
    if tag == "num":
        return _ref_value(0, {0: Fraction(node[1])}, math.inf)
    if tag == "x":
        return 0, {1: Fraction(1)}, math.inf
    if tag == "neg":
        v = _ref_expand(node[1], order)
        return v[0], {n: -c for n, c in v[1].items()}, v[2]
    if tag == "call":
        return _ref_jet(node[1], _ref_expand(node[2], order), order)
    if tag in "+-":
        return _ref_add(_ref_expand(node[1], order), _ref_expand(node[2], order),
                        1 if tag == "+" else -1)
    if tag == "*":
        return _ref_product(node, order)
    if tag == "/":  # times 1/c, c a rational constant
        v, c = _ref_expand(node[1], order), _ref_expand(node[2], order)[1][0]
        return v[0], {n: 1 / c * x for n, x in v[1].items()}, v[2]
    expo = _ref_const(node[2])
    if node[1] == X:  # x^(p/q), q <= 12
        return Fraction(expo).limit_denominator(12), {0: Fraction(1)}, math.inf
    if expo != int(expo):  # 2^0.5
        return _ref_value(0, {0: math.pow(_ref_const(node[1]), expo)}, math.inf)
    # by squaring, as the parser's integer powers run
    out, n = (0, {0: Fraction(1)}, math.inf), int(expo)
    base = _ref_expand(node[1], order)
    while n > 0:
        if n & 1:
            out = _ref_mul(out, base)
        base = _ref_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def _folds(node):
    """Whether the parser folds node to a constant: a number, or + - * and
    unary minus over folded operands, or a folded base or dividend under a
    constant exponent or divisor."""
    tag = node[0]
    if tag in ("^", "/"):
        return _folds(node[1])
    return tag == "num" or tag in ("neg", "+", "-", "*") and all(
        map(_folds, node[1:]))


def _ref_product(node, order):
    # a run of products, left to right: constants fold in order, and a
    # float constant met by any other value waits, the float constants
    # after it multiplied in, and scales the run's product once at its end
    factors = []
    while node[0] == "*":
        factors.append(node[2])
        node = node[1]
    factors.append(node)
    factors.reverse()
    acc, folded, k = _ref_expand(factors[0], order), _folds(factors[0]), None
    for f in factors[1:]:
        b = _ref_expand(f, order)
        if folded and _folds(f):
            acc = _ref_mul(acc, b)
        elif folded and type(acc[1].get(0)) is float:
            acc, folded, k = b, False, acc[1][0]
        elif _folds(f) and type(b[1].get(0)) is float:
            k = b[1][0] if k is None else k * b[1][0]
        else:
            acc, folded = _ref_mul(acc, b), False
    if k is not None:
        acc = _ref_mul(_ref_value(0, {0: k}, math.inf), acc)
    return acc


def _ref_series(text, order):
    base, coeffs, trunc = _ref_expand(parse(text), order)
    m = math.floor(base)
    return GenSeries.keyed(0.0, Fraction(base - m),
                           {n + m: v for n, c in coeffs.items()
                            if abs(v := float(c)) >= COEF_EPS},
                           None if trunc == math.inf else float(trunc))


_literals = st.sampled_from(["0.1", "1.7", "2^0.5", "(1/3)", "(-5/7)", "3"])


@st.composite
def _zero_constant_polys(draw):
    powers = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3,
                           unique=True))
    return " + ".join("%s*x^%d" % (draw(_literals), k) for k in powers)


_leaves = st.one_of(
    st.just("x"), st.integers(0, 9).map(str), _literals,
    st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos"]),
              _zero_constant_polys()))
_constants = st.sampled_from(["3", "(2/3)", "(-7/12)", "0.1"])
_trees = st.recursive(_leaves, lambda t: st.one_of(
    st.builds("({} + {})".format, t, t),
    st.builds("({} - {})".format, t, t),
    st.builds("({}) * ({})".format, t, t),
    st.builds("({}) / {}".format, t, _constants),
    st.builds("({})^{}".format, t, st.integers(0, 6))), max_leaves=5)
_phases = st.lists(st.builds("x^({}/{})".format, st.integers(-12, 12),
                             st.integers(1, 12)), max_size=2)


class TestAgainstFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(_phases, _trees, st.integers(0, 24))
    @example([], "(exp(0.1*x^1) * sin(2^0.5*x^1) + cos((2/3)*x^1))^6", 24)
    @example(["x^(1/3)"], "(1 + x / 3)^3 * cos(3*x^1 + 1.7*x^2)", 20)
    @example([], "0 + (x + 1)", 0)  # a zero literal holds no key
    # 0.1 x stays exact beside a float past the jet order
    @example([], "x - (x + exp(0.1*x^1 + 2^0.5*x^2))", 1)
    def test_bit_identical(self, factors, tree, order):
        text = " * ".join(factors + ["(%s)" % tree])
        got, want = to_series(text, 0, order), _ref_series(text, order)
        assert repr(got) == repr(want)


class TestAgainstFractionReferenceToOrder128:
    """The same reference at jet orders up to 128, where the derivative
    form's binomial convolutions run on dense Pascal rows."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_phases, _trees, st.integers(0, 128))
    @example([], "(exp(0.1*x^1) * sin(2^0.5*x^1) + cos((2/3)*x^1))^2", 128)
    @example(["x^(-5/3)"], "exp(x) * sin((-5/7)*x^2 + 3*x^1) - x^2", 128)
    def test_bit_identical(self, factors, tree, order):
        text = " * ".join(factors + ["(%s)" % tree])
        got, want = to_series(text, 0, order), _ref_series(text, order)
        assert repr(got) == repr(want)


def _convolutions(monkeypatch):
    calls = []
    for name in ("_pairs", "_convolved"):
        def spy(pa, pb, *args, run=getattr(parser, name)):
            calls.append((len(pa), len(pb)))
            return run(pa, pb, *args)
        monkeypatch.setattr(parser, name, spy)
    return calls


class TestDerivativeForm:
    """Jets hold derivatives: products convolve with binomial weights, and
    a single term at key 0 only relabels the other factor."""

    def test_key_zero_factors_relabel(self, monkeypatch):
        calls = _convolutions(monkeypatch)
        for text in ("x^(1/3)*exp(x)", "exp(x)*x^(-2/3)", "(2/3)*sin(x)*7",
                     "x*cos(x)", "x^2*x^3*exp(x)"):
            to_series(text, 0, 32)
        assert calls == []
        to_series("exp(x)*sin(x)", 0, 32)
        assert calls == [(33, 16)]

    def test_row_cache_is_bounded(self):
        f = to_series("exp(x)*sin(x)", 0, MAX_JET_ORDER)
        assert f.coefficient(1.0) == 1.0 and f.coefficient(2.0) == 1.0
        assert len(parser._ROWS) <= parser._ROW_CACHE + 1

    def test_wide_sums_take_no_factorials_of_their_span(self):
        # a polynomial holds Taylor numerators, and a jet spanning more than
        # _KEYS keys keeps Taylor Fractions: no n! of a wide span is built
        with deadline(1.0):
            assert to_series("x^1e300 + x").terms == ((1.0, 1.0), (1e300, 1.0))
            f = to_series("(x^5000 + 1/3)*(x^5000 - 1/3)")
            g = to_series("(x^5000 + 1/3)*(x^5000 - 1/3)*exp(x)", 0, 2)
            h = to_series("x^-5000 + exp(x)", 0, 2)
        assert f.terms == ((0.0, -1 / 9), (10000.0, 1.0))
        assert g.terms == ((0.0, -1 / 9), (1.0, -1 / 9), (2.0, -1 / 18))
        assert h.terms == ((-5000.0, 1.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.5))


def _trinomial_power(n):
    """The integer coefficients of (1 + x + x^2)^n."""
    p = [1]
    for _ in range(n):
        p = [sum(p[max(i - 2, 0):i + 1]) for i in range(len(p) + 2)]
    return p


class TestPolynomials:
    """An exact value of infinite order keeps Taylor numerators, which
    carry no n!, until it meets a jet."""

    def test_high_degree_products_within_two_seconds(self):
        # their factorials made these take 2.6 s to 6 s in derivative form
        with deadline(2.0):
            f = to_series("(1+x)^1000")
            g = to_series("(x^100 + 1)^40")
            h = to_series("(1 + x + x^2)^300")
            to_series("(x^300)^4*(1 + x)^2", 0.5, 0)
        assert f.terms == tuple((float(k), float(math.comb(1000, k)))
                                for k in range(1001))
        assert g.terms == tuple((100.0 * j, float(math.comb(40, j)))
                                for j in range(41))
        assert h.terms == tuple((float(k), float(c))
                                for k, c in enumerate(_trinomial_power(300)))

    def test_taylor_numerators_until_a_jet(self):
        f = parser._expand(parse("(1 + x/3)^3 - 2*x^2"), 0.0, 8)
        assert (f.coeffs, f.den, f.order) == ({0: 27, 1: 27, 2: -45, 3: 1},
                                               27, math.inf)
        g = parser._mul(f, parser._expand(parse("exp(x)"), 0.0, 8))
        assert parser._values(g) == {
            n: c for n, c in _ref_expand(parse("((1 + x/3)^3 - 2*x^2)"
                                               " * exp(x)"), 8)[1].items()}


class TestPolynomialPowers:
    """A product or power of polynomials that could hold more terms than a
    product of two polynomials of degree MAX_JET_ORDER is refused before it
    is computed: a product of polynomials of s and t terms spanning p and q
    keys bounds min(p + q + 1, s t) terms, and a power ^n of t terms
    spanning p keys min(n p + 1, C(n + t - 1, t - 1)), judged before its
    squarings run."""

    @pytest.mark.parametrize("text, a", [("(x^400)^7", "1"),
                                         ("(x^400)^7", "-2.5"),
                                         ("((1+x)^1000)^1000", "0"),
                                         ("((1+x)^100)^100", "0"),
                                         ("(1 + x^16 + x^33)^64", "0")])
    def test_refused_within_a_second(self, capsys, text, a):
        # computed, the first ran about 4 s and 35 s before it passed the
        # double range, and ((1+x)^100)^100 ran past 45 s; the last bounds
        # 2113 terms
        with deadline(1.0):
            with pytest.raises(ExpansionError, match="polynomial power"):
                to_series(text, float(a), 16)
        with deadline(1.0):
            code = main(["deriv", "--expr", text, "--basepoint=" + a,
                         "--k", "0.5"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "passes %d terms" % (2 * MAX_JET_ORDER + 1) in err

    def test_written_out_products_refused(self, capsys):
        # each factor answers on its own
        text = "(1+x)^1000*(1+x^2)^600"
        with deadline(1.0):
            with pytest.raises(ExpansionError, match="polynomial product"):
                to_series(text)
        assert main(["deriv", "--expr", text, "--k", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "passes 2049 terms" in err
        # refused at its sixth factor, where the parent computed all seven
        # and then passed the double range
        with pytest.raises(ExpansionError, match="polynomial product"):
            to_series("*".join(["x^400"] * 7), 1.0, 16)

    def test_within_the_limit_answer(self):
        f = to_series("(x^100)^7", 1.0, 16)
        g = to_series("x^400*x^400", 1.0, 16)
        for series, n in ((f, 700), (g, 800)):
            assert series.terms == tuple((float(k), float(math.comb(n, k)))
                                         for k in range(n + 1))
        # bounded by 64 * 32 + 1 = 2049 terms, the most a power holds
        h = to_series("(1 + x^16 + x^32)^64")
        assert h.terms == tuple((16.0 * k, float(c)) for k, c in
                                enumerate(_trinomial_power(64)))


class TestConstantPowers:
    def test_one_exact_power_within_a_second(self, capsys):
        # 1.66M bits: repeated squarings took about 9 s in their gcds
        with deadline(1.0):
            code = main(["deriv", "--expr", "((2/3)^1024)^1024", "--k", "0"])
        assert (code, capsys.readouterr().out) == (0, "result: 0\n")
        assert to_series("((2/3)^3)^4").terms == (
            (0.0, float(Fraction(2, 3)**12)),)

    def test_truncated_constants_keep_their_order(self):
        # as a product of truncated constants: the order stays, and ^0 is 1
        for text, jet, terms, order in (
                ("(2 + sin(x) - x)^3", 2, ((0.0, 8.0),), 2.0),
                # the prune of x^5 leaves the Taylor coefficient 1 a Fraction
                ("(1 + 2^0.5*x^5 + (sin(x) - sin(x)))^2", 2, ((0.0, 1.0),),
                 2.0),
                ("(sin(x) + 2)^2", 0, ((0.0, 4.0),), 0.0),
                ("sin(x)^3", 0, (), 0.0),
                ("(sin(x) + 2)^0", 0, ((0.0, 1.0),), None)):
            f = to_series(text, 0, jet)
            assert (f.terms, f.truncation_order) == (terms, order), text


def _stripped(v):
    """(base, order, scale, den, {key: integer}) of an exact working value,
    its integers and den divided by their gcd, as the general product
    strips them; the scale only where a key above 0 reads it."""
    g = math.gcd(v.den, *v.coeffs.values())
    return (v.base, v.order, v.scale if max(v.coeffs, default=0) else None,
            v.den // g, {n: c // g for n, c in v.coeffs.items()})


def _ref_order(a, b):
    """The product's order: each finite order plus the other factor's
    lowest exponent, the least of them."""
    return min((Fraction(o) + (m.base + min(m.coeffs) if m.coeffs else 0)
                for o, m in ((a.order, b), (b.order, a)) if o != math.inf),
               default=math.inf)


@st.composite
def _relabel_cases(draw):
    """(text of a jet or polynomial, text of c x^p, jet order)."""
    form = draw(st.sampled_from([
        "%s", "1 + %s", "(1 + %s)^2", "x^(1/3)*(2 + %s)", "exp(%s)",
        "sin(%s)", "x^(1/3)*cos(%s)", "x^(-2/3)*exp(%s)*sin(x)"]))
    c = draw(st.integers(-9, 9).filter(bool))
    q = draw(st.integers(1, 9))
    p = draw(st.sampled_from(["0", "1/4", "1/3", "1/2", "-3/4", "-2/3", "2"]))
    return (form % _poly_text(draw(_polys)), "(%d/%d)*x^(%s)" % (c, q, p),
            draw(st.integers(0, 24)))


class TestRelabel:
    """A factor that is one term at key 0 relabels the other factor: the
    same value, order and base as the general product."""

    @pytest.mark.parametrize("text, order, phase, terms, trunc", [
        ("0*x^(1/3)", 4, Fraction(1, 3), {}, None),
        ("x^(1/3)*0", 4, Fraction(1, 3), {}, None),
        ("x^(1/3) - x^(1/3)", 4, Fraction(1, 3), {}, None),
        ("x^(1/3)*(exp(x)-exp(x))", 4, Fraction(1, 3), {}, 13 / 3),
        ("x^(1/3)*x^(2/3)", 4, 0, {1: 1.0}, None),
        ("x^(-1/3)*x^(1/3)", 4, 0, {0: 1.0}, None),
        ("(x^(1/3))^0", 4, 0, {0: 1.0}, None),
        ("0*exp(x)", 4, 0, {}, 4.0),
        ("x^(1/3)*exp(x)", 4.5, Fraction(1, 3),
         {0: 1.0, 1: 1.0, 2: 1 / 2, 3: 1 / 6, 4: 1 / 24}, 13 / 3),
        # a polynomial relabelled by a one-term jet takes its n! first
        ("(1 + sin(x) - x)*(1 + x)^3", 2, 0, {0: 1.0, 1: 3.0, 2: 3.0}, 2.0),
        # a jet whose keys reach past the one-term factor's order is cut
        ("(1 + (sin(x) - x)^2) * cos(x^5)", 4, 0, {0: 1.0}, 4.0),
    ])
    def test_edge_cases(self, text, order, phase, terms, trunc):
        f = to_series(text, 0, order)
        assert (f.phase, f.coeffs, f.truncation_order) == (phase, terms, trunc)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_relabel_cases())
    def test_against_the_general_product(self, case):
        text, single, order = case
        a = parser._expand(parse(text), 0.0, order)
        b = parser._expand(parse(single), 0.0, order)
        assert b.coeffs.keys() == {0}
        want = parser._product(a, b)  # pair by pair, one gcd strip
        assert (want.order, want.base) == (_ref_order(a, b), a.base + b.base)
        got = [parser._mul(a, b), parser._mul(b, a)]
        if b.base == 0:  # a constant, as a chain of products scales by it
            got.append(parser._scale(a, Fraction(b.coeffs[0],
                                                 b.den).as_integer_ratio()))
        for v in got:
            assert _stripped(v) == _stripped(want), text


# x-free trees over small integers and the literals 0.1, 0.0001 and 1e-300,
# with integer, negative and real powers and calls of exp, sin and cos
_fold_leaves = st.sampled_from(["0", "1", "2", "3", "0.1", "0.0001", "1e-300"])
_fold_exponents = st.sampled_from(["0", "2", "3", "(-1)", "(-2)", "0.5",
                                   "(1/3)", "(-3/4)"])
_fold_trees = st.recursive(_fold_leaves, lambda t: st.one_of(
    st.builds("(-{})".format, t),
    st.builds("({} + {})".format, t, t),
    st.builds("({} - {})".format, t, t),
    st.builds("({} * {})".format, t, t),
    st.builds("({} / {})".format, t, t),
    st.builds("({})^{}".format, t, st.one_of(_fold_exponents, t)),
    st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos"]), t)),
    max_leaves=8)


def _exact_zero(v):
    # a double 0.0 is the exact 0, as the parser drops a zero coefficient
    return v if v or type(v) is Fraction else Fraction(0)


def _ref_times(a, b):
    if a == 0 and type(a) is Fraction or b == 0 and type(b) is Fraction:
        return Fraction(0)  # an exact 0 has no term to multiply
    return _exact_zero(a * b)


def _ref_fold(node):
    """The value of an x-free tree: Fraction arithmetic while both operands
    are exact, else the doubles, as Python mixes a Fraction with a float;
    an integer power of a float by squarings, a real one by math.pow; a
    call exact at an exact 0, else math's function of the double; the
    parser's refusals by its words."""
    tag = node[0]
    if tag == "num":
        return Fraction(node[1])
    if tag == "call":
        c = _ref_fold(node[2])
        if c == 0 and type(c) is Fraction:
            return Fraction(node[1] != "sin")
        try:
            return _exact_zero(getattr(math, node[1])(float(c)))
        except (OverflowError, ValueError):
            try:
                arg = repr(float(c))
            except OverflowError:
                arg = "an argument past 2^1024"
            raise ExpansionError("%s(%s) is out of double range"
                                 % (node[1], arg)) from None
    if tag == "neg":
        return -_ref_fold(node[1])
    if tag in "+-":
        a, b = _ref_fold(node[1]), _ref_fold(node[2])
        return _exact_zero(a + b if tag == "+" else a - b)
    if tag == "*":
        return _ref_times(_ref_fold(node[1]), _ref_fold(node[2]))
    if tag == "/":  # times the divisor's reciprocal, exact or a double
        d = _ref_fold(node[2])
        if d == 0:
            raise ExpansionError("division by zero")
        return _ref_times(1 / d, _ref_fold(node[1]))
    e = float(_ref_fold(node[2]))
    if not math.isfinite(e):
        raise ExpansionError("exponent %r is not finite" % e)
    c = _ref_fold(node[1])
    if not (e.is_integer() and abs(e) <= 1024):
        if c <= 0:
            raise ExpansionError("real power of a non-positive constant")
        return _exact_zero(math.pow(float(c), e))
    n = int(e)
    if n < 0 and c == 0:
        raise ExpansionError(
            "negative powers are only supported on (x - basepoint)")
    if type(c) is float:
        if n < 0:
            return _exact_zero(c ** n)
        out = Fraction(1)
        while n > 0:
            if n & 1:
                out = _ref_times(out, c)
            c = _ref_times(c, c) if n > 1 else c
            n >>= 1
        return out
    if c and 1 << 21 < abs(n) * max(c.numerator.bit_length(),
                                    c.denominator.bit_length()):
        raise ExpansionError("constant power ^%d passes %d bits"
                             % (n, 1 << 21))
    return c ** n


def _outcome_of(run):
    """The folded value, exact or the double's hex, or the refusal."""
    try:
        v = run()
    except ExpansionError as exc:
        return "refused", str(exc)
    except (OverflowError, ValueError) as exc:  # past the double range
        return "range", type(exc).__name__
    return (v, "exact") if type(v) is Fraction else (v.hex(), "float")


def _folded(text):
    v = parser._expand(parse(text), 0.0, 8)
    assert (v.base, v.order, v.coeffs.keys() <= {0}) == (0, math.inf, True)
    if v.den is None:
        return v.coeffs[0]
    return Fraction(v.coeffs.get(0, 0), v.den)


class TestFoldedConstants:
    """An x-free subtree folds once into its value, exact or a double, with
    the refusals the working values give."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_fold_trees)
    @example("(1 / (0.1 - 0.1))")
    @example("((0 - 2))^0.5")
    @example("((2)^1000)^3000")
    @example("((2)^1000)^2000")
    @example("((0.5)^2 * (2)^0.5)^3")
    @example("((1e-300)^0.5)^3")
    @example("((2)^0.5)^5")  # by squarings: (2^0.5)**5 rounds otherwise
    @example("(0 - (2)^0.5)")
    def test_against_fraction_arithmetic(self, text):
        assert (_outcome_of(lambda: _folded(text))
                == _outcome_of(lambda: _ref_fold(parse(text))))


class TestFloatFactors:
    """A float constant in a run of products scales the run's exact
    product once, after it has cancelled."""

    def test_no_rounding_residue(self):
        want = to_series("2^0.5*(exp(x)*sin(x))", 0, 16)
        # exp(x) sin(x) has no x^4, x^8, x^12 or x^16 term
        assert not {4, 8, 12, 16} & set(want.keys)
        for text in ("2^0.5*exp(x)*sin(x)", "exp(x)*2^0.5*sin(x)",
                     "exp(x)*sin(x)*2^0.5"):
            got = to_series(text, 0, 16)
            assert ([(n, v.hex()) for n, v in zip(got.keys, got.vals)]
                    == [(n, v.hex()) for n, v in zip(want.keys, want.vals)])

    def test_a_long_polynomial_is_refused_in_order(self):
        # the float factor does not wait past a product it makes refused,
        # so the divisor after it is never reached
        poly = "+".join("x^%d" % k for k in range(1, 2051))
        for text in ("2^0.5*(%s)*(1/0)", "(%s)*2^0.5*(1/0)"):
            with pytest.raises(ExpansionError, match="passes 2049 terms"):
                to_series(text % poly, 0, 4)


class TestTruncatedDivisors:
    @pytest.mark.parametrize("text, order", [("x/(1+sin(x))", 0),
                                             ("x/(1 + sin(x) - x)", 2)])
    def test_refused(self, capsys, text, order):
        # each divisor is constant only because the order cut its x off
        with pytest.raises(ExpansionError, match="division only by nonzero"):
            to_series(text, 0, order)
        code = main(["deriv", "--expr", text, "--k", "0.5", "--order",
                     str(order)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1

    @pytest.mark.parametrize("text, order, what", [
        ("x*(1+sin(x))^-1", 0, "negative powers"),
        ("x*(1 + sin(x) - x)^-1", 2, "negative powers"),
        ("(1+sin(x))^0.5", 0, "real exponents")])
    def test_powers_refused(self, text, order, what):
        # the same bases as powers: only a nonnegative integer power keeps
        # the order the base was cut at
        with pytest.raises(ExpansionError, match=what):
            to_series(text, 0, order)

    @pytest.mark.parametrize("power, what", [
        ("2", None), ("0.5", "real exponents"), ("(-1)", "negative powers")])
    def test_base_cut_to_nothing(self, capsys, power, what):
        # at order 2 the float-holding base keeps no coefficient, not even
        # at key 0
        text = "(2^0.5*x^5 + (sin(x) - sin(x)))^" + power
        code = main(["deriv", "--expr", text, "--k", "0.5", "--order", "2"])
        out, err = capsys.readouterr()
        if what is None:
            f = to_series(text, 0, 2)
            assert (f.terms, f.truncation_order) == ((), 2.0)
            assert (code, out, err) == (0, "result: 0\n", "")
        else:
            with pytest.raises(ExpansionError, match=what):
                to_series(text, 0, 2)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_x_free_powers_answer(self):
        assert to_series("cos(0)^-1", 0, 4).terms == ((0.0, 1.0),)
        assert to_series("cos(0)^0.5", 0, 4).terms == ((0.0, 1.0),)
        assert to_series("(x - x + 2)^-2", 0, 4).terms == ((0.0, 0.25),)

    def test_exact_or_x_free_divisors_answer(self):
        assert to_series("x/cos(0)", 0, 4).terms == ((1.0, 1.0),)
        assert to_series("x/(1+1)", 0, 4).terms == ((1.0, 0.5),)
        assert to_series("x/(x - x + 4)", 0, 4).terms == ((1.0, 0.25),)


class TestOrderLimit:
    def test_api(self):
        with pytest.raises(ExpansionError, match="passes the limit"):
            to_series("exp(x)", 0, MAX_JET_ORDER + 1)
        with pytest.raises(ExpansionError, match="passes the limit"):
            to_lifted("x", 0, 10**7)
        f = to_series("exp(x)", 0, MAX_JET_ORDER)
        assert f.truncation_order == MAX_JET_ORDER

    @pytest.mark.parametrize("argv", [
        ["deriv", "--expr", "exp(x)", "--k", "0.5", "--order", "10000000"],
        ["lift", "--expr", "exp(x)", "--order", "3000000"]])
    def test_cli(self, capsys, argv):
        with deadline(1.0):
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "limit" in err


def _exp_sin_derivatives(n):
    """d^n/dx^n exp(x) sin(x) at 0, Im((1 + i)^n), as an int."""
    z = (1, 0)
    for _ in range(n):
        z = (z[0] - z[1], z[0] + z[1])
    return z[1]


class TestToLifted:
    """At phase 0 an expression lifts to its exact derivatives, each
    rounded once; lift_gen of its series rounds twice."""

    def test_exact_derivatives(self):
        rho = to_lifted("exp(x)", 0, 64)
        assert rho.keys == list(range(65)) and set(rho.vals) == {1.0}
        assert rho.truncation_order == 64 and rho.offset == 0
        rho = to_lifted("exp(x)*sin(x)", 0, 48)
        want = {n: float(_exp_sin_derivatives(n)) for n in range(49)}
        assert rho.values == {n: v for n, v in want.items() if v}
        # cos(x)^2 = (1 + cos 2x)/2: 2^(n-1) cos(n pi/2) for n >= 1
        rho = to_lifted("cos(x)^2", 0, 32)
        want = {0: 1.0, **{n: float((-1) ** (n // 2) * 2 ** (n - 1))
                          for n in range(2, 33, 2)}}
        assert rho.values == want
        # the double rounding this replaces: 13 of 65 values of exp(x)
        old = lift_gen(to_series("exp(x)", 0, 64))
        assert sum(v != 1.0 for v in old.vals) == 13

    def test_integer_bases_move_to_their_index(self):
        # x^3 exp(x): the i-th derivative at 0 is i!/(i-3)!
        rho = to_lifted("x^3*exp(x)", 0, 6)
        assert rho.values == {i: float(math.perm(i, 3)) for i in range(3, 10)}
        rho = to_lifted("x^-2*(exp(x) - 1 - x)", 0, 6)
        assert rho.values == {i: 1.0 / ((i + 1) * (i + 2)) for i in range(5)}

    @pytest.mark.parametrize("text, a", [("x^(1/3)*exp(x)", 0.0),
                                         ("2^0.5*exp(x)", 0.0),
                                         ("exp(x)*sin(x)", 0.5),
                                         ("(x - 1/2)^(-1/2)*cos(x)", 0.5)])
    def test_other_phases_and_floats_lift_their_series(self, text, a):
        assert to_lifted(text, a, 12) == lift_gen(to_series(text, a, 12))

    def test_refuses_what_lift_gen_refuses(self):
        for text in ("x^-1 + exp(x)", "x^-3*cos(x)"):
            with pytest.raises(ExponentError, match="no preimage"):
                lift_gen(to_series(text, 0, 8))
            with pytest.raises(ExponentError, match="no preimage"):
                to_lifted(text, 0, 8)
        # a term to_series drops below COEF_EPS is no term
        assert to_lifted("1e-301*x^-1 + 1", 0, 8).values == {0: 1.0}
        # a value past the double range, at once however far past
        for text in ("1e308*x^3", "x^1e300*exp(x)"):
            with deadline(1.0):
                with pytest.raises(GammaOverflowError):
                    to_lifted(text, 0, 8)

    def test_keeps_what_to_series_keeps(self):
        # a Taylor coefficient below COEF_EPS is no term, though its lift
        # 200! * 1e-301 would be a double
        for text in ("1e-301*x^200", "1e-301*x^200 + exp(x)"):
            assert to_lifted(text, 0, 4) == lift_gen(to_series(text, 0, 4))
        # a coefficient past the double range is refused as to_series does
        for expand in (to_series, to_lifted):
            with pytest.raises(ExpansionError, match="double range"):
                expand("1e300*1e300*x", 0, 4)

    def test_deriv_expands_once(self, monkeypatch, capsys):
        calls = []
        run = parser._expanded
        monkeypatch.setattr(parser, "_expanded",
                            lambda *a: calls.append(a) or run(*a))
        for via in (["--via", "lifted"], ["--compare-paths"], []):
            calls.clear()
            assert main(["deriv", "--expr", "exp(x)", "--k", "0.5", *via]) == 0
            assert len(calls) == 1, via
        capsys.readouterr()

    def test_cli_lifts_an_expression_exactly(self, capsys):
        assert main(["lift", "--expr", "exp(x)", "--order", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [v["value"] for v in doc["values"]] == [1] * 65


class TestFloatJets:
    """A jet holding a float (a float constant term upstream, or 2^0.5)
    runs the recurrences in Taylor form; against mpmath at 40 digits."""

    @pytest.mark.parametrize("order", [0, 8, 16])
    def test_against_mpmath(self, monkeypatch, order):
        import mpmath as mp

        calls = []
        for name in ("_exp_jet", "_sin_cos_jet"):
            def spy(b, top, taylor, loop=getattr(parser, name), name=name):
                if taylor:
                    calls.append(name)
                return loop(b, top, taylor)
            monkeypatch.setattr(parser, name, spy)
        half = mp.mpf(1) / 2
        cases = (
            ("exp(exp(x + 1/2))", 0.0, lambda t: mp.exp(mp.exp(t + half)),
             "_exp_jet"),
            ("exp(sin(x))", 0.3, lambda t: mp.exp(mp.sin(t)), "_exp_jet"),
            ("exp(2^0.5*x)", 0.0, lambda t: mp.exp(mp.mpf(2 ** 0.5) * t),
             "_exp_jet"),
            ("sin(exp(x + 1/2))", 0.0, lambda t: mp.sin(mp.exp(t + half)),
             "_sin_cos_jet"),
        )
        with mp.workdps(40):
            for text, a, fn, loop in cases:
                calls.clear()
                f = to_series(text, a, order)
                # at order 0 the jet is its constant, with no float to carry
                assert calls == ([loop] if order else [])
                ref = mp.taylor(fn, mp.mpf(a), order)
                # relative to the largest coefficient: exp(sin(x)) at 0.3
                # cancels to 2e-8 at x^16, which keeps its absolute accuracy
                scale = max(abs(c) for c in ref)
                for i, want in enumerate(ref):
                    got = f.coefficient(float(i))
                    assert abs(got - want) <= 1e-14 * scale, (text, i)
