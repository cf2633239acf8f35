import json
import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_seq_close, assert_series_close, deadline
from fraclift import coeffseq
from fraclift.coeffseq import (
    GenSeries,
    fmt17,
    int_derivative,
    monomial,
    series_eval,
    series_from_json,
    series_to_json,
)
from fraclift.errors import (
    BasepointError,
    EvalDomainError,
    ExponentError,
    FracliftError,
    GammaOverflowError,
    InputError,
    LatticeError,
    TruncationError,
)
from fraclift.lifted import LiftedSeq, lift_gen, project, shift
from fraclift.oracle import compare
from fraclift.parser import to_series
from fraclift.rl import rl_series


def seq(values, basepoint=0.0):
    """A coefficient sequence: the lifted sequence at offset 0."""
    return LiftedSeq(basepoint, 0, values)


class TestCoeffSeq:
    def test_add_identity(self):
        s = seq({0: 1.0, 1: 2.0})
        assert s + seq({}) == s

    def test_scale_zero(self):
        s = seq({2: 3.0, -1: 4.0})
        assert (0.0 * s).is_zero

    def test_pointwise_add(self):
        a = seq({0: 1.0, 1: 2.0})
        b = seq({1: 3.0})
        assert (a + b).values == {0: 1.0, 1: 5.0}

    def test_basepoint_mismatch(self):
        with pytest.raises(BasepointError):
            seq({0: 1.0}) + seq({0: 1.0}, basepoint=1.0)

    def test_zero_entries_dropped(self):
        s = seq({0: 0.0, 1: 1e-301, 2: 1.0})
        assert s.values == {2: 1.0}

    def test_integer_shift(self):
        # result(i) = s(i + k): an integer shift, restricted to the integers
        s = seq({0: 1.0, 3: 2.0})
        assert shift(s, 1).on_integers().values == {-1: 1.0, 2: 2.0}
        assert shift(s, -2).on_integers().values == {2: 1.0, 5: 2.0}


class TestGenSeries:
    def test_sorted_and_merged(self):
        f = GenSeries(0.0, ((2.0, 1.0), (0.0, 3.0), (2.0, 4.0)))
        assert f.terms == ((0.0, 3.0), (2.0, 5.0))

    def test_lattice_rejection(self):
        with pytest.raises(LatticeError):
            GenSeries(0.0, ((0.5, 1.0), (0.25, 1.0)))

    def test_single_lattice_ok(self):
        GenSeries(0.0, ((-0.5, 1.0), (1.5, 2.0), (3.5, 1.0)))

    def test_scalar_ops(self):
        f = monomial(2.0, 3.0)
        assert (2.0 * f).terms == ((2.0, 6.0),)
        g = f + monomial(1.0, 1.0)
        assert g.terms == ((1.0, 1.0), (2.0, 3.0))


class TestFiniteValues:
    """c * x, x + y and the LiftedSeq constructor pass their values through
    the one step of the float entry and the Gamma layers: a value that is
    not a finite double raises InputError, where a NaN product used to
    vanish and an infinite one to be stored."""

    def test_scaling_by_a_non_finite_number_is_refused(self):
        f = monomial(1.0, 2.0)
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match="not a finite double"):
                f * c
            with pytest.raises(InputError, match="not a finite double"):
                c * seq({0: 1.0})
        with pytest.raises(InputError, match="a product is inf"):
            f * 1e308
        assert (f * 1e-310).is_zero  # below COEF_EPS, as before

    def test_overflowing_sum_is_refused(self):
        big = monomial(1.0, 1e308)
        with pytest.raises(InputError, match="a sum is inf"):
            big + big
        with pytest.raises(InputError, match="a sum is inf"):
            seq({0: 1e308}) + seq({0: 1e308})
        assert (big + -1.0 * big).is_zero

    def test_lifted_constructor_refuses_non_finite_values(self):
        for values in ({1: math.inf, 2: math.nan}, {2: math.nan},
                       {0: 1.0, 1: -math.inf}):
            with pytest.raises(InputError, match="a lifted value is"):
                LiftedSeq(0, 0, values)

    @pytest.mark.parametrize("call", [
        lambda: GenSeries(math.nan, [(1.0, 1.0)]),
        lambda: LiftedSeq(math.inf, 0, {0: 1.0}),
        lambda: GenSeries(0.0, [(1.0, 1.0)], truncation_order=math.nan),
        lambda: GenSeries(0.0, [(0.5, "x")]),
        lambda: LiftedSeq(0, 0, {1: "x"}),
        lambda: LiftedSeq(0, "abc"),
        lambda: series_eval(monomial(0.5), "a"),
        lambda: shift(lift_gen(monomial(0.5)), 10**400),
    ], ids=["nan-basepoint", "inf-lifted-basepoint", "nan-order",
            "string-coefficient", "string-lifted-value", "string-offset",
            "string-point", "shift-past-double-range"])
    def test_constructors_and_calls_end_in_a_library_error(self, call):
        # each used to be accepted, or to raise a bare ValueError or
        # OverflowError
        with pytest.raises(FracliftError):
            call()

    def test_keyed_instances_stay_raw(self):
        # the keyed constructors check nothing: verify's residuals read NaN
        f = GenSeries.keyed(0.0, Fraction(0), {1: math.nan, 2: 1e-310})
        assert f.keys == [1, 2] and math.isnan(f.vals[0])

    def test_integer_derivative_refuses_overflow(self):
        # as rl_series at the same integer order does
        for refuse in (lambda f: int_derivative(f, 1), lambda f: rl_series(f, 1)):
            with pytest.raises(GammaOverflowError, match="a coefficient is inf"):
                refuse(monomial(10.0, 1e308))


class TestViews:
    def test_views_are_read_only_and_built_once(self):
        f = to_series("1 + 2*x")
        rho = lift_gen(f)
        with pytest.raises(TypeError):
            f.coeffs[0] = 5.0
        with pytest.raises(TypeError):
            rho.values[0] = 5.0
        with pytest.raises(TypeError):
            del f.coeffs[1]
        assert f.coeffs is f.coeffs and rho.values is rho.values
        assert f.coeffs == {0: 1.0, 1: 2.0} and rho.values == {0: 1.0, 1: 2.0}
        assert (f.keys, f.vals) == ([0, 1], [1.0, 2.0])

    def test_columns_are_sorted_whatever_the_input_order(self):
        f = GenSeries(0.0, ((3.0, 1.0), (-1.0, 2.0), (3.0, 4.0), (0.0, 1e-301)))
        assert (f.keys, f.vals) == ([-1, 3], [2.0, 5.0])
        rho = LiftedSeq(0, 0, {5: 1.0, -2: 3.0, 1: 0.0})
        assert (rho.keys, rho.vals) == ([-2, 5], [3.0, 1.0])


class TestProjection:
    def test_divides_by_factorials(self):
        f = project(seq({0: 1.0, 1: 1.0, 2: 1.0}))
        assert f.terms == ((0.0, 1.0), (1.0, 1.0), (2.0, 0.5))

    def test_negative_indices_annihilated(self):
        assert project(seq({-1: 7.0})).is_zero
        assert project(seq({})).is_zero
        mixed = project(seq({-3: 5.0, 1: 2.0}))
        assert mixed.terms == ((1.0, 2.0),)

    def test_lift_jet_multiplies_factorials(self):
        # a jet lifts to a sequence on the integers (offset 0)
        f = GenSeries(0.0, ((0.0, 1.0), (1.0, 1.0), (2.0, 0.5)))
        assert lift_gen(f) == seq({0: 1.0, 1: 1.0, 2: 1.0})
        assert lift_gen(monomial(3.0)) == seq({3: 6.0})

    def test_lift_jet_rejects_non_jets(self):
        # a non-integer exponent lifts off the integers, where the sequence
        # restricts to zero; a negative integer one has no preimage
        half = lift_gen(monomial(0.5))
        assert half.offset == Fraction(1, 2) and half.on_integers().is_zero
        with pytest.raises(ExponentError):
            lift_gen(monomial(-1.0))

    def test_round_trips(self):
        import random
        rng = random.Random(0)
        for _ in range(100):
            entries = {rng.randint(-8, 16): rng.uniform(-10, 10)
                       for _ in range(rng.randint(1, 10))}
            sigma = seq(entries)
            back = lift_gen(project(sigma))
            assert all(i >= 0 for i in back.values) and back.offset == 0
            expected = seq({i: v for i, v in entries.items() if i >= 0})
            assert_seq_close(back, expected)

            exps = rng.sample(range(0, 17), rng.randint(1, 8))
            f = GenSeries(0.0, tuple((float(e), rng.uniform(-10, 10))
                                     for e in exps))
            assert_series_close(project(lift_gen(f)), f)

    def test_linearity(self):
        a = seq({-2: 1.0, 0: 2.0, 5: -3.0})
        b = seq({0: 4.0, 3: 1.5})
        assert_series_close(project(a + b), project(a) + project(b))
        assert_series_close(project(2.5 * a), 2.5 * project(a))


class TestSeriesEval:
    def test_exp_jet_at_one(self):
        f = GenSeries(0.0, tuple((float(i), 1.0 / math.factorial(i))
                                 for i in range(13)))
        assert series_eval(f, 1.0) == pytest.approx(math.e, abs=1e-8)

    def test_sqrt_term(self):
        assert series_eval(monomial(0.5), 4.0) == 2.0

    def test_domain_errors(self):
        with pytest.raises(EvalDomainError):
            series_eval(monomial(-0.5), 0.0)
        with pytest.raises(EvalDomainError):
            series_eval(monomial(0.5), -1.0)
        with pytest.raises(EvalDomainError):
            series_eval(GenSeries(0.0, ((-2.0, 1.0),)), 0.0)

    def test_integer_exponents_allow_negative_argument(self):
        f = GenSeries(0.0, ((3.0, 1.0),))
        assert series_eval(f, -2.0) == -8.0

    def test_near_integer_exponent_below_basepoint(self):
        # three derivatives of order 1/3 (the double) leave x^2 at exponent
        # 1 exactly: the order reads as 1/3, and the phases add exactly
        f = GenSeries(0.0, ((2.0, 1.0),))
        for _ in range(3):
            f = rl_series(f, 1.0 / 3.0)
        assert f.exponents() == [1.0] and f.phase == 0
        assert series_eval(f, -0.5) == pytest.approx(-1.0, rel=1e-12)

    def test_evaluation_at_basepoint(self):
        f = GenSeries(1.0, ((0.0, 5.0), (2.0, 3.0)))
        assert series_eval(f, 1.0) == 5.0
        gapped = GenSeries(0.0, ((0.0, 5.0), (9.0, 3.0)))
        assert [series_eval(gapped, 0.0) for _ in range(2)] == [5.0, 5.0]

    def test_value_past_double_range_is_domain_error(self):
        # each power is finite; the product or the sum is not
        for f, x in ((monomial(-0.5, 1e308), 1e-10),
                     (GenSeries(0.0, ((0.0, 1e308), (1.0, 1e308))), 1.0),
                     (GenSeries(0.0, ((0.0, 1e308), (9.0, 1e308))), 1.0),
                     (monomial(1.0), math.nan)):
            for _ in range(2):
                with pytest.raises(EvalDomainError, match="not a finite"):
                    series_eval(f, x)
        with pytest.raises(EvalDomainError, match="exceeds double range"):
            series_eval(monomial(400.0), 10.0)

    def test_value_does_not_depend_on_earlier_calls(self):
        # 20 terms, gapped, with holes, evenly spaced: the first call, a
        # later one and a call on an equal, never evaluated series all give
        # the same double
        coeffs = {3 * n + n % 4: (-1.0) ** n / (n + 1) for n in range(20)}
        holes = {n: c for n, c in enumerate(coeffs.values()) if n % 7 != 3}
        even = {3 * n: c for n, c in enumerate(coeffs.values())}
        for keys in (coeffs, holes, even, {n + 10 * (n > 9): c
                                           for n, c in coeffs.items()}):
            for x in (0.3, 0.7, 1.9):
                f, g = (GenSeries.keyed(0.0, Fraction(1, 3), dict(keys))
                        for _ in range(2))
                first = series_eval(f, x)
                assert series_eval(f, x) == first
                series_eval(g, 0.5)
                assert series_eval(g, x) == first

    def test_wide_keys_above_one_do_not_overflow(self):
        # keys -160..160 at dx = 10: every term is finite, and a Horner pass
        # in dx from the top would reach 10^320 on the way
        f = GenSeries.keyed(0.0, Fraction(0),
                            {n: 1.0 for n in range(-160, 161)})
        want = math.fsum(10.0**n for n in range(-160, 161))
        for x in (0.1, 10.0, 10.0):
            assert series_eval(f, x) == pytest.approx(want, rel=1e-13)


def _counting_pow(monkeypatch):
    calls = []
    real = math.pow

    def pow_(x, y):
        calls.append(y)
        return real(x, y)

    monkeypatch.setattr(coeffseq.math, "pow", pow_)
    return calls


class TestEvalCost:
    """The shape of series_eval's cost, counted, so no timing noise hides a
    return to one power per term or to work that grows with the key span."""

    def test_evenly_spaced_keys_take_two_powers(self, monkeypatch):
        calls = _counting_pow(monkeypatch)
        for g in (1, 2):
            for x in (0.5, 1.5):
                f = GenSeries.keyed(0.0, Fraction(1, 3),
                                    {g * n: 1.0 / (n + 1) for n in range(300)})
                del calls[:]
                series_eval(f, x)  # the first evaluation of f
                assert len(calls) <= 2

    def test_sparse_keys_cost_by_terms_not_span(self, monkeypatch):
        calls = _counting_pow(monkeypatch)
        for keys in ((0, 10**6), (0, 10**6, 10**6 + 3)):
            f = GenSeries.keyed(0.0, Fraction(1, 2), dict.fromkeys(keys, 1.0))
            del calls[:]
            tracemalloc.start()
            try:
                values = [series_eval(f, x) for x in (0.5, 0.5, 1.0 + 1e-7)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(calls) <= 3 * len(keys)
            assert peak < 64 * 1024
            assert values[0] == values[1] == pytest.approx(0.5**0.5,
                                                           rel=1e-15)


# Accuracy of series_eval against a 60-digit reference: over n terms, with
# S = sum |c_n dx^e_n|,
#
#     |series_eval - exact| <= C (n + 2) u S,   C = 4, u = 2^-53,
#
# 2 rounding units per Horner step, 1 more for dx^g or its inverse (or, term
# by term, for each power), and the first power and the last product.
# exact sums at the exponents the evaluator is given: Horner shifts the
# double of e_lo (|dx| <= 1) or of e_hi (|dx| > 1) by integers, a termwise
# sum takes the double of each e_n.
_C = 4
_U = sys.float_info.epsilon / 2


def _reference(terms, dx):
    """(sum, sum of |term|) of c * dx^e over exact (e, c) pairs."""
    with mpmath.workdps(60):
        parts = []
        for e, c in terms:
            e = Fraction(e)
            parts.append(mpmath.mpf(c) * mpmath.power(
                mpmath.mpf(dx), mpmath.mpf(e.numerator) / e.denominator))
        return mpmath.fsum(parts), mpmath.fsum(abs(t) for t in parts)


@st.composite
def _eval_cases(draw):
    q = draw(st.integers(1, 12))
    phase = Fraction(draw(st.integers(0, q - 1)), q)
    kind = draw(st.sampled_from(["gaps", "even", "run", "sparse"]))
    if kind != "sparse":
        start = draw(st.integers(-60, 30))
        if kind == "gaps":  # keys with gaps of 1..50 around 0
            gaps = draw(st.lists(st.integers(1, 50), max_size=12))
        elif kind == "even":  # every g-th key
            gaps = [draw(st.integers(1, 50))] * draw(st.integers(1, 40))
        else:  # a long run of consecutive keys
            gaps = [1] * draw(st.integers(255, 296))
        keys = [start]
        for g in gaps:
            keys.append(keys[-1] + g)
        mag = draw(st.floats(0.25, 4.0))
        span = keys[-1] - keys[0]
        # no term leaves the normal doubles
        assume(span * abs(math.log(mag)) < 600.0
               and max(map(abs, keys)) * abs(math.log(mag)) < 600.0)
    else:  # a gap of 10^6: dx near 1
        keys = [draw(st.integers(-3, 3))]
        keys += [keys[0] + 10**6] + [keys[0] + 10**6 + draw(
            st.integers(1, 5))] * draw(st.booleans())
        mag = 1.0 + draw(st.floats(-2e-4, 2e-4))
    coefs = draw(st.lists(st.floats(-4.0, 4.0).filter(lambda c: abs(c) > 1e-3),
                          min_size=len(keys), max_size=len(keys)))
    if draw(st.booleans()):  # neighbours that cancel
        coefs = [c if i % 2 == 0 else -coefs[i - 1] * (1 + 2**-30)
                 for i, c in enumerate(coefs)]
    sign = -1.0 if phase == 0 and draw(st.booleans()) else 1.0
    return phase, dict(zip(keys, coefs)), sign * mag


@settings(max_examples=200, deadline=None)
@given(_eval_cases())
def test_eval_error_within_horner_bound(case):
    phase, coeffs, dx = case
    keys = sorted(coeffs)
    value = series_eval(GenSeries.keyed(0.0, phase, coeffs), dx)
    if len({b - a for a, b in zip(keys, keys[1:])}) <= 1:  # Horner
        n_a = keys[0] if abs(dx) <= 1.0 else keys[-1]
        e_a = Fraction(float(n_a + phase))
        exps = [e_a + n - n_a for n in keys]
    else:
        exps = [Fraction(float(n + phase)) for n in keys]
    want, scale = _reference([(e, coeffs[n]) for e, n in zip(exps, keys)], dx)
    assert abs(value - want) <= _C * (len(keys) + 2) * _U * scale


class TestIntCalculusHelpers:
    def test_derivative_exact(self):
        f = GenSeries(0.0, ((0.0, 7.0), (2.0, -2.0), (4.0, 3.0)))
        assert int_derivative(f, 1).terms == ((1.0, -4.0), (3.0, 12.0))
        assert int_derivative(f, 3).terms == ((1.0, 72.0),)

    def test_derivative_kills_low_terms_exactly(self):
        f = GenSeries(0.0, ((0.0, 3.0), (1.0, 2.0)))
        assert int_derivative(f, 2).is_zero

    def test_antiderivative(self):
        # a negative order is the antiderivative of that many folds
        f = GenSeries(0.0, ((1.0, 2.0),))
        assert int_derivative(f, -1).terms == ((2.0, 1.0),)
        assert int_derivative(f, -2).terms == ((3.0, 1.0 / 3.0),)
        with pytest.raises(ExponentError, match="exponent -1"):
            int_derivative(GenSeries(0.0, ((-1.0, 1.0),)), -1)
        # a term two steps below -1 meets it on the second step
        with pytest.raises(ExponentError, match="exponent -1"):
            int_derivative(GenSeries(0.0, ((-2.0, 1.0),)), -2)
        g = to_series("exp(x)", 0, 8)
        back = int_derivative(int_derivative(g, -3), 3)
        assert back.truncation_order == 8
        assert_series_close(back, g, rel=1e-15)

    def test_antiderivative_drops_underflow(self):
        # 1e-290 / 40! is below COEF_EPS, so no key is kept, as GenSeries.keyed
        # requires and the positive orders already did
        g = int_derivative(GenSeries(0.0, ((0.0, 1e-290),)), -40)
        assert g.coeffs == {} and g.is_zero

    @pytest.mark.parametrize("f, n", [(monomial(2.0), 10**9),
                                      (monomial(0.5), -10**9)])
    def test_huge_order_ends_at_the_zero_series(self, f, n):
        # each term stops at its first zero coefficient: x^2 at its third
        # derivative, x^0.5 where 1/Gamma underflows
        with deadline(1.0):
            g = int_derivative(f, n)
        assert g.is_zero

    def test_huge_order_ends_at_the_overflow(self):
        # the coefficient of x^(0.5 - n) passes the double range near n = 170
        with deadline(1.0):
            with pytest.raises(GammaOverflowError, match="a coefficient is inf"):
                int_derivative(monomial(0.5), 10**9)

    def test_order_past_the_double_range_on_a_jet(self):
        # the truncation order N - n has no double; it was a bare
        # OverflowError
        with pytest.raises(ExponentError, match="passes the double range"):
            int_derivative(to_series("exp(x)", 0, 4), 10**400)
        assert int_derivative(to_series("exp(x)", 0, 4),
                              10**300).truncation_order == -1e300

    def test_finite_results_are_unchanged(self):
        # the stop at a decided coefficient leaves every finite result's bits
        for f in (to_series("exp(x) + x^5", 0, 12),
                  to_series("x^(1/3)*(exp(x) + x^5)", 0, 12)):
            for n in (1, 4, 7, -3):
                want = []
                for key, (e, c) in zip(f.keys, f.terms):
                    for _ in range(n):  # every step, as before the stop
                        c *= e
                        e -= 1.0
                    for _ in range(-n):
                        e += 1.0
                        c /= e
                    if c:
                        want.append((key - n, c))
                g = int_derivative(f, n)
                assert list(zip(g.keys, g.vals)) == want

    def test_order_must_be_an_int(self):
        f = to_series("x^2 + 3*x")
        for n in (0.5, 1.0, -1.0, "1", None):
            with pytest.raises(ExponentError, match="not an integer"):
                int_derivative(f, n)
        assert int_derivative(f, 0) == f


class TestJson:
    def test_non_finite_numbers_are_refused(self):
        for v in (math.inf, -math.inf, math.nan):
            with pytest.raises(GammaOverflowError):
                fmt17(v)
        f = GenSeries.keyed(0.0, Fraction(0), {1: math.inf})
        with pytest.raises(GammaOverflowError):
            series_to_json(f)

    def test_canonical_output(self):
        f = GenSeries(0.0, ((0.5, 1.1283791670955126),))
        text = series_to_json(f)
        assert text == ('{"basepoint": 0, "terms": '
                        '[{"exp": 0.5, "coef": 1.1283791670955126}]}')
        assert json.loads(text)["terms"][0]["exp"] == 0.5

    def test_round_trip(self):
        f = GenSeries(1.5, ((-0.5, 2.0), (2.5, -1.25)))
        assert series_from_json(series_to_json(f)) == f

    def test_truncation_order_round_trip(self):
        f = to_series("exp(x)", 0, 8)
        text = series_to_json(f)
        assert text.endswith('"truncation_order": 8}')
        back = series_from_json(text)
        assert back == f and back.truncation_order == 8.0
        with pytest.raises(TruncationError):  # the oracle's guard still acts
            compare(back, 0.5, [3.0])
        old = text[:text.index(', "truncation_order"')] + "}"
        assert series_from_json(old).truncation_order is None
        with pytest.raises(InputError):
            series_from_json(old[:-1] + ', "truncation_order": "eight"}')

    def test_deterministic(self):
        f = GenSeries(0.0, ((3.0, 1 / 3), (0.0, math.pi)))
        assert series_to_json(f) == series_to_json(f)

    def test_malformed_input_raises_input_error(self):
        for text in ('', '{"basepoint": 0}', '{"basepoint": 0, "terms": 3}',
                     '{"basepoint": 0, "terms": [{"exp": "a", "coef": 1}]}',
                     '{"basepoint": 0, "terms": [{"exp": NaN, "coef": 1}]}',
                     '{"basepoint": Infinity, "terms": []}'):
            with pytest.raises(InputError):
                series_from_json(text)
