import json
import math
from fractions import Fraction

import pytest

from conftest import assert_seq_close, assert_series_close
from fraclift.coeffseq import (
    GenSeries,
    int_antiderivative,
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


class TestIntCalculusHelpers:
    def test_derivative_exact(self):
        f = GenSeries(0.0, ((0.0, 7.0), (2.0, -2.0), (4.0, 3.0)))
        assert int_derivative(f, 1).terms == ((1.0, -4.0), (3.0, 12.0))
        assert int_derivative(f, 3).terms == ((1.0, 72.0),)

    def test_derivative_kills_low_terms_exactly(self):
        f = GenSeries(0.0, ((0.0, 3.0), (1.0, 2.0)))
        assert int_derivative(f, 2).is_zero

    def test_antiderivative(self):
        f = GenSeries(0.0, ((1.0, 2.0),))
        assert int_antiderivative(f, 1).terms == ((2.0, 1.0),)
        with pytest.raises(ExponentError):
            int_antiderivative(GenSeries(0.0, ((-1.0, 1.0),)), 1)

    def test_order_must_be_a_nonnegative_int(self):
        # a negative n used to run no step and move the keys the wrong way
        f = to_series("x^2 + 3*x")
        for fn in (int_derivative, int_antiderivative):
            for n in (-1, -2, 0.5, 1.0, "1"):
                with pytest.raises(ExponentError, match="nonnegative integer"):
                    fn(f, n)
            assert fn(f, 0) == f


class TestJson:
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
