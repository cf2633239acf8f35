import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_series_close
from fraclift.coeffseq import GenSeries, fmt17, monomial, rational
from fraclift.parser import to_series
from fraclift.rl import rl_series
from fraclift.errors import BasepointError, ExponentError, InputError
from fraclift.lifted import (
    LiftedSeq,
    lift_gen,
    lifted_from_json,
    lifted_to_json,
    project,
    shift,
)

SQRT_PI = math.sqrt(math.pi)


def seq(values):
    """A coefficient sequence: the lifted sequence at offset 0."""
    return LiftedSeq(0.0, 0, values)


class TestEmbed:
    """A sequence on the integers is its own embedding, at offset 0."""

    def test_restriction_is_identity(self):
        sigma = seq({1: 1.0, -4: 2.5})
        assert sigma.offset == 0
        assert sigma.on_integers() == sigma

    def test_zero(self):
        assert seq({}).on_integers().is_zero
        # off the integer lattice the restriction is 0
        assert shift(seq({1: 1.0}), 0.5).on_integers().is_zero

    def test_jet_restriction(self):
        sigma = lift_gen(monomial(2.0))
        assert sigma.on_integers() == sigma


class TestIndices:
    def test_only_integral_indices_are_taken(self):
        rho = seq({2.0: 1.0, Fraction(6, 2): 2.0, -1: 3.0})
        assert rho.keys == [-1, 2, 3]
        assert all(type(j) is int for j in rho.keys)
        # truncating 1.5 and -0.7 would put both values on the wrong points
        for j in (1.5, -0.7, Fraction(1, 3), math.nan, math.inf, "1", None):
            with pytest.raises(InputError, match="not an integer"):
                seq({j: 2.0, 0: 1.0})


class TestShift:
    def test_halves_compose_to_one(self):
        rho = seq({1: 1.0, 3: -2.0})
        assert shift(shift(rho, 0.5), 0.5) == shift(rho, 1.0)

    def test_zero_shift_identity(self):
        rho = seq({2: 1.0})
        assert shift(rho, 0.0) == rho

    def test_exact_cancellation(self):
        rho = shift(seq({0: 1.0}), 0.1)
        assert shift(shift(rho, 0.3), -0.3) == rho

    def test_bitwise_commutativity(self):
        rng = random.Random(1)
        for _ in range(300):
            rho = shift(seq({rng.randint(-8, 16): rng.uniform(-10, 10)
                             for _ in range(5)}), rng.uniform(-2, 2))
            a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
            assert shift(shift(rho, a), b) == shift(shift(rho, b), a)

    def test_offset_is_exact_rational(self):
        rho = seq({0: 1.0})
        out = rho
        for _ in range(3):
            out = shift(out, math.pi / 3.0)
        assert out.offset == 3 * Fraction(math.pi / 3.0)

    def test_values_never_touched(self):
        values = {5: 1.75, -2: 3.0}
        rho = LiftedSeq(0.0, 0, values)
        assert shift(rho, 1.2345).values == values


class TestProject:
    def test_reduces_to_sequence_projection_at_offset_zero(self):
        # entry i over i! at exponent i; the negative index is annihilated
        sigma = seq({0: 1.0, 2: 4.0, -3: 9.0})
        assert project(sigma).terms == ((0.0, 1.0), (2.0, 2.0))

    def test_identity_on_jets(self):
        f = monomial(1.0)
        assert_series_close(project(lift_gen(f)), f)

    def test_half_shift_of_x(self):
        rho = shift(lift_gen(monomial(1.0)), 0.5)
        out = project(rho)
        (e, c), = out.terms
        assert e == 0.5
        assert c == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_pole_annihilation(self):
        rho = LiftedSeq(0.0, 0, {-1: 5.0})
        assert project(rho).is_zero
        # non-integer offsets never hit the poles
        assert not project(shift(rho, 0.25)).is_zero

    def test_exponents_past_the_double_range_are_refused(self):
        for rho in (LiftedSeq(0.0, Fraction(1, 2), {10**400: 1.0}),
                    LiftedSeq(0.0, Fraction(1, 2), {0: 1.0, -10**400: 1.0}),
                    # the reader takes the index; the shift moves it out
                    shift(LiftedSeq(0.0, Fraction(1, 2), {10**308: 1.0}),
                          -1e308)):
            with pytest.raises(ExponentError):
                project(rho)
        # the last index whose Gamma argument j + 1 has a double projects
        top = 2**1024 - 2**970 - 2
        assert project(LiftedSeq(0.0, 0, {top: 1.0})).is_zero


class TestLiftGen:
    def test_jet_input_matches_embedding(self):
        # a jet lifts to its sequence on the integers, entry i = i! * c_i
        assert lift_gen(monomial(1.0)) == seq({1: 1.0})
        assert lift_gen(monomial(3.0, 0.5)) == seq({3: 3.0})

    def test_half_lattice(self):
        rho = lift_gen(monomial(-0.5))
        assert rho.offset == Fraction(1, 2)
        assert set(rho.values) == {0}
        assert rho.values[0] == pytest.approx(SQRT_PI, rel=1e-13)

    def test_negative_integer_exponent_rejected(self):
        with pytest.raises(ExponentError):
            lift_gen(monomial(-2.0))
        with pytest.raises(ExponentError):
            lift_gen(GenSeries(0.0, ((1.0, 1.0), (-1.0, 2.0))))

    def test_round_trip_general_lattices(self):
        rng = random.Random(2)
        for _ in range(100):
            phase = rng.uniform(0.0, 1.0)
            exps = sorted(rng.sample(range(-3, 12), rng.randint(1, 6)))
            f = GenSeries(0.0, tuple((e + phase, rng.uniform(-10, 10))
                                     for e in exps))
            try:
                rho = lift_gen(f)
            except ExponentError:
                assert any(abs(e - round(e)) < 1e-9 and e < 0
                           for e, _ in f.terms)
                continue
            assert_series_close(project(rho), f)

    def test_linearity(self):
        f = GenSeries(0.0, ((-0.5, 2.0), (1.5, 1.0)))
        g = GenSeries(0.0, ((0.5, -1.0), (1.5, 3.0)))
        assert_series_close(project(lift_gen(f) + lift_gen(g)),
                            project(lift_gen(f + g)))


class TestLiftedAlgebra:
    def test_add_requires_same_lattice(self):
        a = shift(seq({0: 1.0}), 0.5)
        b = seq({0: 1.0})
        with pytest.raises(BasepointError):
            a + b

    def test_linearity_through_shift(self):
        a = seq({0: 1.0, 2: 2.0})
        b = seq({1: -1.0, 2: 1.0})
        k = 0.7
        assert shift(a + b, k) == shift(a, k) + shift(b, k)
        assert shift(3.0 * a, k) == 3.0 * shift(a, k)

    def test_off_lattice_restriction_is_zero(self):
        rho = shift(seq({0: 1.0}), 0.5)
        assert rho.on_integers().is_zero


class TestTruncationOrder:
    """A lifted jet keeps its truncation order N, exactly; shift lowers it
    by k, so project reports N - k as rl_series does."""

    def test_both_routes_report_the_order(self):
        f = to_series("exp(x)", 0, 8)
        rho = lift_gen(f)
        assert rho.truncation_order == 8
        assert project(rho).truncation_order == 8.0
        for k in (0.5, 1 / 3, -1.5, 2.0, 0.25):
            lifted = project(shift(rho, k))
            assert lifted.truncation_order == rl_series(f, k).truncation_order
        assert project(shift(rho, 1 / 3)).truncation_order == 23 / 3

    def test_shift_commutes_exactly(self):
        rho = lift_gen(to_series("sin(x)", 0, 9))
        once = shift(rho, 0.3)
        assert once.truncation_order == Fraction(87, 10)
        assert shift(shift(rho, 0.1), 0.2) == shift(shift(rho, 0.2), 0.1) == once
        assert shift(shift(rho, 1 / 3), -1 / 3) == rho

    def test_exact_series_stay_exact(self):
        rho = lift_gen(monomial(0.5))
        assert rho.truncation_order is None
        assert project(shift(rho, 0.5)).truncation_order is None
        assert LiftedSeq(0, 0, {0: 1.0}).truncation_order is None

    def test_sums_keep_the_lower_order_and_products_theirs(self):
        a = lift_gen(to_series("exp(x)", 0, 8))
        b = lift_gen(to_series("cos(x)", 0, 5))
        assert (a + b).truncation_order == 5
        assert (a + lift_gen(to_series("1 + x"))).truncation_order == 8
        assert (2.0 * a).truncation_order == 8

    def test_lift_file_project_round_trip(self):
        rho = shift(lift_gen(to_series("exp(x)", 0, 8)), 0.5)
        text = lifted_to_json(rho)
        assert text.endswith(', "truncation_order": 7.5}')
        back = lifted_from_json(text)
        assert back == rho
        assert project(back) == project(rho)
        assert project(back).truncation_order == 7.5
        # an order whose double `rational` reads otherwise is written twice
        odd = LiftedSeq(0, 0, {0: 1.0}, Fraction(1, 3001))
        text = lifted_to_json(odd)
        assert text.endswith('"truncation_order_exact": "1/3001"}')
        assert lifted_from_json(text) == odd
        for bad in ('"eight"', 'Infinity'):
            with pytest.raises(InputError):
                lifted_from_json(text.replace(fmt17(1 / 3001), bad, 1))


class TestLiftedJson:
    def test_round_trip(self):
        rho = shift(seq({1: 1.0, -2: 0.5}), 0.75)
        back = lifted_from_json(lifted_to_json(rho))
        assert back == rho

    def test_inexact_offset_survives_reload(self):
        # 0.1 + 0.2 as exact rationals is no double: the float alone reloads
        # 2^-55 away, and D2 (shift composition) breaks across a file
        rho = shift(shift(seq({0: 1.0, 3: 2.0}), 0.1), 0.2)
        text = lifted_to_json(rho)
        assert '"offset_exact": "%s"' % rho.offset in text
        back = lifted_from_json(text)
        assert back.offset == rho.offset
        assert back == rho
        assert lifted_from_json(lifted_to_json(shift(back, 0.7))) == shift(rho, 0.7)

    def test_files_without_exact_offset_stay_readable(self):
        # without "offset_exact" the float offset is read by `rational`, as
        # the float entry reads a phase: the double of 0.1 + 0.2 is 3/10
        rho = lifted_from_json('{"basepoint": 0, "offset": 0.30000000000000004, '
                               '"values": [{"index": 0, "value": 1}]}')
        assert rho.offset == Fraction(3, 10)
        for bad in ('"1/0"', '"abc"', '3', '"1/3"'):
            with pytest.raises(InputError):
                lifted_from_json('{"basepoint": 0, "offset": 0.5, "offset_exact": '
                                 '%s, "values": []}' % bad)

    def test_exact_offset_past_the_double_range_projects(self):
        # 1/10^400 reads back as offset 0.0; its denominator is no double,
        # so the pole test may not convert it to one
        rho = lifted_from_json('{"basepoint": 0, "offset": 0, "offset_exact": '
                               '"1/%d", "values": [{"index": 0, "value": 1}, '
                               '{"index": 3, "value": 2}]}' % 10**400)
        f = project(rho)
        assert f.exponents() == [0.0, 3.0]
        assert [c for _, c in f.terms] == [1.0, pytest.approx(1 / 3, rel=1e-15)]

    def test_float_offsets_enter_as_rationals(self):
        text = ('{"basepoint": 0, "offset": 0.3333333333333333, '
                '"values": [{"index": 1, "value": 1}]}')
        rho = lifted_from_json(text)
        assert rho.offset == Fraction(1, 3)
        assert rho == LiftedSeq(0, 1 / 3, {1: 1.0})
        assert rho == shift(LiftedSeq(0, 0, {1: 1.0}), 1 / 3)
        f = project(rho)
        assert f.phase == Fraction(2, 3)
        assert f.exponents() == [2 / 3]
        # an int or Fraction offset stays exact; pi/3 keeps its binary value
        assert LiftedSeq(0, 10**30, {}).offset == 10**30
        assert LiftedSeq(0, Fraction(1, 3) + Fraction(1, 2**60), {}).offset \
            == Fraction(1, 3) + Fraction(1, 2**60)
        assert LiftedSeq(0, math.pi / 3, {}).offset == Fraction(math.pi / 3)

    def test_binary_offset_near_a_rational_is_written_exactly(self):
        # the double's own value, 2^-54 from 3/10: `rational` would read the
        # float alone as 3/10, so the file states the offset a second time
        offset = Fraction(0.1 + 0.2)
        rho = LiftedSeq(0, offset, {0: 1.0})
        text = lifted_to_json(rho)
        assert '"offset_exact": "%s"' % offset in text
        assert lifted_from_json(text) == rho

    def test_canonical_text(self):
        rho = LiftedSeq(0.0, Fraction(1, 2), {0: 1.0})
        assert lifted_to_json(rho) == (
            '{"basepoint": 0, "offset": 0.5, '
            '"values": [{"index": 0, "value": 1}]}')

    def test_deterministic(self):
        rho = shift(seq({3: math.pi, -1: 1 / 3}), math.pi / 3)
        assert lifted_to_json(rho) == lifted_to_json(rho)

    def test_malformed_input_raises_input_error(self):
        for text in ('', '{"basepoint": 0, "offset": 0.5}',
                     '{"basepoint": 0, "offset": 0.5, '
                     '"values": [{"index": "1", "value": 1}]}',
                     '{"basepoint": 0, "offset": 0.5, '
                     '"values": [{"index": 1.5, "value": 1}]}',
                     '{"basepoint": 0, "offset": 0.5, '
                     '"values": [{"index": Infinity, "value": 1}]}'):
            with pytest.raises(InputError):
                lifted_from_json(text)


# Offsets p/q with q <= 1000, the doubles up to 8 ulps from such a p/q (so
# within and just past `rational`'s 4 eps) at their binary values, arbitrary
# doubles, and p/q + n 2^-60: each must come back from its file exactly.
def _ulps_from(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return Fraction(x)


_near = st.builds(lambda p, q, n: _ulps_from(p / q, n), st.integers(-3000, 3000),
                  st.integers(1, 1000), st.integers(-8, 8))
_exact = st.builds(Fraction, st.integers(-3000, 3000), st.integers(1, 1000))
_binary = st.floats(-1e6, 1e6, allow_nan=False).map(Fraction)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_exact, _near, _binary,
                 st.builds(lambda p, q, n: Fraction(p, q) + Fraction(n, 2**60),
                           st.integers(-30, 30), st.integers(1, 12),
                           st.integers(-64, 64))))
def test_offsets_round_trip_through_json(offset):
    rho = LiftedSeq.keyed(0.0, offset, {0: 1.0, 3: -2.5})
    back = lifted_from_json(lifted_to_json(rho))
    assert back.offset == offset and back == rho
    # the float alone is read as the rational it stands for
    assert LiftedSeq(0.0, float(offset)).offset == rational(float(offset))
