"""The exact lattice type: a series is (basepoint, phase, {n: coef}, order),
floats join it once at the float entry, and every later step works on keys."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclift.cli import main
from fraclift.coeffseq import (
    GenSeries,
    has_double,
    monomial,
    rational,
    series_eval,
    series_from_json,
    series_to_json,
)
from fraclift.errors import ExpansionError, ExponentError, InputError, LatticeError
from fraclift.gamma import gamma_chain, is_pole
from fraclift.lifted import (
    LiftedSeq,
    lift_gen,
    lifted_from_json,
    lifted_to_json,
    project,
    shift,
)
from fraclift.parser import to_series
from fraclift.rl import annihilated_run, rl_series
from fraclift.verify import series_residual


class TestRational:
    def test_small_denominators_read_exactly(self):
        for q in range(1, 13):
            for p in range(-3 * q, 3 * q + 1):
                assert rational(p / q) == Fraction(p, q)
        assert rational(0.1) == Fraction(1, 10)
        assert rational(0.35) == Fraction(7, 20)

    def test_a_few_roundings_away_still_read(self):
        # 0.85 - 1 and 0.1 + 0.2 are each an ulp or two off the double of
        # -3/20 and 3/10
        assert rational(0.85 - 1.0) == Fraction(-3, 20)
        assert rational(0.1 + 0.2) == Fraction(3, 10)
        assert rational(-5.55e-17) == 0

    def test_other_doubles_keep_their_binary_value(self):
        for x in (math.pi / 3, 517 / 1024, 1 / 1001, 1e300, -2.5e-3 / 7):
            assert rational(x) == Fraction(x)

    def test_non_finite_is_refused(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ExponentError):
                rational(x)


class TestFloatEntry:
    def test_phase_and_keys(self):
        f = GenSeries(0.0, ((-5 / 3, 2.0), (1 / 3, 1.0), (7 / 3, 4.0)))
        assert f.phase == Fraction(1, 3)
        assert f.coeffs == {-2: 2.0, 0: 1.0, 2: 4.0}

    def test_off_lattice_exponent(self):
        with pytest.raises(LatticeError):
            GenSeries(0.0, ((1 / 3, 1.0), (0.5, 1.0)))

    def test_unresolved_fraction_names_one_exponent(self):
        # the phase is read from 1e15 + 0.5 itself, whose fraction lies
        # inside rational's slack of 4 eps |x| = 0.89: the message says so
        # rather than naming the exponent twice as two lattices
        with pytest.raises(LatticeError) as exc:
            GenSeries(0.0, [(1e15 + 0.5, 1.0)])
        assert str(exc.value) == (
            "exponent 1000000000000000.5 has a fractional part below what "
            "rational resolves at its magnitude (0.89)")
        with pytest.raises(LatticeError, match="1/4 \\+ n"):
            series_from_json('{"basepoint": 0, "terms": [{"exp": 0.5, '
                             '"coef": 1}], "phase_exact": "1/4"}')

    def test_infinite_exponent_is_refused(self):
        with pytest.raises(ExponentError):
            GenSeries(0.0, ((math.inf, 1.0),))

    def test_nan_exponent_is_refused(self):
        with pytest.raises(ExponentError):
            GenSeries(0.0, ((math.nan, 1.0),))

    def test_infinite_coefficient_is_refused(self):
        with pytest.raises(InputError):
            GenSeries(0.0, ((0.5, math.inf),))

    def test_nan_coefficient_is_refused(self):
        with pytest.raises(InputError):
            GenSeries(0.0, ((0.5, math.nan),))

    def test_overflowing_expansion_is_refused(self):
        with pytest.raises(ExpansionError):
            to_series("exp(700) * exp(700)", 0.0, 4)

    def test_non_finite_order_is_refused(self):
        with pytest.raises(ExponentError):
            rl_series(GenSeries(0.0, ()), math.nan)
        with pytest.raises(ExponentError):
            shift(lift_gen(monomial(0.5)), math.inf)

    def test_coefficient_lookup(self):
        f = GenSeries(0.0, ((1 / 3, 1.5), (4 / 3, 2.5)))
        assert f.coefficient(4 / 3) == 2.5
        assert f.coefficient(4 / 3 + 1e-12) == 2.5
        assert f.coefficient(10 / 3) == 0.0 and f.coefficient(0.5) == 0.0
        assert f.coefficient(math.inf) == 0.0

    def test_sum_of_two_phases_enters_as_floats(self):
        f = GenSeries.keyed(0.0, Fraction(1, 3), {0: 1.0})
        g = GenSeries.keyed(0.0, Fraction(1, 3) + Fraction(1, 2**60), {1: 2.0})
        assert (f + g).phase == Fraction(1, 3)
        assert (f + g).coeffs == {0: 1.0, 1: 2.0}


class TestNoGhostPhases:
    def test_both_routes_land_on_the_integers(self):
        f = GenSeries(0.0, tuple((1 / 3 + n, 1.0) for n in range(-2, 4)))
        for g in (rl_series(f, 1 / 3), project(shift(lift_gen(f), 1 / 3))):
            assert g.phase == 0
            assert g.exponents() == [0.0, 1.0, 2.0, 3.0]
        assert series_eval(rl_series(f, 1 / 3), -0.5) == pytest.approx(
            series_eval(project(shift(lift_gen(f), 1 / 3)), -0.5), rel=1e-15)


class TestPhaseExact:
    def test_written_only_when_the_exponents_do_not_fix_the_phase(self):
        assert "phase_exact" not in series_to_json(
            GenSeries(0.0, ((1 / 3, 1.0), (4 / 3, 2.0))))
        # offset 1/10 + pi/3 (the double): no double holds the phase
        f = project(shift(shift(lift_gen(monomial(1.0)), 0.1), math.pi / 3))
        text = series_to_json(f)
        assert '"phase_exact": "%s"' % f.phase in text
        back = series_from_json(text)
        assert back == f
        plain = series_from_json(text.replace(
            ', "phase_exact": "%s"' % f.phase, ""))
        assert plain.phase != f.phase and plain.exponents() == f.exponents()

    def test_bad_phase_exact(self):
        for bad in ('"1/0"', '"abc"', '"3/2"', '"-1/4"'):
            with pytest.raises(InputError):
                series_from_json('{"basepoint": 0, "terms": [], '
                                 '"phase_exact": %s}' % bad)
        with pytest.raises(LatticeError):  # disagrees with the exponents
            series_from_json('{"basepoint": 0, "terms": [{"exp": 0.5, '
                             '"coef": 1}], "phase_exact": "1/4"}')

    def test_annihilated_exponents_are_the_input_doubles(self, capsys, tmp_path):
        exps = [float(Fraction(1, 3) + n) for n in range(-6, 6)]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"basepoint": 0, "terms": [
            {"exp": e, "coef": 1.0} for e in exps]}))
        assert main(["deriv", "--series-file", str(path), "--k",
                     repr(4 / 3), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [t["exp"] for t in doc["annihilated"]] == exps[:7]
        assert [t["exp"] for t in doc["series"]["terms"]] == [
            float(n) for n in range(0, 5)]


@st.composite
def lattices(draw):
    """A series on {p/q + n}, q <= 12, keys in [-40, 40] (nonnegative on
    the integers, where negative keys have no lift), given as the doubles
    of its exponents."""
    q = draw(st.integers(1, 12))
    p = draw(st.integers(0, q - 1))
    keys = draw(st.lists(st.integers(0 if p == 0 else -40, 40),
                         min_size=1, max_size=24, unique=True))
    coefs = draw(st.lists(st.floats(0.5, 8.0) | st.floats(-8.0, -0.5),
                          min_size=len(keys), max_size=len(keys)))
    pairs = [(float(Fraction(p, q) + n), c) for n, c in zip(keys, coefs)]
    return Fraction(p, q), pairs


@settings(max_examples=200, deadline=None)
@given(lattices())
def test_exponents_come_back_bit_for_bit(lattice):
    phase, pairs = lattice
    f = GenSeries(0.0, pairs)
    assert f.phase == phase
    exps = sorted(e for e, _ in pairs)
    assert f.exponents() == exps
    assert [t["exp"] for t in json.loads(series_to_json(f))["terms"]] == exps


@settings(max_examples=200, deadline=None)
@given(lattices(), st.integers(-24, 24), st.integers(1, 12))
def test_json_round_trips(lattice, kp, kq):
    f = GenSeries(0.0, lattice[1])
    assert series_from_json(series_to_json(f)) == f
    rho = shift(lift_gen(f), kp / kq)
    assert lifted_from_json(lifted_to_json(rho)) == rho
    g = project(rho)
    assert series_from_json(series_to_json(g)) == g


@settings(max_examples=200, deadline=None)
@given(lattices())
def test_project_inverts_lift(lattice):
    f = GenSeries(0.0, lattice[1])
    g = project(lift_gen(f))
    assert g.phase == f.phase and set(g.coeffs) == set(f.coeffs)
    assert series_residual(g, f) <= 1e-12


# Exact phase and offset arithmetic. The series layers compute phases,
# offsets and Gamma lattices from numerator and denominator ints; each
# result must be the one Fraction arithmetic gives. Phases are p/q with
# q <= 12, or binary: the phase of pi/3, a fraction over 2^52 that
# `rational` keeps, and its multiples.
_BINARY = rational(math.pi / 3) - 1
exact_phases = st.one_of(
    st.integers(1, 12).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))),
    st.integers(1, 6).map(lambda j: j * _BINARY % 1))
float_orders = st.one_of(
    st.integers(1, 12).flatmap(
        lambda q: st.integers(-3 * q, 3 * q).map(lambda p: p / q)),
    st.integers(-3, 3).map(lambda j: j * math.pi / 3))


@st.composite
def keyed_series(draw):
    phase = draw(exact_phases)
    keys = draw(st.lists(st.integers(0 if phase == 0 else -40, 40),
                         min_size=1, max_size=24, unique=True))
    coefs = draw(st.lists(st.floats(0.5, 8.0) | st.floats(-8.0, -0.5),
                          min_size=len(keys), max_size=len(keys)))
    return GenSeries.keyed(0.0, phase, dict(zip(keys, coefs)))


@settings(max_examples=200, deadline=None)
@given(keyed_series(), float_orders)
def test_rl_series_phase_is_exact(f, k):
    r = rational(k)
    g = rl_series(f, k)
    psi = f.phase - r
    m = math.floor(psi)
    assert g.phase == psi % 1 == psi - m
    keys, lo, hi, _ = annihilated_run(f, k)
    kept = keys[:lo] + keys[hi:]
    ratios = gamma_chain(f.phase + 1, kept, "ratio", r)
    assert g.coeffs == {n + m: f.coeffs[n] * v for n, v in zip(kept, ratios)}
    assert g.exponents() == [float(n + psi) for n in kept]


@settings(max_examples=200, deadline=None)
@given(keyed_series(), float_orders)
def test_lifted_offsets_are_exact(f, k):
    rho = lift_gen(f)
    assert rho.offset == (1 - f.phase) % 1
    up = 1 if f.phase else 0
    gs = gamma_chain(f.phase + 1, sorted(f.coeffs), "gamma")
    assert rho.values == {n + up: f.coeffs[n] * g
                          for n, g in zip(sorted(f.coeffs), gs)}
    moved = shift(rho, k)
    assert moved.offset == rho.offset + rational(k)
    assert moved.keys is rho.keys and moved.vals is rho.vals


@settings(max_examples=200, deadline=None)
@given(exact_phases, st.integers(-3, 3),
       st.dictionaries(st.integers(-40, 40), st.floats(0.5, 8.0),
                       min_size=1, max_size=24))
def test_project_phase_is_exact(frac, whole, values):
    rho = LiftedSeq(0.0, frac + whole, values)
    g = project(rho)
    assert g.phase == -rho.offset % 1
    m = math.floor(-rho.offset)
    kept = [j for j in sorted(values) if not is_pole(float(j + 1 - rho.offset))]
    rs = gamma_chain(1 - rho.offset, kept, "recip")
    assert g.coeffs == {j + m: values[j] * v for j, v in zip(kept, rs)}


@pytest.mark.parametrize("q", [1, 3, 10, 2**52, 7**40])
@pytest.mark.parametrize("sign", [1, -1])
def test_has_double_at_the_bound(q, sign):
    # 2^1024 - 2^970 is the midpoint of the largest double and 2^1024:
    # below it n/q rounds to a finite double, from it on to inf
    bound = 2**1024 - 2**970
    for n in (bound * q - 1, bound * q, bound * q + 1, (bound - 2**969) * q,
              2**1024 * q, 5):
        n *= sign
        try:
            fits = math.isfinite(n / q)
        except OverflowError:
            fits = False
        assert has_double(q, n) == fits == (abs(Fraction(n, q)) < bound)
    assert has_double(q, sign) and not has_double(q, sign, sign * bound * q)
