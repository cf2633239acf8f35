"""gamma_chain, the Pochhammer-step evaluation of Gamma along a lattice, and
the series layers built on it (rl_series, lift_gen, project), against mpmath
and against the scalar kernel term by term."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WINDOW_CASES, window_args
from fraclift.coeffseq import GenSeries, monomial
from fraclift.errors import ExponentError, GammaOverflowError, GammaPoleError
from fraclift.gamma import (
    gamma,
    gamma_chain,
    gamma_ratio,
    is_pole,
    recip_gamma,
)
from fraclift.lifted import LiftedSeq, lift_gen, project, shift
from fraclift.rl import rl_kernel_predicate, rl_series, rl_term

mpmath.mp.dps = 40


def mp_ratio(x, k):
    x, k = mpmath.mpf(x), mpmath.mpf(k)
    return mpmath.gamma(x) / mpmath.gamma(x - k)


def worst_rel(got, want):
    return max(float(abs((g - w) / w)) for g, w in zip(got, want))


def minus(e, k):
    """e - k for the rationals (denominators up to 1000) the doubles e and k
    stand for, rounded once: the exponent a series keeps for x^e under
    order k."""
    return float(Fraction(e).limit_denominator(1000)
                 - Fraction(k).limit_denominator(1000))


class TestAccuracy:
    def test_dense_quarter_lattice(self):
        # {1/4 + n}, n in [-160, 160), k = 1/2: per-term log-space ratios
        # reach 1.7e-13 here
        f = GenSeries(0.0, tuple((0.25 + n, 1.0) for n in range(-160, 160)))
        g = rl_series(f, 0.5)
        assert len(g.terms) == 320
        want = [mp_ratio(e + 1.0, 0.5) for e, _ in f.terms]
        assert worst_rel([c for _, c in g.terms], want) <= 1e-14

    def test_long_chain(self):
        keys = list(range(4096))
        want = [mp_ratio(1.25 + n, 0.5) for n in keys]
        got = gamma_chain(Fraction(5, 4), keys, "ratio", Fraction(1, 2))
        assert worst_rel(got, want) <= 1e-13

    def test_gamma_and_reciprocal(self):
        keys = list(range(-160, 160))
        want = [mpmath.gamma(mpmath.mpf(0.25 + n)) for n in keys]
        c = Fraction(1, 4)
        assert worst_rel(gamma_chain(c, keys, "gamma"), want) <= 1e-14
        assert worst_rel(gamma_chain(c, keys, "recip"),
                         [1 / w for w in want]) <= 1e-14

    def test_wide_gap_is_reanchored(self):
        keys = list(range(-20, 10)) + list(range(200, 210))
        xs = [0.75 + n for n in keys]
        want = [mp_ratio(x, 2.5) for x in xs]
        got = gamma_chain(Fraction(3, 4), keys, "ratio", Fraction(5, 2))
        # the first term past the gap is stepped from the lattice's anchor,
        # not re-anchored: the scalar kernel's log-space value at x = 200.75
        # is 5.7e-14 off, the stepped one 1.4e-15
        assert worst_rel(got[30:31], want[30:31]) <= 1e-14
        assert worst_rel(got[:30], want[:30]) <= 1e-14
        assert worst_rel(got, want) <= 1e-13


class TestScalarCases:
    @pytest.mark.parametrize("phase,k", [(0.25, 0.25), (0.25, 1.25), (0.5, 2.5),
                                         (0.0, 3.0), (0.5, 0.5), (1 / 3, 4 / 3)])
    def test_annihilated_set_matches_predicate(self, phase, k):
        exps = [phase + n for n in range(0 if phase == 0.0 else -12, 20)]
        f = GenSeries(0.0, tuple((e, 1.0) for e in exps))
        killed = [e for e, _ in f.terms if rl_kernel_predicate(e, k)]
        assert killed
        assert [e for e, _ in rl_series(f, k).terms] == [
            minus(e, k) for e, _ in f.terms if e not in killed]

    def test_joint_poles_and_numerator_pole(self):
        # negative integer exponents under integer orders: joint limit
        f = GenSeries(0.0, tuple((float(n), 1.0) for n in range(-5, 5)))
        assert rl_series(f, 2.0).terms == tuple(
            t for t in (rl_term(1.0, float(n), 2.0) for n in range(-5, 5))
            if t is not None)
        with pytest.raises(GammaPoleError):
            rl_series(f, 0.5)

    @pytest.mark.parametrize("phase,k,annihilated",
                             list(WINDOW_CASES.values()), ids=list(WINDOW_CASES))
    def test_window_matches_rl_term(self, phase, k, annihilated):
        # arguments 2^-32 from a nonpositive integer are poles: numerator
        # poles raise, joint poles take the limit and denominator poles
        # annihilate, term by term as in rl_term
        f = GenSeries(0.0, tuple((phase + n, 1.0) for n in range(-6, 6)))
        assert window_args(f.exponents(), k)
        if annihilated is None:
            with pytest.raises(GammaPoleError):
                [rl_term(c, e, k) for e, c in f.terms]
            with pytest.raises(GammaPoleError):
                rl_series(f, k)
            return
        want = [rl_term(c, e, k) for e, c in f.terms]
        assert want.count(None) == annihilated
        kept = [t for t in want if t is not None]
        got = rl_series(f, k).terms
        # e - k is exact in doubles here, so rl_term's exponents are the
        # correctly rounded ones rl_series keeps
        assert [e for e, _ in got] == [e for e, _ in kept]
        assert worst_rel([c for _, c in got],
                         [c for _, c in kept]) <= 1e-13
        assert [e for e, _ in f.terms if rl_kernel_predicate(e, k)] == [
            e for (e, _), t in zip(f.terms, want) if t is None]

    @pytest.mark.parametrize("k", [0.0, 1.0, 2.0, 3.0, -1.0, -2.0])
    def test_integer_lattice_is_bit_identical(self, k):
        f = GenSeries(0.0, tuple((float(n), 1.0 + n / 7) for n in range(0, 300)))
        want = tuple(t for t in (rl_term(c, e, k) for e, c in f.terms)
                     if t is not None)
        assert rl_series(f, k).terms == want

    def test_integer_lattice_lift_is_bit_identical(self):
        # the top term's coefficient is 1: (1 + 170/7) * 170! passes the
        # double range, which lift_gen refuses
        f = GenSeries(0.0, tuple((float(n), 1.0 + n / 7) for n in range(0, 170))
                      + ((170.0, 1.0),))
        assert lift_gen(f).values == {
            int(e): c * gamma(e + 1.0) for e, c in f.terms}
        rho = LiftedSeq(0.0, 0, {j: 1.0 for j in range(-5, 300)})
        assert project(rho) == GenSeries(0.0, tuple(
            (float(j), recip_gamma(j + 1.0)) for j in range(0, 300)))
        assert project(shift(rho, 2)) == GenSeries(0.0, tuple(
            (float(j - 2), recip_gamma(j - 1.0)) for j in range(2, 300)))

    def test_perturbation_scales_every_coefficient(self, perturb):
        f = GenSeries(0.0, tuple((0.25 + n, 1.0) for n in range(-20, 20))
                      + ((-0.75, 3.0),))
        clean = rl_series(f, 0.25)
        perturb("1e-6")
        perturbed = rl_series(f, 0.25)
        assert len(perturbed.terms) == len(clean.terms)
        for (e1, c1), (e2, c2) in zip(clean.terms, perturbed.terms):
            assert e1 == e2
            assert c2 / c1 == pytest.approx(1.0 + 1e-6, rel=1e-15)

    def test_overflow_raises(self):
        with pytest.raises(GammaOverflowError):
            rl_series(monomial(300.5), 150.0)
        with pytest.raises(GammaOverflowError):
            gamma_chain(Fraction(1, 2), list(range(180)), "gamma")
        with pytest.raises(GammaOverflowError):
            gamma_chain(0, list(range(1, 180)), "gamma")

    def test_non_finite_coefficients_raise(self):
        # 1e16 x at k = 170.5 is -inf * x^-169.5 by either route, and
        # (1 + 170/7) * 170! passes the double range in the lift
        f = monomial(1.0, 1e16)
        for make in (lambda: rl_series(f, 170.5),
                     lambda: project(shift(lift_gen(f), 170.5)),
                     lambda: lift_gen(monomial(170.0, 1.0 + 170 / 7))):
            with pytest.raises(GammaOverflowError, match="inf, not a finite"):
                make()

    def test_underflowing_ratios_match_scalar(self):
        # k = -160 on {1/4 + n}: far from the anchor the ratios leave the
        # normal range on both sides and the scalar kernel takes over
        k = -160.0
        keys = list(range(-330, 60))
        xs = [1.25 + n for n in keys]
        chain = gamma_chain(Fraction(5, 4), keys, "ratio", -160)
        point = [gamma_ratio(x, x - k) for x in xs]
        normal = 0
        for x, c, p in zip(xs, chain, point):
            if abs(p) < 2.2250738585072014e-308:
                assert c == p
            else:
                normal += 1
                assert abs(c - p) <= 1e-12 * abs(p)
        assert 0 < normal < len(xs)
        assert any(p == 0.0 for p in point)

    def test_recip_underflow_matches_scalar(self):
        # 1/Gamma leaves the normal range at x = 171.6: subnormals and zeros
        # come from the scalar kernel, bit for bit
        keys = list(range(160, 190))
        xs = [0.5 + n for n in keys]
        chain = gamma_chain(Fraction(1, 2), keys, "recip")
        point = [recip_gamma(x) for x in xs]
        assert chain[12:] == point[12:]
        assert chain[:12] == pytest.approx(point[:12], rel=1e-12, abs=0.0)

    def test_nan_order_is_refused(self):
        with pytest.raises(ExponentError):
            rl_series(monomial(1.0), math.nan)


def hexes(values):
    return [v.hex() for v in values]


class TestIntegerLatticeTables:
    """On the integer lattice Gamma and 1/Gamma come from the factorial
    tables at arguments 1..171 and from the scalar kernel elsewhere: the
    chain equals gamma and recip_gamma bit for bit on both sides of each
    edge, with the same zeros, subnormals and errors."""

    @pytest.mark.parametrize("c", [0, 3, -2])
    def test_recip_across_0_and_172(self, c):
        args = range(-6, 200)
        keys = [x - c for x in args]
        point = [recip_gamma(float(x)) for x in args]
        assert hexes(gamma_chain(c, keys, "recip")) == hexes(point)
        # poles, table values, the subnormal 1/171! at 172, and underflow
        assert point[:7] == [0.0] * 7 and point[7] == 1.0
        assert 0.0 < point[args.index(172)] < 2.2250738585072014e-308
        assert point[-1] == 0.0

    @pytest.mark.parametrize("c", [0, 5, -3])
    def test_gamma_up_to_171(self, c):
        args = range(1, 172)
        point = [gamma(float(x)) for x in args]
        assert hexes(gamma_chain(c, [x - c for x in args], "gamma")) == hexes(
            point)
        assert point[-1] == float(math.factorial(170))

    @pytest.mark.parametrize("args", [range(-3, 5), range(0, 3),
                                      range(165, 175), range(171, 173)])
    def test_gamma_raises_as_the_scalar_kernel(self, args):
        with pytest.raises((GammaPoleError, GammaOverflowError)) as want:
            [gamma(float(x)) for x in args]
        with pytest.raises(want.type) as got:
            gamma_chain(0, list(args), "gamma")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_ratio_is_the_falling_factorial(self, k):
        keys = list(range(-6, 320))
        point = [gamma_ratio(float(n), float(n - k)) for n in keys]
        assert hexes(gamma_chain(0, keys, "ratio", k)) == hexes(point)


phases = st.integers(0, 63).map(lambda i: Fraction(i, 64))
orders = st.integers(-192, 192).map(lambda i: Fraction(i, 64))


@settings(max_examples=150, deadline=None)
@given(phase=phases, k=orders, start=st.integers(-30, 0),
       gaps=st.lists(st.integers(1, 3), min_size=0, max_size=25))
def test_chain_matches_pointwise_kernel(phase, k, start, gaps):
    """Random lattices (exact dyadic phases and orders, so both sides see
    the same arguments): every kind agrees with the scalar kernel term by
    term within 1e-13, with the same zeros."""
    keys = [start]
    for g in gaps:
        keys.append(keys[-1] + g)
    ph, kf = float(phase), float(k)
    fin = [n for n in keys if not is_pole(ph + n)]
    defined = [n for n in keys if not is_pole(ph + n) or is_pole(ph + n - kf)]
    for chain, point in (
            (gamma_chain(phase, defined, "ratio", k),
             [gamma_ratio(ph + n, ph + n - kf) for n in defined]),
            (gamma_chain(phase, keys, "recip"), [recip_gamma(ph + n) for n in keys]),
            (gamma_chain(phase, fin, "gamma"), [gamma(ph + n) for n in fin])):
        for c, p in zip(chain, point):
            assert (c == 0.0) == (p == 0.0)
            assert abs(c - p) <= 1e-13 * abs(p)


twelfths = st.integers(1, 12).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))
twelfth_orders = st.integers(1, 12).flatmap(
    lambda q: st.integers(-4 * q, 4 * q).map(lambda p: Fraction(p, q)))


@settings(max_examples=100, deadline=None)
@given(phase=twelfths, k=twelfth_orders, start=st.integers(-40, 0),
       gaps=st.lists(st.integers(1, 3), min_size=80, max_size=80))
def test_chain_matches_mpmath_on_rational_lattices(phase, k, start, gaps):
    """Lattices no double holds (phases p/q and orders with q <= 12), keys
    from start up to 40: every kind agrees with mpmath at the exact
    rationals n + phase within 1e-13, and the pole keys get the scalar
    kernel's zeros and errors. The keys reach past k/2, so the anchor is a
    scalar value near the origin and the rest is stepped."""
    keys = [start]
    for g in gaps:
        if keys[-1] + g > 40:
            break
        keys.append(keys[-1] + g)

    def mp(r):
        return mpmath.mpf(r.numerator) / r.denominator

    for kind in ("ratio", "recip", "gamma"):
        order = k if kind == "ratio" else 0
        scalar = {"ratio": lambda x: gamma_ratio(x, float(x - order)),
                  "recip": recip_gamma, "gamma": gamma}[kind]
        pointwise = []
        try:
            for n in keys:
                x = n + phase
                pole = is_pole(float(x)) or kind != "gamma" and is_pole(
                    float(x - order))
                pointwise.append(scalar(float(x)) if pole else None)
        except GammaPoleError:
            with pytest.raises(GammaPoleError):
                gamma_chain(phase, keys, kind, order)
            continue
        chain = gamma_chain(phase, keys, kind, order)
        for n, c, p in zip(keys, chain, pointwise):
            if p is not None:
                assert c == p
                continue
            x = mp(n + phase)
            want = mpmath.gamma(x) if kind == "gamma" else mpmath.rgamma(
                x - mp(order))
            if kind == "ratio":
                want *= mpmath.gamma(x)
            assert c != 0.0 and abs(c - want) <= 1e-13 * abs(want)


@settings(max_examples=150, deadline=None)
@given(phase=twelfths, k=twelfth_orders, start=st.integers(-60, 0),
       gaps=st.lists(st.integers(33, 80), min_size=1, max_size=6))
def test_sparse_keys_are_within_1e14_of_mpmath(phase, k, start, gaps):
    """Keys in [-60, 170) with gaps wider than 32 steps, on lattices no double
    holds: every kind agrees with mpmath at the exact rationals within 1e-14
    on the keys off the poles. A log-space value taken at such a key is up
    to about 6e-14 off."""
    keys = [start]
    for g in gaps:
        if keys[-1] + g >= 170:
            break
        keys.append(keys[-1] + g)

    def mp(r):
        return mpmath.mpf(r.numerator) / r.denominator

    for kind in ("ratio", "recip", "gamma"):
        order = k if kind == "ratio" else 0
        ns = [n for n in keys
              if not (kind != "recip" and is_pole(float(n + phase)))
              and not (kind != "gamma" and is_pole(float(n + phase - order)))]
        chain = gamma_chain(phase, ns, kind, order)
        for n, c in zip(ns, chain):
            x = mp(n + phase)
            want = mpmath.gamma(x) if kind == "gamma" else mpmath.rgamma(
                x - mp(order))
            if kind == "ratio":
                want *= mpmath.gamma(x)
            assert abs(c - want) <= 1e-14 * abs(want)


@settings(max_examples=150, deadline=None)
@given(phase=twelfths.filter(lambda p: p != 0), k=twelfth_orders,
       n=st.builds(lambda sign, e: sign * int(10.0 ** e),
                   st.sampled_from((-1, 1)), st.floats(3.7, 13.0)))
def test_far_ratios_are_within_1e12_of_mpmath(phase, k, n):
    """A ratio key past a table's span, out to |n| = 1e13, takes the scalar
    kernel with the exact order and, for the reflection, the lattice's
    exact phase: within 1e-12 of mpmath at the exact rationals, where the
    doubles n + phase and n + phase - k hold neither."""
    if is_pole(float(n + phase - k)):
        return
    [c] = gamma_chain(phase, [n], "ratio", k)
    x, y = (mpmath.mpf(r.numerator) / r.denominator
            for r in (n + phase, n + phase - k))
    want = mpmath.gamma(x) / mpmath.gamma(y)
    if 1e-300 < abs(want) < 1e300:
        assert abs(c - want) <= 1e-12 * abs(want)
