"""The laws of `verify`, fuzzed: the same functions the seeded suites sample,
called on generated lattices and checked against their suite's bound.

D8' and semigroup-safe are left to the seeded suites: they hold only off
the kernel, and on a general lattice some terms fall in the annihilated run
(D8' reaches residual 1 there). I4 is R1' (a sequence on the integers is its
own embedding), so test_r1_i4_d6 checks it through r1."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclift.coeffseq import GenSeries
from fraclift import verify
from fraclift.lifted import LiftedSeq
from fraclift.verify import (
    d1, d2, d3, d4, d5, d6, d6_prime, d7, d8, i1, i2, r1, r2, r_kernel,
    r_linearity,
)

fuzz = settings(max_examples=150, deadline=None)

# values far above COEF_EPS, below which projection drops a coefficient
values = st.floats(-10.0, 10.0).filter(lambda v: abs(v) >= 1e-3)
# orders: multiples of 1/64 in [-3, 3], so a sum of two is a double
orders = st.integers(-192, 192).map(lambda i: i / 64.0)
# offsets and phases p/q, q <= 12
fractions = st.builds(lambda q, p: Fraction(p % q, q),
                      st.integers(1, 12), st.integers(0, 11))
supports = st.lists(st.integers(-8, 16), min_size=1, max_size=12, unique=True)


@st.composite
def sequences(draw, offset=st.just(Fraction(0))):
    """A lifted sequence on indices [-8, 16]."""
    at = draw(offset)
    return LiftedSeq(0.0, at, {j: draw(values) for j in draw(supports)})


@st.composite
def series(draw):
    """A series at phase p/q with keys in [-6, 30), keys >= 0 at phase 0."""
    phase = draw(fractions)
    keys = draw(st.lists(st.integers(-6 if phase else 0, 29), min_size=1,
                         max_size=12, unique=True))
    return GenSeries.keyed(0.0, phase, {n: draw(values) for n in keys})


lifted = sequences(fractions)


@fuzz
@given(lifted, orders, orders)
def test_d1_d2(rho, a, b):
    assert d1(rho, a, b) == 0.0
    assert d2(rho, a, b) == 0.0


@fuzz
@given(lifted, st.one_of(orders, st.floats(-3.0, 3.0)))
# a tiny order whose negation, read through its floor, rounds to 0
@example(LiftedSeq(0.0, 0, {0: 1.0}), 9.388365368576758e-16)
def test_d3(rho, a):
    assert d3(rho, a) == 0.0


@fuzz
@given(fractions.flatmap(lambda at: st.tuples(
    sequences(st.just(at)), sequences(st.just(at)))), orders)
def test_d4(pair, k):
    assert d4(*pair, k) == 0.0


@fuzz
@given(lifted, st.floats(-5.0, 5.0), orders)
def test_d5(rho, c, k):
    assert d5(rho, c, k) == 0.0


@fuzz
@given(series())
def test_r1_i4_d6(f):
    assert r1(f) <= 1e-12
    assert d6(f) <= 1e-12


@fuzz
@given(series(), orders)
def test_d6_prime(f, k):
    assert d6_prime(f, k) <= 1e-12


@fuzz
@given(sequences())
def test_r2_r_kernel_d7_d8_i1(sigma):
    assert r2(sigma) <= 1e-12
    assert r_kernel(sigma) == 0.0
    assert d7(sigma) <= 1e-12
    assert d8(sigma) <= 1e-12
    assert i1(sigma) == 0.0


@fuzz
@given(sequences(), st.integers(-6, 6))
def test_i2(sigma, k):
    assert i2(sigma, k) == 0.0


@st.composite
def cancelling(draw):
    """(a, b) on one lattice, b either independent of a or -a (1 - delta)
    on a's support, delta in [1e-7, 1e-5], so that a + b cancels to 1e-5
    of a and less."""
    a = draw(lifted)
    if draw(st.booleans()):
        return a, draw(sequences(st.just(a.offset)))
    return a, LiftedSeq(0.0, a.offset, {
        j: -v * (1.0 - draw(st.floats(1e-7, 1e-5)))
        for j, v in a.values.items()})


@fuzz
@given(cancelling(), st.floats(-5.0, 5.0))
@example((LiftedSeq(0.0, Fraction(1, 2), {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0,
                                          -4: 5.0}),
          LiftedSeq(0.0, Fraction(1, 2), {0: 2.0})), 6.1e-302)
def test_r_linearity(pair, c):
    # c down to 0 and the subnormals: where c a or c project(a) nears
    # COEF_EPS, the homogeneity half is off its domain, 0.0. In the example
    # c a drops every value before projection, while c project(a) keeps the
    # -4 term (c 5/Gamma(-3.5) = 1.1e-300)
    assert r_linearity(*pair, c) <= 1e-12


def test_r_linearity_sees_a_lost_term(monkeypatch):
    # a projection that loses key 0 of the scaled sequence: the two sides of
    # the homogeneity half differ by a term of size 2, on the law's domain
    real = verify.project

    def lossy(rho):
        if rho.values.get(0) == 2.0:
            rho = LiftedSeq(rho.basepoint, rho.offset,
                            {j: v for j, v in rho.values.items() if j})
        return real(rho)

    monkeypatch.setattr(verify, "project", lossy)
    a = LiftedSeq(0.0, 0, {0: 1.0, 1: 1.0})
    assert r_linearity(a, LiftedSeq(0.0, 0, {2: 1.0}), 2.0) == 1.0
