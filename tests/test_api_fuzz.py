"""Every name in fraclift.__all__ that takes numbers, series or text,
called with inputs drawn from the edges: NaN, +-inf, ints past 10^400,
strings, None, Fractions with huge denominators and orders up to 10^9, and
for the readers of text (parse, the JSON readers, to_series and to_lifted)
and the containers (the terms, lifted values and comparison points) values
of the wrong type: None, ints, bytes, lists and tuples not of parse's
shape. Each call returns or raises a FracliftError, never another
exception. The series arguments are well formed; the text readers' text is
fuzzed further through the CLI (test_cli_fuzz)."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclift
from fraclift import (
    ExponentError,
    FracliftError,
    GammaOverflowError,
    GenSeries,
    InputError,
    LiftedSeq,
    ParseError,
)

HUGE = 10**400

numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, HUGE, -HUGE, "a", "1.5",
                     None, Fraction(1, HUGE), Fraction(HUGE + 1, HUGE),
                     Fraction(HUGE, 3), Fraction(1, 3), 0, -0.0, 0.5, -1.0,
                     1e308, 5e-324, 2.0**52, 10**9, -10**9, 170.5]),
    st.floats(),
    st.floats(-10.0, 10.0),
    st.integers(-10**9, 10**9),
    st.fractions(max_denominator=10**30))
coefficients = st.one_of(st.sampled_from([1.0, -2.5, 1e308, 1e-300, 5e-324]),
                         st.floats(-1e308, 1e308, allow_nan=False,
                                   allow_infinity=False))


@st.composite
def series(draw):
    phase = draw(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.85, math.pi / 3]))
    keys = draw(st.lists(st.integers(-180, 180), max_size=5, unique=True))
    order = draw(st.sampled_from([None, 16.0, 0.5]))
    return GenSeries(0.0, [(phase + n, draw(coefficients)) for n in keys],
                     order)


@st.composite
def lifted(draw):
    offset = draw(st.sampled_from([0, Fraction(1, 2), Fraction(1, 3), 0.85,
                                   Fraction(1, HUGE), Fraction(HUGE + 1, HUGE),
                                   HUGE]))
    keys = draw(st.lists(st.integers(-180, 180), max_size=5, unique=True))
    order = draw(st.sampled_from([None, Fraction(16), Fraction(1, 3)]))
    return LiftedSeq(0.0, offset, {j: draw(coefficients) for j in keys},
                     order)


# what is not text, or not the container a call takes: tuples not of
# parse's shape among them
not_text = st.one_of(
    st.sampled_from([None, 5, b"x", b"\xff", [], ["x"], ("foo",), ("neg",),
                     ("num", "a"), ("call", "tan", ("x",)), ("+", ("x",)),
                     {"terms": []}]),
    st.integers(), st.binary(max_size=8),
    st.lists(st.integers(), max_size=3))
texts = st.one_of(
    st.sampled_from(["x", "exp(x)", "x^0.5*sin(x)", "(x-1)^(-1/2)",
                     "x^3 - 2*x"]),
    st.text(max_size=8), not_text)
json_texts = st.one_of(
    st.sampled_from(['{"basepoint": 0, "terms": [{"exp": 0.5, "coef": 1}]}',
                     '{"basepoint": 0, "offset": 0.5, "values": '
                     '[{"index": 1, "value": 2}]}',
                     '{"basepoint": 0, "terms": 5}', '[1]', 'null', '',
                     '{"basepoint": 0, "offset": 0, "values": [5]}']),
    st.text(max_size=8), not_text)
jet_orders = st.one_of(numbers, st.integers(0, 40))


CALLS = {
    "GenSeries": st.tuples(numbers, st.one_of(
        st.lists(st.tuples(numbers, numbers), max_size=3), not_text),
        numbers),
    "LiftedSeq": st.tuples(numbers, numbers, st.one_of(
        st.dictionaries(numbers, numbers, max_size=3), not_text), numbers),
    "monomial": st.tuples(numbers, numbers),
    "series_eval": st.tuples(series(), numbers),
    "int_derivative": st.tuples(series(), numbers),
    "series_to_json": st.tuples(series()),
    "lifted_to_json": st.tuples(lifted()),
    "rl_series": st.tuples(series(), numbers),
    "rl_term": st.tuples(numbers, numbers, numbers),
    "rl_kernel_predicate": st.tuples(numbers, numbers),
    "lift_gen": st.tuples(series()),
    "shift": st.tuples(lifted(), numbers),
    "project": st.tuples(lifted()),
    "to_series": st.tuples(texts, numbers, jet_orders),
    "to_lifted": st.tuples(texts, numbers, jet_orders),
    "gamma": st.tuples(numbers),
    "recip_gamma": st.tuples(numbers),
    "gamma_ratio": st.tuples(numbers, numbers),
    "sinpi": st.tuples(numbers),
    "is_pole": st.tuples(numbers),
    "rl_oracle": st.tuples(st.just(functools.partial(fraclift.series_eval,
                                                     fraclift.monomial(0.5))),
                           numbers, numbers, numbers),
    "compare": st.tuples(series(), numbers, st.one_of(
        st.lists(numbers, max_size=2), st.none(), st.integers())),
    "parse": st.tuples(texts),
    "series_from_json": st.tuples(json_texts),
    "lifted_from_json": st.tuples(json_texts),
}
# the names that take no arguments: the error classes and the backend's name
NOT_NUMERIC = {"KERNEL_BACKEND"}

# a series' public methods and operators: the coefficient at an exponent,
# the exponents, a product with a scalar (the ints and floats `*` takes) and
# a sum, which refuses two base points and enters two phases as floats again
scalars = numbers.filter(lambda x: isinstance(x, (int, float)))
METHODS = {
    "coefficient": st.tuples(series(), numbers),
    "exponents": st.tuples(series()),
    "scalar *": st.tuples(series(), scalars),
    "+": st.tuples(series(), series(), st.sampled_from([0.0, 1.0])),
}


def call_method(name, f, *arguments):
    if name == "scalar *":
        return f * arguments[0]
    if name == "+":
        g, basepoint = arguments
        return f + GenSeries.keyed(basepoint, g.phase, g.coeffs,
                                   g.truncation_order)
    return getattr(f, name)(*arguments)


def test_the_calls_cover_the_package():
    errors = {name for name in fraclift.__all__
              if isinstance(getattr(fraclift, name), type)
              and issubclass(getattr(fraclift, name), FracliftError)}
    assert set(CALLS) | NOT_NUMERIC | errors == set(fraclift.__all__)
    assert not set(CALLS) & (NOT_NUMERIC | errors)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), CALLS[name])))
def test_every_call_returns_or_raises_a_library_error(call):
    name, arguments = call
    try:
        getattr(fraclift, name)(*arguments)
    except FracliftError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(METHODS)).flatmap(
    lambda name: st.tuples(st.just(name), METHODS[name])))
def test_every_method_returns_or_raises_a_library_error(call):
    name, arguments = call
    try:
        call_method(name, *arguments)
    except FracliftError:
        pass


F = fraclift.monomial(0.5)


@pytest.mark.parametrize("call, error", [
    (lambda: fraclift.rl_series(F, HUGE), ExponentError),
    (lambda: fraclift.rl_series(F, None), ExponentError),
    (lambda: fraclift.rl_series(F, "a"), ExponentError),
    (lambda: fraclift.rl_term(1.0, 0.5, HUGE), ExponentError),
    (lambda: fraclift.rl_term(None, 0.5, 0.5), InputError),
    (lambda: fraclift.rl_term(1e308, 2.0, 1.0), GammaOverflowError),
    (lambda: fraclift.rl_kernel_predicate(0.5, None), ExponentError),
    (lambda: fraclift.rl_oracle(lambda t: t, 0, HUGE, 1), ExponentError),
    (lambda: fraclift.rl_oracle(lambda t: t, 0, 0.5, "a"), InputError),
    (lambda: fraclift.compare(F, None, [1.0]), ExponentError),
    (lambda: fraclift.compare(F, 0.5, [None]), InputError),
    (lambda: fraclift.gamma("a"), ExponentError),
    (lambda: fraclift.gamma(HUGE), ExponentError),
    (lambda: fraclift.is_pole(None), ExponentError),
    (lambda: fraclift.to_series("x", None), InputError),
    (lambda: fraclift.to_series("x", math.nan), InputError),
    (lambda: fraclift.to_series("exp(x)", 0.0, "a"), ExponentError),
    (lambda: F.coefficient("a"), ExponentError),
    (lambda: F.coefficient(None), ExponentError),
    (lambda: F.coefficient(HUGE), ExponentError),
    (lambda: F * HUGE, InputError),
], ids=["rl_series-huge-order", "rl_series-none-order",
        "rl_series-string-order", "rl_term-huge-order",
        "rl_term-none-coefficient", "rl_term-infinite-coefficient",
        "rl_kernel_predicate-none-order",
        "rl_oracle-huge-order", "rl_oracle-string-point",
        "compare-none-order", "compare-none-point",
        "gamma-string", "gamma-huge", "is_pole-none", "to_series-none-base",
        "to_series-nan-base", "to_series-string-order",
        "coefficient-string", "coefficient-none", "coefficient-huge",
        "scalar-product-huge"])
def test_number_inputs_end_in_their_library_error(call, error):
    # each raised a bare TypeError, ValueError or OverflowError (a NaN base
    # point: ExpansionError) before its number was checked on entry
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: fraclift.parse(None), ParseError),
    (lambda: fraclift.parse(b"x"), ParseError),
    (lambda: fraclift.series_from_json(None), InputError),
    (lambda: fraclift.lifted_from_json(5), InputError),
    (lambda: fraclift.to_series(None), InputError),
    (lambda: fraclift.to_lifted(None), InputError),
    (lambda: fraclift.to_series(("foo",)), InputError),
    (lambda: fraclift.GenSeries(0.0, None), InputError),
    (lambda: fraclift.compare(F, 0.5, None), InputError),
    (lambda: fraclift.LiftedSeq(0.0, 0, [1.0]), InputError),
], ids=["parse-none", "parse-bytes", "series_from_json-none",
        "lifted_from_json-int", "to_series-none", "to_lifted-none",
        "to_series-bad-tree", "GenSeries-none-terms", "compare-none-points",
        "LiftedSeq-list-values"])
def test_wrong_types_end_in_one_line_library_error(call, error):
    # each raised a bare TypeError or AttributeError before its argument's
    # type was checked
    with pytest.raises(error) as info:
        call()
    assert "\n" not in str(info.value)
