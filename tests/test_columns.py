"""The column layout against the dict-based loops it replaced, bit for bit.

GenSeries and LiftedSeq hold ascending keys and an aligned value list. The
reference functions below are the earlier dict-based forms of the float
entry, rl_series, lift_gen, project and series_eval: a {key: value} map,
sorted at each step, filtered and re-keyed by comprehensions. They share
only the Gamma chain (gamma.lattice_chain, gamma.lattice_poles) and
`rational` with the library, so a difference is a difference in how the
columns are built, sliced, scaled or summed. Inputs are shuffled, repeat
exponents, cancel, fall below COEF_EPS and hit pole and annihilated runs.

The float entry settles membership by comparing the input exponents with
the lattice's own doubles, and scans the tolerance only where they differ
or a key lies past 2^21; nudged_pairs reaches that scan. A column is tested
finite by its sum, and scanned only where the sum is not finite.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclift.coeffseq import (
    _EXACT_KEYS,
    GenSeries,
    rational,
    series_eval,
    series_from_json,
)
from fraclift.config import COEF_EPS, INT_TOL
from fraclift.errors import (
    EvalDomainError,
    ExponentError,
    FracliftError,
    GammaOverflowError,
    InputError,
    LatticeError,
)
from fraclift.gamma import lattice_chain, lattice_poles
from fraclift.lifted import LiftedSeq, lift_gen, project
from fraclift.rl import rl_series


def ref_nonzero(values):
    return {n: v for n, v in values.items() if abs(v) >= COEF_EPS}


def ref_scaled(values, keys, factors, m):
    out = {n + m: v for n, g in zip(keys, factors)
           if abs(v := values[n] * g) >= COEF_EPS}
    if not all(map(math.isfinite, out.values())):
        raise GammaOverflowError("a value is not finite")
    return out


def ref_lattice(pairs):
    """(phase, {n: c}): the float entry as a loop over the pairs."""
    if not pairs:
        return Fraction(0), {}
    exps = [e for e, _ in pairs]
    if not all(map(math.isfinite, exps)):
        raise ExponentError("exponent not finite")
    r = rational(min(exps, key=abs))
    phase = r - math.floor(r)
    ph = phase.numerator / phase.denominator
    coeffs = {}
    for e, c in pairs:
        d = e - ph
        n = round(d)
        if abs(d - n) > INT_TOL:
            raise LatticeError("off the lattice")
        coeffs[n] = coeffs.get(n, 0.0) + c
    if not all(map(math.isfinite, coeffs.values())):
        raise InputError("a coefficient is not finite")
    return phase, ref_nonzero(coeffs)


def ref_rl_series(phase, coeffs, k):
    keys = sorted(coeffs)
    p, q = phase.numerator, phase.denominator
    r = rational(k)
    kp, kq = r.numerator, r.denominator
    lo = lattice_poles(p + q, q, keys)
    hi = max(lo, lattice_poles((p + q) * kq - kp * q, q * kq, keys))
    keys = keys[:lo] + keys[hi:]
    d = q * kq
    ratios = lattice_chain((p + q) * kq, d, kp * q, keys, "ratio")
    m, s = divmod(p * kq - kp * q, d)
    return Fraction(s, d), ref_scaled(coeffs, keys, ratios, m)


def ref_lift_gen(phase, coeffs):
    keys = sorted(coeffs)
    p, q = phase.numerator, phase.denominator
    if lattice_poles(p + q, q, keys):
        raise ExponentError("no preimage")
    gs = lattice_chain(p + q, q, 0, keys, "gamma")
    offset = Fraction(q - p, q) if p else phase
    return offset, ref_scaled(coeffs, keys, gs, 1 if p else 0)


def ref_project(offset, values):
    p, q = offset.numerator, offset.denominator
    keys = sorted(values)
    keys = keys[lattice_poles(q - p, q, keys):]
    rs = lattice_chain(q - p, q, 0, keys, "recip")
    m = -((p + q - 1) // q)
    return Fraction(-p - m * q, q), ref_scaled(values, keys, rs, m)


def ref_series_eval(phase, coeffs, x):
    """Horner over evenly spaced keys, found by membership tests on the
    map, else one power per term, over the key-sorted items."""
    p, q = phase.numerator, phase.denominator
    items = sorted(coeffs.items())
    terms = [((n * q + p) / q, c) for n, c in items]
    if not terms:
        return 0.0
    dx = x - 0.0
    if dx <= 0.0 and (phase or dx == 0.0 and terms[0][0] < 0.0):
        raise EvalDomainError("outside the domain")
    n = len(items)
    if n < 3:
        g = items[1][0] - items[0][0] if n == 2 else 1
    else:
        lo, hi = items[0][0], items[-1][0]
        g = items[1][0] - lo
        if not (hi - lo == g * (n - 1) and all(
                map(coeffs.__contains__, range(lo + g, hi, g)))):
            g = 0
    s = 0.0
    try:
        if not g:
            for e, c in terms:
                s += c * math.pow(dx, e)
            value = s
        elif -1.0 <= dx <= 1.0:
            m = dx if g == 1 else math.pow(dx, g)
            for _, c in reversed(terms):
                s = s * m + c
            value = s * math.pow(dx, terms[0][0])
        else:
            m = 1.0 / dx if g == 1 else math.pow(dx, -g)
            for _, c in terms:
                s = s * m + c
            value = s * math.pow(dx, terms[-1][0])
    except OverflowError:
        raise EvalDomainError("overflow") from None
    if not math.isfinite(value):
        raise EvalDomainError("not finite")
    return value


def bits(values):
    """{key: value} as sorted (key, hex) pairs: equal only bit for bit."""
    return sorted((n, float(v).hex()) for n, v in values.items())


def lattice_terms(f):
    """f's terms as the lattice gives them, [((n*q + p)/q, c)], in hex."""
    p, q = f.phase.numerator, f.phase.denominator
    return [(((n * q + p) / q).hex(), c.hex()) for n, c in zip(f.keys, f.vals)]


def hex_terms(f):
    return [(e.hex(), c.hex()) for e, c in f.terms]


def outcome(fn, *args):
    """fn(*args), or the class of the library error it raises."""
    try:
        return fn(*args)
    except FracliftError as exc:
        return type(exc)


PHASES = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
          Fraction(2, 3)]
COEFS = st.one_of(
    st.floats(-8.0, 8.0, allow_nan=False),
    st.sampled_from([1e-301, -1e-305, 5e-324, 0.0, -0.0, 1e300, -1e300]))


@st.composite
def float_pairs(draw):
    """(exponent, coefficient) pairs on one lattice, shuffled, with repeated
    exponents, cancelling pairs and values below COEF_EPS."""
    phase = draw(st.sampled_from(PHASES))
    keys = draw(st.lists(st.integers(-12, 30), max_size=30))
    pairs = [(float(n + phase), draw(COEFS)) for n in keys]
    for e, c in draw(st.lists(st.sampled_from(pairs), max_size=4)
                     if pairs else st.just([])):
        pairs.append((e, -c))  # cancels, or halves a repeated key's sum
    return draw(st.permutations(pairs))


def orders(phase):
    # orders congruent to the phase annihilate a run; others do not
    return st.builds(lambda j, f: float(phase + j + f),
                     st.integers(-2, 3),
                     st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2),
                                      Fraction(1, 3), Fraction(3, 4)]))


# keys near and past 2^21, where equal doubles stop proving membership
FAR_KEYS = [_EXACT_KEYS - 1, _EXACT_KEYS, _EXACT_KEYS + 1, -_EXACT_KEYS,
            -_EXACT_KEYS - 1, 2**22 + 5, 2**30, 2**33, -2**33, 2**40, 2**52]


@st.composite
def nudged_pairs(draw):
    """Pairs on one lattice, some exponents moved off their doubles: by 1-4
    ulps, by up to INT_TOL and by 2 INT_TOL; keys at and past +-2^21; and
    now and then one exponent that is not finite among finite ones."""
    phase = draw(st.sampled_from(PHASES))
    keys = draw(st.lists(st.one_of(st.integers(-12, 30),
                                   st.sampled_from(FAR_KEYS)),
                         min_size=1, max_size=12))
    pairs = []
    for n in keys:
        e = float(n + phase)
        move = draw(st.sampled_from(["none", "ulps", "tol", "twice"]))
        if move == "ulps":
            to = draw(st.sampled_from([-math.inf, math.inf]))
            for _ in range(draw(st.integers(1, 4))):
                e = math.nextafter(e, to)
        elif move == "tol":
            e += draw(st.floats(-INT_TOL, INT_TOL))
        elif move == "twice":
            e += draw(st.sampled_from([-2 * INT_TOL, 2 * INT_TOL]))
        pairs.append((e, draw(COEFS)))
    if draw(st.integers(0, 15)) == 0:
        bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        pairs.insert(draw(st.integers(0, len(pairs))), (bad, 1.0))
    return pairs


def check_float_entry(pairs):
    """GenSeries(0.0, pairs) against ref_lattice, bit for bit: the phase,
    keys and coefficients, and .terms as the lattice's doubles."""
    want = outcome(ref_lattice, pairs)
    got = outcome(GenSeries, 0.0, pairs)
    if isinstance(want, type):
        assert got is want
        return
    phase, coeffs = want
    assert got.phase == phase
    assert bits(got.coeffs) == bits(coeffs)
    assert got.keys == sorted(coeffs)
    assert hex_terms(got) == lattice_terms(got)


@settings(max_examples=300, deadline=None)
@given(float_pairs())
def test_float_entry_matches_the_dict_loop(pairs):
    check_float_entry(pairs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nudged_pairs())
def test_nudged_float_entry_matches_the_dict_loop(pairs):
    check_float_entry(pairs)


def test_keys_near_powers_of_two_match_the_dict_loop():
    # past 2^21 an exponent can equal its key's lattice double and still
    # lie off the lattice by more than INT_TOL once the phase is taken off
    # (2^30 + 1/3: 1.2e-7), so equality alone must not admit it
    for k in range(19, 54):
        for n in (2**k - 1, 2**k, 2**k + 1):
            for sign in (1, -1):
                for phase in PHASES:
                    e = float(sign * n + phase)
                    check_float_entry([(e, 1.0)])
                    check_float_entry([(float(phase), 1.0), (e, 2.0)])


def test_exact_key_bound_keeps_members_within_int_tol():
    # an exponent e below 2 _EXACT_KEYS in magnitude, and e - phase, each
    # round by at most half an ulp; together with the phase's rounding they
    # must stay within INT_TOL of the key
    assert math.ulp(2.0 * _EXACT_KEYS) / 2 + 2.0**-53 <= INT_TOL


class TestFiniteColumns:
    """Columns are tested finite by their sum: finite values whose sum
    overflows pass, and a column with a non-finite value among finite ones
    is refused with a message naming its first such value."""

    def test_overflowing_sums_of_finite_values_pass(self):
        big = {0: 1e308, 1: 1e308}
        f = GenSeries(0.0, [(0.0, 1e308), (1.0, 1e308)])
        assert dict(f.coeffs) == big
        assert dict(LiftedSeq(0.0, 0, big).values) == big
        assert dict(rl_series(f, 0.0).coeffs) == big
        assert dict(project(LiftedSeq(0.0, 0, big)).coeffs) == big
        g = GenSeries(0.0, [(1e308, 1.0), (1.7e308, 2.0)])
        assert g.terms == ((1e308, 1.0), (1.7e308, 2.0))

    @pytest.mark.parametrize("make, error, message", [
        (lambda: GenSeries(0.0, [(0.0, 1.0), (1.0, math.nan),
                                 (2.0, -math.inf)]),
         InputError, "a coefficient is nan, not a finite double"),
        (lambda: GenSeries(0.0, [(0.0, 1.0), (-math.inf, 1.0),
                                 (math.nan, 2.0)]),
         ExponentError, "exponent -inf is not finite"),
        (lambda: GenSeries(0.0, [(0.0, 1.0), (math.nan, 1.0),
                                 (math.inf, 2.0)]),
         ExponentError, "exponent nan is not finite"),
        (lambda: LiftedSeq(0.0, 0, {0: 1.0, 1: -math.inf, 2: math.nan}),
         InputError, "a lifted value is -inf, not a finite double"),
        (lambda: rl_series(GenSeries(0.0, [(5.0, 1.0), (10.0, 1e308)]), 5.0),
         GammaOverflowError, "a coefficient is inf, not a finite double"),
        (lambda: project(LiftedSeq(0.0, 0.5, {-170: 1e308, 0: 1.0})),
         GammaOverflowError, "a coefficient is inf, not a finite double"),
    ], ids=["coefficient", "exponent-inf", "exponent-nan", "lifted-value",
            "rl_series", "project"])
    def test_a_non_finite_value_is_named(self, make, error, message):
        with pytest.raises(error) as exc:
            make()
        assert str(exc.value) == message


class TestEntryColumn:
    """A float-entry series' .terms are the lattice's doubles of its keys,
    [((n*q + p)/q, c)], wherever the entry kept its checked column and
    wherever it did not."""

    @pytest.mark.parametrize("pairs", [
        [(-0.0, 1.0), (1.0, 2.0)],  # -0.0 reads back as 0.0
        [(1.0, 1.0), (0.0, 3.0), (1.0, 2.0)],  # merged equal keys
        [(0.0, 1e-301), (1.0, 1.0), (2.0, -5e-324)],  # values dropped
        [(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)],  # phase 0
        [(1 / 3, 1.0), (4 / 3, 2.0), (10 / 3, 4.0)],  # phase 1/3
        [(-2 / 3, 1.0), (1 / 3, 2.0), (1 / 3, 4.0), (4 / 3, 1e-305)],
    ])
    def test_terms_are_the_lattice_doubles(self, pairs):
        f = GenSeries(0.0, pairs)
        assert hex_terms(f) == lattice_terms(f)

    def test_negative_zero_exponent_reads_as_zero(self):
        text = ('{"basepoint": 0, "terms": [{"exp": -0.0, "coef": 1.0}, '
                '{"exp": 1.0, "coef": 2.0}]}')
        for f in (GenSeries(0.0, [(-0.0, 1.0), (1.0, 2.0)]),
                  series_from_json(text)):
            assert f.terms[0][0].hex() == (0.0).hex()
            assert f.exponents()[0].hex() == (0.0).hex()
            assert hex_terms(f) == lattice_terms(f)

    def test_exponents_returns_a_new_list(self):
        for pairs in ([(0.0, 1.0), (1.0, 2.0)], [(1 / 3, 1.0), (4 / 3, 2.0)]):
            f = GenSeries(0.0, pairs)
            want = lattice_terms(f)
            es = f.exponents()
            es[0] = 99.0
            es.append(7.0)
            assert f.exponents() == [float.fromhex(e) for e, _ in want]
            assert hex_terms(f) == want
            es = f.exponents()
            es[1] = -1.0
            assert hex_terms(f) == want


@settings(max_examples=300, deadline=None)
@given(float_pairs(), st.data())
def test_rl_series_matches_the_dict_loop(pairs, data):
    f = outcome(GenSeries, 0.0, pairs)
    if isinstance(f, type):
        return
    k = data.draw(orders(f.phase))
    want = outcome(ref_rl_series, f.phase, dict(f.coeffs), k)
    got = outcome(rl_series, f, k)
    if isinstance(want, type):
        assert got is want
        return
    assert (got.phase, bits(got.coeffs)) == (want[0], bits(want[1]))


@settings(max_examples=300, deadline=None)
@given(float_pairs())
def test_lift_gen_matches_the_dict_loop(pairs):
    f = outcome(GenSeries, 0.0, pairs)
    if isinstance(f, type):
        return
    want = outcome(ref_lift_gen, f.phase, dict(f.coeffs))
    got = outcome(lift_gen, f)
    if isinstance(want, type):
        assert got is want
        return
    assert (got.offset, bits(got.values)) == (want[0], bits(want[1]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PHASES), st.integers(-3, 3),
       st.dictionaries(st.integers(-12, 30), COEFS, max_size=30))
def test_project_matches_the_dict_loop(frac, whole, values):
    # integer offsets put a run of leading indices on Gamma poles
    rho = LiftedSeq(0.0, frac + whole, values)
    want = outcome(ref_project, rho.offset, ref_nonzero(values))
    got = outcome(project, rho)
    if isinstance(want, type):
        assert got is want
        return
    assert (got.phase, bits(got.coeffs)) == (want[0], bits(want[1]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    float_pairs(),
    # evenly spaced keys, where the sum runs by Horner's rule
    st.builds(lambda phase, lo, g, cs: [(float(lo + g * i + phase), c)
                                        for i, c in enumerate(cs)],
              st.sampled_from(PHASES), st.integers(-6, 6), st.integers(1, 3),
              st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=24))),
    st.sampled_from([0.1, 0.5, 0.999, 1.0, 1.5, 7.0, -0.5, 0.0]))
def test_series_eval_matches_the_sorted_items(pairs, x):
    f = outcome(GenSeries, 0.0, pairs)
    if isinstance(f, type):
        return
    want = outcome(ref_series_eval, f.phase, dict(f.coeffs), x)
    got = outcome(series_eval, f, x)
    if isinstance(want, type):
        assert got is want
    else:
        assert got.hex() == want.hex()
