"""The per-lattice tables. The Gamma tables behind gamma.lattice_scaled:
each (lattice, order, kind) is walked once from one fixed anchor, so a value
depends only on its lattice, key and order, and a lattice already tabled is
read, not walked again. The exponent columns behind
coeffseq.lattice_doubles: each value is the correctly rounded double of its
rational, whatever came before, and series on one lattice share it."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fraclift import config, coeffseq
from fraclift.coeffseq import GenSeries, lattice_doubles
from fraclift.coeffseq import series_from_json
from fraclift.gamma import gamma_chain, gamma_ratio, is_pole, recip_gamma
from fraclift.lifted import LiftedSeq, lift_gen, project
from fraclift.rl import rl_series

# the module, which the package's `gamma` function shadows as an attribute
gamma_mod = importlib.import_module("fraclift.gamma")


def clear():
    gamma_mod._tables.clear()
    gamma_mod._held = 0


@pytest.fixture
def fresh(monkeypatch):
    """Empty tables for the test, the module's own restored after it."""
    monkeypatch.setattr(gamma_mod, "_tables", {})
    monkeypatch.setattr(gamma_mod, "_held", 0)


def hexes(values):
    return [v.hex() for v in values]


def defined(phase, k, kind, keys):
    """The keys on which the chain of this kind is a value: off the poles of
    x (gamma, ratio) and of x - k (recip, ratio), below Gamma's overflow
    and, off its poles, above 1/Gamma's."""
    return [n for n in keys
            if not (kind != "recip" and is_pole(float(n + phase)))
            and not (kind == "gamma" and n + phase > 171)
            and not (kind == "recip" and n + phase < -171
                     and not is_pole(float(n + phase)))
            and not (kind != "gamma" and is_pole(float(n + phase - k)))]


twelfths = st.integers(1, 12).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))
orders = st.integers(1, 12).flatmap(
    lambda q: st.integers(-4 * q, 4 * q).map(lambda p: Fraction(p, q)))
kinds = st.sampled_from(["gamma", "recip", "ratio"])
# mostly near the anchor, sometimes past the span or out of the double range
key_sets = st.lists(st.one_of(st.integers(-60, 200),
                              st.sampled_from([-4500, 4200, 5000])),
                    min_size=1, max_size=40, unique=True).map(sorted)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(phase=twelfths, k=orders, kind=kinds, keys=key_sets, others=key_sets,
       before=st.lists(st.tuples(twelfths, orders, kinds, key_sets),
                       max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_values_are_history_independent(fresh, phase, k, kind, keys, others,
                                        before, seed):
    """A chain's value at a key is the same bit for bit alone, among other
    keys, after unrelated calls and calls on the same lattice, in any order,
    and after the tables are cleared."""
    k = k if kind == "ratio" else 0
    keys = defined(phase, k, kind, keys)
    if not keys:
        return
    order = keys[:]
    random.Random(seed).shuffle(order)
    alone = {n: gamma_chain(phase, [n], kind, k)[0] for n in order}
    want = hexes(alone[n] for n in keys)
    assert hexes(gamma_chain(phase, keys, kind, k)) == want
    clear()
    for ph, kb, kd, ks in before:
        kb = kb if kd == "ratio" else 0
        ks = defined(ph, kb, kd, ks)
        if ks:
            gamma_chain(ph, ks, kd, kb)
    mixed = sorted(set(keys) | set(defined(phase, k, kind, others)))
    got = dict(zip(mixed, gamma_chain(phase, mixed, kind, k)))
    assert hexes(got[n] for n in keys) == want
    clear()
    assert hexes(gamma_chain(phase, keys, kind, k)) == want


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(phase=twelfths.filter(lambda p: p != 0), k=orders,
       keys=st.lists(st.integers(-60, 160), min_size=2, max_size=60,
                     unique=True),
       data=st.data())
def test_a_sub_series_keeps_its_coefficients(fresh, phase, k, keys, data):
    """rl_series, lift_gen and project of a sub-series equal the matching
    entries of the full series' results, bit for bit, in either order of
    the calls."""
    sub = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    coef = {n: 1.0 + n / 7 for n in keys}

    def series(ns):
        return GenSeries.keyed(0.0, phase, {n: coef[n] for n in sorted(ns)})

    def lifted(ns):
        return LiftedSeq.keyed(0.0, phase, {n: coef[n] for n in sorted(ns)})

    def outputs(ns):
        return (dict(rl_series(series(ns), float(k)).terms),
                lift_gen(series(ns)).values, dict(project(lifted(ns)).terms))

    if data.draw(st.booleans()):
        small, full = outputs(sub), outputs(keys)
    else:
        full, small = outputs(keys), outputs(sub)
    for part, whole in zip(small, full):
        assert len(part) <= len(sub)
        assert {e: v.hex() for e, v in part.items()} == {
            e: whole[e].hex() for e in part}


def test_a_tabled_lattice_is_read_not_walked(fresh, monkeypatch):
    # a second call on the same lattices makes no scalar-kernel call and no
    # Pochhammer step; the first one did both
    f = GenSeries(0.0, tuple((0.25 + n, 1.0 + n / 7) for n in range(-20, 40)))
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(gamma_mod, name, wrapper)

    for name in ("_ratio", "gamma", "recip_gamma", "_walk"):
        counted(name, getattr(gamma_mod, name))
    first = (rl_series(f, 0.5), lift_gen(f), project(lift_gen(f)))
    assert {"_ratio", "gamma", "recip_gamma", "_walk"} <= set(calls)
    calls.clear()
    again = (rl_series(f, 0.5), lift_gen(f), project(lift_gen(f)))
    assert calls == []
    assert again == first


def test_perturbed_values_do_not_leak(fresh, perturb):
    # the tables hold unperturbed values; the perturbation is applied on the
    # way out, whichever setting filled them
    f = GenSeries(0.0, tuple((0.25 + n, 1.0) for n in range(-20, 40)))
    clean = rl_series(f, 0.5)
    perturb("1e-6")
    read = rl_series(f, 0.5)  # a table filled unperturbed
    clear()
    filled = rl_series(f, 0.5)  # a table filled perturbed
    assert read == filled
    assert [c for _, c in filled.terms] == [
        c * (1 + 1e-6) for _, c in clean.terms]
    perturb("0")
    assert rl_series(f, 0.5) == clean


def test_the_ceiling_bounds_the_tables(fresh):
    rng = random.Random(0)
    drops, count = 0, 0
    for _ in range(3000):
        q = rng.randint(2, 400)
        phase = Fraction(rng.randint(1, q - 1), q)
        k = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        keys = sorted(rng.sample(range(-40, 120), 20))
        gamma_chain(phase, keys, "ratio", k)
        held = sum(len(vals) for _, vals, _, _ in gamma_mod._tables.values())
        assert held == gamma_mod._held <= config.TABLE_CEILING
        drops += len(gamma_mod._tables) < count
        count = len(gamma_mod._tables)
    assert drops >= 3


def test_a_far_key_goes_to_the_scalar_kernel(fresh, monkeypatch):
    # a key 10^6 steps from the anchor walks nothing past the anchors: the
    # scalar kernel answers it, bit for bit, next to a key read from the
    # table
    steps = []
    walk = gamma_mod._walk

    def counted(*args):
        steps.append(args[-2])
        return walk(*args)

    monkeypatch.setattr(gamma_mod, "_walk", counted)
    n = 10**6
    x = float(n + Fraction(1, 3))
    assert gamma_chain(Fraction(1, 3), [n], "recip") == [recip_gamma(x)]
    assert gamma_chain(Fraction(1, 3), [0, n], "ratio", Fraction(1, 2))[1] \
        == gamma_ratio(x, x - 0.5)
    assert steps and all(count <= 1 for count in steps)


@pytest.fixture
def fresh_columns(monkeypatch):
    """Empty exponent columns for the test, the module's own restored after
    it."""
    monkeypatch.setattr(coeffseq, "_columns", {})
    monkeypatch.setattr(coeffseq, "_held", 0)


def lattice_hexes(phase, keys):
    p, q = phase.numerator, phase.denominator
    return [((n * q + p) / q).hex() for n in keys]


def assert_columns_bounded():
    held = [len(entry[1]) for entry in coeffseq._columns.values() if entry]
    assert sum(held) == coeffseq._held
    assert coeffseq._held + len(coeffseq._columns) <= config.TABLE_CEILING
    assert all(n <= config.TABLE_SPAN + 1 for n in held)


# the integers, p/q with q up to 1000 and binary phases p/2^52
column_phases = st.one_of(
    st.just(Fraction(0)),
    st.integers(2, 1000).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))),
    st.integers(1, 2**52 - 1).map(lambda p: Fraction(p, 2**52)))
# in drawn order, so ascending, unsorted or repeated; mostly near 0, some
# far enough apart to pass the span of a column
column_keys = st.lists(st.one_of(st.integers(-300, 300),
                                 st.sampled_from([-5000, -4097, 4200, 10**6])),
                       min_size=1, max_size=40)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(calls=st.lists(st.tuples(column_phases, column_keys), min_size=1,
                      max_size=6),
       bounds=st.sampled_from([(config.TABLE_SPAN, config.TABLE_CEILING),
                               (32, 64)]))
# consecutive keys out of order: a column read of them is a gather, no slice
@example(calls=[(Fraction(1, 3), [2, 0, 1]), (Fraction(1, 3), [1, 0]),
                (Fraction(1, 3), [2, 0, 1])],
         bounds=(config.TABLE_SPAN, config.TABLE_CEILING))
def test_exponent_doubles_are_the_lattice_rationals(fresh_columns,
                                                    monkeypatch, calls,
                                                    bounds):
    """lattice_doubles, its read of keys in any order, exponents(), .terms
    and the float entry give the correctly rounded double of (n q + p)/q bit
    for bit, after any calls before them, also where small bounds make the
    calls pass the columns by and clear them; the columns stay within their
    bounds."""
    span, ceiling = bounds
    monkeypatch.setattr(config, "TABLE_SPAN", span)
    monkeypatch.setattr(config, "TABLE_CEILING", ceiling)
    coeffseq._columns.clear()
    coeffseq._held = 0
    for phase, keys in calls:
        p, q = phase.numerator, phase.denominator
        assert hexes(coeffseq._read(p, q, keys, min(keys), max(keys),
                                    False)) == lattice_hexes(phase, keys)
        assert_columns_bounded()
        ks = sorted(set(keys))
        want = lattice_hexes(phase, ks)
        assert hexes(lattice_doubles(p, q, ks)) == want
        f = GenSeries.keyed(0.0, phase, dict.fromkeys(ks, 1.0))
        assert hexes(f.exponents()) == want
        assert hexes(e for e, _ in f.terms) == want
        # the float entry, at the phase given, with the pairs as drawn
        g = series_from_json(
            '{"basepoint": 0, "terms": [%s], "phase_exact": "%s"}'
            % (", ".join('{"exp": %r, "coef": 1.0}' % ((n * q + p) / q)
                         for n in keys), phase))
        assert g.keys == ks
        assert hexes(e for e, _ in g.terms) == want
        assert hexes(g.exponents()) == want
        assert_columns_bounded()


def test_key_zero_reads_positive_zero(fresh_columns):
    for _ in range(2):  # a mark, then a column that key 0 extends
        lattice_doubles(0, 1, [-3, -2, -1])
    f = GenSeries.keyed(0.0, Fraction(0), {-1: 1.0, 0: 2.0, 1: 3.0})
    assert f.exponents()[1].hex() == (0.0).hex()
    assert GenSeries(0.0, [(-0.0, 1.0)]).terms[0][0].hex() == (0.0).hex()
    assert lattice_doubles(0, 1, [0, 5000])[0].hex() == (0.0).hex()


def test_series_on_one_lattice_share_their_exponents(fresh_columns):
    GenSeries.keyed(0.0, Fraction(1, 4), {0: 1.0}).exponents()  # a mark
    f = GenSeries(0.0, [(n + 0.25, 1.0) for n in range(-5, 10)])
    g = GenSeries(0.0, [(n + 0.25, 2.0) for n in (9, 0, 3, 3, -2)])
    h = rl_series(GenSeries(0.0, [(n + 0.75, 1.0) for n in range(5)]), 0.5)
    assert g.phase == h.phase == f.phase
    own = {e: e for e in f.exponents()}
    for s in (f, g, h):
        for e in s.exponents() + [e for e, _ in s.terms]:
            assert e is own[e]


def test_a_set_past_the_span_builds_no_column(fresh_columns):
    span = config.TABLE_SPAN
    keys = list(range(span + 2))
    for _ in range(2):  # a mark, then a read past the span
        assert hexes(lattice_doubles(1, 3, keys)) == lattice_hexes(
            Fraction(1, 3), keys)
        assert coeffseq._columns == {(1, 3): None} and coeffseq._held == 0
    lattice_doubles(1, 3, keys[:-1])
    assert len(coeffseq._columns[1, 3][1]) == span + 1
    # keys that would stretch the column past the span are computed
    # directly, and the column stays as it was
    assert lattice_doubles(1, 3, [span + 10]) == [(3 * span + 31) / 3]
    assert coeffseq._columns[1, 3][0] == 0 and coeffseq._held == span + 1


def test_sparse_keys_build_no_column(fresh_columns):
    """A few keys far apart cost their own divisions only: a call adds at
    most twice its number of keys to a column."""
    f = GenSeries.keyed(0.0, Fraction(1, 3), {0: 1.0, 4000: 1.0})
    want = [1 / 3, 12001 / 3]
    assert f.exponents() == want and [e for e, _ in f.terms] == want
    assert GenSeries(0.0, [(12001 / 3, 1.0), (1 / 3, 1.0)]).exponents() \
        == want
    assert coeffseq._columns == {(1, 3): None} and coeffseq._held == 0
    # a dense call builds the column; keys far past its end leave it so
    lattice_doubles(1, 3, list(range(10)))
    assert lattice_doubles(1, 3, [100, 101]) == [301 / 3, 304 / 3]
    assert coeffseq._columns[1, 3] == (0, [(3 * n + 1) / 3 for n in range(10)])
    # keys whose gap to the column is small extend it by the missing keys
    lattice_doubles(1, 3, [12, 13])
    assert coeffseq._columns[1, 3][0] == 0 and coeffseq._held == 14


def test_a_lattice_read_once_builds_no_column(fresh_columns):
    """Under an order k met once, each result lies on a new lattice: its
    first read computes its doubles directly and only marks it."""
    jet = GenSeries(0.0, [(float(n), 1.0) for n in range(17)])
    coeffseq._columns.clear()
    for k in (0.1, 0.2, 0.30000000000000004):
        f = rl_series(jet, k)
        p, q = f.phase.numerator, f.phase.denominator
        assert hexes(e for e, _ in f.terms) == lattice_hexes(f.phase, f.keys)
        assert coeffseq._columns[p, q] is None
    assert len(coeffseq._columns) == 3 and coeffseq._held == 0
    f.exponents()  # a second read
    assert len(coeffseq._columns[p, q][1]) == len(f.keys)


def test_the_ceiling_bounds_the_columns(fresh_columns):
    span, drops, count = config.TABLE_SPAN, 0, 0
    for q in range(2, 40):
        for _ in range(2):  # a mark, then a column
            lattice_doubles(1, q, range(-span // 2, span // 2 + 1))
        assert_columns_bounded()
        drops += len(coeffseq._columns) < count
        count = len(coeffseq._columns)
    assert drops >= 2


def test_the_ceiling_bounds_the_marks(fresh_columns, monkeypatch):
    monkeypatch.setattr(config, "TABLE_CEILING", 64)
    lattice_doubles(1, 2, [0, 1])
    lattice_doubles(1, 2, [0, 1])  # a column of two values
    drops, count = 0, 0
    for q in range(3, 200):
        lattice_doubles(1, q, [0])
        assert_columns_bounded()
        drops += len(coeffseq._columns) < count
        count = len(coeffseq._columns)
    assert drops >= 2
    # a column that grows past the ceiling beside many marks clears them
    coeffseq._columns.clear()
    coeffseq._held = 0
    for q in range(2, 40):
        lattice_doubles(1, q, [0, 1])
    lattice_doubles(1, 2, list(range(30)))
    assert_columns_bounded()
    assert list(coeffseq._columns) == [(1, 2)]
