"""The per-lattice Gamma tables behind gamma.lattice_scaled: each (lattice,
order, kind) is walked once from one fixed anchor, so a value depends only
on its lattice, key and order, and a lattice already tabled is read, not
walked again."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fraclift.coeffseq import GenSeries
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
        assert held == gamma_mod._held <= gamma_mod._CEILING
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
