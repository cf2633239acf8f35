"""The per-lattice plans behind rational, the float entry's phase,
rl_series, shift, lift_gen, project and gamma.lattice_scaled: each call's
exact-rational work, cached per lattice and order. A result is the same bit
for bit whether the plans and the Gamma tables are cold or warm, each cache
keeps at most config.PLAN_CACHE entries, the perturbation is applied after
the plans are read, and an input refused on entry builds no plan."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PLANS, clear_plans, plan_sizes
from fraclift import config
from fraclift.coeffseq import GenSeries, rational
from fraclift.errors import FracliftError
from fraclift.gamma import gamma
from fraclift.lifted import LiftedSeq, lift_gen, project, shift
from fraclift.rl import annihilated_run, rl_series, rl_term

phases = st.integers(1, 12).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))
orders = st.integers(1, 12).flatmap(
    lambda q: st.integers(-4 * q, 4 * q).map(lambda p: Fraction(p, q)))
key_sets = st.lists(st.integers(-40, 80), max_size=30, unique=True).map(sorted)


def answer(fn, *args):
    """fn(*args), or the library error it raises, as the benchmark records
    a failed request."""
    try:
        return fn(*args)
    except FracliftError as exc:
        return ("error", type(exc).__name__, str(exc))


def outputs(phase, k, keys):
    """repr of rational, rl_series, shift, lift_gen and project on one
    lattice and order: what the benchmark compares between rounds."""
    f = GenSeries.keyed(0.5, phase, {n: 1.0 + n / 7 for n in keys}, 32.0)
    k = float(k)
    rho = answer(lift_gen, f)
    lifted = isinstance(rho, LiftedSeq)
    return repr([rational(k), rational(float(phase + (keys or [0])[0])),
                 answer(rl_series, f, k), rho,
                 lifted and answer(shift, rho, k),
                 lifted and answer(project, shift(rho, k))])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(phases, orders, key_sets), min_size=1, max_size=4))
def test_outputs_are_the_same_cold_and_warm(cases):
    clear_plans()
    cold = [outputs(*case) for case in cases]
    warm = [outputs(*case) for case in cases]
    assert warm == cold
    clear_plans()
    assert [outputs(*case) for case in reversed(cases)] == cold[::-1]


def test_each_cache_stays_within_its_bound():
    clear_plans()
    bound = config.PLAN_CACHE
    f = GenSeries(0.0, [(0.25, 1.0), (1.25, 2.0)])
    rho = lift_gen(f)
    for j in range(bound + 50):
        k = 0.001 * j + 0.0005  # a distinct double and rational per j
        rl_series(f, k)
        shift(rho, k)
        GenSeries(0.0, [(k, 1.0)])  # a phase read from a distinct double
        # distinct lattices p/q: q = j + 2 for lift_gen, project and chains
        phase = Fraction(1, j + 2)
        g = GenSeries.keyed(0.0, phase, {0: 1.0})
        project(lift_gen(g))
    for plan in PLANS:
        info = plan.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound, plan
    clear_plans()


def test_the_perturbation_scales_ratios_read_from_warm_plans(perturb):
    f = GenSeries(0.0, tuple((0.25 + n, 1.0) for n in range(-3, 20)))
    clean = rl_series(f, 0.5)
    hits = sum(plan.cache_info().hits for plan in PLANS)
    perturb("1e-6")
    read = rl_series(f, 0.5)
    assert sum(plan.cache_info().hits for plan in PLANS) > hits
    assert [c for _, c in read.terms] == [
        c * (1 + 1e-6) for _, c in clean.terms]
    perturb("0")
    assert rl_series(f, 0.5) == clean


HUGE = 10**400


@pytest.mark.parametrize("call", [
    lambda f, rho: rational(math.nan),
    lambda f, rho: rational("a"),
    lambda f, rho: rl_series(f, HUGE),
    lambda f, rho: rl_series(f, None),
    lambda f, rho: rl_series(f, math.inf),
    lambda f, rho: rl_series(f, 1e300),  # |e + 1 - k| past 2^52
    lambda f, rho: annihilated_run(f, "a"),
    lambda f, rho: rl_term(1.0, 0.5, HUGE),
    lambda f, rho: shift(rho, HUGE),
    lambda f, rho: shift(rho, math.nan),
    lambda f, rho: project(LiftedSeq(0.0, HUGE, {0: 1.0})),
    lambda f, rho: gamma("a"),
], ids=["rational-nan", "rational-string", "rl_series-huge",
        "rl_series-none", "rl_series-inf", "rl_series-past-2^52",
        "annihilated_run-string", "rl_term-huge", "shift-huge", "shift-nan",
        "project-past-double-range", "gamma-string"])
def test_refused_inputs_build_no_plan(call):
    f = GenSeries(0.0, [(Fraction(1, 7) + 3, 1.0)])
    rho = LiftedSeq(0.0, Fraction(2, 11), {1: 1.0})
    sizes = plan_sizes()
    with pytest.raises(FracliftError):
        call(f, rho)
    assert plan_sizes() == sizes
