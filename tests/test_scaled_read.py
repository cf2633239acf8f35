"""The one-pass read behind rl_series, lift_gen and project: each hands its
value column to gamma.lattice_scaled, which multiplies every value by its
Gamma factor as it reads the lattice's table (one slice for consecutive
keys, one lookup each otherwise) and gives the keys off the table the
scalar kernel.

On lattices p/q with q <= 12, for the three kinds (rl_series's ratios,
lift_gen's Gamma values, project's reciprocals) and for keys wholly on a
warm table (consecutive and jittered), keys starting below a table's floor
(joint-pole keys and keys past its span), keys running past its ceiling
and keys that make a warm table walk down and up:

- a value read from a table is within 1e-14 of v times the exact factor
  (mpmath at the exact rational), as the chain tests bound it; a value the
  scalar kernel answers is v times that kernel's value, bit for bit, or
  within 1e-12 of the exact one for a ratio past the span;
- the outputs are the same bit for bit from cold and warm tables, and
  batched or one key at a time;
- under FRACLIFT_GAMMA_PERTURB each rl_series value is v * (factor * (1 +
  eps)) bit for bit, and lift_gen and project are unchanged."""

import random
import sys
from fractions import Fraction

import mpmath
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import clear_plans
from fraclift.coeffseq import GenSeries
from fraclift.config import COEF_EPS
from fraclift.errors import FracliftError
from fraclift.gamma import gamma, gamma_chain, gamma_ratio, is_pole, recip_gamma
from fraclift.lifted import LiftedSeq, lift_gen, project
from fraclift.rl import annihilated_run, rl_series

twelfths = st.integers(1, 12).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))
orders = st.integers(1, 12).flatmap(
    lambda q: st.integers(-4 * q, 4 * q).map(lambda p: Fraction(p, q)))
kinds = st.sampled_from(["ratio", "gamma", "recip"])
KEY_SETS = ["warm-consecutive", "warm-jittered", "below-floor",
            "past-ceiling", "walk-down-up"]


def key_set(name, seed):
    """(keys that warm the table first, or None; the keys read)."""
    if name == "warm-consecutive":
        return range(-20, 80), list(range(-5, 40))
    if name == "warm-jittered":
        return range(-20, 80), sorted(random.Random(seed).sample(
            range(-20, 80), 30))
    if name == "below-floor":  # joint poles at phase 0, else past the span
        return None, [-4600, -4400] + list(range(-8, 12))
    if name == "past-ceiling":  # out of the normal range, or past the span
        return None, list(range(-3, 6)) + list(range(160, 180)) + [4400, 5000]
    return range(0, 20), list(range(-30, 60))  # walk-down-up


def values(keys):
    # large past 170, where 1/Gamma is subnormal, so its products stay
    # above COEF_EPS
    return [1e290 if n > 170 else 1.0 + n % 7 / 7 for n in keys]


def layer(kind, phase, k, keys, vals):
    """{exact exponent: value} of rl_series (order k), lift_gen or project
    (offset phase) on the keys and values, or the library error's type."""
    try:
        if kind == "recip":
            out = project(LiftedSeq.keyed(0.0, phase, dict(zip(keys, vals))))
        else:
            f = GenSeries.keyed(0.0, phase, dict(zip(keys, vals)))
            out = rl_series(f, float(k)) if kind == "ratio" else lift_gen(f)
    except FracliftError as exc:
        return type(exc)
    place = out.phase if isinstance(out, GenSeries) else -out.offset
    return {n + place: v.hex() for n, v in zip(out.keys, out.vals)}


def point(kind, phase, k, n):
    """(the exact exponent key n lands on, its factor's Gamma argument)."""
    if kind == "recip":
        return n - phase, n - phase + 1
    e = n + phase
    return (e - k if kind == "ratio" else e), e + 1


def exact(kind, x, k):
    # the factor at the exact rational x, to 40 digits
    with mpmath.workdps(40):
        mx = mpmath.mpf(x.numerator) / x.denominator
        if kind == "recip":
            return mpmath.rgamma(mx)
        g = mpmath.gamma(mx)
        return g * mpmath.rgamma(mx - mpmath.mpf(k.numerator) / k.denominator) \
            if kind == "ratio" else g


def check_values(kind, phase, k, keys, vals, got):
    for n, v in zip(keys, vals):
        t, x = point(kind, phase, k, n)
        if t not in got:  # annihilated or dropped: see the one-key test
            continue
        c = float.fromhex(got[t])
        xf = float(x)
        if kind == "ratio" and is_pole(xf):  # a joint pole: the limit
            assert c == v * gamma_ratio(xf, float(x - k))
            continue
        want = v * exact(kind, x, k)
        if not sys.float_info.min <= abs(want / v) <= sys.float_info.max:
            # off the normal range: the scalar kernel, bit for bit
            assert c == v * (gamma(xf) if kind == "gamma" else recip_gamma(xf))
            continue
        tol = 1e-12 if abs(n) > 4096 else 1e-14
        assert abs(c - want) <= tol * abs(want), (n, c, want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=kinds, phase=twelfths, k=orders, name=st.sampled_from(KEY_SETS),
       seed=st.integers(0, 2**32 - 1))
@example(kind="ratio", phase=Fraction(0), k=Fraction(2), name="below-floor",
         seed=0)
@example(kind="ratio", phase=Fraction(1, 3), k=Fraction(-5, 4),
         name="past-ceiling", seed=0)
@example(kind="recip", phase=Fraction(5, 12), k=Fraction(0),
         name="past-ceiling", seed=0)
@example(kind="gamma", phase=Fraction(1, 2), k=Fraction(0),
         name="walk-down-up", seed=0)
def test_one_pass_matches_the_kernels_cold_warm_and_key_by_key(
        kind, phase, k, name, seed):
    warm, keys = key_set(name, seed)
    vals = values(keys)
    clear_plans()
    if warm is not None:
        layer(kind, phase, k, list(warm), values(warm))
    first = layer(kind, phase, k, keys, vals)
    again = layer(kind, phase, k, keys, vals)
    clear_plans()
    cold = layer(kind, phase, k, keys, vals)
    assert first == again == cold
    ones = [layer(kind, phase, k, [n], [v]) for n, v in zip(keys, vals)]
    if isinstance(cold, dict):
        assert all(isinstance(one, dict) for one in ones)
        assert cold == {t: v for one in ones for t, v in one.items()}
        check_values(kind, phase, k, keys, vals, cold)
    else:  # the error of one of its keys
        assert cold in ones


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(phase=twelfths, k=orders, name=st.sampled_from(KEY_SETS),
       seed=st.integers(0, 2**32 - 1))
@example(phase=Fraction(0), k=Fraction(3), name="below-floor", seed=0)
def test_perturbed_values_are_v_times_the_perturbed_factor(
        perturb, phase, k, name, seed):
    warm, keys = key_set(name, seed)
    vals = values(keys)
    f = GenSeries.keyed(0.0, phase, dict(zip(keys, vals)))
    clean = [layer(kind, phase, k, keys, vals)
             for kind in ("ratio", "gamma", "recip")]
    if not isinstance(clean[0], dict):
        return
    _, lo, hi, _ = annihilated_run(f, float(k))
    live = keys[:lo] + keys[hi:]
    factors = gamma_chain(phase + 1, live, "ratio", k)
    by_key = dict(zip(keys, vals))
    want = [by_key[n] * (c * (1 + 1e-6)) for n, c in zip(live, factors)]
    perturb("1e-6")
    if warm is not None:
        layer("ratio", phase, k, list(warm), values(warm))
    got = rl_series(f, float(k))
    assert [v.hex() for v in got.vals] == [
        w.hex() for w in want if abs(w) >= COEF_EPS]
    assert [layer(kind, phase, k, keys, vals)
            for kind in ("gamma", "recip")] == clean[1:]
    perturb("0")
