import contextlib
import os
import signal

import pytest

import importlib

import fraclift
from fraclift import config, coeffseq, lifted, rl
from fraclift.gamma import is_pole
from fraclift.verify import seq_residual, series_residual

# the gamma module, which the package's `gamma` function shadows as an
# attribute
gamma_mod = importlib.import_module("fraclift.gamma")

# Every per-lattice plan cache: rational's, the float entry's phase, rl's,
# shift's, lift_gen's, project's and lattice_scaled's
PLANS = (coeffseq._rational, coeffseq._phase, rl._plan, lifted._shift_plan,
         lifted._lift_plan, lifted._project_plan, gamma_mod._chain_plan)


def clear_plans():
    """Every plan cache, every Gamma table and every exponent column
    emptied: the next call starts cold."""
    for plan in PLANS:
        plan.cache_clear()
    gamma_mod._tables.clear()
    gamma_mod._held = 0
    coeffseq._columns.clear()
    coeffseq._held = 0


def plan_sizes():
    return [plan.cache_info().currsize for plan in PLANS]

# child processes (python -m fraclift) import the package these tests import,
# also where pytest's pythonpath setting, not PYTHONPATH, found it
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(fraclift.__file__)),
    os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _restore_config():
    # perturbation() reads FRACLIFT_GAMMA_PERTURB once and caches it; clearing
    # the cache around every test keeps a perturbed kernel from leaking on
    config.perturbation.cache_clear()
    yield
    config.perturbation.cache_clear()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run the seconds given, so
    a call that runs away fails its test instead of holding up the suite
    (at the next bytecode: one long integer operation runs to its end)."""
    def stop(signum, frame):
        raise TimeoutError("still running after %g s" % seconds)

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def perturb(monkeypatch):
    """perturb("1e-6") perturbs the Gamma kernel for the rest of the test,
    through FRACLIFT_GAMMA_PERTURB, read afresh."""
    def set_perturbation(value):
        monkeypatch.setenv("FRACLIFT_GAMMA_PERTURB", value)
        config.perturbation.cache_clear()
    return set_perturbation


# Lattices strictly inside the pole window config.INT_TOL = 1e-9: exponents
# n + phase for n in range(-6, 6), whose Gamma arguments e+1 or e+1-k lie
# 2^-32 from an integer. Each case is (phase, k, the count of terms order k
# annihilates, or None where a numerator pole makes rl_series raise).
W = 2.0**-32
WINDOW_CASES = {
    "numerator-pole": (1 - W, 0.5, None),
    "joint-poles": (1 - W, 1.0, 1),
    "denominator-poles": (0.5, 0.5 + W, 6),
    "k=0": (W, 0.0, 0),
    "k=2": (W, 2.0, 2),
}


def window_args(exps, k):
    """How many of the arguments e+1 and e+1-k is_pole marks without their
    being integers: a case with none tests nothing of the window."""
    return sum(is_pole(x) and x != round(x)
               for e in exps for x in (e + 1.0, e + 1.0 - k))


def assert_series_close(f, g, rel=1e-12, exp_tol=1e-9):
    resid = series_residual(f, g, exp_tol)
    assert resid <= rel, (
        "series differ (residual %.3e > %.1e):\n  %r\n  %r" % (resid, rel, f, g))


def assert_seq_close(a, b, rel=1e-12):
    resid = seq_residual(a, b)
    assert resid <= rel, (
        "sequences differ (residual %.3e > %.1e):\n  %r\n  %r" % (resid, rel, a, b))
