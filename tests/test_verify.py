import math

import pytest

from fraclift import oracle, verify
from fraclift.coeffseq import GenSeries, monomial
from fraclift.lifted import LiftedSeq
from fraclift.verify import run_suites, seq_residual, series_residual


def test_every_suite_passes():
    results = run_suites("all", trials=60, seed=0)
    names = [r.name for r in results]
    failures = [r.name for r in results if not r.passed]
    assert not failures, failures
    # every lettered identity is represented
    for want in ("R1'", "R2", "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8",
                 "I1", "I2", "I3", "I4", "D6'", "D8'"):
        assert want in names


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites("nope")


def test_single_suite_selection():
    results = run_suites("gamma", trials=50)
    assert results and all("gamma" in r.name or "recip" in r.name
                           for r in results)


def test_gamma_perturbation_breaks_diagram_suite(perturb):
    perturb("1e-6")
    results = run_suites("diagram")
    assert any(not r.passed for r in results)


def test_gamma_perturbation_breaks_semigroup_suite(perturb):
    perturb("1e-6")
    results = run_suites("semigroup", trials=20)
    assert any(not r.passed for r in results)


def test_suites_are_deterministic():
    a = run_suites("R", trials=40, seed=123)
    b = run_suites("R", trials=40, seed=123)
    assert [(r.name, r.passed, r.max_residual) for r in a] == \
           [(r.name, r.passed, r.max_residual) for r in b]


@pytest.mark.parametrize("size", ["1e-6", "1e-7", "2e-8"])
def test_gamma_perturbation_breaks_oracle_suite(perturb, size):
    # the oracle shares no code with the Gamma kernel, and its bound (1e-8)
    # sits below the error each perturbation puts into every coefficient
    (clean,) = run_suites("oracle")
    assert clean.passed
    perturb(size)
    (result,) = run_suites("oracle")
    assert not result.passed


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_every_result_has_a_case(trials):
    # D6-D8 run a quarter of the trials, but never none
    results = run_suites("all", trials=trials)
    assert len(results) == 28
    assert all(r.cases >= 1 for r in results), [
        r.name for r in results if r.cases < 1]


def test_residuals_keep_a_nan():
    f = monomial(1.0)
    g = GenSeries.keyed(0.0, f.phase, {1: math.nan})
    assert math.isnan(series_residual(f, g))
    assert math.isnan(series_residual(g, f))
    a = LiftedSeq(0.0, 0, {0: 1.0, 1: 2.0})
    b = LiftedSeq.keyed(0.0, a.offset, {0: 1.0, 1: math.nan})
    assert math.isnan(seq_residual(a, b))
    assert math.isnan(seq_residual(b, a))


def _failed(results):
    return {r.name: r for r in results if not r.passed}


def test_nan_gamma_fails(monkeypatch):
    monkeypatch.setattr(verify, "gamma", lambda x: math.nan)
    failed = _failed(run_suites("gamma", trials=20))
    for name in ("gamma-reflection", "gamma-recurrence",
                 "gamma-ratio-vs-product"):
        assert math.isnan(failed[name].max_residual)


def test_nan_termwise_coefficients_fail(monkeypatch):
    rl_series = verify.rl_series

    def nan_rl_series(f, k):
        g = rl_series(f, k)
        return GenSeries.keyed(g.basepoint, g.phase,
                               {n: math.nan for n in g.coeffs},
                               g.truncation_order)

    # the oracle suite takes its termwise value from oracle.compare
    for module in (verify, oracle):
        monkeypatch.setattr(module, "rl_series", nan_rl_series)
    failed = _failed(run_suites("diagram") + run_suites("oracle"))
    for name in ("D6'", "D8'", "diagram-kernel-repair", "oracle-vs-termwise"):
        assert math.isnan(failed[name].max_residual)


def test_a_rounded_truncation_order_fails_the_diagram(monkeypatch):
    # D6' and D8' compare the routes' orders too: a project that rounds
    # the order to a double, as it once did, fails both
    project = verify.project

    def rounding_project(rho):
        g = project(rho)
        order = g.truncation_order
        return GenSeries.keyed(g.basepoint, g.phase, dict(g.coeffs),
                               None if order is None else float(order))

    assert not _failed(run_suites("diagram"))
    monkeypatch.setattr(verify, "project", rounding_project)
    failed = _failed(run_suites("diagram"))
    assert failed["D6'"].max_residual == failed["D8'"].max_residual == math.inf
