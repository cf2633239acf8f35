from fraclift import config
from fraclift.verify import run_suites


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
    import pytest
    with pytest.raises(KeyError):
        run_suites("nope")


def test_single_suite_selection():
    results = run_suites("gamma", trials=50)
    assert results and all("gamma" in r.name or "recip" in r.name
                           for r in results)


def test_gamma_perturbation_breaks_diagram_suite():
    config.gamma_perturb = 1e-6
    results = run_suites("diagram")
    assert any(not r.passed for r in results)


def test_gamma_perturbation_breaks_semigroup_suite():
    config.gamma_perturb = 1e-6
    results = run_suites("semigroup", trials=20)
    assert any(not r.passed for r in results)


def test_suites_are_deterministic():
    a = run_suites("R", trials=40, seed=123)
    b = run_suites("R", trials=40, seed=123)
    assert [(r.name, r.passed, r.max_residual) for r in a] == \
           [(r.name, r.passed, r.max_residual) for r in b]


def test_gamma_perturbation_breaks_oracle_suite():
    # the oracle shares no code with the Gamma kernel, and its bound sits
    # below the 1e-6 error the perturbation puts into every coefficient
    (clean,) = run_suites("oracle")
    assert clean.passed
    config.gamma_perturb = 1e-6
    (result,) = run_suites("oracle")
    assert not result.passed
