import os

import pytest

import fraclift
from fraclift import config
from fraclift.verify import seq_residual, series_residual

# child processes (python -m fraclift) import the package these tests import,
# also where pytest's pythonpath setting, not PYTHONPATH, found it
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(fraclift.__file__)),
    os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _restore_config():
    tol, perturb = config.int_tol, config.gamma_perturb
    yield
    config.int_tol = tol
    config.gamma_perturb = perturb


def assert_series_close(f, g, rel=1e-12, exp_tol=1e-9):
    resid = series_residual(f, g, exp_tol)
    assert resid <= rel, (
        "series differ (residual %.3e > %.1e):\n  %r\n  %r" % (resid, rel, f, g))


def assert_seq_close(a, b, rel=1e-12):
    resid = seq_residual(a, b)
    assert resid <= rel, (
        "sequences differ (residual %.3e > %.1e):\n  %r\n  %r" % (resid, rel, a, b))
