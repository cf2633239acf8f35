"""The benchmark's own reference checks (fracbench/reference.py and
fracbench/cli_worker.py), run in process on the whole seed-0 lists of the
in-process workloads (series_small 128 requests, series_large 112, expand
112: every family and jet order, 14 through the oracle), so that an output
they would refuse fails here before it fails a benchmark run. The series
workloads run on seed 1 as well, the seed speed claims are measured on.
worker.py requires every round to reproduce round 0 exactly; the
series_small list runs twice here, from cold plans and then warm."""

import os
import sys

import pytest

import fraclift
from conftest import clear_plans
from fraclift.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "fracbench"))
import cli_worker  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _check_list(workload, seed):
    make, prepare, run, check = worker.WORKLOADS[workload]
    for req in make(seed):
        out = run(fraclift, prepare(req), spans.NullTracer())
        assert check(req, out) == [], req


@pytest.mark.parametrize("workload", ["series_small", "series_large", "expand"])
def test_first_requests_pass_the_reference_checks(workload):
    _check_list(workload, 0)


@pytest.mark.parametrize("workload", ["series_small", "series_large"])
def test_seed_one_passes_the_reference_checks(workload):
    _check_list(workload, 1)


def test_oracle_integrand_count():
    # the traced counter of expand's 14 oracle requests: 3088 integrand
    # calls with the tanh-sinh tail cut and the two-stencil ladder stop,
    # 6384 without them
    make, prepare, run, _ = worker.WORKLOADS["expand"]
    tr = spans.Tracer()
    reqs = [req for req in make(0) if req.oracle]
    for req in reqs:
        run(fraclift, prepare(req), tr)
    assert len(reqs) == 14
    assert tr.counts["oracle.integrand_evals"] <= 3500


def test_a_second_round_reproduces_the_first():
    # the round rule of worker.py: round 0 runs on cold plans and Gamma
    # tables, round 1 on those round 0 built, and their outputs must be
    # repr-identical
    make, prepare, run, _ = worker.WORKLOADS["series_small"]
    inputs = [prepare(req) for req in make(0)]
    rounds = []
    clear_plans()
    for _ in range(2):
        rounds.append(repr([run(fraclift, inp, spans.NullTracer())
                            for inp in inputs]))
    assert rounds[1] == rounds[0]


def test_cli_cycle_passes_the_reference_checks(capsys, monkeypatch, tmp_path):
    # check() compares the annihilated exponents of deriv --series-file with
    # ==, so an exponent one ulp off the input fails here
    inp = gen.cli_inputs(0)
    monkeypatch.chdir(tmp_path)
    cli_worker.write_inputs(inp, str(tmp_path))
    out = {}
    for kind, argv, stdout_file in cli_worker.cycle(inp):
        code = main(argv)
        out[kind] = capsys.readouterr().out
        assert code == 0, (kind, argv)
        if stdout_file:
            (tmp_path / stdout_file).write_text(out[kind])
    assert cli_worker.check(inp, out) == []
