import json
import subprocess
import sys

import pytest

from fraclift import config
from fraclift.cli import main
from fraclift.gamma import gamma_ratio
from fraclift.rl import rl_kernel_predicate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeriv:
    def test_half_derivative_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "--expr", "x", "--k", "0.5",
                               "--at", "1")
        assert code == 0
        assert "1.1283791671 * x^0.5" in out
        assert "value at x = 1: 1.1283791671" in out

    def test_kernel_annihilation_message(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "--expr", "(x-0)^(-0.5)",
                               "--k", "0.5")
        assert code == 0
        assert out.strip() == "0 (kernel: alpha+1-k = 0)"

    def test_via_lifted_matches_rl(self, capsys):
        _, out_rl, _ = run_cli(capsys, "deriv", "--expr", "x^2", "--k", "0.5",
                               "--format", "json")
        _, out_lift, _ = run_cli(capsys, "deriv", "--expr", "x^2", "--k", "0.5",
                                 "--via", "lifted", "--format", "json")
        a = json.loads(out_rl)["series"]["terms"]
        b = json.loads(out_lift)["series"]["terms"]
        assert len(a) == len(b) == 1
        assert a[0]["exp"] == b[0]["exp"]
        assert abs(a[0]["coef"] - b[0]["coef"]) <= 1e-12 * abs(a[0]["coef"])

    def test_compare_paths_table(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "--expr", "x^2 + x", "--k",
                               "0.5", "--compare-paths")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "exp,rl_coef,lifted_coef,abs_diff"
        assert lines[-1].startswith("# max abs diff")

    def test_json_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "deriv", "--expr", "exp(x)", "--k", "0.5",
                             "--order", "12", "--format", "json", "--at", "0.5")
        _, out2, _ = run_cli(capsys, "deriv", "--expr", "exp(x)", "--k", "0.5",
                             "--order", "12", "--format", "json", "--at", "0.5")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["k"] == 0.5 and doc["via"] == "rl"

    def test_kernel_args_are_exact(self, capsys):
        # e+1-k for e = p/q and k = p/q + 2 is -1 exactly, however the
        # doubles of e and k round
        for q in range(1, 13):
            for p in range(q):
                code, out, _ = run_cli(capsys, "deriv", "--expr",
                                       "x^(%d/%d)" % (p, q), "--k",
                                       repr(p / q + 2), "--format", "json")
                assert code == 0
                killed = json.loads(out)["annihilated"]
                assert [t["kernel_arg"] for t in killed] == [-1.0], (p, q)
        code, out, _ = run_cli(capsys, "deriv", "--expr", "x^(23/12)", "--k",
                               "3.9166666666666665", "--format", "json")
        assert '"kernel_arg": -1}' in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "--expr", "x^2", "--k", "1",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "exp,coef"

    def test_bad_expression_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "deriv", "--expr", "x +", "--k", "0.5")
        assert code == 2
        assert "error:" in err

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "deriv", "--k", "0.5")
        assert code == 2

    def test_oversized_numbers_are_usage_errors(self, capsys):
        for argv in (("--expr", "x^1e400", "--k", "0.5"),
                     ("--expr", "x", "--k", "1e300"),
                     ("--expr", "x", "--k=-1e300"),
                     # exact exponent and order sums past the double range
                     ("--expr", "x^(1e308)*x^(1e308)", "--k", "0.5"),
                     ("--expr", "(x^(1e308))^4", "--k", "0.5"),
                     ("--expr", "exp(x)*x^(1e308)*x^(1e308)", "--k", "0.5"),
                     # coefficients past the double range
                     ("--expr", "(1e-300*exp(1))^(-3)", "--k", "0.5"),
                     ("--expr", "(1e300*x^0)^2.5", "--k", "0.5")):
            code, out, err = run_cli(capsys, "deriv", *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ")

    def test_out_of_range_messages_print_doubles(self, capsys):
        # the exact arguments have 300+ digits
        for argv in (("lift", "--expr", "x^(1.7976931348623157e308)"),
                     ("deriv", "--expr", "exp(1e300 + x)", "--k", "0.5")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and len(err.encode()) < 120


class TestLiftProject:
    def test_round_trip_through_files(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "lift", "--expr", "(x-0)^(-0.5)")
        assert code == 0
        doc = json.loads(out)
        assert doc["offset"] == 0.5
        lifted_path = tmp_path / "rho.json"
        lifted_path.write_text(out)

        code, out2, _ = run_cli(capsys, "project", "--lifted-file",
                                str(lifted_path))
        assert code == 0
        series = json.loads(out2)
        assert series["terms"][0]["exp"] == -0.5
        assert abs(series["terms"][0]["coef"] - 1.0) <= 1e-12

    def test_lift_shift_project_pipeline(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "lift", "--expr", "x", "--k", "0.5")
        lifted_path = tmp_path / "rho.json"
        lifted_path.write_text(out)
        _, out2, _ = run_cli(capsys, "project", "--lifted-file",
                             str(lifted_path), "--format", "pretty")
        assert "x^0.5" in out2

    def test_shift_past_the_double_range_is_a_usage_error(self, capsys,
                                                          tmp_path):
        path = tmp_path / "rho.json"
        path.write_text('{"basepoint": 0, "offset": 0.5, "values": '
                        '[{"index": %d, "value": 1}]}' % 10**308)
        for k in ("0", "-1e308"):
            code, out, err = run_cli(capsys, "project", "--lifted-file",
                                     str(path), "--k=" + k)
            assert (code, out) == ((0, '{"basepoint": 0, "terms": []}\n')
                                   if k == "0" else (2, ""))
        assert err.startswith("error: ") and "Traceback" not in err

    def test_malformed_files_are_usage_errors(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        no_coef = tmp_path / "no_coef.json"
        no_coef.write_text('{"basepoint": 0, "terms": [{"exp": 0.5}]}')
        for argv in (("project", "--lifted-file", str(empty)),
                     ("deriv", "--series-file", str(no_coef), "--k", "0.5")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert err.startswith("error: ")


class TestVerify:
    def test_gamma_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gamma")
        assert code == 0
        assert "all identities pass" in out

    def test_trials_must_be_positive(self, capsys):
        for trials in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", "gamma", "--trials", trials])
            assert exc.value.code == 2
            assert "--trials" in capsys.readouterr().err

    def test_perturbation_fails_diagram(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "diagram",
                               "--perturb-gamma", "1e-6")
        assert code == 1
        assert "FAIL" in out

    def test_perturbation_is_undone_after_the_run(self, capsys):
        before = gamma_ratio(2.5, 1.5)
        code, _, _ = run_cli(capsys, "verify", "--suite", "gamma",
                             "--trials", "5", "--perturb-gamma", "1e-6")
        assert code == 1
        assert gamma_ratio(2.5, 1.5) == before


class TestOracleCompare:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "--expr", "x",
                               "--k", "0.5", "--at", "0.25", "--at", "1",
                               "--at", "2.25")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,termwise,oracle,abs_diff"
        assert len(lines) == 4
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 1e-5


class TestKernelCheck:
    def test_reports_each_term(self, capsys):
        code, out, _ = run_cli(capsys, "kernel-check", "--expr",
                               "(x-0)^(-0.5) + x^0.5", "--k", "0.5")
        assert code == 0
        assert "ANNIHILATED" in out
        assert "kept" in out

    @pytest.mark.parametrize("phase,k", [(0.85, 0.7), (0.85, 1.7),
                                         (0.15, 2.0), (0.15, 1.0)])
    def test_wide_tolerance_marks_the_predicate_terms(self, capsys, tmp_path,
                                                      phase, k):
        # with int_tol = 0.2, arguments 0.15 from a nonpositive integer are
        # poles: the annihilated key run is the set rl_kernel_predicate marks
        exps = [phase + n for n in range(-6, 6)]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"basepoint": 0, "terms": [
            {"exp": e, "coef": 1.0} for e in exps]}))
        config.int_tol = 0.2
        code, out, _ = run_cli(capsys, "kernel-check",
                               "--series-file", str(path), "--k", repr(k))
        assert code == 0
        marked = ["ANNIHILATED" in line for line in out.splitlines()]
        want = [rl_kernel_predicate(e, k) for e in exps]
        assert marked == want and any(want)

    def test_mixed_lattice_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kernel-check", "--expr",
                               "(x-0)^(-0.5) + x", "--k", "0.5")
        assert code == 2
        assert "lattice" in err


class TestProcessLevel:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fraclift", "deriv", "--expr", "x",
             "--k", "0.5", "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 0.5

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fraclift", "deriv", "--expr", "x"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_non_finite_flags_are_usage_errors(self):
        for argv in (["--k", "nan"], ["--k", "inf"], ["--k", "0.5", "--at=-inf"]):
            proc = subprocess.run(
                [sys.executable, "-m", "fraclift", "deriv", "--expr", "x"] + argv,
                capture_output=True, text=True)
            assert proc.returncode == 2
            assert "finite" in proc.stderr and "Traceback" not in proc.stderr

    def test_negative_order_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fraclift", "deriv", "--expr", "exp(x)",
             "--k", "0.5", "--order", "-3"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "nonnegative" in proc.stderr and "Traceback" not in proc.stderr

    def test_scipy_loaded_only_by_the_oracle(self):
        probe = ("import runpy, sys\n"
                 "import fraclift\n"
                 "print('scipy' in sys.modules)\n"
                 "sys.argv = ['fraclift', 'deriv', '--expr', 'x', '--k', '0.5']\n"
                 "try:\n"
                 "    runpy.run_module('fraclift', run_name='__main__')\n"
                 "except SystemExit as exc:\n"
                 "    assert exc.code == 0\n"
                 "print('scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "False"
        assert proc.stdout.splitlines()[-1] == "False"

    def test_start_up_imports_no_dataclasses_or_inspect(self):
        # the values of the package are plain classes and tuples, so the CLI's
        # start-up path pays for neither module
        probe = ("import sys\n"
                 "names = ('dataclasses', 'inspect')\n"
                 "before = {n for n in names if n in sys.modules}\n"
                 "import fraclift.cli\n"
                 "print(sorted({n for n in names if n in sys.modules} - before))\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
