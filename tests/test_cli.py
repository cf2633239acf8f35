import json
import os
import subprocess
import sys

from fraclift.cli import main


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

    def test_perturbation_fails_diagram(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "diagram",
                               "--perturb-gamma", "1e-6")
        assert code == 1
        assert "FAIL" in out


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

    def test_env_tolerance_override(self):
        env = dict(os.environ, FRACLIFT_TOL="1e-3")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from fraclift import config; print(config.int_tol)"],
            capture_output=True, text=True, env=env)
        assert proc.stdout.strip() == "0.001"

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
