import io
import json
import math
import os
import random
import subprocess
import sys

import pytest

from conftest import WINDOW_CASES, window_args
import fraclift
from fraclift import config
from fraclift.cli import main
from fraclift.coeffseq import monomial, rational
from fraclift.rl import rl_kernel_predicate, rl_series


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

    def test_value_past_double_range_is_usage_error(self, capsys):
        # 1e308 / Gamma(1/2) * x^-0.5 at x = 1e-10 is 5.6e312: the call used
        # to print "inf" and exit 0
        for fmt in ("pretty", "json"):
            code, out, err = run_cli(capsys, "deriv", "--expr", "1e308", "--k",
                                     "0.5", "--at", "1e-10", "--format", fmt)
            assert (code, out) == (2, "")
            assert err == ("error: series value at x=1e-10 is inf, "
                           "not a finite double\n")

    def test_points_past_a_jets_reach_are_refused(self, capsys):
        # exp(x) at order 16: e^20 = 4.85e8 and e^10 = 22026.5, where the
        # truncated jet gives 7.59e7 and 20952.9; at x = 3 it is off from
        # the 7th digit. Each route refuses, and prints nothing
        for x in ("20", "10", "3"):
            for via in ("rl", "lifted"):
                code, out, err = run_cli(capsys, "deriv", "--expr", "exp(x)",
                                         "--k", "1", "--at", x, "--via", via)
                assert (code, out) == (2, "")
                assert err.startswith("error: series truncation too coarse")
        # within reach (last term 2.8e-13 of the value) the value prints
        code, out, _ = run_cli(capsys, "deriv", "--expr", "exp(x)", "--k", "1",
                               "--at", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["values"][0]["value"] == pytest.approx(
            math.e, rel=1e-13)

    def test_both_routes_report_the_truncation_order(self, capsys):
        # the lifted route printed no "truncation_order" where rl printed 7.5
        for via in ("rl", "lifted"):
            code, out, _ = run_cli(capsys, "deriv", "--expr", "exp(x)", "--k",
                                   "0.5", "--order", "8", "--via", via,
                                   "--format", "json")
            assert code == 0
            assert json.loads(out)["series"]["truncation_order"] == 7.5

    def test_both_routes_round_the_truncation_order_once(self, capsys,
                                                        tmp_path):
        # rl_series took N - k in doubles, the lifted route N - k exactly: for
        # N = 7.5 and k the double of 4990/997 they printed 2.494984954864594
        # and 2.4949849548645937
        rng = random.Random(0)
        pairs = [(7.5, 4990 / 997)] + [
            (rng.choice((4.0, 8.0, 16.0, 32.0, 7.5)),
             rng.randint(-5000, 5000) / rng.randint(1, 1000))
            for _ in range(60)]
        path = tmp_path / "f.json"
        for n, k in pairs:
            path.write_text('{"basepoint": 0, "terms": [{"exp": 1, "coef": 1}]'
                            ', "truncation_order": %r}' % n)
            orders = []
            for via in ("rl", "lifted"):
                code, out, err = run_cli(capsys, "deriv", "--series-file",
                                         str(path), "--k=%r" % k, "--via", via,
                                         "--format", "json")
                assert code == 0, err
                orders.append(json.loads(out)["series"]["truncation_order"])
            assert orders == [float(rational(n) - rational(k))] * 2, (n, k)

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

    def test_csv_refuses_points(self, capsys):
        # csv holds the terms only; the points used to be dropped unsaid
        code, out, err = run_cli(capsys, "deriv", "--expr", "x", "--k", "0.5",
                                 "--at", "1", "--format", "csv")
        assert (code, out) == (2, "")
        assert err.startswith("error: --at") and err.count("\n") == 1

    def test_non_finite_results_are_usage_errors(self, capsys, tmp_path):
        # 1e16 x at k = 170.5 is -inf * x^-169.5, and 6e308 overflows in the
        # lift: the calls used to write "-inf" and "inf", which no JSON
        # reader takes, and exit 0
        path = tmp_path / "f.json"
        path.write_text('{"basepoint": 0, "terms": [{"exp": 1, "coef": 1e16}]}')
        for argv in (("deriv", "--series-file", str(path), "--k", "170.5",
                      "--format", "json"),
                     ("deriv", "--series-file", str(path), "--k", "170.5",
                      "--format", "csv"),
                     ("deriv", "--series-file", str(path), "--k", "170.5",
                      "--compare-paths"),
                     ("lift", "--expr", "1e308*x^3")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "inf, not a finite double" in err

    def test_non_finite_pretty_result_is_usage_error(self, capsys, tmp_path):
        # the pretty output used to print "result: -inf * x^-169.5", exit 0
        path = tmp_path / "f.json"
        path.write_text('{"basepoint": 0, "terms": [{"exp": 1, "coef": 1e16}]}')
        for via in ("rl", "lifted"):
            code, out, err = run_cli(capsys, "deriv", "--series-file",
                                     str(path), "--k", "170.5", "--via", via)
            assert (code, out) == (2, ""), via
            assert err == "error: a coefficient is -inf, not a finite double\n"

    def test_deep_input_is_a_usage_error(self, capsys):
        # a long sum answers; nesting past the recursion limit exits 2 with
        # one line, not a RecursionError traceback
        code, out, _ = run_cli(capsys, "deriv", "--expr",
                               "+".join(["x"] * 2000), "--k", "1")
        assert (code, out) == (0, "result: 2000\n")
        code, out, err = run_cli(capsys, "deriv", "--expr",
                                 "(" * 500 + "x" + ")" * 500, "--k", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: expression nested too deeply")
        assert err.count("\n") == 1

    def test_zero_result_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "--expr", "x - x", "--k", "0.5",
                               "--at", "2")
        assert code == 0
        assert out == "result: 0\nvalue at x = 2: 0\n"

    def test_nonzero_basepoint_pretty(self, capsys):
        # D^(1/2) (x-1)^(3/2) = Gamma(5/2)/Gamma(2) (x-1) = 3 sqrt(pi)/4 (x-1)
        code, out, _ = run_cli(capsys, "deriv", "--expr", "(x-1)^1.5",
                               "--basepoint", "1", "--k", "0.5", "--at", "2")
        assert code == 0
        assert out == ("result: 1.32934038818 * (x - 1)\n"
                       "value at x = 2: 1.32934038818\n")

    def test_series_file_from_stdin(self, capsys, monkeypatch, tmp_path):
        text = '{"basepoint": 0, "terms": [{"exp": 0.5, "coef": 2}]}'
        path = tmp_path / "f.json"
        path.write_text(text)
        argv = ("--k", "0.5", "--format", "json", "--at", "1")
        code, from_file, _ = run_cli(capsys, "deriv", "--series-file",
                                     str(path), *argv)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, from_stdin, _ = run_cli(capsys, "deriv", "--series-file", "-",
                                      *argv)
        assert code == 0 and from_stdin == from_file

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        # the OSError branch of main
        code, out, err = run_cli(capsys, "deriv", "--series-file",
                                 str(tmp_path / "absent.json"), "--k", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "absent.json" in err

    @pytest.mark.parametrize("command", [
        ("deriv", "--k", "0.5", "--series-file"),
        ("project", "--lifted-file")])
    def test_unreadable_files_are_usage_errors(self, capsys, tmp_path,
                                               command):
        # nesting past the recursion limit, and bytes that are not UTF-8,
        # exit 2 with one line, not a RecursionError or UnicodeDecodeError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        for path, message in ((deep, "JSON nested too deeply"),
                              (utf16, "is not UTF-8 text")):
            code, out, err = run_cli(capsys, *command, str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and message in err
            assert err.count("\n") == 1

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

    @pytest.mark.parametrize("argv, out", [
        (("deriv", "--expr", "exp(1)", "--k", "0.5", "--at", "2"),
         "result: 1.53362629276 * x^-0.5\nvalue at x = 2: 1.08443755142\n"),
        (("deriv", "--expr", "cos(0)*x^2", "--k", "1", "--at", "3"),
         "result: 2 * x\nvalue at x = 3: 6\n"),
        (("deriv", "--expr", "1/(3+x*sin(0))", "--k", "0.5"),
         "result: 0.188063194516 * x^-0.5\n"),
        (("oracle-compare", "--expr", "cos(0)*x", "--k", "0.5", "--at", "2"),
         None)])
    def test_calls_of_constants_carry_no_order(self, capsys, argv, out):
        # a call of a constant is a constant: no truncation order, so no
        # "truncation too coarse" and no refused divisor
        code, got, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and got == (out or got)

    def test_calls_of_constants_print_no_truncation_order(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "--expr", "cos(0)*x^2",
                               "--k", "0.5", "--format", "json")
        assert code == 0 and '"truncation_order"' not in out

    def test_power_of_a_pruned_float_holding_constant(self, capsys):
        # the order cuts 2^0.5*x^5 and leaves the constant 1 in Taylor form
        code, out, err = run_cli(capsys, "deriv", "--expr",
                                 "(1 + 2^0.5*x^5 + (sin(x) - sin(x)))^2",
                                 "--k", "0.5", "--order", "2")
        assert (code, out, err) == (0, "result: 0.564189583548 * x^-0.5\n", "")

    @pytest.mark.parametrize("expr", [
        "exp(1e308)", "exp(exp(exp(10)))", "sin((2)^2000)", "1/sin(0)",
        "sin(0)^(-1)", "(1+sin(x)-x)^(-1)"])
    def test_calls_of_constants_refused(self, capsys, expr):
        code, out, err = run_cli(capsys, "deriv", "--expr", expr, "--k", "0.5",
                                 "--order", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_truncation_order_survives_the_lifted_file(self, capsys,
                                                      tmp_path):
        code, out, _ = run_cli(capsys, "lift", "--expr", "exp(x)", "--order",
                               "8")
        assert code == 0 and json.loads(out)["truncation_order"] == 8
        path = tmp_path / "rho.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "project", "--lifted-file", str(path),
                               "--k", "0.5")
        assert code == 0 and json.loads(out)["truncation_order"] == 7.5

    def test_float_offset_projects_at_its_rational(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text('{"basepoint": 0, "offset": 0.3333333333333333, '
                        '"values": [{"index": 1, "value": 1}]}')
        code, out, _ = run_cli(capsys, "project", "--lifted-file", str(path))
        assert code == 0
        doc = json.loads(out)
        assert [t["exp"] for t in doc["terms"]] == [2 / 3]
        assert '"exp": 0.66666666666666663' in out
        assert "phase_exact" not in doc

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

    def test_perturbation_fails_diagram(self, capsys, perturb):
        perturb("1e-6")
        code, out, _ = run_cli(capsys, "verify", "--suite", "diagram")
        assert code == 1
        assert "FAIL" in out
        assert config.perturbation() == 1e-6

    def test_diagram_runs_at_the_jet_order_limit(self, capsys):
        # sin expands one order past exp, but not past the limit: the suite
        # ran into "jet order 1025 passes the limit 1024" and exit 2
        code, out, err = run_cli(capsys, "verify", "--suite", "diagram",
                                 "--order", str(config.MAX_JET_ORDER))
        assert code != 2 and err == ""
        assert "suite D6':" in out and "PASS" in out

    @pytest.mark.xfail(strict=True, reason=(
        "D8' fails from order 170 on: a tail term of the exp(x) jet "
        "projects below COEF_EPS and is dropped on one side only; it "
        "passes once ROADMAP items 2 (a lifted route past Gamma(171)) and "
        "11 (one drop rule) land"))
    def test_diagram_d8_passes_at_order_170(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "diagram",
                                 "--order", "170")
        d8 = [line for line in out.splitlines()
              if line.startswith("suite D8':")]
        assert len(d8) == 1 and d8[0].split()[2] == "PASS"
        assert (code, err) == (0, "")

    def test_perturb_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "gamma", "--perturb-gamma", "1e-6"])
        assert exc.value.code == 2
        capsys.readouterr()


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

    def test_json_rows_equal_csv(self, capsys):
        argv = ("oracle-compare", "--expr", "x^0.5 + 2*x^1.5", "--k", "0.5",
                "--at", "0.25", "--at", "1", "--at", "2.25")
        code, csv_out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        header, *lines = csv_out.strip().split("\n")
        keys = header.split(",")
        assert doc["k"] == 0.5
        assert doc["rows"] == [dict(zip(keys, map(float, line.split(","))))
                               for line in lines]

    def test_underflowing_step_is_usage_error(self, capsys):
        # the central-difference step's h^2 underflows to 0 at x = 1e-300
        for expr, k in (("x^0.5", "1.5"), ("0", "2")):
            code, out, err = run_cli(capsys, "oracle-compare", "--expr", expr,
                                     "--k", k, "--at", "1e-300")
            assert code == 2
            assert out == ""
            assert err.startswith("error: difference step") and "h^2" in err

    def test_overflowing_step_is_usage_error(self, capsys):
        # the step grows with x: at x = 2e157 it is 2e154, whose square, the
        # widest stencil's divisor, passes the double range
        for at in ("2e157", "1e300"):
            code, out, err = run_cli(capsys, "oracle-compare", "--expr", "x",
                                     "--k", "2", "--at", at)
            assert (code, out) == (2, "")
            assert err.startswith("error: difference step") and "overflows" in err

    def test_subnormal_step_is_usage_error(self, capsys):
        # h^2 = 9.8e-324 at x = 1e-160 is subnormal: the difference ladder
        # would print a value off by 1.2% (x) or by 2.45e147 (x^0.5)
        for expr in ("x", "x^0.5"):
            code, out, err = run_cli(capsys, "oracle-compare", "--expr", expr,
                                     "--k", "1.5", "--at", "1e-160")
            assert (code, out) == (2, "")
            assert err.startswith("error: difference step") and "h^2" in err
        # at x = 1e-150 (h^2 = 9.8e-304) it still answers
        code, out, _ = run_cli(capsys, "oracle-compare", "--expr", "x",
                               "--k", "1.5", "--at", "1e-150")
        assert code == 0
        _, termwise, oracle, diff = map(float, out.strip().split("\n")[1].split(","))
        assert termwise == pytest.approx(1 / math.sqrt(math.pi * 1e-150), rel=1e-15)
        assert diff <= 1e-9 * abs(termwise)

    def test_nonzero_basepoint(self, capsys, tmp_path):
        # the oracle integrates the same coefficients from 0 to x - a, so
        # (t - a)^(-1/2) keeps its full accuracy near the base point
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"basepoint": 1, "terms": [
            {"exp": -0.5, "coef": 1}, {"exp": 0.5, "coef": 2}]}))
        code, out, _ = run_cli(capsys, "oracle-compare", "--series-file",
                               str(path), "--k", "0.5", "--at", "1.5",
                               "--at", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [float(r[0]) for r in rows] == [1.5, 3.0]
        for r in rows:
            # D^(1/2) of (x-1)^(-1/2) is 0, of 2 (x-1)^(1/2) is sqrt(pi)
            assert float(r[1]) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
            assert float(r[3]) <= 2e-8


class TestKernelCheck:
    def test_reports_each_term(self, capsys):
        code, out, _ = run_cli(capsys, "kernel-check", "--expr",
                               "(x-0)^(-0.5) + x^0.5", "--k", "0.5")
        assert code == 0
        assert "ANNIHILATED" in out
        assert "kept" in out

    @pytest.mark.parametrize("phase,k,annihilated",
                             list(WINDOW_CASES.values()), ids=list(WINDOW_CASES))
    def test_window_marks_the_predicate_terms(self, capsys, tmp_path, phase,
                                              k, annihilated):
        # arguments 2^-32 from a nonpositive integer are poles: the
        # annihilated key run is the set rl_kernel_predicate marks
        exps = [phase + n for n in range(-6, 6)]
        assert window_args(exps, k)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"basepoint": 0, "terms": [
            {"exp": e, "coef": 1.0} for e in exps]}))
        code, out, _ = run_cli(capsys, "kernel-check",
                               "--series-file", str(path), "--k", repr(k))
        assert code == 0
        marked = ["ANNIHILATED" in line for line in out.splitlines()]
        assert marked == [rl_kernel_predicate(e, k) for e in exps]
        assert marked.count(True) == (annihilated or 0)

    def test_mixed_lattice_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kernel-check", "--expr",
                               "(x-0)^(-0.5) + x", "--k", "0.5")
        assert code == 2
        assert "lattice" in err


class TestProcessLevel:
    def test_standard_library_only(self):
        # without site (-S) no installed package is on the path: the library
        # and its CLI load nothing outside fraclift and the standard library
        src = os.path.dirname(os.path.dirname(fraclift.__file__))
        code = ("import sys, fraclift, fraclift.cli; print(sorted(n for n in"
                " sys.modules if n.partition('.')[0] not in"
                " sys.stdlib_module_names | {'fraclift', '__main__'}))")
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

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

    def test_no_third_party_import(self):
        # the oracle's quadrature is the standard library's: neither command
        # that runs it loads scipy or numpy
        probe = ("import sys\n"
                 "from fraclift.cli import main\n"
                 "assert main(['oracle-compare', '--expr',\n"
                 "             'x^(-1/2) + x^(1/2)', '--k', '0.5',\n"
                 "             '--at', '0.5', '--at', '2']) == 0\n"
                 "assert main(['verify', '--suite', 'oracle']) == 0\n"
                 "print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_bad_perturbation_is_usage_error(self, value):
        # every command refuses it, also one that evaluates no Gamma ratio
        env = dict(os.environ, FRACLIFT_GAMMA_PERTURB=value)
        for argv in (["deriv", "--expr", "x", "--k", "0.5", "--at", "1"],
                     ["lift", "--expr", "x"]):
            proc = subprocess.run([sys.executable, "-m", "fraclift"] + argv,
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == ("error: FRACLIFT_GAMMA_PERTURB=%r is not a "
                                   "finite number above -1\n" % value)

    def test_valid_perturbation_scales_the_result(self):
        env = dict(os.environ, FRACLIFT_GAMMA_PERTURB="1e-6")
        proc = subprocess.run(
            [sys.executable, "-m", "fraclift", "deriv", "--expr", "x", "--k",
             "0.5", "--at", "1", "--format", "json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        # D^(1/2) x = Gamma(2)/Gamma(3/2) x^(1/2), its ratio scaled by 1 + eps:
        # the unperturbed coefficient of this process, times 1 + eps
        value = json.loads(proc.stdout)["values"][0]["value"]
        (_, coef), = rl_series(monomial(1.0), 0.5).terms
        assert value == coef * (1 + 1e-6)

    def test_divergent_oracle_integral_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fraclift", "oracle-compare", "--expr",
             "x^(-1.5)", "--k", "-0.5", "--at", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "diverged" in proc.stderr and "Traceback" not in proc.stderr

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
