"""Command-line surface.

Subcommands:
  deriv           differintegrate an expression or series file, through the
                  termwise rule (default) or the lifted shift path
  lift            lift input into the shifted-lattice representation (JSON)
  project         project a lifted JSON file back to a series
  verify          run the named identity suites; exit 1 on any failure
  oracle-compare  termwise vs. quadrature oracle table (CSV)
  kernel-check    report which terms the order-k kernel annihilates

Numeric output in machine formats (json, csv) is printed with 17 significant
digits and is byte-deterministic for identical inputs. Exit codes: 0 success
or all-pass, 1 verification failure, 2 usage or domain error (such as a
deriv --at point past a truncated jet's reach).

A call builds the arguments of its own subcommand only, and loads what that
command runs: the series layers always, the expression front end
(fraclift.parser) for --expr input, the quadrature oracle (fraclift.oracle)
for oracle-compare, and fraclift.verify for verify, whose suites load the
front end and the oracle only when they run (diagram and oracle). project,
and deriv or lift on a --series-file, load none of the three.
"""

from __future__ import annotations

import argparse
import sys

from . import config
from .coeffseq import (
    GenSeries,
    eval_within_reach,
    finite_float,
    fmt17,
    lattice_doubles,
    series_from_json,
    series_to_json,
)
from .errors import FracliftError, InputError
from .lifted import lift_gen, lifted_from_json, lifted_to_json, project, shift
from .rl import annihilated_run, rl_series


def int_at_least(lo, message):
    """An argparse type: int(v), refusing values below lo with message."""
    def integer(v):
        n = int(v)
        if n < lo:
            raise argparse.ArgumentTypeError("%s, got %r" % (message, v))
        return n
    return integer


jet_order = int_at_least(0, "jet order must be a nonnegative integer")


class _Numbers:
    """argparse's test for a word that starts with '-' but is a number, an
    option's value rather than an option: any word float() reads. Python
    3.11's own pattern knows no exponent, so it took --k -1e-3 for an
    option."""

    @staticmethod
    def match(word):
        try:
            float(word)
        except ValueError:
            return False
        return True


def _pretty_num(v):
    return format(float(v), ".12g")


def _pretty_series(f: GenSeries) -> str:
    if f.is_zero:
        return "0"
    if f.basepoint == 0.0:
        base = "x"
    else:
        base = "(x - %s)" % _pretty_num(f.basepoint)
    parts = []
    for e, c in f.terms:
        if e == 0.0:
            parts.append(_pretty_num(c))
        elif e == 1.0:
            parts.append("%s * %s" % (_pretty_num(c), base))
        else:
            parts.append("%s * %s^%s" % (_pretty_num(c), base, _pretty_num(e)))
    return " + ".join(parts)


def _csv(header, rows) -> str:
    """CSV text: the header line, then one line of 17-digit numbers a row."""
    lines = [header] + [",".join(map(fmt17, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8 text: %s" % (path, exc)) from None


def _expr(args):
    """The --expr text, or None when the input is a --series-file; refuses
    both inputs and neither. An empty --expr is an expression, which the
    parser refuses."""
    if args.expr is None:
        if args.series_file is None:
            raise FracliftError("provide --expr or --series-file")
        return None
    if args.series_file is not None:
        raise FracliftError("give --expr or --series-file, not both")
    return args.expr


def _load_series(args) -> GenSeries:
    expr = _expr(args)
    if expr is None:
        return series_from_json(_read_text(args.series_file))
    from .parser import to_series
    return to_series(expr, args.basepoint, args.order)


def _add_input_opts(p):
    p.add_argument("--expr", help="expression, e.g. 'x^2 + 3*x' or '(x-0)^(-0.5)'")
    p.add_argument("--series-file",
                   help="series JSON file path ('-' for stdin)")
    p.add_argument("--basepoint", type=finite_float, default=0.0,
                   help="expansion base point (default 0)")
    p.add_argument("--order", type=jet_order, default=config.DEFAULT_ORDER,
                   help="jet truncation order for transcendental input "
                   "(default %%(default)s, at most config.MAX_JET_ORDER = %d)"
                   % config.MAX_JET_ORDER)


def _kernel_terms(f: GenSeries, k: float):
    """(terms, lo, hi): f's terms as (exponent, coefficient, e+1-k), of which
    terms[lo:hi] are the ones order k annihilates. e+1-k is rounded once from
    the term's key, the exact phase and k read as a rational: read from the
    column of the lattice phase + 1 - r, less its floor m, at the keys moved
    by m."""
    keys, lo, hi, r = annihilated_run(f, k)
    t = f.phase + 1 - r
    m = t.numerator // t.denominator
    args = lattice_doubles(t.numerator - m * t.denominator, t.denominator,
                           [n + m for n in keys])
    return [(e, c, a) for (e, c), a in zip(f.terms, args)], lo, hi


def cmd_deriv(args):
    if args.at and args.format == "csv":
        raise FracliftError("--at needs --format pretty or json: the csv "
                            "format holds the terms only")
    if args.compare_paths and (args.at or args.format == "json"):
        raise FracliftError("--compare-paths prints a csv table of terms: "
                            "it takes no --at or --format json")
    # an expression on the lifted path lifts exactly (to_lifted), from the
    # expansion its series comes from; a series file lifts by lift_gen
    rho = None
    if (args.via == "lifted" or args.compare_paths) and _expr(args) is not None:
        from .parser import to_series_and_lifted
        f, rho = to_series_and_lifted(args.expr, args.basepoint, args.order)
    else:
        f = _load_series(args)
    k = args.k
    terms, lo, hi = _kernel_terms(f, k)
    killed = terms[lo:hi]

    def lifted_path():
        return project(shift(lift_gen(f) if rho is None else rho, k))

    if args.compare_paths:
        direct = rl_series(f, k)
        other = lifted_path()
        exps = sorted({e for e, _ in direct.terms} | {e for e, _ in other.terms})
        rows = [(e, direct.coefficient(e), other.coefficient(e)) for e in exps]
        rows = [(e, ca, cb, abs(ca - cb)) for e, ca, cb in rows]
        worst = max((d for *_, d in rows), default=0.0)
        # formatted whole before printing, so a refused number prints nothing
        sys.stdout.write(_csv("exp,rl_coef,lifted_coef,abs_diff", rows)
                         + "# max abs diff %s\n" % fmt17(worst))
        return 0

    result = rl_series(f, k) if args.via == "rl" else lifted_path()
    # evaluated before anything is printed, so a failing point prints nothing
    values = [(x, eval_within_reach(result, x)) for x in args.at or ()]

    if args.format == "json":
        killed_json = ", ".join(
            '{"exp": %s, "coef": %s, "kernel_arg": %s}' % (fmt17(e), fmt17(c), fmt17(r))
            for e, c, r in killed)
        values_json = ", ".join('{"x": %s, "value": %s}' % (fmt17(x), fmt17(v))
                                for x, v in values)
        print('{"k": %s, "via": "%s", "series": %s, '
              '"annihilated": [%s], "values": [%s]}'
              % (fmt17(k), args.via, series_to_json(result), killed_json,
                 values_json))
    elif args.format == "csv":
        sys.stdout.write(_csv("exp,coef", result.terms))
    else:
        if result.is_zero and killed:
            reasons = ", ".join("alpha+1-k = %s" % _pretty_num(r)
                                for _, _, r in killed)
            print("0 (kernel: %s)" % reasons)
        else:
            print("result: %s" % _pretty_series(result))
            for e, c, r in killed:
                print("annihilated: %s * x^%s  (kernel: alpha+1-k = %s)"
                      % (_pretty_num(c), _pretty_num(e), _pretty_num(r)))
        for x, v in values:
            print("value at x = %s: %s" % (_pretty_num(x), _pretty_num(v)))
    return 0


def cmd_lift(args):
    if _expr(args) is None:
        rho = lift_gen(_load_series(args))
    else:
        from .parser import to_lifted
        rho = to_lifted(args.expr, args.basepoint, args.order)
    if args.k:
        rho = shift(rho, args.k)
    print(lifted_to_json(rho))
    return 0


def cmd_project(args):
    rho = lifted_from_json(_read_text(args.lifted_file))
    if args.k:
        rho = shift(rho, args.k)
    f = project(rho)
    if args.format == "pretty":
        print(_pretty_series(f))
    else:
        print(series_to_json(f))
    return 0


def cmd_verify(args):
    from .verify import run_suites
    results = run_suites(args.suite, trials=args.trials, seed=args.seed,
                         order=args.order)
    failed = 0
    worst = 0.0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = "  [%s]" % r.note if r.note else ""
        print("suite %-28s %s (max residual %.3e, %d cases)%s"
              % (r.name + ":", status, r.max_residual, r.cases, note))
        worst = max(worst, r.max_residual)
        if not r.passed:
            failed += 1
    if failed:
        print("%d suite(s) failed" % failed)
        return 1
    print("all identities pass, max residual <= %.3e" % worst)
    return 0


def cmd_oracle_compare(args):
    from .oracle import compare
    f = _load_series(args)
    rows = compare(f, args.k, args.at)
    if args.format == "json":
        body = ", ".join(
            '{"x": %s, "termwise": %s, "oracle": %s, "abs_diff": %s}'
            % tuple(map(fmt17, row)) for row in rows)
        print('{"k": %s, "rows": [%s]}' % (fmt17(args.k), body))
    else:
        sys.stdout.write(_csv("x,termwise,oracle,abs_diff", rows))
    return 0


def cmd_kernel_check(args):
    f = _load_series(args)
    terms, lo, hi = _kernel_terms(f, args.k)
    for i, (e, c, arg) in enumerate(terms):
        if lo <= i < hi:
            print("term %s * x^%s: ANNIHILATED (alpha+1-k = %s, nonpositive integer)"
                  % (_pretty_num(c), _pretty_num(e), _pretty_num(arg)))
        else:
            print("term %s * x^%s: kept (alpha+1-k = %s)"
                  % (_pretty_num(c), _pretty_num(e), _pretty_num(arg)))
    return 0


def _deriv_args(p):
    _add_input_opts(p)
    p.add_argument("--k", type=finite_float, required=True, help="order (real)")
    p.add_argument("--at", type=finite_float, action="append",
                   help="evaluation point (repeatable)")
    p.add_argument("--via", choices=("rl", "lifted"), default="rl")
    p.add_argument("--compare-paths", action="store_true",
                   help="print both paths with a per-term diff column")
    p.add_argument("--format", choices=("pretty", "json", "csv"),
                   default="pretty")
    p.set_defaults(fn=cmd_deriv)


def _lift_args(p):
    _add_input_opts(p)
    p.add_argument("--k", type=finite_float, default=0.0,
                   help="apply a shift after lifting")
    p.set_defaults(fn=cmd_lift)


def _project_args(p):
    p.add_argument("--lifted-file", required=True,
                   help="lifted JSON path ('-' for stdin)")
    p.add_argument("--k", type=finite_float, default=0.0,
                   help="apply a shift before projecting")
    p.add_argument("--format", choices=("pretty", "json"), default="json")
    p.set_defaults(fn=cmd_project)


def _verify_args(p):
    from .verify import SUITES
    p.add_argument("--suite", default="all",
                   choices=tuple(SUITES) + ("all",))
    p.add_argument("--order", type=jet_order, default=config.DEFAULT_ORDER,
                   help="jet order of the suites' jets (default "
                   "%%(default)s, at most config.MAX_JET_ORDER = %d)"
                   % config.MAX_JET_ORDER)
    p.add_argument("--trials", default=200, type=int_at_least(
        1, "trial count must be a positive integer"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)


def _oracle_compare_args(p):
    _add_input_opts(p)
    p.add_argument("--k", type=finite_float, required=True)
    p.add_argument("--at", type=finite_float, action="append", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_oracle_compare)


def _kernel_check_args(p):
    _add_input_opts(p)
    p.add_argument("--k", type=finite_float, required=True)
    p.set_defaults(fn=cmd_kernel_check)


# each subcommand: its help line and the function that adds its arguments
COMMANDS = {
    "deriv": ("differintegrate an expression or series", _deriv_args),
    "lift": ("lift input to the shifted-lattice form", _lift_args),
    "project": ("project a lifted JSON file to a series", _project_args),
    "verify": ("run identity suites", _verify_args),
    "oracle-compare": ("termwise vs. quadrature oracle table",
                       _oracle_compare_args),
    "kernel-check": ("evaluate the kernel predicate per term",
                     _kernel_check_args),
}


def build_parser(commands=None):
    """The parser of every subcommand. Only the subcommands named in
    commands get their arguments, all of them when it is None."""
    ap = argparse.ArgumentParser(
        prog="fraclift",
        description="Fractional derivatives of generalized power series, "
                    "termwise or through the commuting lifted shift.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, add_args) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p._negative_number_matcher = _Numbers
        if commands is None or name in commands:
            add_args(p)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse runs at most one subparser, the one a word of argv names
    # exactly: the others' arguments are never read, so none are built
    args = build_parser(set(argv)).parse_args(argv)
    try:
        config.perturbation()
        return args.fn(args)
    except FracliftError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
