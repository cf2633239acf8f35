"""The cli workload: cold `python -m fraclift` calls, one at a time.

run.py starts it with PYTHONPATH pointing at the built package; every call
is a fresh interpreter. Set-up is writing the input files and one untimed
warm-up call that imports fraclift and reports its kernel backend; it is
done three times and the median reported. Then whole cycles of the eight
commands run, each call timed from start to exit and followed by a
calibration interpreter (calib.py). Cycle 0's outputs are
checked against reference.py; later cycles must print the same. The last
line of stdout is a JSON report. The peak memory is that of the largest
fraclift call, each reaped with wait4.

    python3 fracbench/cli_worker.py --seed 1 --cycles 2 --workdir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calib
import gen
import reference
import spans

SETUPS = 3
IMPORT_PROBES = 3  # fresh `import fraclift` calls in a traced run
PROBE = ("import json, fraclift; "
         "print(json.dumps([fraclift.KERNEL_BACKEND, fraclift.__file__]))")


def write_inputs(inp, workdir):
    doc = {"basepoint": 0, "terms": [{"exp": float(e), "coef": float(c)}
                                     for e, c in zip(inp.exps, inp.coefs)]}
    with open(os.path.join(workdir, "series.json"), "w") as fh:
        json.dump(doc, fh)


def cycle(inp):
    """[(kind, argv after `-m fraclift`, stdout file or None)]."""
    k = str(float(inp.k))
    expr = gen.series_text(inp.exps, inp.coefs)
    oracle = ["oracle-compare",
              "--expr", gen.series_text(inp.oracle_exps, inp.oracle_coefs),
              "--k", str(float(inp.oracle_k))]
    for x in inp.oracle_xs:
        oracle += ["--at", str(x)]
    return [
        ("deriv", ["deriv", "--expr", "x", "--k", "0.5", "--at", "1"], None),
        ("deriv_lifted", ["deriv", "--expr", expr, "--k", k, "--via", "lifted",
                          "--format", "json"], None),
        ("deriv_file", ["deriv", "--series-file", "series.json", "--k", k,
                        "--format", "json"], None),
        ("lift", ["lift", "--series-file", "series.json"], "lifted.json"),
        ("project", ["project", "--lifted-file", "lifted.json", "--k", k], None),
        ("kernel_check", ["kernel-check", "--expr", "(x-0)^(-0.5) + x^0.5",
                          "--k", "0.5"], None),
        ("oracle_compare", oracle, None),
        ("verify", ["verify", "--suite", "gamma", "--trials", "50",
                    "--seed", str(inp.verify_seed)], None),
    ]


def call(argv, workdir, stdout_file=None):
    """(exit code, stdout, stderr, peak RSS in MB) of one fresh interpreter.
    Its output goes to files in workdir (stdout_file, if given, keeps
    what it printed), and it is reaped with wait4 for its own peak RSS."""
    out_path = os.path.join(workdir, stdout_file or "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        p = subprocess.Popen(argv, cwd=workdir, stdout=out, stderr=err)
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return p.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0


def _series_terms(doc):
    return [(t["exp"], t["coef"]) for t in doc["terms"]]


def check(inp, out):
    """out: {kind: stdout} of the calls of one cycle that exited 0; a call
    that failed is counted as failed, and only what it printed goes
    unchecked."""
    problems = []
    if "deriv" in out:
        lines = out["deriv"].splitlines()
        value = [ln for ln in lines if ln.startswith("value at x = 1:")]
        if not value or abs(float(value[0].split(":")[1])
                            - 2.0 / math.sqrt(math.pi)) > 1e-10:
            problems.append("deriv --expr x --k 0.5 --at 1 printed %r" % lines)

    want = reference.rl_terms(inp.exps, [float(c) for c in inp.coefs], inp.k)
    if "deriv_lifted" in out:
        lifted = json.loads(out["deriv_lifted"])
        problems += reference.compare_terms(
            _series_terms(lifted["series"]), want, "deriv --via lifted")
    if "deriv_file" in out:
        termwise = json.loads(out["deriv_file"])
        problems += reference.compare_terms(
            _series_terms(termwise["series"]), want, "deriv --series-file")
        killed = sorted(t["exp"] for t in termwise["annihilated"])
        want_killed = sorted(float(e) for e in inp.exps
                             if reference.is_pole(e + 1 - inp.k))
        if killed != want_killed or len(killed) != 2:
            problems.append("annihilated %r, expected %r" % (killed, want_killed))
    if "lift" in out and "values" not in json.loads(out["lift"]):
        problems.append("lift wrote %r" % out["lift"][:200])
    if "project" in out:
        problems += reference.compare_terms(
            _series_terms(json.loads(out["project"])), want, "lift -> project")

    if "kernel_check" in out:
        marks = {}
        for ln in out["kernel_check"].splitlines():
            marks[ln.split(":")[0]] = ln
        if "ANNIHILATED" not in marks.get("term 1 * x^-0.5", "") or \
                "kept" not in marks.get("term 1 * x^0.5", ""):
            problems.append("kernel-check printed %r" % out["kernel_check"])

    if "oracle_compare" in out:
        problems += _check_oracle(inp, out["oracle_compare"])
    if "verify" in out and not out["verify"].splitlines()[-1].startswith(
            "all identities pass"):
        problems.append("verify printed %r" % out["verify"][-300:])
    return problems


def _check_oracle(inp, text):
    problems = []
    rows = text.splitlines()
    o_want = reference.rl_terms(inp.oracle_exps,
                                [float(c) for c in inp.oracle_coefs],
                                inp.oracle_k)
    if rows[0] != "x,termwise,oracle,abs_diff" or len(rows) != 3:
        problems.append("oracle-compare printed %r" % rows)
    else:
        for row, x in zip(rows[1:], inp.oracle_xs):
            rx, tv, ov, diff = (float(v) for v in row.split(","))
            want_tv, scale = reference.eval_sum(o_want, x)
            if rx != x or abs(tv - want_tv) > 1e-10 * scale:
                problems.append("oracle-compare termwise %r at %r, expected %r"
                                % (tv, rx, want_tv))
            if diff > reference.ORACLE_RTOL * max(1.0, abs(tv)):
                problems.append("oracle-compare difference %r at %r" % (diff, rx))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    inp = gen.cli_inputs(args.seed)
    commands = cycle(inp)
    py = [sys.executable]
    tr = spans.Tracer() if args.trace else spans.NullTracer()

    setups = []
    backend = None
    t_prev = time.perf_counter()
    for _ in range(SETUPS):
        write_inputs(inp, args.workdir)
        rc, stdout, stderr, _ = call(py + ["-c", PROBE], args.workdir)
        if rc != 0:
            sys.exit("warm-up import failed:\n" + stderr)
        backend = json.loads(stdout)
        now = time.perf_counter()
        setups.append(now - t_prev)
        t_prev = now

    times, errors, problems, digests, first = [], [], [], [], None
    cold = []  # calibration: a cold stdlib-only interpreter after each call
    peak_rss = 0.0
    for c in range(args.cycles):
        outs = {}
        for kind, argv, stdout_file in commands:
            t0 = time.perf_counter()
            with tr.span("cli." + kind, c):
                rc, stdout, stderr, rss = call(py + ["-m", "fraclift"] + argv,
                                               args.workdir, stdout_file)
            times.append((time.perf_counter() - t0) * 1e3)
            peak_rss = max(peak_rss, rss)
            t0 = time.perf_counter()
            subprocess.run(py + ["-c", calib.COLD_IMPORT], cwd=args.workdir,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            cold.append(time.perf_counter() - t0)
            if rc != 0:
                last = (stderr.strip() or stdout.strip() or "-").splitlines()[-1]
                errors.append("cycle %d: %s exited %d: %s"
                              % (c, kind, rc, last[:300]))
            else:
                outs[kind] = stdout
        if c == 0:
            first = outs
        digests.append(hashlib.sha256(repr(sorted(outs.items())).encode())
                       .hexdigest())
    try:
        problems += check(inp, first)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append("unreadable output: %r" % exc)
    if len(set(digests)) != 1:
        problems.append("cycles printed different outputs")

    if args.trace:
        for _ in range(IMPORT_PROBES):
            with tr.span("cli.import"):
                call(py + ["-c", "import fraclift"], args.workdir)

    report = {
        "backend": backend[0],
        "package": backend[1],
        "setup_s": statistics.median(setups),
        "requests": len(commands),
        "times_ms": times,
        "attempted": len(times),
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
        # mean, as in the in-process workers: a slow spell that stretches
        # one cold start stretches the calls around it as well
        "calib_ms": statistics.fmean(cold) * 1e3,
        "calib_ref_ms": calib.COLD_REFERENCE_MS,
        "peak_rss_mb": peak_rss,
    }
    if args.trace:
        report["self_s"] = spans.self_times(tr.spans)
        report["spans"] = tr.spans
    print(json.dumps(report))


if __name__ == "__main__":
    main()
