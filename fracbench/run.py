#!/usr/bin/env python3
"""fraclift benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 fracbench/run.py --workload series_small --seed 1 --seconds 15 --trace 0

It builds the package with setup.py into .bench_build/ (once per source
state; the build is outside the timed part and outside the source tree),
stops if setup.py declares an extension that the build did not produce,
then runs the workload in child processes with PYTHONPATH pointing at the
build. With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics, those of
layers the workload does not call taken from one traced round of a
workload that does, and the spans are written to .bench_out/. See
fracbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKERS = 3  # in-process workloads: set-ups per run, one per worker

# Seconds one round (or cli cycle) takes on the reference machine; the
# number of rounds in a run is fixed from --seconds with these, so it never
# depends on the speed of the code under test.
ROUND_S = {"series_small": 0.08, "series_large": 0.6, "expand": 1.9,
           "cli": 9.6}


def fail(msg, code=1):
    print("fracbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env(lib, tmp):
    env = dict(os.environ)
    # measure the package as built, never a forced or skipped fallback
    env.pop("FRACLIFT_PURE_PYTHON", None)
    env.pop("FRACLIFT_NO_EXT", None)
    env.update(PYTHONHASHSEED="0", TMPDIR=tmp)
    if lib is not None:
        env["PYTHONPATH"] = lib
    else:
        env.pop("PYTHONPATH", None)
    return env


def source_digest(root):
    h = hashlib.sha256()
    files = ["setup.py", "pyproject.toml"]
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if not name.endswith((".pyc", ".so")):
                files.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


DECLARED = ("import json, setuptools\n"
            "from distutils.core import run_setup\n"
            "dist = run_setup('setup.py', stop_after='init')\n"
            "print(json.dumps([e.name for e in dist.ext_modules or []]))\n")


def build(root):
    """Build the package from a copy of the sources; returns (lib dir,
    declared extension names). Reuses an earlier build of the same
    sources."""
    base = os.path.join(root, BUILD_DIR, "fraclift-" + source_digest(root))
    lib = os.path.join(base, "lib")
    marker = os.path.join(base, "declared.json")
    if os.path.exists(marker):
        with open(marker) as fh:
            return lib, json.load(fh)
    shutil.rmtree(base, ignore_errors=True)
    stage, tmp = os.path.join(base, "src-copy"), os.path.join(base, "tmp")
    os.makedirs(tmp)
    shutil.copytree(os.path.join(root, "src"), os.path.join(stage, "src"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.so",
                                                  "*.egg-info"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(os.path.join(root, name), stage)
    env = child_env(None, tmp)
    p = subprocess.run([sys.executable, "-c", DECLARED], cwd=stage, env=env,
                       capture_output=True, text=True)
    if p.returncode != 0:
        fail("could not read the extensions setup.py declares:\n" + p.stderr)
    declared = json.loads(p.stdout.strip().splitlines()[-1])
    p = subprocess.run([sys.executable, "setup.py", "build",
                        "--build-base", os.path.join(base, "build"),
                        "--build-lib", lib], cwd=stage, env=env,
                       capture_output=True, text=True)
    log = p.stdout + p.stderr
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    missing = [name for name in declared if not os.path.exists(
        os.path.join(lib, *name.split(".")) + suffix)]
    if p.returncode != 0 or missing:
        fail("build failed (exit %d, missing %s); build output:\n%s"
             % (p.returncode, missing, log))
    subprocess.run([sys.executable, "-m", "compileall", "-q", lib], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    with open(marker, "w") as fh:
        json.dump(declared, fh)
    return lib, declared


def run_child(argv, env):
    p = subprocess.run([sys.executable] + argv, env=env, capture_output=True,
                       text=True)
    if p.returncode != 0 or not p.stdout.strip():
        fail("%s exited %d:\n%s" % (argv[0], p.returncode, p.stderr[-3000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reports, scaled=True):
    """A request's time is the mean of its repeats in the run, after each
    worker's times are scaled to the reference speed (calib.py); the
    percentiles are taken over the distinct requests. With scaled=False,
    the same figures as measured."""
    n = reports[0]["requests"]
    factor = [r["calib_ref_ms"] / r["calib_ms"] if scaled else 1.0
              for r in reports]
    times = [[t * f for t in r["times_ms"]] for r, f in zip(reports, factor)]
    per_request = [statistics.fmean(t for ts in times for t in ts[i::n])
                   for i in range(n)]
    metrics = {
        "op_p50_ms": (statistics.median(per_request), "ms"),
        "op_p90_ms": (percentile(per_request, 90), "ms"),
        "ops_per_s": (sum(map(len, times)) / (sum(map(sum, times)) / 1e3),
                      "1/s"),
        "setup_s": (statistics.median(r["setup_s"] * f
                                      for r, f in zip(reports, factor)), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }
    return metrics


# per-layer metric name -> (span name, scale from seconds, unit)
LAYER_SPANS = {
    "import.fraclift_ms": ("import.fraclift", 1e3, "ms"),
    "coeffseq.build_us": ("coeffseq.build", 1e6, "us"),
    "coeffseq.series_eval_us": ("coeffseq.series_eval", 1e6, "us"),
    "rl.rl_series_us": ("rl.rl_series", 1e6, "us"),
    "lifted.lift_gen_us": ("lifted.lift_gen", 1e6, "us"),
    "lifted.shift_us": ("lifted.shift", 1e6, "us"),
    "lifted.project_us": ("lifted.project", 1e6, "us"),
    "parser.parse_us": ("parser.parse", 1e6, "us"),
    "parser.to_series_o16_ms": ("parser.to_series_o16", 1e3, "ms"),
    "parser.to_series_o32_ms": ("parser.to_series_o32", 1e3, "ms"),
    "parser.to_series_o64_ms": ("parser.to_series_o64", 1e3, "ms"),
    "oracle.rl_oracle_ms": ("oracle.rl_oracle", 1e3, "ms"),
    "cli.import_ms": ("cli.import", 1e3, "ms"),
    "cli.deriv_ms": ("cli.deriv", 1e3, "ms"),
    "cli.deriv_lifted_ms": ("cli.deriv_lifted", 1e3, "ms"),
    "cli.deriv_file_ms": ("cli.deriv_file", 1e3, "ms"),
    "cli.lift_ms": ("cli.lift", 1e3, "ms"),
    "cli.project_ms": ("cli.project", 1e3, "ms"),
    "cli.kernel_check_ms": ("cli.kernel_check", 1e3, "ms"),
    "cli.oracle_compare_ms": ("cli.oracle_compare", 1e3, "ms"),
    "cli.verify_ms": ("cli.verify", 1e3, "ms"),
}
LAYER_COUNTS = ("rl.terms_in", "rl.terms_annihilated", "parser.terms_out",
                "oracle.integrand_evals")


PER_LAYER = list(LAYER_SPANS) + list(LAYER_COUNTS) + ["trace.overhead_pct"]


def source_of(name):
    """The workload whose traced run gives the per-layer metric `name` when
    the run's own workload does not call that layer."""
    if name.startswith("cli."):
        return "cli"
    if name.startswith(("parser.", "oracle.")):
        return "expand"
    return "series_small"


def run_workload(workload, seed, seconds, trace, env, tmp, workers=WORKERS):
    """The reports of one workload's workers: as many whole rounds (cli:
    cycles of calls) as take `seconds` at the reference speed, at least
    one."""
    if workload == "cli":
        cycles = max(1, round(seconds / ROUND_S["cli"]))
        return [run_child(
            [os.path.join(HERE, "cli_worker.py"), "--seed", str(seed),
             "--cycles", str(cycles), "--trace", str(trace),
             "--workdir", tmp], env)]
    rounds = max(1, round(seconds / (WORKERS * ROUND_S[workload])))
    return [run_child(
        [os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--rounds", str(rounds),
         "--trace", str(trace)], env) for _ in range(workers)]


def per_layer(reports):
    """Median self time per call over the run, and the per-round counts
    (the same in every worker)."""
    metrics = {}
    for name, (span, scale, unit) in LAYER_SPANS.items():
        selfs = [s for r in reports for s in r["self_s"].get(span, ())]
        if selfs:
            metrics[name] = (statistics.median(selfs) * scale, unit)
    for name in LAYER_COUNTS:
        counts = {r["counts"][name] for r in reports if name in r.get("counts", {})}
        if counts:
            if len(counts) != 1:
                fail("count %s differs between workers: %s" % (name, counts))
            metrics[name] = (counts.pop(), "count")
    overheads = [r["overhead_pct"] for r in reports if "overhead_pct" in r]
    if overheads:
        metrics["trace.overhead_pct"] = (statistics.median(overheads), "%")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("setup.py", "pyproject.toml", os.path.join("src", "fraclift")):
        if not os.path.exists(os.path.join(root, need)):
            fail("no %s here: run from the root of a fraclift checkout" % need, 2)

    lib, declared = build(root)
    out_dir = os.path.join(root, OUT_DIR)
    tmp = os.path.join(out_dir, "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    env = child_env(lib, tmp)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    companions = []
    try:
        reports = run_workload(args.workload, args.seed, args.seconds,
                               args.trace, env, tmp)
        if args.trace:
            missing = set(PER_LAYER) - set(per_layer(reports))
            for w in sorted({source_of(name) for name in missing}):
                companions.append(
                    (w, run_workload(w, args.seed, 0, 1, env, tmp, workers=1)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    all_reports = reports + [r for _, reps in companions for r in reps]
    for r in all_reports:
        if not r["package"].startswith(lib + os.sep):
            fail("imported fraclift from %s, not from the build %s"
                 % (r["package"], lib))
        if declared and r["backend"] == "python":
            fail("setup.py declares %s but the pure-Python kernels were "
                 "loaded" % declared)
    problems = [p for r in all_reports for p in r["problems"]]
    errors = [e for r in all_reports for e in r["errors"]]
    if args.trace:
        metrics = per_layer(reports)
        for _, reps in companions:
            for name, value in per_layer(reps).items():
                metrics.setdefault(name, value)
        lacking = set(PER_LAYER) - set(metrics)
        if lacking:
            fail("the traced run gave no %s" % ", ".join(sorted(lacking)))
    else:
        metrics = end_to_end(reports)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in all_reports),
        "failed": sum(r["failed"] for r in all_reports),
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in sorted(metrics.items())},
    }
    details = {"problems": problems, "errors": errors,
               "backend": reports[0]["backend"],
               "calib_ms": [r["calib_ms"] for r in reports],
               "calib_ref_ms": reports[0]["calib_ref_ms"]}
    if not args.trace:
        details["unscaled"] = {name: v for name, (v, u)
                               in end_to_end(reports, scaled=False).items()}
    with open(os.path.join(out_dir, "result-%s.json" % tag), "w") as fh:
        json.dump(dict(result, **details), fh, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, "trace-%s.json" % tag), "w") as fh:
            json.dump([{"workload": w, "spans": r["spans"]}
                       for w, reps in [(args.workload, reports)] + companions
                       for r in reps], fh)

    print("kernel backend: %s (fraclift.KERNEL_BACKEND), package %s"
          % (reports[0]["backend"], os.path.relpath(lib, root)))
    for w, _ in companions:
        print("per-layer metrics of layers %s does not call: one round of %s"
              % (args.workload, w))
    print("calibration: %s ms (reference %s ms)"
          % (", ".join("%.3f" % c for c in details["calib_ms"]),
             details["calib_ref_ms"]))
    if not args.trace:
        print("as measured, unscaled: " + ", ".join(
            "%s %.4g" % kv for kv in sorted(details["unscaled"].items())))
    for e in errors[:20]:
        print("operation failed: " + e)
    for p in problems[:20]:
        print("check failed: " + p)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
