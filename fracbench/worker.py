"""One worker process of an in-process workload (series_small, series_large,
expand).

run.py starts it with PYTHONPATH pointing at the built package. It makes the
request list from the seed, then imports fraclift and warms up (its set-up
time), then runs whole rounds of the list, one request at a time, timing
each, with calibration samples (calib.py) between requests. Round 0's
outputs are checked against reference.py; every later round
must reproduce them exactly. The last line of stdout is a JSON report.

    python3 fracbench/worker.py --workload series_small --seed 1 --rounds 4
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

import calib
import gen
import reference
import spans

WARMUP = 4  # requests of the seed-0 list run before timing, in every run


def series_inputs(req):
    pairs = tuple((float(e), c) for e, c in zip(req.exps, req.coefs))
    return (req.rid, pairs, tuple(float(k) for k in req.orders), req.x)


def run_series(fl, inp, tr):
    rid, pairs, ks, x = inp
    with tr.span("request", rid):
        with tr.span("coeffseq.build"):
            f = fl.GenSeries(0.0, pairs)
        g = f
        for k in ks:
            with tr.span("rl.rl_series"):
                out = fl.rl_series(g, k)
            tr.count("rl.terms_in", len(g.terms))
            tr.count("rl.terms_annihilated", len(g.terms) - len(out.terms))
            g = out
        with tr.span("lifted.lift_gen"):
            rho = fl.lift_gen(f)
        for k in ks:
            with tr.span("lifted.shift"):
                rho = fl.shift(rho, k)
        with tr.span("lifted.project"):
            h = fl.project(rho)
        with tr.span("coeffseq.series_eval"):
            gv = fl.series_eval(g, x)
        with tr.span("coeffseq.series_eval"):
            hv = fl.series_eval(h, x)
    return {"rl": list(g.terms), "lifted": list(h.terms),
            "rl_value": gv, "lifted_value": hv}


TO_SERIES_SPAN = {16: "parser.to_series_o16", 32: "parser.to_series_o32",
                  64: "parser.to_series_o64"}


def expand_inputs(req):
    return (req.rid, req.text, req.order, float(req.k), req.x, req.oracle)


def run_expand(fl, inp, tr):
    rid, text, order, k, x, oracle = inp
    out = {}
    with tr.span("request", rid):
        with tr.span("parser.parse"):
            ast = fl.parse(text)
        with tr.span(TO_SERIES_SPAN[order]):
            f = fl.to_series(ast, 0.0, order)
        tr.count("parser.terms_out", len(f.terms))
        with tr.span("coeffseq.series_eval"):
            out["value"] = fl.series_eval(f, x)
        with tr.span("rl.rl_series"):
            g = fl.rl_series(f, k)
        tr.count("rl.terms_in", len(f.terms))
        tr.count("rl.terms_annihilated", len(f.terms) - len(g.terms))
        with tr.span("coeffseq.series_eval"):
            out["rl_value"] = fl.series_eval(g, x)
        if oracle:
            integrand = tr.counted("oracle.integrand_evals",
                                   lambda t: fl.series_eval(f, t))
            with tr.span("oracle.rl_oracle"):
                out["oracle"] = fl.rl_oracle(integrand, 0.0, k, x)
    out["series"] = list(f.terms)
    out["rl"] = list(g.terms)
    return out


WORKLOADS = {
    "series_small": (gen.series_small, series_inputs, run_series,
                     reference.check_series),
    "series_large": (gen.series_large, series_inputs, run_series,
                     reference.check_series),
    "expand": (gen.expand, expand_inputs, run_expand, reference.check_expand),
}


def run_round(fl, run, inputs, tr, cal, times, outs):
    """One pass over the list; returns the time spent in requests (the
    calibration samples taken between them are left out). A request that
    raises is a failed operation, recorded as an ("error", ...) tuple in
    outs."""
    busy = 0.0
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            out = run(fl, inp, tr)
        except Exception as exc:  # a failed operation; reported, not fatal
            out = ("error", type(exc).__name__, str(exc))
        dt = time.perf_counter() - t0
        outs.append(out)
        times.append(dt * 1e3)
        busy += dt
        cal.due()
    return busy


def digest(outs):
    return hashlib.sha256(repr(outs).encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N requests of the list")
    args = ap.parse_args()

    make, prepare, run, check = WORKLOADS[args.workload]
    reqs = make(args.seed)[:args.limit]
    inputs = [prepare(r) for r in reqs]
    warm = [prepare(r) for r in make(0)[:WARMUP]]
    tr = spans.Tracer() if args.trace else spans.NullTracer()

    cal = calib.Calibrator()
    cal.sample()
    t_setup = time.perf_counter()
    with tr.span("import.fraclift"):
        import fraclift as fl
    for inp in warm:
        run(fl, inp, spans.NullTracer())
    setup_s = time.perf_counter() - t_setup

    null = spans.NullTracer()
    times, traced_busy, untraced_busy = [], 0.0, 0.0
    digests, round_counts, first = [], [], None
    for rnd in range(args.rounds):
        # A traced run does each round twice, untraced and traced, in
        # alternating order; the two busy times give the tracing overhead.
        modes = ((null, tr) if rnd % 2 == 0 else (tr, null)) \
            if args.trace else (null,)
        for mode in modes:
            before = dict(tr.counts)
            outs = []
            busy = run_round(fl, run, inputs, mode, cal,
                             times if mode is null else [], outs)
            if mode is null:
                untraced_busy += busy
            else:
                traced_busy += busy
                round_counts.append({k: v - before.get(k, 0)
                                     for k, v in tr.counts.items()})
            if first is None:
                first = outs
            digests.append(digest(outs))

    errors, problems = [], []
    for req, out in zip(reqs, first):
        if isinstance(out, tuple):
            errors.append("request %d raised %s: %s" % (req.rid, out[1], out[2]))
            continue
        for p in check(req, out):
            problems.append("request %d: %s" % (req.rid, p))
    if len(set(digests)) != 1:
        problems.append("rounds gave different outputs")

    report = {
        "backend": fl.KERNEL_BACKEND,
        "package": fl.__file__,
        "setup_s": setup_s,
        "requests": len(inputs),
        "times_ms": times,
        "attempted": len(inputs) * len(digests),
        "failed": len(errors) * len(digests),
        "errors": errors,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_ms": cal.mean_ms(),
        "calib_ref_ms": calib.REFERENCE_MS,
    }
    if args.trace:
        if any(c != round_counts[0] for c in round_counts):
            problems.append("trace counts differ between rounds")
        report["self_s"] = spans.self_times(tr.spans)
        report["counts"] = round_counts[0]
        report["overhead_pct"] = (traced_busy / untraced_busy - 1.0) * 100.0
        report["spans"] = tr.spans
    print(json.dumps(report))


if __name__ == "__main__":
    main()
