#!/usr/bin/env python3
"""Self-test of the benchmark's checks: they must catch a wrong Γ kernel.

Run from the root of a checkout:

    python3 fracbench/selftest.py

Builds the package as run.py does, then runs the first requests of each
in-process workload twice: as built, where every check must pass, and with
FRACLIFT_GAMMA_PERTURB=1e-6 (the program's hook that multiplies every
nonzero Γ ratio by 1 + 1e-6), where every workload whose requests go through
the Γ kernel must report failed checks. It then runs one cli cycle with the
hook set, where `verify` must exit 1. Exits 0 when all of that holds.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

PERTURB = "1e-6"
LIMITS = {"series_small": 24, "series_large": 8, "expand": 12}


def worker(lib, tmp, argv, perturb):
    env = run.child_env(lib, tmp)
    if perturb:
        env["FRACLIFT_GAMMA_PERTURB"] = PERTURB
    else:
        env.pop("FRACLIFT_GAMMA_PERTURB", None)
    return run.run_child(argv, env)


def main():
    root = os.getcwd()
    lib, _ = run.build(root)
    tmp = os.path.join(root, run.OUT_DIR, "selftest-%d" % os.getpid())
    os.makedirs(tmp)
    ok = True
    try:
        for name, limit in LIMITS.items():
            argv = [os.path.join(run.HERE, "worker.py"), "--workload", name,
                    "--seed", "1", "--rounds", "1", "--limit", str(limit)]
            clean = worker(lib, tmp, argv, False)["problems"]
            perturbed = worker(lib, tmp, argv, True)["problems"]
            good = not clean and perturbed
            ok &= bool(good)
            print("%-13s as built: %d failed checks; perturbed: %d failed "
                  "checks, e.g. %s  [%s]"
                  % (name, len(clean), len(perturbed),
                     perturbed[0] if perturbed else "-",
                     "ok" if good else "NOT CAUGHT"))
        report = worker(lib, tmp, [os.path.join(run.HERE, "cli_worker.py"),
                                   "--seed", "1", "--cycles", "1",
                                   "--workdir", tmp], True)
        verify = [e for e in report["errors"] if ": verify exited 1" in e]
        ok &= bool(verify)
        print("%-13s perturbed: %d failed calls (%s), %d failed checks  [%s]"
              % ("cli", report["failed"], verify[0][:40] if verify else "-",
                 len(report["problems"]), "ok" if verify else "NOT CAUGHT"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
