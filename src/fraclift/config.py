"""Shared runtime knobs, overridable through environment variables.

FRACLIFT_TOL            integer-detection tolerance (pole tests, and lattice
                        membership of float exponents); default 1e-9
FRACLIFT_GAMMA_PERTURB  test hook: multiply every nonzero gamma-ratio by
                        (1 + eps); default 0 (off)
"""

import os

INT_TOL_DEFAULT = 1e-9

# |x - round(x)| <= int_tol with round(x) <= 0 classifies x as a Gamma pole.
int_tol = float(os.environ.get("FRACLIFT_TOL", INT_TOL_DEFAULT))

# Verification-sensitivity hook; see cli verify --perturb-gamma.
gamma_perturb = float(os.environ.get("FRACLIFT_GAMMA_PERTURB", "0.0"))

# Coefficients below this magnitude are treated as zero and dropped.
COEF_EPS = 1e-300

# Jet order used when expanding transcendental expressions, unless the caller
# passes one explicitly: to_series, and the CLI's and verify's --order.
DEFAULT_ORDER = 16
