"""Shared runtime constants and the one perturbation switch.

FRACLIFT_GAMMA_PERTURB  test hook: multiply every nonzero gamma-ratio by
                        (1 + eps), eps a finite number above -1 (else
                        InputError); default 0 (off)
"""

import functools
import math
import os

from .errors import InputError

# Integer-detection tolerance: |x - round(x)| <= INT_TOL with round(x) <= 0
# classifies x as a Gamma pole, and a float exponent within it of a lattice
# point joins the lattice.
INT_TOL = 1e-9

# Coefficients below this magnitude are treated as zero and dropped.
COEF_EPS = 1e-300

# Jet order used when expanding transcendental expressions, unless the caller
# passes one explicitly: to_series, and the CLI's and verify's --order.
DEFAULT_ORDER = 16

# The highest jet order to_series, to_lifted and the CLI's --order take. At
# it, exp(x)*sin(x) expands in about 0.15 s and x^(1/3)*sin(x)*exp(x/3) in
# about 0.4 s, each about 8 times its cost at half the order. A product or
# integer power of polynomials may hold at most 2 MAX_JET_ORDER + 1 terms.
MAX_JET_ORDER = 1024

# How many entries each per-lattice plan cache keeps (coeffseq.rational and
# the float entry's phase, rl, lifted and gamma.lattice_scaled): the
# exact-rational work a series call needs once per lattice and order, least
# recently used dropped first. A workload meets a few hundred lattices and
# orders; 1024 entries of each plan take well under 1 MB.
PLAN_CACHE = 1024

# The bounds of the per-lattice tables: gamma's Gamma tables and coeffseq's
# exponent columns. A table holds the keys at most TABLE_SPAN steps from its
# anchor (a Gamma table) or apart (an exponent column), and each module's
# tables are all dropped once they hold more than TABLE_CEILING values
# together (about 2 MB of doubles; the columns count one more per lattice),
# then refilled as calls come.
TABLE_SPAN = 4096
TABLE_CEILING = 1 << 16


@functools.cache
def perturbation():
    """eps, read from FRACLIFT_GAMMA_PERTURB on the first call and cached."""
    text = os.environ.get("FRACLIFT_GAMMA_PERTURB", "0")
    try:
        eps = float(text)
    except ValueError:
        eps = math.nan
    if not -1.0 < eps < math.inf:
        raise InputError("FRACLIFT_GAMMA_PERTURB=%r is not a finite "
                         "number above -1" % text)
    return eps
