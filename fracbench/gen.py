"""Request lists for each workload, made from a seed with the standard library.

Nothing here imports fraclift: the lists are built before the package is
imported and before any timing starts. Each list is stratified, so its
make-up (sizes, phases, orders, expression families, jet orders) is the
same for every seed; the seed chooses exponents, coefficients or their
signs, evaluation points, some of the orders, and the order of the
requests. Work per round therefore varies little between seeds.

Exponents and orders are kept as exact Fractions. The program receives
them as floats; the reference checks use the exact values to decide which
terms a Γ-denominator pole annihilates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q

PHASES = (Q(0), Q(1, 4), Q(1, 3), Q(1, 2))

# Orders per phase. Orders congruent to the phase mod 1 put e+1-k on an
# integer for every lattice exponent e, so the terms with e+1-k <= 0 hit a
# Γ-denominator pole; the others never do.
ORDERS = {
    Q(0): (Q(1), Q(2), Q(3), Q(1, 2), Q(-1, 2), Q(1, 3)),
    Q(1, 4): (Q(1, 4), Q(5, 4), Q(1, 2), Q(3, 4), Q(-1, 4), Q(1)),
    Q(1, 3): (Q(1, 3), Q(4, 3), Q(2, 3), Q(1, 2), Q(-2, 3), Q(1)),
    Q(1, 2): (Q(1, 2), Q(3, 2), Q(5, 2), Q(1), Q(-1, 2), Q(1, 3)),
}

# Two orders applied in sequence. The first of each pair hits the phase's
# poles; the lifted route keeps the terms it kills, the termwise
# composition loses them.
TWO_STEP = {
    Q(0): ((Q(1, 2), Q(1, 2)), (Q(2), Q(-1, 2))),
    Q(1, 4): ((Q(1, 4), Q(3, 4)), (Q(5, 4), Q(1, 2))),
    Q(1, 3): ((Q(1, 3), Q(1, 3)), (Q(4, 3), Q(2, 3))),
    Q(1, 2): ((Q(1, 2), Q(1, 2)), (Q(3, 2), Q(-1, 2))),
}


@dataclass(frozen=True)
class SeriesRequest:
    rid: int
    phase: Q
    exps: tuple  # exact exponents (Fraction), distinct
    coefs: tuple  # floats
    orders: tuple  # one or two exact orders (Fraction)
    x: float  # evaluation point, inside (0, 1)


def _spread(lo, hi, count):
    """`count` integers evenly covering [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + ((hi - lo) * i + (count - 1) // 2) // (count - 1)
            for i in range(count)]


def _jittered(rng, lo, hi, count):
    """`count` distinct integers in [lo, hi], one drawn from each of `count`
    equal bins, so how many fall below a pole varies little with the seed."""
    edges = [lo + (hi - lo + 1) * j // count for j in range(count + 1)]
    return [rng.randrange(edges[j], edges[j + 1]) for j in range(count)]


def _series_list(seed, per_phase, sizes, n_range, two_step_every):
    """`per_phase` requests for each phase, with sizes spread evenly over
    `sizes(phase)` and lattice indices spread over `n_range(phase)`; one
    request in `two_step_every` applies two orders. Which size goes with
    which order is fixed, since the cost of a request depends on both; the
    seed draws the exponents, coefficients and evaluation points, and
    shuffles the list."""
    rng = random.Random(seed)
    reqs = []
    for phase in PHASES:
        lo, hi = sizes(phase)
        size_list = _spread(lo, hi, per_phase)
        orders = ORDERS[phase]
        pairs = TWO_STEP[phase]
        n_lo, n_hi = n_range(phase)
        for i, size in enumerate(size_list):
            ns = _jittered(rng, n_lo, n_hi, size)
            exps = tuple(phase + n for n in ns)
            coefs = tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
                          for _ in ns)
            if i % two_step_every == two_step_every - 1:
                ks = pairs[(i // two_step_every) % len(pairs)]
            else:
                ks = (orders[i % len(orders)],)
            x = round(rng.uniform(0.6, 0.95), 6)
            reqs.append((phase, exps, coefs, ks, x))
    rng.shuffle(reqs)
    return [SeriesRequest(i, *r) for i, r in enumerate(reqs)]


def series_small(seed):
    """128 requests, 32 per phase, 8-32 terms. Fractional phases take lattice
    indices in [-8, 40], so the negative exponents near the poles appear;
    phase 0 takes [0, 40] (a negative integer exponent has no lifted
    preimage)."""
    return _series_list(
        seed, 32,
        sizes=lambda p: (8, 32),
        n_range=lambda p: (0, 40) if p == 0 else (-8, 40),
        two_step_every=4)


def series_large(seed):
    """112 requests, 28 per phase. Fractional phases: 128-320 terms on lattice
    indices [-160, 160]. Phase 0: 128-160 terms on [0, 165]. Exponents stay
    below 171, where lift_gen's float c*Γ(e+1) overflows."""
    return _series_list(
        seed, 28,
        sizes=lambda p: (128, 160) if p == 0 else (128, 320),
        n_range=lambda p: (0, 165) if p == 0 else (-160, 160),
        two_step_every=4)


# --------------------------------------------------------------------------
# expand: expressions on one exponent lattice
#
# A tree is a tuple: ("num", Q) | ("xpow", Q) | ("add", a, b) | ("mul", a, b)
# | ("ipow", a, n) | ("call", name, a). `render` gives the program's input
# text; the checks evaluate the same tree with `math`.

# x^p factors per phase (phase = p mod 1); the negative ones make the leading
# term hit a pole under the phase's pole orders.
XPOW = {
    Q(0): (Q(2), Q(1)),
    Q(1, 4): (Q(1, 4), Q(-3, 4)),
    Q(1, 3): (Q(1, 3), Q(-2, 3)),
    Q(1, 2): (Q(1, 2), Q(-1, 2)),
}

MAGNITUDES = (Q(1, 2), Q(1), Q(3, 2), Q(2))


def _poly(degree, slot):
    """Polynomial with zero constant term, so intrinsic jets stay rational.
    Its coefficients depend only on the slot: their signs change where
    terms cancel and their sizes change the rational work, so leaving them
    to the seed would change the cost of a round from seed to seed."""
    terms = [("mul", ("num", (-1 if (slot // 2 + d) % 3 == 0 else 1) *
                      MAGNITUDES[(slot + d) % len(MAGNITUDES)]),
              ("xpow", Q(d))) for d in range(1, degree + 1)]
    node = terms[0]
    for t in terms[1:]:
        node = ("add", node, t)
    return node


# name, tree(slot): the expression without the x^p factor
FAMILIES = (
    ("exp_x", lambda s: ("call", "exp", ("xpow", Q(1)))),
    ("exp_poly", lambda s: ("call", "exp", _poly(2, s))),
    ("sin_poly", lambda s: ("call", "sin", _poly(2, s))),
    ("cos_poly", lambda s: ("call", "cos", _poly(2, s) if s % 2 else
                            ("add", _poly(1, s), ("mul", ("num", Q(1, 2)),
                                                  ("xpow", Q(3)))))),
    ("cos_sq", lambda s: ("ipow", ("call", "cos", _poly(1, s)), 2)),
    ("exp_sin", lambda s: ("mul", ("call", "exp", _poly(1, s)),
                           ("call", "sin", _poly(1, s + 1)))),
    ("binom_cos", lambda s: ("mul", ("ipow", ("add", ("num", Q(1)),
                                              _poly(1, s)), 3),
                             ("call", "cos", _poly(1, s + 1)))),
)

SLOTS = 16  # requests per family: every (phase, x^p) pair twice
# Jet orders of the 14 slots of a family that do not run the oracle; the
# other two run it at o16. Sorted by time: plain o16 (25%) < o32 (37.5%) <
# oracle and o64 (37.5%), so the median and the 90th percentile each fall
# inside a group.
JET_ORDERS = (16,) * 4 + (32,) * 6 + (64,) * 4
ORACLE_ORDER = 16

# Oracle orders: fractional, at most 3/2 (its finite differences lose
# accuracy at higher orders); for fractional phases this is the phase
# itself, which annihilates the x^(phase-1) leading term.
ORACLE_K = {Q(0): Q(1, 2), Q(1, 4): Q(1, 4), Q(1, 3): Q(1, 3),
            Q(1, 2): Q(1, 2)}
ORACLE_X = 0.4


@dataclass(frozen=True)
class ExpandRequest:
    rid: int
    family: str
    phase: Q
    xpow: Q
    tree: tuple  # full expression, x^p factor included
    text: str
    order: int
    k: Q
    x: float  # evaluation point for series_eval and the oracle
    oracle: bool


def render(node):
    kind = node[0]
    if kind == "num":
        v = node[1]
        return str(v.numerator) if v.denominator == 1 else "(%s)" % v
    if kind == "xpow":
        p = node[1]
        if p == 1:
            return "x"
        return "x^%s" % (p if p.denominator == 1 and p > 0 else "(%s)" % p)
    if kind == "add":
        return "%s + %s" % (render(node[1]), render(node[2]))
    if kind == "mul":
        # the right operand is parenthesised when it is itself a product, so
        # x^p * (A * B) multiplies the integer-lattice jets first
        return "%s * %s" % (_wrap(node[1], ("add",)),
                            _wrap(node[2], ("add", "mul")))
    if kind == "ipow":
        return "%s^%d" % (_wrap(node[1], ("add", "mul")), node[2])
    if kind == "call":
        return "%s(%s)" % (node[1], render(node[2]))
    raise ValueError(kind)


def _wrap(node, kinds):
    text = render(node)
    return "(%s)" % text if node[0] in kinds else text


def expand(seed):
    """112 requests: each family 16 times, on every phase with both of its
    x^p factors, twice. The expression, jet order and oracle use of each
    (family, slot) are fixed, and so are the oracle's order and point; the
    seed chooses the other orders k and evaluation points, and shuffles the
    list. Orders that hit the phase's poles alternate with orders that do
    not."""
    rng = random.Random(seed)
    reqs = []
    for fi, (name, build) in enumerate(FAMILIES):
        oracle_slots = (fi % 8, fi % 8 + 8)
        others = [j for j in range(SLOTS) if j not in oracle_slots]
        n = fi % len(JET_ORDERS)
        orders = dict(zip(others, JET_ORDERS[n:] + JET_ORDERS[:n]))
        for j in range(SLOTS):
            phase = PHASES[j % 4]
            p = XPOW[phase][(j // 4) % 2]
            tree = ("mul", ("xpow", p), build(j))
            oracle = j in oracle_slots
            if oracle:
                k = ORACLE_K[phase]
            else:
                pole = (j + fi) % 2 == 0
                k = rng.choice([k for k in ORDERS[phase]
                                if ((k - phase) % 1 == 0) == pole and 0 < k <= 3])
            # the oracle's quadrature work depends on x, so its point is fixed
            x = ORACLE_X if oracle else round(rng.uniform(0.3, 0.5), 6)
            reqs.append((name, phase, p, tree, render(tree),
                         ORACLE_ORDER if oracle else orders[j], k, x, oracle))
    rng.shuffle(reqs)
    return [ExpandRequest(i, *r) for i, r in enumerate(reqs)]


# --------------------------------------------------------------------------
# cli: the inputs of one command cycle


@dataclass(frozen=True)
class CliInputs:
    exps: tuple  # series for deriv/lift/project, exact exponents
    coefs: tuple  # exact rational coefficients
    k: Q  # the phase itself: kills the x^(phase-1) and x^(phase-2) terms
    oracle_exps: tuple  # nonnegative exponents for oracle-compare
    oracle_coefs: tuple
    oracle_k: Q
    oracle_xs: tuple
    verify_seed: int


def series_text(exps, coefs):
    return " + ".join("(%s) * x^(%s)" % (c, e) for e, c in zip(exps, coefs))


def cli_inputs(seed):
    """Eight terms on a fractional lattice, two of them below the pole the
    order k hits; a two-term series for the oracle."""
    rng = random.Random(seed)
    phase = rng.choice(PHASES[1:])
    ns = [-2, -1] + sorted(rng.sample(range(0, 12), 6))
    coefs = tuple(rng.choice((-1, 1)) * Q(rng.randint(1, 9), rng.randint(1, 4))
                  for _ in ns)
    o_exps = (Q(1, 2), Q(3, 2))
    o_coefs = tuple(Q(rng.randint(1, 9), 2) for _ in o_exps)
    return CliInputs(
        exps=tuple(phase + n for n in ns), coefs=coefs, k=phase,
        oracle_exps=o_exps, oracle_coefs=o_coefs,
        oracle_k=rng.choice((Q(1, 2), Q(-1, 2), Q(3, 2))),
        oracle_xs=(round(rng.uniform(0.25, 0.75), 4),
                   round(rng.uniform(1.0, 2.0), 4)),
        verify_seed=seed)
