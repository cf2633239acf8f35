"""Identity verification suites.

Each lettered law from the construction is a function of its inputs that
returns a residual: 0.0 or inf for an exact law, else a worst relative
difference (for series, |ca - cb| / max(|ca|, |cb|) over the union of
exponents). A suite applies each law to seeded draws (sequences at offset 0
for the R, D and I laws), and `_check` reports it as a named pass/fail with
the worst residual: it passes only when every residual is within its bound,
so a NaN fails. The oracle law reads its row from oracle.compare, as the
CLI's oracle-compare does. The CLI `verify` subcommand and the acceptance
tests run the suites; the property tests call the laws on generated inputs.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from . import config
from .coeffseq import GenSeries, int_derivative, monomial
from .errors import EvalDomainError
from .gamma import gamma, gamma_chain, gamma_ratio, is_pole, recip_gamma, sinpi
from .lifted import LiftedSeq, lift_gen, project, shift
from .oracle import compare
from .parser import to_series
from .rl import rl_series

K_SET = (0.5, 1.0, 1.5, -0.5, math.pi / 3.0)


SuiteResult = namedtuple("SuiteResult", "name passed max_residual cases note",
                         defaults=("",))


def _worst(residuals):
    """The largest residual, 0.0 for none; a NaN among them is the result."""
    worst = 0.0
    for r in residuals:
        if r > worst or r != r:
            worst = r
    return worst


def _check(name, bound, residuals, note=""):
    """One law over its cases: passes when every residual is <= bound."""
    rs = list(residuals)
    worst = _worst(rs)
    return SuiteResult(name, worst <= bound, worst, len(rs), note)


def _exact(ok):
    return 0.0 if ok else math.inf


def _rel(a, b):
    d = abs(a - b)
    return d / max(abs(a), abs(b)) if d else 0.0


def series_residual(f: GenSeries, g: GenSeries, exp_tol=1e-9) -> float:
    """Worst relative coefficient difference over matched exponents; a term
    present on one side only counts as residual 1. The two lattices match
    when their phases agree within exp_tol (mod 1); their terms then match
    by key. A NaN coefficient makes the residual NaN."""
    d = float(g.phase - f.phase)
    m = round(d)
    if abs(d - m) > exp_tol:
        return 1.0 if f.coeffs or g.coeffs else 0.0
    unmatched = {n + m: c for n, c in g.coeffs.items()}
    out = [1.0 if (cg := unmatched.pop(n, None)) is None else _rel(c, cg)
           for n, c in f.coeffs.items()]
    return _worst(out + [1.0] * bool(unmatched))


def seq_residual(a: LiftedSeq, b: LiftedSeq) -> float:
    """Worst relative difference of two sequences on the same lattice."""
    return _worst(_rel(a.values.get(i, 0.0), b.values.get(i, 0.0))
                  for i in set(a.values) | set(b.values))


def _random_seq(rng) -> LiftedSeq:
    """1-12 entries on the indices [-8, 16], at offset 0."""
    support = rng.sample(range(-8, 17), rng.randint(1, 12))
    return LiftedSeq(0.0, 0, {i: rng.uniform(-10.0, 10.0) for i in support})


def _random_jet(rng, order=config.DEFAULT_ORDER) -> GenSeries:
    exps = rng.sample(range(0, order + 1), rng.randint(1, min(10, order + 1)))
    return GenSeries(0.0,
                     tuple((float(e), rng.uniform(-10.0, 10.0)) for e in exps))


def _random_lifted(rng) -> LiftedSeq:
    return shift(_random_seq(rng), rng.uniform(-2.0, 2.0))


def _from(sigma, n) -> LiftedSeq:
    """sigma's entries at indices i >= n, moved to i - n."""
    return LiftedSeq(sigma.basepoint, 0,
                     {i - n: v for i, v in sigma.values.items() if i >= n})


# --------------------------------------------------------------------------
# gamma laws


def reflection(x):
    """Gamma(x) Gamma(1-x) sin(pi x) = pi."""
    return abs(gamma(x) * gamma(1.0 - x) * sinpi(x) / math.pi - 1.0)


def recurrence(x):
    """Gamma(x+1) = x Gamma(x)."""
    return abs(gamma(x + 1.0) / (x * gamma(x)) - 1.0)


def _near_int(x, tol=1e-3):
    # the ratio laws' domain lies farther than 1e-3 from every integer
    return abs(x - round(x)) <= tol


def ratio_inverse(p, q):
    """(Gamma(p)/Gamma(q)) (Gamma(q)/Gamma(p)) = 1; 0.0 off its domain."""
    if _near_int(p) or _near_int(q):
        return 0.0
    return abs(gamma_ratio(p, q) * gamma_ratio(q, p) - 1.0)


def ratio_vs_product(p, q):
    """gamma_ratio(p, q) = Gamma(p) / Gamma(q); 0.0 off its domain."""
    if _near_int(q):
        return 0.0
    r1 = gamma_ratio(p, q)
    r2 = gamma(p) * recip_gamma(q)
    return abs(r1 - r2) / max(abs(r1), abs(r2), 1e-30)


def chain_vs_pointwise(phase, k, keys):
    """gamma_chain against the scalar kernel on {phase + n : n in keys}: a
    relative difference per term of each kind, inf where one side alone is
    0. "ratio" leaves out numerator poles alone, "gamma" every pole."""
    fin = [n for n in keys if not is_pole(phase + n)]
    defined = [n for n in keys
               if not is_pole(phase + n) or is_pole(phase + n - k)]
    ph = Fraction(phase)
    pairs = ((gamma_chain(ph, defined, "ratio", Fraction(k)),
              [gamma_ratio(phase + n, phase + n - k) for n in defined]),
             (gamma_chain(ph, keys, "recip"),
              [recip_gamma(phase + n) for n in keys]),
             (gamma_chain(ph, fin, "gamma"), [gamma(phase + n) for n in fin]))
    return [math.inf if (c == 0.0) != (p == 0.0)
            else abs(c - p) / max(abs(c), abs(p), 1e-300)
            for chain, point in pairs for c, p in zip(chain, point)]


def _reflection_point(rng):
    # a point in (-30, 30) farther than 1e-6 from every integer
    while True:
        x = rng.uniform(-30.0, 30.0)
        if not _near_int(x, 1e-6):
            return x


def _chain_lattice(rng, i):
    """Lattice i: 1-40 keys from a start in [-30, 0], gaps of 1-4; phase and
    k multiples of 1/1024, exact on the lattice. Odd lattices are pole-prone:
    phase 0 or 1/2, every other one with k congruent to it."""
    phase = (rng.choice((0.0, 0.5)) if i % 2
             else rng.randrange(1024) / 1024.0)
    k = (phase + rng.randint(-2, 3) if i % 4 == 1
         else rng.randint(-3072, 3072) / 1024.0)
    n = rng.randint(-30, 0)
    keys = []
    for _ in range(rng.randint(1, 40)):
        keys.append(n)
        n += rng.randint(1, 4)
    return phase, k, keys


def suite_gamma(trials=200, seed=0, order=None):
    """Reflection on 1000 points, gamma_chain on trials // 10 lattices (at
    least one); order is not used."""
    rng = random.Random(seed)
    u = rng.uniform
    lattices = range(max(1, trials // 10))
    return [
        _check("gamma-reflection", 1e-10,
               (reflection(_reflection_point(rng)) for _ in range(1000))),
        _check("gamma-recurrence", 1e-12,
               (recurrence(u(0.1, 60.0)) for _ in range(trials))),
        _check("recip-gamma-pole-zeros", 0.0,
               (_exact(recip_gamma(-n) == 0.0) for n in range(51))),
        _check("gamma-ratio-inverse", 1e-10,
               (ratio_inverse(u(-20.0, 20.0), u(-20.0, 20.0))
                for _ in range(trials))),
        _check("gamma-ratio-vs-product", 1e-10,
               (ratio_vs_product(u(0.1, 60.0), u(-20.0, 20.0))
                for _ in range(trials))),
        _check("gamma-chain-vs-pointwise", 1e-12,
               (r for i in lattices
                for r in chain_vs_pointwise(*_chain_lattice(rng, i)))),
    ]


# --------------------------------------------------------------------------
# projection laws (R1', R2, linearity, kernel)


def r1(f):
    """R1': project(lift_gen(f)) = f."""
    return series_residual(project(lift_gen(f)), f)


def r2(sigma):
    """R2: lift_gen(project(sigma)) is sigma on its nonnegative indices."""
    return seq_residual(lift_gen(project(sigma)), _from(sigma, 0))


# how far above COEF_EPS the homogeneity law's values must lie, so that
# no rounding moves one of them across the threshold on one side only
_EPS_MARGIN = 16.0


def r_linearity(a, b, c):
    """project(a + b) = project(a) + project(b) and project(c a) =
    c project(a). The sum is measured per key relative to the larger part,
    max(|project(a)_n|, |project(b)_n|): where a + b cancels, the sum keeps
    the rounding of the parts, however small it is itself. The homogeneity
    half is 0.0 off its domain: where a value of c a, of project(a) or of
    c project(a), before the threshold, lies below _EPS_MARGIN COEF_EPS,
    projection may drop it on one side only."""
    pa, pb, ps = project(a).coeffs, project(b).coeffs, project(a + b).coeffs
    add = []
    for n in pa.keys() | pb.keys() | ps.keys():
        u, v = pa.get(n, 0.0), pb.get(n, 0.0)
        d = abs(ps.get(n, 0.0) - (u + v))
        add.append(d / (max(abs(u), abs(v)) or d) if d else 0.0)
    # each value over Gamma(n + 1 - offset), 0.0 on its poles
    rs = gamma_chain(1 - a.offset, a.keys, "recip")
    low = _EPS_MARGIN * config.COEF_EPS
    if any(min(abs(c * v), abs(v * r), abs(c * v * r)) < low
           for v, r in zip(a.vals, rs) if r):
        return _worst(add)
    return _worst(add + [series_residual(project(c * a), c * project(a))])


def r_kernel(sigma):
    """project(sigma) is 0 exactly when sigma has no index >= 0 (exact)."""
    return _exact(project(sigma).is_zero == all(i < 0 for i in sigma.values))


def _negative_seq(rng):
    return LiftedSeq(0.0, 0, {-rng.randint(1, 8): rng.uniform(-10, 10)
                              for _ in range(3)})


def suite_projection(trials=200, seed=1, order=config.DEFAULT_ORDER):
    rng = random.Random(seed)
    return [
        _check("R1'", 1e-12,
               (r1(_random_jet(rng, order)) for _ in range(trials))),
        _check("R2", 1e-12, (r2(_random_seq(rng)) for _ in range(trials))),
        _check("R-linearity", 1e-12,
               (r_linearity(_random_seq(rng), _random_seq(rng),
                            rng.uniform(-5.0, 5.0)) for _ in range(trials))),
        _check("R-kernel", 0.0,
               (max(r_kernel(_negative_seq(rng)), r_kernel(_random_seq(rng)))
                for _ in range(trials))),
    ]


# --------------------------------------------------------------------------
# shift-operator laws (D1-D8)


def d1(rho, a, b):
    """Shifts commute, bit for bit (exact)."""
    return _exact(shift(shift(rho, a), b) == shift(shift(rho, b), a))


def d2(rho, a, b):
    """Shifts add (exact, for orders whose sum is itself a double)."""
    return _exact(shift(shift(rho, a), b) == shift(rho, a + b))


def d3(rho, a):
    """-a undoes a shift by a, and the shift by 0 is the identity (exact)."""
    return _exact(shift(shift(rho, a), -a) == rho and shift(rho, 0.0) == rho)


def d4(rho, pi_, k):
    """A shift is additive (exact)."""
    return _exact(shift(rho + pi_, k) == shift(rho, k) + shift(pi_, k))


def d5(rho, c, k):
    """A shift is homogeneous (exact)."""
    return _exact(shift(c * rho, k) == c * shift(rho, k))


def d6(f):
    """Integer shifts of the lift are integer derivatives and, at negative
    orders, integrals."""
    sigma = lift_gen(f)
    return _worst(series_residual(project(shift(sigma, n)),
                                  int_derivative(f, n))
                  for n in (0, 1, 2, 3, -1, -2))


def d7(sigma):
    """The lifted n-th derivative of the projection is the sequence moved
    down by n; the jet lift zeroes the negative indices."""
    return _worst(seq_residual(lift_gen(int_derivative(project(sigma), n)),
                               _from(sigma, n)) for n in (0, 1, 2, 3))


def d8(sigma):
    """The n-th derivative undoes the lifted n-fold integral."""
    return _worst(series_residual(int_derivative(project(shift(sigma, -n)), n),
                                  project(sigma)) for n in (0, 1, 2, 3))


def _dyadic(rng):
    # multiples of 1/1024, so that the sum of two is exact in doubles
    return rng.randrange(-(1 << 20), 1 << 20) / 1024.0


def suite_shift(trials=200, seed=2, order=None):
    """D1-D5 on trials random shifted sequences; D6-D8 on a quarter as many
    (at least one) jets of order 10 and sequences. order is not used."""
    rng = random.Random(seed)
    u = rng.uniform
    quarter = range(max(1, trials // 4))
    return [
        _check("D1", 0.0, (d1(_random_lifted(rng), u(-3.0, 3.0), u(-3.0, 3.0))
                           for _ in range(trials)), "bit-identical"),
        _check("D2", 0.0, (d2(_random_lifted(rng), _dyadic(rng), _dyadic(rng))
                           for _ in range(trials))),
        _check("D3", 0.0, (d3(_random_lifted(rng), u(-3.0, 3.0))
                           for _ in range(trials))),
        _check("D4", 0.0, (d4(_random_seq(rng), _random_seq(rng), u(-3.0, 3.0))
                           for _ in range(trials))),
        _check("D5", 0.0, (d5(_random_lifted(rng), u(-5.0, 5.0), u(-3.0, 3.0))
                           for _ in range(trials))),
        _check("D6", 1e-12, (d6(_random_jet(rng, 10)) for _ in quarter)),
        _check("D7", 1e-12, (d7(_random_seq(rng)) for _ in quarter)),
        _check("D8", 1e-12, (d8(_random_seq(rng)) for _ in quarter)),
    ]


# --------------------------------------------------------------------------
# embedding laws (I1-I4): a sequence on the integers is its own embedding,
# the lifted sequence at offset 0


def i1(sigma):
    """A sequence on the integers, its own embedding, restricts back to
    itself (exact)."""
    return _exact(sigma.on_integers() == sigma)


def i2(sigma, k):
    """An integer shift of the embedding moves the sequence by k (exact)."""
    moved = LiftedSeq(sigma.basepoint, 0,
                      {i - k: v for i, v in sigma.values.items()})
    return _exact(shift(sigma, float(k)).on_integers() == moved)


def suite_embedding(trials=200, seed=3, order=config.DEFAULT_ORDER):
    """I1-I4. I3 is I1 on the lifts of random jets; I4, projecting the
    embedded lift of a jet back to the jet, is R1' on its own draws."""
    rng = random.Random(seed)
    return [
        _check("I1", 0.0, (i1(_random_seq(rng)) for _ in range(trials))),
        _check("I2", 0.0, (i2(_random_seq(rng), rng.randint(-6, 6))
                           for _ in range(trials))),
        _check("I3", 0.0, (i1(lift_gen(_random_jet(rng, order)))
                           for _ in range(trials))),
        _check("I4", 1e-12,
               (r1(_random_jet(rng, order)) for _ in range(trials))),
    ]


# --------------------------------------------------------------------------
# diagram laws (D6', D8', kernel repair)


def d6_prime(f, k):
    """The lifted route equals the termwise rule."""
    return series_residual(project(shift(lift_gen(f), k)), rl_series(f, k))


def d8_prime(f, k):
    """Order k undoes the lifted order -k."""
    return series_residual(rl_series(project(shift(lift_gen(f), -k)), k), f)


def semigroup_boundary(m, j, k):
    """Order j annihilates x^(j-1-m) but j + k does not: the two-step
    termwise path is 0 (else inf), and the lifted path is the direct one."""
    f = monomial(j - 1.0 - m)
    step1 = rl_series(f, j)
    two_step = rl_series(step1, k)
    direct = rl_series(f, j + k)
    if not (step1.is_zero and two_step.is_zero and not direct.is_zero):
        return math.inf
    return series_residual(project(shift(shift(lift_gen(f), j), k)), direct)


def kernel_repair():
    """Half-differentiating x^(-1/2) twice dies termwise but survives the
    lifted route, as the order-1 result -x^(-3/2)/2."""
    f = monomial(-0.5)
    repaired = project(shift(shift(lift_gen(f), 0.5), 0.5))
    return _worst((semigroup_boundary(0, 0.5, 0.5),
                   series_residual(repaired, monomial(-1.5, -0.5))))


def diagram_inputs(order=config.DEFAULT_ORDER):
    # sin one order past exp, but no further than the jet-order limit, so
    # every order the CLI takes runs
    return (monomial(1.0), monomial(2.0), to_series("exp(x)", 0.0, order),
            to_series("sin(x)", 0.0, min(order + 1, config.MAX_JET_ORDER)))


def suite_diagram(trials=None, seed=None, order=config.DEFAULT_ORDER):
    """D6' and D8' on diagram_inputs(order) x K_SET, and the kernel repair;
    a fixed grid, so trials and seed are not used."""
    grid = [(f, k) for f in diagram_inputs(order) for k in K_SET]
    return [
        _check("D6'", 1e-12, (d6_prime(f, k) for f, k in grid),
               "project(shift(lift_gen(f), k)) vs termwise"),
        _check("D8'", 1e-10, (d8_prime(f, k) for f, k in grid)),
        _check("diagram-kernel-repair", 1e-12, [kernel_repair()]),
    ]


# --------------------------------------------------------------------------
# semigroup laws


def semigroup_safe(f, j, k):
    """Off the kernel, order j then order k is order j + k termwise."""
    return series_residual(rl_series(rl_series(f, j), k), rl_series(f, j + k))


def _near_pole(x):
    # within the 1e-6 margin of a nonpositive integer
    return x < 0.5 and _near_int(x, 1e-6)


def _off_kernel(rng):
    # (f, j, k) with no term within 1e-6 of the kernel of j, k or j + k
    while True:
        f = _random_jet(rng, 8)
        j = rng.uniform(0.05, 1.95)
        k = rng.uniform(0.05, 1.95)
        if not any(_near_pole(e + 1.0 - o) and not _near_pole(e + 1.0)
                   for e in f.exponents() for o in (j, k, j + k)):
            return f, j, k


def _on_boundary(rng):
    # (m, j, k) with j, k and j - k all 0.05 or more from an integer
    while True:
        m = rng.randint(0, 3)
        j = rng.uniform(0.05, 1.95)
        k = rng.uniform(0.05, 1.95)
        d = abs(math.fmod(j - k, 1.0))
        if min(abs(j - round(j)), abs(k - round(k)), d, 1.0 - d) >= 0.05:
            return m, j, k


def suite_semigroup(trials=100, seed=5, order=None):
    """At most 100 trials of each law; order is not used."""
    rng = random.Random(seed)
    cases = range(min(trials, 100))
    return [
        _check("semigroup-safe", 1e-10,
               (semigroup_safe(*_off_kernel(rng)) for _ in cases)),
        _check("semigroup-boundary", 1e-12,
               (semigroup_boundary(*_on_boundary(rng)) for _ in cases),
               "two-step 0, direct nonzero, lifted = direct"),
    ]


# --------------------------------------------------------------------------
# oracle law


def oracle_vs_termwise(alpha, k, x):
    """The quadrature oracle agrees with the termwise rule on x^alpha at x,
    relative to max(1, |termwise|); a termwise value that is not a finite
    double makes the residual NaN."""
    try:
        ((_, termwise, _, diff),) = compare(monomial(alpha), k, [x])
    except EvalDomainError:
        return math.nan
    return diff / max(1.0, abs(termwise))


def suite_oracle(trials=None, seed=None, order=None):
    """A fixed grid of exponents, orders and points; no argument is used."""
    return [_check("oracle-vs-termwise", 1e-8,
                   (oracle_vs_termwise(alpha, k, x)
                    for alpha in (0.0, 0.5, 1.0, 2.0, 3.5)
                    for k in (-1.0, -0.5, 0.5, 1.0, 1.5)
                    for x in (0.5, 1.0, 2.0)))]


SUITES = {"gamma": suite_gamma, "R": suite_projection, "D": suite_shift,
          "I": suite_embedding, "diagram": suite_diagram,
          "semigroup": suite_semigroup, "oracle": suite_oracle}


def run_suites(name, trials=200, seed=0, order=config.DEFAULT_ORDER):
    """Run one named suite, or "all"; returns the flat list of SuiteResults.
    Under "all" the i-th suite of SUITES runs on seed + 17 i."""
    out = []
    for i, name in enumerate(list(SUITES) if name == "all" else [name]):
        if name not in SUITES:
            raise KeyError("unknown suite %r (choose from %s)"
                           % (name, ", ".join(SUITES)))
        out.extend(SUITES[name](trials, seed + 17 * i, order))
    return out
