"""The four benchmark workloads: seeded inputs, one callable per op, and the
check each op must pass.

Each workload builds a fixed cycle of ops from the workload seed before any
timing starts; the timed window walks that cycle in order and starts it
again if it runs out. A workload's ops come from several strata. The cycle
interleaves the strata in proportion to their size, so every prefix of the
cycle has the same mix, whatever the seed and however far a run gets.
"""

import contextlib
import io
import math
import random
import subprocess
import sys
import time
import traceback

import hypersum as hs
from hypersum import cli, verify

from checks import (
    ESTIMATE_MISS,
    INVALID_CSV,
    INVALID_JSON,
    MISSING_ERROR,
    NON_CONVERGENT,
    NONFINITE_OK,
    SLOW_CONVERGENCE,
    TRACEBACK,
    WRONG_VALUE,
    check_cli,
    check_conservation,
    check_gof,
    check_z,
    rel_close,
)


class Op:
    """One closed-loop operation.

    ``run(acc)`` calls the program, checks its output and returns ``None``
    on a pass or a failure kind. ``known`` lists failure kinds that are
    documented defects of the program for this input (see README.md).
    """

    __slots__ = ("kind", "run", "known")

    def __init__(self, kind, run, known=()):
        self.kind = kind
        self.run = run
        self.known = frozenset(known)


class Workload:
    """A built workload: its op cycle and what surrounds the timed window."""

    def __init__(self, ops, warmup, tail_pct, trace_ops=None, after=None, in_process=True,
                 known_ceiling=None):
        self.ops = ops
        self.in_process = in_process    # ops run in this process, so the speed probe sees their speed
        self.warmup = warmup            # Python snippet run in a fresh interpreter for setup_s
        self.trace_ops = trace_ops or ops
        self.after = after or []        # untimed ops run after the window
        self.tail_pct = tail_pct
        # (op kind, failure kind) -> (share, slack): how many of that op
        # kind's attempts may fail by that known defect (see run.Tally).
        self.known_ceiling = known_ceiling or {}


# ---------------------------------------------------------------------------
# Seeded input design.


def lowdisc(rng, n, dim):
    """``n`` points of a Kronecker sequence in [0, 1)^dim with a random shift.

    Every prefix of the sequence spreads evenly over the cube, whatever the
    shift, so the mix of easy and hard inputs in any stretch of a cycle
    hardly moves with the seed.
    """
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    step = [g ** -(j + 1) for j in range(dim)]
    shift = [rng.random() for _ in range(dim)]
    return [tuple((shift[j] + (i + 1) * step[j]) % 1.0 for j in range(dim)) for i in range(n)]


def size_ladder(n, lo, hi):
    """``n`` integer sizes spaced evenly in log from ``lo`` to ``hi``, largest
    first, the rest in a golden-ratio order that spreads every prefix.

    Sizes set the cost of the ladder ops, so they are fixed rather than
    drawn: the work in a cycle then does not depend on the seed.
    """
    sizes = [int(round(loglerp(i / (n - 1), lo, hi))) for i in range(n)]
    rest = sorted(range(n - 1), key=lambda i: (i * 0.6180339887498949) % 1.0)
    return [sizes[-1]] + [sizes[i] for i in rest]


def lerp(u, a, b):
    return a + (b - a) * u


def loglerp(u, a, b):
    return math.exp(lerp(u, math.log(a), math.log(b)))


def interleave(groups):
    """Merge lists so that every prefix holds each list in proportion."""
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    out = []
    for i in range(1, total + 1):
        j = max(range(len(groups)),
                key=lambda k: (i * len(groups[k]) / total - taken[k]) if taken[k] < len(groups[k]) else -1e9)
        out.append(groups[j][taken[j]])
        taken[j] += 1
    return out


# ---------------------------------------------------------------------------
# sum-grid: S(eta, c; x) by evaluate(auto), cross-checked by another route.

# Per-cycle stratum sizes; the boundary stratum takes about half the time.
SUM_GRID_SIZES = {"interior": 6000, "pocket": 6000, "special": 3000,
                  "divergent": 1500, "boundary": 180}
BOUNDARY_SKELETON_SEED = 20190430
BOUNDARY_JITTER = 0.002
# Known-defect ceilings for the boundary stratum: (share, slack), see
# run.Tally. Over seeds 11-20 the jitter flips no triple: each cycle's 180
# boundary ops hold 19 slow convergences and 3 non-convergent closed
# routes, at the same places. The share is the cycle's; the slack is the
# most that any prefix of the cycle holds beyond share * length (1.44 and
# 0.57), rounded up. Estimate misses do not occur there, so they are not
# a known defect of this workload.
BOUNDARY_CEILINGS = {SLOW_CONVERGENCE: (19 / 180, 2), NON_CONVERGENT: (3 / 180, 1)}
# Routes that miss the theorem1 tolerance but still agree to this relative
# tolerance fail as an estimate miss (ROADMAP 4: the claimed error is too
# small, not the value); a larger disagreement is a wrong value.
ESTIMATE_MISS_RTOL = 1e-6


def _sum_agree(a, b):
    """Two routes agree within 1e-9 relative plus ten times their own error
    estimates (the theorem1 tolerance, widened by what each route claims)."""
    if not math.isfinite(a.value) or not math.isfinite(b.value):
        return NONFINITE_OK
    slack = 10.0 * (a.abs_error_estimate + b.abs_error_estimate)
    bad = rel_close(a.value, b.value, 1e-9, slack)
    if bad == WRONG_VALUE and rel_close(a.value, b.value, ESTIMATE_MISS_RTOL) is None:
        return ESTIMATE_MISS
    return bad


def _check_route(p):
    """The independent route that checks ``evaluate(p, "auto")``, or None.

    Found before the window from evaluate's documented rule: auto answers
    with the closed form, unless xi is within 1e-6 of 1 with c <= 3/2 or
    the closed form raises DomainError, where it sums directly. So the
    check is ``sum_direct`` where auto answers closed, and ``sum_closed``
    or ``sum_special`` where it sums directly and one of them applies.
    None means there is no other route: direct is the only one, or the
    closed form raises an error that auto passes on.
    """
    arg = hs.ClosedFormArgument.from_params(p)
    degenerate = abs(arg.xi - 1.0) <= 1e-6 and p.c <= 1.5 + 1e-6
    try:
        hs.sum_closed(p)
        closed = True
    except hs.DomainError:
        closed = False
    except hs.HypersumError:
        if not degenerate:
            return None
        closed = False
    if closed:
        return hs.sum_closed if degenerate else hs.sum_direct
    return hs.sum_special if p.c in (1.0, 2.0, 3.0) else None


def sum_op(p, stratum):
    if stratum == "divergent":
        def run(acc):
            try:
                hs.evaluate(p, "auto")
            except hs.NotConvergent:
                return None
            return MISSING_ERROR
        return Op(stratum, run)

    other = _check_route(p)

    def run(acc):
        r = hs.evaluate(p, "auto")
        if not math.isfinite(r.value):
            return NONFINITE_OK
        return _sum_agree(r, other(p)) if other is not None else None

    return Op(stratum, run, BOUNDARY_CEILINGS if stratum == "boundary" else ())


def _sum_params(stratum, u, i):
    if stratum == "interior":
        return hs.SumParams(1.0 + 2.5 * u[0], lerp(u[1], 0.55, 5.95), lerp(u[2], -0.98, 0.95))
    if stratum == "pocket":
        eta = lerp(u[0], 0.15, 0.95)
        return hs.SumParams(eta, lerp(u[1], 0.55, 5.95), lerp(u[2], -0.9 * eta, 0.95 * eta * eta))
    if stratum == "special":
        c = (1.0, 2.0, 3.0)[i % 3]
        if i % 2:
            eta = lerp(u[0], 0.45, 0.95)          # x < -eta: the continuation
            return hs.SumParams(eta, c, lerp(u[2], -1.0, -eta))
        eta = lerp(u[0], 0.15, 0.95)
        return hs.SumParams(eta, c, lerp(u[2], -0.9 * eta, 0.95 * eta * eta))
    if stratum == "divergent":
        if i % 2:
            x = lerp(u[2], 0.05, 0.95)
            bound = math.sqrt(x)
        else:
            x = lerp(u[2], -1.0, -0.1)
            bound = math.sqrt(1.0 - x) - 1.0
        # c off the integers, where x < -eta would have an elementary continuation.
        return hs.SumParams(bound * lerp(u[0], 0.3, 0.95), lerp(u[1], 0.55, 5.95) + 1e-3, x)
    # boundary: eta from 1e-4 to 3 times above the convergence bound.
    if i % 2:
        x = lerp(u[2], 0.01, 0.99)
        bound = math.sqrt(x)
    else:
        x = lerp(u[2], -1.0, -0.01)
        bound = math.sqrt(1.0 - x) - 1.0
    return hs.SumParams(bound * (1.0 + loglerp(u[0], 1e-4, 3.0)), loglerp(u[1], 0.3, 50.0), x)


def sum_grid(rng, env):
    groups = []
    for stratum, n in SUM_GRID_SIZES.items():
        if stratum == "boundary":
            # About one boundary triple in ten runs to the 1e5-term cap and
            # costs 0.4-1.3 s, so a fresh draw of 150 moved the window's work
            # by +-40% (8 seeds measured). The stratum is therefore a fixed
            # skeleton that the seed jitters by 0.2% of each range.
            skeleton = lowdisc(random.Random(BOUNDARY_SKELETON_SEED), n, 3)
            pts = [tuple(min(max(v + BOUNDARY_JITTER * (rng.random() - 0.5), 0.0), 1.0) for v in u)
                   for u in skeleton]
        else:
            pts = lowdisc(rng, n, 3)
        groups.append([sum_op(_sum_params(stratum, u, i), stratum) for i, u in enumerate(pts)])
    return Workload(interleave(groups),
                    "hypersum.evaluate(hypersum.SumParams(2.0, 2.5, 0.5))",
                    tail_pct=99.5,
                    known_ceiling={("boundary", k): v for k, v in BOUNDARY_CEILINGS.items()})


# ---------------------------------------------------------------------------
# progeny-sweep: the progeny laws by every route.

PROGENY_SIZES = {"pgf": 90, "h_alpha": 60, "point_small": 300, "point_large": 60,
                 "triple": 30, "range": 24, "general": 15}
RANGE_LMAX_TOP = 1_000_000
MASS_TOL = 1e-8            # corollary1's half-law mass tolerance
ROUTE_RTOL = 1e-7          # corollary1's triple-route tolerance
POINT_RTOL = 1e-9
PGF_ATOL = 1e-10           # functional-eq suite tolerance
RESIDUAL_TOL = 1e-10


def _finite_nonneg(values):
    return all(math.isfinite(v) and v >= 0.0 for v in values)


def range_op(lam, lmax, refs):
    law = hs.ProgenyHalfLaw(lam)
    rho = (1.0 + math.sqrt(law.Q)) / 2.0

    def run(acc):
        p = hs.progeny_pmf_range(law, lmax)
        if len(p) != lmax or not _finite_nonneg(p):
            return NONFINITE_OK
        # The terms fall faster than rho^ell, so rho bounds the tail mass.
        gap = 1.0 - math.fsum(p)
        if not -MASS_TOL <= gap <= p[-1] * rho / (1.0 - rho) + MASS_TOL:
            return WRONG_VALUE
        for ell, ref in refs:
            bad = rel_close(p[ell - 1], ref, POINT_RTOL)
            if bad:
                return bad
        return None
    return Op("range", run)


def general_op(c, x, lmax, refs):
    law = hs.GeneralProgenyLaw(c, x)

    def run(acc):
        q = hs.general_progeny_pmf_range(law, lmax)
        if len(q) != lmax or not _finite_nonneg(q):
            return NONFINITE_OK
        if math.fsum(q) > 1.0 + MASS_TOL:
            return WRONG_VALUE
        for ell, ref in refs:
            bad = rel_close(q[ell - 1], ref, POINT_RTOL)
            if bad:
                return bad
        return None
    return Op("general", run)


def point_op(kind, lam, ell, ref):
    law = hs.ProgenyHalfLaw(lam)
    return Op(kind, lambda acc: rel_close(hs.progeny_pmf(law, ell), ref, POINT_RTOL))


def pgf_op(lam, z):
    law = hs.ProgenyHalfLaw(lam)
    d = hs.ScaledSibuya(0.5, lam)

    def run(acc):
        e = hs.progeny_pgf_elementary(law, z)
        h = hs.progeny_pgf_hypergeometric(law, z)
        a = hs.h_alpha_pgf(d, z)
        return rel_close(h, e, 0.0, PGF_ATOL) or rel_close(a, e, 0.0, PGF_ATOL)
    return Op("pgf", run)


def h_alpha_op(alpha, lam, z):
    d = hs.ScaledSibuya(alpha, lam)

    def run(acc):
        v = hs.h_alpha_pgf(d, z)
        if not (math.isfinite(v) and 0.0 <= v <= 1.0 + 1e-12):
            return WRONG_VALUE
        if not hs.functional_equation_residual(d, z) <= RESIDUAL_TOL:
            return WRONG_VALUE
        return None
    return Op("h_alpha", run)


def triple_op(lam, ell):
    law = hs.ProgenyHalfLaw(lam)

    def run(acc):
        a = hs.progeny_pmf(law, ell)
        b = hs.progeny_pmf_series_coeffs(law, 15)[ell - 1]
        c = hs.progeny_pmf_bessel_oracle(law, ell)
        return rel_close(a, b, ROUTE_RTOL) or rel_close(a, c, ROUTE_RTOL) or rel_close(b, c, ROUTE_RTOL)
    return Op("triple", run)


def progeny_sweep(rng, env):
    sizes = PROGENY_SIZES
    groups = []
    pts = lowdisc(rng, sizes["pgf"], 2)
    groups.append([pgf_op(lerp(u[0], 0.2, 0.95), lerp(u[1], 0.05, 1.0)) for u in pts])
    pts = lowdisc(rng, sizes["h_alpha"], 3)
    groups.append([h_alpha_op(lerp(u[0], 0.1, 0.9), lerp(u[1], 0.2, 0.9), lerp(u[2], 0.05, 1.0))
                   for u in pts])
    small = [(u[0], int(round(loglerp(u[1], 1, 150)))) for u in lowdisc(rng, sizes["point_small"], 2)]
    large = [(rng.random(), ell) for ell in size_ladder(sizes["point_large"], 151, 5000)]
    for kind, specs in (("point_small", small), ("point_large", large)):
        ops = []
        for u, ell in specs:
            lam = lerp(u, 0.3, 0.95)
            ref = hs.progeny_pmf_range(hs.ProgenyHalfLaw(lam), ell)[-1]
            ops.append(point_op(kind, lam, ell, ref))
        groups.append(ops)
    pts = lowdisc(rng, sizes["triple"], 2)
    groups.append([triple_op(lerp(u[0], 0.3, 0.9), 1 + int(u[1] * 15)) for u in pts])
    ranges = []
    for lmax in size_ladder(sizes["range"], 10, RANGE_LMAX_TOP):
        lam = lerp(rng.random(), 0.3, 0.95)
        law = hs.ProgenyHalfLaw(lam)
        top = min(lmax, 150)
        ells = sorted({1, top, 1 + int(rng.random() * top)})
        ranges.append(range_op(lam, lmax, [(l, hs.progeny_pmf(law, l)) for l in ells]))
    groups.append(ranges[1:])
    gen = []
    for lmax in size_ladder(sizes["general"], 10, 100_000):
        c, x = lerp(rng.random(), 1.6, 6.0), lerp(rng.random(), 0.05, 0.9)
        law = hs.GeneralProgenyLaw(c, x)
        ells = sorted({1, min(lmax, 150)})
        gen.append(general_op(c, x, lmax, [(l, hs.general_progeny_pmf(law, l)) for l in ells]))
    groups.append(gen)
    # The largest range closes the cycle. Every window covers more than one
    # cycle, so each run reaches the same peak RSS; and the end of a window
    # falls among the small ops of the next cycle, never on this 3 s op.
    return Workload(interleave(groups) + [ranges[0]],
                    "hypersum.progeny_pmf_range(hypersum.ProgenyHalfLaw(0.6), 100)",
                    tail_pct=97.5)


# ---------------------------------------------------------------------------
# mc-progeny: seeded Monte Carlo batches against the analytic law.

MC_GOF_LAMBDAS, MC_GOF_REPLICATES = (0.3, 0.42, 0.54, 0.66, 0.78, 0.9), 10_000
MC_LONG_LAMBDAS, MC_LONG_REPLICATES, MC_LONG_ALPHA = (0.6, 0.8), 4_000, 0.9
MC_CAP_LAMBDA, MC_CAP_REPLICATES, MC_CAP = 0.6, 10_000, 8
MC_IDENTITY_REPLICATES = 2_000
# A run repeats its cycle's 129 statistical tests (6 chi-square, 120 cell
# z-scores, 2 means, 1 censored share). At the 0.999 / |z| <= 4 level of
# the montecarlo suite, a correct program would fail about one run in 50
# by chance (seed 15 did: one cell at z = 4.08 with chi-square 20.0 under
# its 39.3 threshold). Each test instead runs at about 1e-6, so that chance
# is below 1e-4 per run.
CHI2_QUANTILE = 1.0 - 1e-6
Z_LIMIT = 5.0


def _simulate(acc, d, cfg):
    t0 = time.perf_counter()
    sim = hs.simulate_total_progeny(d, cfg)
    acc["simulate_s"] = acc.get("simulate_s", 0.0) + time.perf_counter() - t0
    acc["replicates"] = acc.get("replicates", 0) + cfg.replicates
    return sim


def gof_op(lam, seed):
    d, law = hs.ScaledSibuya(0.5, lam), hs.ProgenyHalfLaw(lam)
    cfg = hs.SimConfig(seed=seed, replicates=MC_GOF_REPLICATES)

    def run(acc):
        sim = _simulate(acc, d, cfg)
        bad = check_conservation(sim.counts, sim.censored, cfg.replicates, cfg.progeny_cap)
        if bad:
            return bad
        rep = hs.gof_compare(sim, law, bins=20)
        return check_gof(rep.chi_square, hs.chi_square_threshold(rep.dof, CHI2_QUANTILE),
                         max(abs(z) for z in rep.z_scores.values()), Z_LIMIT)
    return Op("gof", run)


def long_walk_op(lam, seed):
    """alpha = 0.9: the offspring mean is alpha, so the total's mean is
    1/(1-alpha), and its variance is sigma^2/(1-alpha)^3 with the dual
    offspring variance sigma^2 = Q alpha (1-alpha)/(1-Q) + alpha - alpha^2."""
    a = MC_LONG_ALPHA
    d = hs.ScaledSibuya(a, lam)
    q = hs.extinction_prob(d)
    var = (q * a * (1.0 - a) / (1.0 - q) + a - a * a) / (1.0 - a) ** 3
    cfg = hs.SimConfig(seed=seed, replicates=MC_LONG_REPLICATES)

    def run(acc):
        sim = _simulate(acc, d, cfg)
        bad = check_conservation(sim.counts, sim.censored, cfg.replicates, cfg.progeny_cap)
        if bad:
            return bad
        n = cfg.replicates - sim.censored
        mean = sum(k * v for k, v in sim.counts.items()) / n
        return check_z(mean, 1.0 / (1.0 - a), math.sqrt(var / n), Z_LIMIT)
    return Op("long_walk", run)


def censor_op(lam, seed):
    d, law = hs.ScaledSibuya(0.5, lam), hs.ProgenyHalfLaw(lam)
    cfg = hs.SimConfig(seed=seed, replicates=MC_CAP_REPLICATES, progeny_cap=MC_CAP)
    tail = 1.0 - math.fsum(hs.progeny_pmf_range(law, MC_CAP - 1))

    def run(acc):
        sim = _simulate(acc, d, cfg)
        bad = check_conservation(sim.counts, sim.censored, cfg.replicates, cfg.progeny_cap)
        if bad:
            return bad
        n = cfg.replicates
        return check_z(sim.censored / n, tail, math.sqrt(tail * (1.0 - tail) / n), Z_LIMIT)
    return Op("censor", run)


def mc_progeny(rng, env):
    def seeds(n):
        return [rng.getrandbits(63) for _ in range(n)]

    # lambda sets the walk length and so the batch cost: it runs over fixed
    # values, and the seed drives the random streams.
    gof = [gof_op(lam, s) for lam, s in zip(MC_GOF_LAMBDAS, seeds(len(MC_GOF_LAMBDAS)))]
    long = [long_walk_op(lam, s) for lam, s in zip(MC_LONG_LAMBDAS, seeds(len(MC_LONG_LAMBDAS)))]
    cap = [censor_op(MC_CAP_LAMBDA, seeds(1)[0])]
    id_seed = seeds(1)[0]

    def identity(acc):
        d = hs.ScaledSibuya(0.5, MC_CAP_LAMBDA)
        one, two = (hs.simulate_total_progeny(d, hs.SimConfig(seed=id_seed, replicates=MC_IDENTITY_REPLICATES,
                                                               workers=w)) for w in (1, 2))
        return None if one.counts == two.counts and one.censored == two.censored else WRONG_VALUE

    return Workload(interleave([gof, long, cap]),
                    "hypersum.simulate_total_progeny(hypersum.ScaledSibuya(0.5, 0.6), "
                    "hypersum.SimConfig(seed=1, replicates=100))",
                    tail_pct=75.0, after=[Op("workers_identity", identity)])


# ---------------------------------------------------------------------------
# cli-cold: one `python -m hypersum ...` subprocess per op.

ANALYTIC_SUITES = ("theorem1", "theorem2", "closed-forms", "corollary1", "asymptotics", "functional-eq")
CLI_TIMEOUT_S = 120
# The op kind of the edge inputs. Each of them is a documented defect that
# fails on every attempt, in the way its spec names, so the known-defect
# ceiling lets every attempt fail.
CLI_EDGE = "cli:edge"


def _fmt(v):
    return repr(float(v))


def _scalar_fields(result):
    return {k: v for k, v in result.items()
            if k not in ("seconds", "suite") and isinstance(v, (bool, int, float))}


def _cli_specs(rng):
    """(argv, expect, known) per command, references from the library in-process."""
    def u(a, b):
        return lerp(rng.random(), a, b)

    specs = []
    c, x = u(1.2, 5.5), u(-0.9, 0.9)
    r = hs.hyp2f1_half_one(c, x)
    specs.append((["hyp2f1", "--a", "0.5", "--b", "1", "--c", _fmt(c), "--x", _fmt(x)],
                  {"records": [{"value": r.value, "abs_error_estimate": r.abs_error_estimate}]}, ()))
    a, b, c, x = u(0.2, 1.5), u(0.2, 1.5), u(1.6, 4.0), u(-0.6, 0.6)
    r = hs.hyp2f1_series(hs.HypParams(a, b, c, x))
    specs.append((["hyp2f1", "--a", _fmt(a), "--b", _fmt(b), "--c", _fmt(c), "--x", _fmt(x),
                   "--format", "csv"], {"records": [{"value": r.value}]}, ()))
    for method, fmt in (("auto", "json"), ("direct", "csv")):
        p = hs.SumParams(u(1.0, 3.0), u(0.6, 5.5), u(-0.9, 0.9))
        r = hs.evaluate(p, method)
        specs.append((["sum", "--eta", _fmt(p.eta), "--c", _fmt(p.c), "--x", _fmt(p.x),
                       "--method", method, "--format", fmt],
                      {"records": [{"value": r.value, "terms_used": r.terms_used}]}, ()))
    for fmt in ("json", "csv"):
        lam, lmax = u(0.3, 0.9), int(u(20, 80))
        p = hs.progeny_pmf_range(hs.ProgenyHalfLaw(lam), lmax)
        specs.append((["progeny", "pmf", "--lambda", _fmt(lam), "--lmax", str(lmax), "--format", fmt],
                      {"records": [{"ell": i + 1, "p": v} for i, v in enumerate(p)]}, ()))
    lam, z = u(0.3, 0.9), u(0.05, 1.0)
    specs.append((["progeny", "pgf", "--lambda", _fmt(lam), "--z", _fmt(z)],
                  {"records": [{"value": hs.progeny_pgf_elementary(hs.ProgenyHalfLaw(lam), z)}],
                   "rtol": PGF_ATOL}, ()))
    c, x, lmax = u(1.8, 5.0), u(0.1, 0.8), int(u(20, 80))
    q = hs.general_progeny_pmf_range(hs.GeneralProgenyLaw(c, x), lmax)
    acc, rows = 0.0, []
    for i, v in enumerate(q):
        acc += v
        rows.append({"ell": i + 1, "q": v, "running_sum": acc})
    specs.append((["progeny", "general", "--c", _fmt(c), "--x", _fmt(x), "--lmax", str(lmax),
                   "--format", "csv"], {"records": rows}, ()))
    for fmt in ("json", "csv"):
        lam, seed = u(0.3, 0.9), rng.getrandbits(31)
        sim = hs.simulate_total_progeny(hs.ScaledSibuya(0.5, lam), hs.SimConfig(seed=seed, replicates=2000))
        rep = hs.gof_compare(sim, hs.ProgenyHalfLaw(lam), bins=20)
        specs.append((["simulate", "--lambda", _fmt(lam), "--n", "2000", "--seed", str(seed),
                       "--format", fmt],
                      {"records": [{"censored": sim.censored, "chi_square": rep.chi_square,
                                    "dof": rep.dof}]}, ()))
    for suite in ANALYTIC_SUITES:
        specs.append((["verify", "--suite", suite],
                      {"records": [_scalar_fields(verify.run_suite(suite))]}, ()))
    # A divergent sum must exit 2 with a NotConvergent record.
    specs.append((["sum", "--eta", "0.4", "--c", "2", "--x", "0.5"], {"error": True}, ()))
    # The ROADMAP item 5 edge inputs; README.md lists their known defects.
    specs.append((["hyp2f1", "--a", "300", "--b", "300", "--c", "1", "--x", "0.99"],
                  {"error": True}, (INVALID_JSON, NONFINITE_OK)))
    specs.append((["hyp2f1", "--a", "0.5", "--b", "1", "--c", "2", "--x", "nan"],
                  {"error": True}, (INVALID_JSON, NONFINITE_OK)))
    specs.append((["sum", "--eta", "1e-300", "--c", "2", "--x", "0"],
                  {"records": [{"value": (1.0 + 1e-300) / 1e-300}], "rtol": 1e-9, "error_ok": True},
                  (TRACEBACK,)))
    specs.append((["sum", "--eta", "0.4", "--c", "2", "--x", "0.5", "--format", "csv"],
                  {"error": True}, (INVALID_CSV,)))
    return specs


def _argv_format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def _cli_kind(argv, known):
    return CLI_EDGE if known else "cli:" + argv[0]


def cli_subprocess_op(argv, expect, known, env):
    fmt = _argv_format(argv)

    def run(acc):
        proc = subprocess.run([sys.executable, "-m", "hypersum"] + argv, cwd=env["root"],
                              env=env["child_env"], capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return check_cli(proc.stdout, proc.stderr, proc.returncode, fmt, expect)
    return Op(_cli_kind(argv, known), run, known)


def cli_inprocess_op(argv, expect, known):
    """The traced form of a CLI op: ``cli.main(argv)`` with output captured."""
    fmt = _argv_format(argv)

    def run(acc):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
        text = out.getvalue()
        lines = [l for l in text.splitlines() if l.strip()]
        acc["cli_bytes"] = acc.get("cli_bytes", 0) + len(text.encode())
        acc["cli_records"] = acc.get("cli_records", 0) + max(len(lines) - (fmt == "csv"), 0)
        return check_cli(text, err.getvalue(), code, fmt, expect)
    return Op(_cli_kind(argv, known), run, known)


def cli_cold(rng, env):
    specs = _cli_specs(rng)
    groups = {}
    for spec in specs:
        key = "known defect" if spec[2] else spec[0][0]
        groups.setdefault(key, []).append(spec)
    for g in groups.values():
        rng.shuffle(g)
    order = interleave(list(groups.values()))
    return Workload([cli_subprocess_op(*s, env) for s in order],
                    "import hypersum.cli, io, contextlib\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    "    hypersum.cli.main(['sum', '--eta', '2', '--c', '2.5', '--x', '0.5'])",
                    trace_ops=[cli_inprocess_op(*s) for s in order],
                    tail_pct=75.0, in_process=False,
                    known_ceiling={(CLI_EDGE, k): (1.0, 0) for s in specs for k in s[2]})


WORKLOADS = {
    "sum-grid": sum_grid,
    "progeny-sweep": progeny_sweep,
    "mc-progeny": mc_progeny,
    "cli-cold": cli_cold,
}
