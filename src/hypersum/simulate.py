"""Seeded Monte Carlo for total progeny under the extinction-dual offspring
law, with a chi-square comparison against the analytic distribution.

Reproducibility contract: replicates are grouped into fixed blocks of
_BLOCK consecutive indices, and block b draws from its own counter-based
stream keyed by (seed, b). All live replicates of a block step one
generation together, so a block's totals are a pure function of the seed,
the block index and the block's size. Workers receive whole blocks only,
so the counts depend on (seed, replicates, progeny_cap) and never on the
worker count.
"""

import math
from dataclasses import dataclass

from .branching import ProgenyHalfLaw, extinction_prob, progeny_pmf_range
from .errors import DomainError, InsufficientData, RootFindFailure
from .special import _whole

__all__ = [
    "SimConfig",
    "SimCounts",
    "GofReport",
    "DualOffspringSampler",
    "simulate_total_progeny",
    "gof_compare",
    "chi_square_threshold",
]

# Increments below this cannot move a 53-bit uniform's CDF bracket; treat
# the table as exhausted rather than loop forever on denormal mass.
_CDF_UNDERFLOW = 1e-18

# Buckets of DualOffspringSampler's guide table; a power of two, so that
# u * _GUIDE is exact.
_GUIDE = 1024


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replicates: int
    progeny_cap: int = 100_000
    workers: int = 1

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")
        for name, lo in (("seed", 0), ("replicates", 1), ("progeny_cap", 1), ("workers", 1)):
            object.__setattr__(self, name, _whole(getattr(self, name), lo, name))


class DualOffspringSampler:
    """Inversion sampler for the dual offspring pmf.

    Keeps one prefix CDF array (65 entries up front) and doubles it on
    demand, so no draw is ever truncated: uniforms past the table grow it
    until covered. Ratio recurrence p_{k+1} = p_k q (k - alpha)/(k + 1)
    stays in the dual law directly; ``cumprod`` and ``cumsum`` both run in
    sequence, so the table does not depend on how it was grown.

    A guide table (Chen & Asau 1974; Devroye 1986, III.2.4) finds most
    indices without a binary search: guide[j] is the first CDF entry above
    j/_GUIDE. _GUIDE is a power of two, so u * _GUIDE is exact and its floor
    is j exactly when j/_GUIDE <= u < (j+1)/_GUIDE. Every entry before
    guide[j] is then at or below u, so guide[j] is a lower bound of u's
    index, and it is the index itself wherever cdf[guide[j]] > u. Only the
    other draws (under 1% at alpha 1/2 and 0.9) go to ``searchsorted``. Every
    draw past the table is among them, so growth is decided from those
    alone, and growth only appends, so settled draws keep their index.
    Each index equals ``searchsorted(us, side="right")`` element for
    element.
    """

    def __init__(self, d):
        import numpy as np

        self.q = extinction_prob(d)
        self.alpha = d.alpha
        self.lam = d.lam
        # pmf[0] = (1-lam)/q, pmf[1] = lam*alpha.
        self._pmf_last = d.lam * d.alpha
        p0 = (1.0 - d.lam) / self.q
        self._cdf = np.array([p0, p0 + self._pmf_last])
        self._exhausted = False
        self._grow(63)

    def _grow(self, n):
        """Append up to n entries; stop for good where they stop moving."""
        import numpy as np

        k = np.arange(len(self._cdf) - 1, len(self._cdf) - 1 + n)
        p = np.cumprod(np.concatenate(([self._pmf_last], self.q * (k - self.alpha) / (k + 1.0))))
        cdf = np.cumsum(np.concatenate(([self._cdf[-1]], p[1:])))
        stall = (p[1:] < _CDF_UNDERFLOW) & (cdf[1:] == cdf[:-1])
        if stall.any():
            n = int(stall.argmax())
            self._exhausted = True
        self._cdf = np.concatenate((self._cdf, cdf[1:n + 1]))
        self._pmf_last = p[n]
        self._guide = self._cdf.searchsorted(np.arange(_GUIDE) / _GUIDE, side="right")

    def sample_many(self, us):
        """Offspring counts for an array us of uniforms in [0, 1). Only a
        draw past an exhausted table can pass its last index, and gets it."""
        import numpy as np

        # mode="clip" keeps both lookups in range: u = 1.0 falls in the last
        # bucket, and a guide entry past the table reads the table's last
        # entry, which is at or below every draw of its bucket, so those
        # draws take the exact path.
        idx = self._guide.take((us * _GUIDE).astype(np.intp), mode="clip")
        miss = (self._cdf.take(idx, mode="clip") <= us).nonzero()[0]
        if miss.size:
            um = us[miss]
            while not self._exhausted and um.max() >= self._cdf[-1]:
                self._grow(len(self._cdf))
            exact = self._cdf.searchsorted(um, side="right")
            if self._exhausted:
                exact.clip(max=len(self._cdf) - 1, out=exact)
            idx[miss] = exact
        return idx


# Replicates per stream block. Part of the reproducibility contract: a
# different value gives different (equally valid) seeded outputs.
_BLOCK = 2 ** 14


def _block_stream(seed, block):
    # Counter word 3 carries the block index: disjoint 2^192-draw streams
    # per block, independent of scheduling. numpy.random is imported where
    # it draws, not with the package: most processes never draw.
    from numpy.random import Generator, Philox
    return Generator(Philox(key=seed, counter=[0, 0, 0, block]))


def _run_block(sampler, rng, n, cap):
    """Totals of n replicates, each started from one particle.

    Every round steps the live replicates, and only them, one generation
    with a single draw of uniforms in replicate order. A replicate stops
    when it dies out or its total reaches cap at the end of a generation.
    """
    import numpy as np

    births = sampler.sample_many(rng.random(n))
    total = births + 1
    live = ((births > 0) & (total < cap)).nonzero()[0]
    tot, births = total[live], births[live]
    while live.size:
        # A replicate's draws are contiguous; reduceat sums them exactly.
        ks = sampler.sample_many(rng.random(int(births.sum())))
        births = np.add.reduceat(ks, births.cumsum() - births)
        tot += births
        total[live] = tot
        keep = ((births > 0) & (tot < cap)).nonzero()[0]
        live, tot, births = live[keep], tot[keep], births[keep]
    return total


def _run_blocks(d, seed, lo, hi, n, cap):
    """Counts of uncensored totals and the censored number over blocks
    lo..hi-1 of an n-replicate run."""
    import numpy as np

    sampler = DualOffspringSampler(d)
    totals = np.concatenate([
        _run_block(sampler, _block_stream(seed, b), min(_BLOCK, n - b * _BLOCK), cap)
        for b in range(lo, hi)])
    values, freq = np.unique(totals[totals < cap], return_counts=True)
    counts = dict(zip(values.tolist(), freq.tolist()))
    return counts, int(totals.size - freq.sum())


@dataclass(frozen=True)
class SimCounts:
    """Raw simulation output: exact totals, censor count, config echo."""

    counts: dict
    censored: int
    replicates: int
    seed: int
    progeny_cap: int

    def __post_init__(self):
        if sum(self.counts.values()) + self.censored != self.replicates:
            raise DomainError("count conservation violated")


def simulate_total_progeny(d, cfg):
    """Total progeny (root included) over cfg.replicates runs of the dual
    process started from one particle.

    Generation-by-generation population counts only; totals at or above
    cfg.progeny_cap are censored, never dropped. Multi-worker runs give
    each worker a run of whole blocks and merge by summation, which is
    order-free.
    """
    if d.alpha >= 1.0 or d.lam >= 1.0:
        raise DomainError("dual process needs alpha < 1 and lam < 1")
    n, cap = cfg.replicates, cfg.progeny_cap
    blocks = -(-n // _BLOCK)
    step = -(-blocks // cfg.workers)
    ranges = [(d, cfg.seed, lo, min(lo + step, blocks), n, cap)
              for lo in range(0, blocks, step)]
    if len(ranges) == 1:
        counts, censored = _run_blocks(*ranges[0])
    else:
        import multiprocessing
        with multiprocessing.Pool(len(ranges)) as pool:
            parts = pool.starmap(_run_blocks, ranges)
        counts, censored = {}, 0
        for c, z in parts:
            censored += z
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
    return SimCounts(counts=counts, censored=censored, replicates=n,
                     seed=cfg.seed, progeny_cap=cfg.progeny_cap)


@dataclass(frozen=True)
class GofReport:
    """gof_compare's statistics; the counts stay in the SimCounts compared."""

    chi_square: float
    dof: int
    max_abs_deviation: float
    z_scores: dict


# chi_square_threshold's largest dof: its tail sums take about 6 sqrt(dof)
# terms.
_MAX_DOF = 10 ** 10


def _chi2_log_tail(a, lg, u, upper):
    """(log tail, log t0, y) at y = e^u for the chi-square law with 2a
    degrees of freedom (a whole or a half) at x = 2y.

    The tail is Q(a, y) = P(X > x) if ``upper``, else P(a, y) = P(X <= x),
    the regularised incomplete gamma functions; t0 = y^a e^-y / Gamma(a+1),
    and lg = lgamma(a + 1). Below y = a + 1, P is its series
    t0 (1 + y/(a+1) + y^2/((a+1)(a+2)) + ...) (A&S 6.5.29); from there Q is
    the finite sum t0 (a/y + a(a-1)/y^2 + ...) down to the last factor
    >= 1, plus erfc(sqrt y) for a half (A&S 26.4.4-26.4.5). Both sums have
    positive terms and stop once a term is under 1e-17 of the sum. The
    other tail is the complement, which is at least 0.083 on its side of
    y = a + 1.
    """
    y = math.exp(u)
    l0 = a * u - y - lg
    if y < a + 1.0:
        s = t = 1.0
        n = a
        while t > 1e-17 * s:
            n += 1.0
            t *= y / n
            s += t
        lt = l0 + math.log(s)
        return (math.log1p(-math.exp(lt)) if upper else lt), l0, y
    s = 0.0
    t = 1.0
    n = a
    while n >= 1.0:
        t *= n / y
        s += t
        if t <= 1e-17 * s:
            break
        n -= 1.0
    if a % 1.0:
        # erfc(sqrt y) < t0 here, so its ratio to t0 cannot overflow; it
        # underflows to 0 for y above about 740.
        e = math.erfc(math.sqrt(y))
        if e:
            s += math.exp(math.log(e) - l0)
    lt = l0 + math.log(s)
    return (lt if upper else math.log1p(-math.exp(lt))), l0, y


def chi_square_threshold(dof, quantile=0.999):
    """The chi-square ``quantile`` at ``dof`` degrees of freedom, in plain
    Python. Requires a whole dof in [1, 1e10] and 0 < quantile < 1.

    At a whole dof both tails are elementary (_chi2_log_tail). Halley's
    method on u = log(x/2) solves log tail = log p for the smaller tail:
    p = quantile, or 1 - quantile (exact) above 1/2. It starts from
    Wilson-Hilferty with the normal quantile of A&S 26.2.23, for the lower
    tail no lower than (p Gamma(dof/2 + 1))^(2/dof), where P's leading term
    alone reaches p. A step that leaves the bracket of the signs seen so
    far bisects it. log tail varies on a scale of about 1/sqrt(dof/2) in u
    near the median, so once a step is under 1e-5/(1 + sqrt(dof/2)) the
    cubic convergence leaves it an error far below 1e-15, and the search
    ends with that step. Against 30-digit mpmath, for dof 1 to 200, 1e3,
    1e4 and 1e5 and quantiles 1e-6 to 1 - 1e-9, x is within 1.2e-14
    relative up to dof 1000 and 1.1e-13 above.
    """
    dof = _whole(dof, 1, "dof")
    if dof > _MAX_DOF:
        raise DomainError("dof must be at most 1e10")
    if not 0.0 < quantile < 1.0:
        raise DomainError("quantile must be in (0, 1)")
    a = dof / 2.0
    lg = math.lgamma(a + 1.0)
    upper = quantile > 0.5
    lp = math.log(1.0 - quantile if upper else quantile)
    t = math.sqrt(-2.0 * lp)
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    h = 2.0 / (9.0 * dof)
    w = 1.0 - h + (z if upper else -z) * math.sqrt(h)
    u = math.log(a * w ** 3) if w > 0.0 else -math.inf
    if not upper:
        u = max(u, (lp + lg) / a)
    tol = 1e-5 / (1.0 + math.sqrt(a))
    lo, hi = -math.inf, math.inf
    for _ in range(100):
        lt, l0, y = _chi2_log_tail(a, lg, u, upper)
        g = lt - lp
        # Q falls and P rises with u: the root lies above u where Q is too
        # large or P too small.
        if (g > 0.0) == upper:
            lo = u
        else:
            hi = u
        # g' = +-a t0/tail (Q falls, P rises); g'' = g' (a - y - g').
        d1 = a * math.exp(l0 - lt)
        if upper:
            d1 = -d1
        d2 = d1 * (a - y - d1)
        step = 2.0 * g * d1 / (2.0 * d1 * d1 - g * d2)
        if abs(step) <= tol:
            return 2.0 * math.exp(u - step)
        u -= step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
    raise RootFindFailure("chi-square quantile: no convergence after 100 steps")


def gof_compare(sim, law, bins=20):
    """Chi-square comparison of simulated totals against the analytic pmf.

    Cells are ell = 1..bins plus one pooled tail holding everything larger,
    censored replicates included. Cells with expected count below 5 are
    pooled into their right neighbor, tail first. Per-cell z-scores are
    reported for the unpooled leading cells (at most 20).
    """
    if not isinstance(law, ProgenyHalfLaw):
        raise DomainError("analytic cells require a ProgenyHalfLaw")
    bins = _whole(bins, 1, "bins")
    n = sim.replicates
    pmf = progeny_pmf_range(law, bins)
    head = sum(sim.counts.get(ell, 0) for ell in range(1, bins + 1))
    obs = [sim.counts.get(ell, 0) for ell in range(1, bins + 1)]
    obs.append(n - head)
    exp = [n * p for p in pmf]
    exp.append(n * max(1.0 - sum(pmf), 0.0))

    # Pool right-to-left until every surviving cell expects at least 5.
    pooled_obs, pooled_exp = [], []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(reversed(obs), reversed(exp)):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0.0:  # cells left over; ell = 1 always expects n/(1+lam) > 0
        if not pooled_obs:
            raise InsufficientData("cannot reach expected count 5 in any cell")
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    pooled_obs.reverse()
    pooled_exp.reverse()
    if len(pooled_obs) < 2:
        raise InsufficientData("fewer than 2 cells after pooling")

    chi2 = sum((o - e) ** 2 / e for o, e in zip(pooled_obs, pooled_exp))
    dof = len(pooled_obs) - 1
    zs = {}
    for ell in range(1, min(bins, 20) + 1):
        p = pmf[ell - 1]
        sd = math.sqrt(n * p * (1.0 - p))
        if sd > 0.0:
            zs[ell] = (sim.counts.get(ell, 0) - n * p) / sd
    maxdev = max(abs(sim.counts.get(ell, 0) / n - pmf[ell - 1])
                 for ell in range(1, bins + 1))
    return GofReport(chi_square=chi2, dof=dof, max_abs_deviation=maxdev, z_scores=zs)
