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
from dataclasses import dataclass, field

import numpy as np

from .branching import ProgenyHalfLaw, extinction_prob, progeny_pmf_range
from .errors import DomainError, InsufficientData
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
    """

    def __init__(self, d):
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
        k = np.arange(len(self._cdf) - 1, len(self._cdf) - 1 + n)
        p = np.cumprod(np.concatenate(([self._pmf_last], self.q * (k - self.alpha) / (k + 1.0))))
        cdf = np.cumsum(np.concatenate(([self._cdf[-1]], p[1:])))
        stall = (p[1:] < _CDF_UNDERFLOW) & (cdf[1:] == cdf[:-1])
        if stall.any():
            n = int(stall.argmax())
            self._exhausted = True
        self._cdf = np.concatenate((self._cdf, cdf[1:n + 1]))
        self._pmf_last = p[n]

    def sample_many(self, us):
        """Offspring counts for uniform draws us in [0, 1); a draw past an
        exhausted table gets its last index."""
        while not self._exhausted and np.max(us, initial=0.0) >= self._cdf[-1]:
            self._grow(len(self._cdf))
        idx = np.searchsorted(self._cdf, us, side="right")
        return np.minimum(idx, len(self._cdf) - 1, out=idx)


# Replicates per stream block. Part of the reproducibility contract: a
# different value gives different (equally valid) seeded outputs.
_BLOCK = 2 ** 14


def _block_stream(seed, block):
    # Counter word 3 carries the block index: disjoint 2^192-draw streams
    # per block, independent of scheduling. numpy.random is imported here,
    # not with the package, which most processes use without it.
    from numpy.random import Generator, Philox
    return Generator(Philox(key=seed, counter=[0, 0, 0, block]))


def _run_block(sampler, rng, n, cap):
    """Totals of n replicates, each started from one particle.

    Every round steps all live replicates one generation with a single
    draw of uniforms, taken in replicate order. A replicate stops when
    it dies out or its total reaches cap at the end of a generation.
    """
    total = np.ones(n, dtype=np.int64)
    live = np.arange(n)
    alive = np.ones(n, dtype=np.int64)
    while live.size:
        # A replicate's draws are contiguous; reduceat sums them exactly.
        ks = sampler.sample_many(rng.random(int(alive.sum())))
        births = np.add.reduceat(ks, np.cumsum(alive) - alive)
        total[live] += births
        keep = (births > 0) & (total[live] < cap)
        live, alive = live[keep], births[keep]
    return total


def _run_blocks(d, seed, lo, hi, n, cap):
    """Counts of uncensored totals and the censored number over blocks
    lo..hi-1 of an n-replicate run."""
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
        counts = {}
        censored = 0
        for c, z in parts:
            censored += z
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
    return SimCounts(counts=counts, censored=censored, replicates=n,
                     seed=cfg.seed, progeny_cap=cfg.progeny_cap)


@dataclass(frozen=True)
class GofReport:
    empirical_counts: dict
    censored: int
    replicates: int
    chi_square: float
    dof: int
    max_abs_deviation: float
    z_scores: dict = field(default_factory=dict)

    def __post_init__(self):
        if sum(self.empirical_counts.values()) + self.censored != self.replicates:
            raise DomainError("count conservation violated")

    def to_dict(self):
        return {
            "empirical_counts": {str(k): v for k, v in sorted(self.empirical_counts.items())},
            "censored": self.censored,
            "replicates": self.replicates,
            "chi_square": self.chi_square,
            "dof": self.dof,
            "max_abs_deviation": self.max_abs_deviation,
            "z_scores": {str(k): v for k, v in sorted(self.z_scores.items())},
        }


def chi_square_threshold(dof, quantile=0.999):
    """The chi-square ``quantile`` at ``dof`` degrees of freedom: twice the
    inverse of the regularised lower incomplete gamma function at dof/2.
    Requires a whole dof >= 1 and 0 < quantile < 1."""
    dof = _whole(dof, 1, "dof")
    if not 0.0 < quantile < 1.0:
        raise DomainError("quantile must be in (0, 1)")
    from scipy.special import gammaincinv

    return float(2.0 * gammaincinv(dof / 2.0, quantile))


def gof_compare(sim, law, bins=20):
    """Chi-square comparison of simulated totals against the analytic pmf.

    Cells are ell = 1..bins plus one pooled tail holding everything larger,
    censored replicates included. Cells with expected count below 5 are
    pooled into their right neighbor, tail first. Per-cell z-scores are
    reported for the unpooled leading cells (at most 20).
    """
    if not isinstance(law, ProgenyHalfLaw):
        raise DomainError("analytic cells require a ProgenyHalfLaw")
    if bins < 1:
        raise DomainError("bins must be >= 1")
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
    return GofReport(empirical_counts=dict(sim.counts), censored=sim.censored,
                     replicates=n, chi_square=chi2, dof=dof,
                     max_abs_deviation=maxdev, z_scores=zs)
