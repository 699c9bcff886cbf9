"""Seeded Monte Carlo for total progeny under the extinction-dual offspring
law, with a chi-square comparison against the analytic distribution.

Reproducibility contract: every replicate draws from its own counter-based
stream keyed by (seed, replicate index), so the outcome of replicate i is a
pure function of those two integers. Worker count only changes scheduling,
never results.
"""

import bisect
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.stats import chi2 as _chi2_dist

from .branching import ProgenyHalfLaw, extinction_prob, progeny_pmf_range
from .errors import DomainError, InsufficientData

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
        if self.replicates < 1:
            raise DomainError("replicates must be positive")
        if self.progeny_cap < 1:
            raise DomainError("progeny_cap must be positive")
        if self.workers < 1:
            raise DomainError("workers must be positive")


class DualOffspringSampler:
    """Inversion sampler for the dual offspring pmf.

    Keeps a prefix CDF (64 entries up front) and extends it on demand, so
    no draw is ever truncated: a uniform that falls past the cached prefix
    grows the table until covered. Ratio recurrence
    p_{k+1} = p_k q (k - alpha)/(k + 1) stays in the dual law directly.
    """

    def __init__(self, d):
        self.q = extinction_prob(d)
        self.alpha = d.alpha
        self.lam = d.lam
        # pmf[0] = (1-lam)/q, pmf[1] = lam*alpha.
        self._pmf_last = d.lam * d.alpha
        self._cdf = [(1.0 - d.lam) / self.q, (1.0 - d.lam) / self.q + self._pmf_last]
        self._extend_to(64)
        self._np_cdf = np.array(self._cdf)

    def _extend_to(self, n):
        k = len(self._cdf) - 1
        p = self._pmf_last
        while len(self._cdf) < n + 1:
            p *= self.q * (k - self.alpha) / (k + 1.0)
            nxt = self._cdf[-1] + p
            if p < _CDF_UNDERFLOW and nxt == self._cdf[-1]:
                break
            self._cdf.append(nxt)
            k += 1
        self._pmf_last = p

    def sample(self, u):
        """Offspring count for one uniform draw u in [0, 1)."""
        if u >= self._cdf[-1]:
            while u >= self._cdf[-1]:
                before = len(self._cdf)
                self._extend_to(2 * before)
                if len(self._cdf) == before:
                    return len(self._cdf) - 1
            self._np_cdf = np.array(self._cdf)
        return bisect.bisect_right(self._cdf, u)

    def sample_many(self, us):
        """Vectorized inversion; falls back to scalar path for tail draws."""
        idx = np.searchsorted(self._np_cdf, us, side="right")
        hit = idx >= len(self._np_cdf)
        if hit.any():
            for j in np.nonzero(hit)[0]:
                idx[j] = self.sample(float(us[j]))
        return idx


def _replicate_stream(seed, index):
    # Counter word 3 carries the replicate index: disjoint 2^192-draw
    # blocks per replicate, independent of scheduling.
    return Generator(Philox(key=seed, counter=[0, 0, 0, index]))


def _run_range(d, seed, lo, hi, cap):
    sampler = DualOffspringSampler(d)
    counts = {}
    censored = 0
    for i in range(lo, hi):
        rng = _replicate_stream(seed, i)
        total = 1
        alive = 1
        while alive > 0:
            births = int(sampler.sample_many(rng.random(alive)).sum())
            total += births
            alive = births
            if total >= cap:
                break
        if total >= cap:
            censored += 1
        else:
            counts[total] = counts.get(total, 0) + 1
    return counts, censored


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
    cfg.progeny_cap are censored, never dropped. Multi-worker runs split
    the replicate range and merge by summation, which is order-free.
    """
    if d.alpha >= 1.0 or d.lam >= 1.0:
        raise DomainError("dual process needs alpha < 1 and lam < 1")
    n = cfg.replicates
    if cfg.workers == 1 or n < 2 * cfg.workers:
        counts, censored = _run_range(d, cfg.seed, 0, n, cfg.progeny_cap)
    else:
        step = (n + cfg.workers - 1) // cfg.workers
        ranges = [(d, cfg.seed, lo, min(lo + step, n), cfg.progeny_cap)
                  for lo in range(0, n, step)]
        with multiprocessing.Pool(cfg.workers) as pool:
            parts = pool.starmap(_run_range, ranges)
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
    return float(_chi2_dist.ppf(quantile, dof))


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
    labels = [str(ell) for ell in range(1, bins + 1)] + ["tail"]

    # Pool right-to-left until every surviving cell expects at least 5.
    pooled_obs, pooled_exp, pooled_labels = [], [], []
    acc_o, acc_e, acc_l = 0.0, 0.0, []
    for o, e, lab in zip(reversed(obs), reversed(exp), reversed(labels)):
        acc_o += o
        acc_e += e
        acc_l.append(lab)
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            pooled_labels.append("+".join(reversed(acc_l)))
            acc_o, acc_e, acc_l = 0.0, 0.0, []
    if acc_l:
        if not pooled_obs:
            raise InsufficientData("cannot reach expected count 5 in any cell")
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
        pooled_labels[-1] = "+".join(reversed(acc_l)) + "+" + pooled_labels[-1]
    pooled_obs.reverse()
    pooled_exp.reverse()
    pooled_labels.reverse()
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
