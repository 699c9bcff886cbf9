"""Monte Carlo engine: sampler correctness, reproducibility contract,
censoring, and the chi-square comparison.

Statistical assertions use fixed seeds, so they are deterministic; margins
are 4 sigma where a sigma is meaningful.
"""

import bisect
import hashlib
import math
from itertools import accumulate

import mpmath as mp
import numpy as np
import pytest

from hypersum.branching import (
    ProgenyHalfLaw,
    ScaledSibuya,
    dual_offspring_pmf,
    extinction_prob,
    progeny_pgf_elementary,
    progeny_pmf_range,
)
from hypersum.errors import DomainError, InsufficientData
from hypersum.simulate import (
    DualOffspringSampler,
    SimConfig,
    SimCounts,
    chi_square_threshold,
    gof_compare,
    simulate_total_progeny,
)
from hypersum.simulate import _BLOCK, _block_stream, _run_block

OFFSPRING = ScaledSibuya(0.5, 0.6)
LAW = ProgenyHalfLaw(0.6)


@pytest.fixture(scope="module")
def sim_100k():
    return simulate_total_progeny(OFFSPRING, SimConfig(seed=90125, replicates=100_000))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(seed=-1, replicates=10)
        with pytest.raises(DomainError):
            SimConfig(seed=2 ** 64, replicates=10)
        with pytest.raises(DomainError):
            SimConfig(seed=1, replicates=0)
        with pytest.raises(DomainError):
            SimConfig(seed=1, replicates=10, progeny_cap=0)
        with pytest.raises(DomainError):
            SimConfig(seed=1, replicates=10, workers=0)
        # A nan cap censored every replicate, seed 1.5 ran seed 1's stream,
        # and fractional counts raised a bare TypeError.
        for bad in ({"progeny_cap": math.nan}, {"seed": 1.5}, {"replicates": 2.5},
                    {"workers": 2.5}, {"seed": math.nan}, {"progeny_cap": math.inf}):
            with pytest.raises(DomainError):
                SimConfig(**{"seed": 1, "replicates": 1000, **bad})
        assert SimConfig(seed=1.0, replicates=10.0).replicates == 10
        for dof, quantile in ((0, 0.999), (2.5, 0.999), (math.nan, 0.999),
                              (20, 0.0), (20, 1.0), (20, math.nan)):
            with pytest.raises(DomainError):
                chi_square_threshold(dof, quantile)


class TestSampler:
    def test_cdf_matches_dual_pmf(self):
        s = DualOffspringSampler(OFFSPRING)
        acc = 0.0
        for k in range(0, 31):
            acc += dual_offspring_pmf(OFFSPRING, k)
            assert s._cdf[k] == pytest.approx(acc, rel=1e-13)

    def test_inversion_brackets(self):
        s = DualOffspringSampler(OFFSPRING)
        ks = s.sample_many(np.array([0.0, 0.624999, 0.625001, 0.924999]))
        assert ks[0] == 0
        assert ks[1] == 0
        assert ks[2] == 1
        assert ks[3] == 1  # cdf[1] = 0.925

    def test_tail_draw_extends_table(self):
        # At lam = 0.6 the prefix CDF already rounds to 1.0, so growth needs
        # a heavier dual tail: lam = 0.05 keeps visible mass past entry 64.
        s = DualOffspringSampler(ScaledSibuya(0.5, 0.05))
        assert s.sample_many(np.array([0.999]))[0] > 64
        assert len(s._cdf) > 65

    def test_underflow_stall_guard(self):
        # Far enough out the pmf increments stop moving the float CDF; the
        # sampler must return the last covered index, not loop forever.
        s = DualOffspringSampler(ScaledSibuya(0.5, 0.05))
        k = s.sample_many(np.array([math.nextafter(1.0, 0.0)]))[0]
        assert k == len(s._cdf) - 1
        assert s._cdf[-1] < 1.0

    def test_sample_many_matches_scalar(self):
        # One draw at a time against an inversion built here from the dual
        # pmf: the number of cumulative masses at or below u.
        s = DualOffspringSampler(OFFSPRING)
        us = _block_stream(7, 0).random(500)
        cdf = list(accumulate(dual_offspring_pmf(OFFSPRING, k) for k in range(200)))
        singles = [bisect.bisect_right(cdf, u) for u in us]
        assert list(s.sample_many(us)) == singles

    @pytest.mark.parametrize("alpha, lam", [(0.5, 0.6), (0.9, 0.6), (0.5, 0.9)])
    def test_guide_matches_binary_search(self, alpha, lam):
        # The guide table must find searchsorted's index for every draw, on
        # the table as it stands after the call: at each bucket edge j/1024
        # and the float below it, at each table entry and both its float
        # neighbours, at 0, and on 1e5 stream uniforms. (0.5, 0.9) exhausts
        # its table at 23 entries, so its draws past it take the last index.
        # Only (0.5, 0.6) sees nextafter(1, 0), as a neighbour of its entry
        # 1.0: at a heavy law that one draw can grow the table to hundreds
        # of millions of entries.
        s = DualOffspringSampler(ScaledSibuya(alpha, lam))
        edges = np.arange(1024) / 1024
        cdf = s._cdf
        us = np.concatenate((edges, np.nextafter(edges, 0.0), cdf, np.nextafter(cdf, 0.0),
                             np.nextafter(cdf, 2.0), [0.0], _block_stream(5, 0).random(100_000)))
        us = us[us <= 1.0]
        got = s.sample_many(us)
        want = s._cdf.searchsorted(us, side="right")
        if s._exhausted:
            want.clip(max=len(s._cdf) - 1, out=want)
        assert got.tolist() == want.tolist()
        if (alpha, lam) == (0.5, 0.9):
            assert s._exhausted and len(s._cdf) == 23

    def test_exact_path_edges(self):
        # Growth inside one call, decided from the draws the guide did not
        # settle, ends on the table and the indices of growing first.
        us = np.concatenate((_block_stream(3, 0).random(1000), [0.999]))
        s = DualOffspringSampler(ScaledSibuya(0.5, 0.05))
        got = s.sample_many(us)
        ref = DualOffspringSampler(ScaledSibuya(0.5, 0.05))
        while us.max() >= ref._cdf[-1]:
            ref._grow(len(ref._cdf))
        assert len(s._cdf) == len(ref._cdf) > 65
        assert got.tolist() == ref._cdf.searchsorted(us, side="right").tolist()
        empty = s.sample_many(np.array([]))
        assert empty.shape == (0,) and empty.dtype.kind == "i"
        s = DualOffspringSampler(ScaledSibuya(0.5, 0.9))
        assert s.sample_many(np.array([1.0])).tolist() == [len(s._cdf) - 1]

    def test_frequencies(self):
        # 2e5 draws: p0 = 0.625, p1 = 0.3, margins at 4 sigma.
        s = DualOffspringSampler(OFFSPRING)
        n = 200_000
        ks = s.sample_many(_block_stream(11, 0).random(n))
        f0 = (ks == 0).sum() / n
        f1 = (ks == 1).sum() / n
        assert abs(f0 - 0.625) < 4 * math.sqrt(0.625 * 0.375 / n)
        assert abs(f1 - 0.3) < 4 * math.sqrt(0.3 * 0.7 / n)


def _assert_frozen(alpha, lam, seed, n, cap, censored, ell123, distinct, top, digest):
    sim = simulate_total_progeny(ScaledSibuya(alpha, lam),
                                 SimConfig(seed=seed, replicates=n, progeny_cap=cap))
    items = sorted(sim.counts.items())
    assert sim.censored == censored
    assert [sim.counts.get(ell, 0) for ell in (1, 2, 3)] == ell123
    assert len(items) == distinct
    assert items[-1][0] == top
    assert hashlib.sha256(repr(items).encode()).hexdigest()[:16] == digest


def _plain_block_totals(cdf, rng, n, cap):
    """_run_block's contract in plain Python. Each round takes one draw of
    uniforms, one per particle of every live replicate, in replicate
    order; a particle's offspring count is the number of CDF entries at or
    below its uniform, at most the table's last index. A replicate stops
    when it dies out or its total reaches cap."""
    last = len(cdf) - 1
    totals = [1] * n
    particles = dict.fromkeys(range(n), 1)  # live replicate -> particles
    while particles:
        us = iter(rng.random(sum(particles.values())).tolist())
        nxt = {}
        for r, m in particles.items():
            births = sum(min(bisect.bisect_right(cdf, next(us)), last) for _ in range(m))
            totals[r] += births
            if births and totals[r] < cap:
                nxt[r] = births
        particles = nxt
    return totals


class TestReproducibility:
    def test_same_seed_same_counts(self):
        cfg = SimConfig(seed=314, replicates=5000)
        a = simulate_total_progeny(OFFSPRING, cfg)
        b = simulate_total_progeny(OFFSPRING, cfg)
        assert a.counts == b.counts
        assert a.censored == b.censored

    def test_seed_changes_counts(self):
        a = simulate_total_progeny(OFFSPRING, SimConfig(seed=314, replicates=5000))
        b = simulate_total_progeny(OFFSPRING, SimConfig(seed=315, replicates=5000))
        assert a.counts != b.counts

    @pytest.mark.parametrize("alpha, lam, seed, n, ell123, distinct, top, digest", [
        (0.5, 0.6, 42, 100_000, [62517, 18628, 7647], 46, 55, "a514c4c657edc027"),
        (0.9, 0.8, 7, 20_000, [4517, 3280, 2314], 248, 984, "731d6c3e94225d46"),
        # lam = 0.05 grows the sampler's CDF table past its first 65 entries.
        (0.5, 0.05, 3, 20_000, [19051, 468, 126], 96, 2443, "7bec41cb207a4ff1"),
    ])
    def test_frozen_seeded_outputs(self, alpha, lam, seed, n, ell123, distinct, top, digest):
        # Frozen outputs at cap 1e5: counts at ell = 1, 2, 3, the number of
        # distinct totals, the largest total and a SHA-256 prefix of
        # repr(sorted(counts.items())). Any change to the sampler table,
        # the stream layout or the block stepping shows here.
        _assert_frozen(alpha, lam, seed, n, 100_000, 0, ell123, distinct, top, digest)

    @pytest.mark.parametrize("alpha, lam, seed, n, cap, censored, ell123, distinct, top, digest", [
        # The table is exhausted at 23 entries, where its increments stop
        # moving the CDF.
        (0.5, 0.9, 11, 20_000, 100_000, 0, [10535, 4745, 2170], 19, 20, "8f5c5f0f6069d2e8"),
        (0.5, 0.6, 2019, 20_000, 8, 603, [12504, 3703, 1478], 7, 7, "9123c353a6adcf51"),
        (0.9, 0.6, 5, 20_000, 1000, 21, [8111, 4353, 2434], 250, 984, "5cb2dc9da2b85cb1"),
    ])
    def test_frozen_censored_and_exhausted_outputs(self, alpha, lam, seed, n, cap, censored,
                                                   ell123, distinct, top, digest):
        # test_frozen_seeded_outputs' record, plus the censored number, at
        # small caps and on an exhausted table.
        _assert_frozen(alpha, lam, seed, n, cap, censored, ell123, distinct, top, digest)

    @pytest.mark.parametrize("alpha, lam, seed, n, cap, shows", [
        (0.5, 0.6, 1, _BLOCK, 100_000, "full block"),
        (0.5, 0.05, 3, 3001, 100_000, "growth"),
        (0.5, 0.9, 11, 3001, 100_000, "exhaustion"),
        (0.5, 0.6, 2019, 3001, 8, "censoring"),
        (0.9, 0.6, 5, 3001, 1000, "censoring"),
    ])
    def test_block_totals_match_plain_stepping(self, alpha, lam, seed, n, cap, shows):
        # Every replicate's total, and the number of uniforms drawn, against
        # the contract stepped one particle at a time.
        sampler = DualOffspringSampler(ScaledSibuya(alpha, lam))
        rng, ref_rng = _block_stream(seed, 0), _block_stream(seed, 0)
        totals = _run_block(sampler, rng, n, cap).tolist()
        # The table only grows before a draw is inverted, so its final
        # state inverts every draw of the run.
        assert totals == _plain_block_totals(sampler._cdf.tolist(), ref_rng, n, cap)
        assert rng.random() == ref_rng.random()
        assert {"full block": n == _BLOCK, "growth": len(sampler._cdf) > 65,
                "exhaustion": sampler._exhausted, "censoring": max(totals) >= cap}[shows]

    def test_worker_count_is_invisible(self):
        one = simulate_total_progeny(OFFSPRING, SimConfig(seed=77, replicates=20_000, workers=1))
        two = simulate_total_progeny(OFFSPRING, SimConfig(seed=77, replicates=20_000, workers=2))
        assert one.counts == two.counts
        assert one.censored == two.censored

    def test_workers_split_at_block_boundaries(self):
        # Two and a half blocks: the run ends in a partial block, and 3 or 4
        # workers each get a single block.
        cfg = dict(seed=77, replicates=int(2.5 * _BLOCK))
        one = simulate_total_progeny(OFFSPRING, SimConfig(**cfg, workers=1))
        for w in (2, 3, 4):
            many = simulate_total_progeny(OFFSPRING, SimConfig(**cfg, workers=w))
            assert many.counts == one.counts
            assert many.censored == one.censored


class TestCensoring:
    def test_cap_censors_and_conserves(self):
        sim = simulate_total_progeny(OFFSPRING, SimConfig(seed=5, replicates=20_000, progeny_cap=5))
        assert sim.censored > 0
        assert all(k < 5 for k in sim.counts)
        assert sum(sim.counts.values()) + sim.censored == 20_000

    def test_censored_share_matches_tail_mass(self):
        n, cap = 20_000, 8
        sim = simulate_total_progeny(OFFSPRING, SimConfig(seed=2019, replicates=n, progeny_cap=cap))
        tail = 1.0 - math.fsum(progeny_pmf_range(LAW, cap - 1))
        assert all(k < cap for k in sim.counts)
        assert abs(sim.censored / n - tail) < 4 * math.sqrt(tail * (1.0 - tail) / n)

    def test_counts_container_checks_conservation(self):
        with pytest.raises(DomainError):
            SimCounts(counts={1: 3}, censored=1, replicates=10, seed=0, progeny_cap=100)

    def test_rejects_degenerate_offspring(self):
        with pytest.raises(DomainError):
            simulate_total_progeny(ScaledSibuya(0.5, 1.0), SimConfig(seed=1, replicates=10))


class TestAgainstAnalyticLaw:
    def test_sample_mean_matches_pgf_slope(self, sim_100k):
        # H'(1) by central difference; the surd is analytic through z = 1.
        h = 1e-6
        slope = (progeny_pgf_elementary(LAW, 1.0 + h)
                 - progeny_pgf_elementary(LAW, 1.0 - h)) / (2 * h)
        assert slope == pytest.approx(2.0, rel=1e-6)
        n = sum(sim_100k.counts.values())
        mean = sum(k * v for k, v in sim_100k.counts.items()) / n
        assert abs(mean - slope) < 0.05

    def test_long_walk_mean(self):
        # alpha = 0.9: the offspring mean is alpha, so E[T] = 1/(1-alpha) and
        # Var[T] = sigma^2/(1-alpha)^3 with the dual offspring variance
        # sigma^2 = q alpha (1-alpha)/(1-q) + alpha - alpha^2.
        a, n = 0.9, 20_000
        d = ScaledSibuya(a, 0.6)
        q = extinction_prob(d)
        var = (q * a * (1.0 - a) / (1.0 - q) + a - a * a) / (1.0 - a) ** 3
        sim = simulate_total_progeny(d, SimConfig(seed=2019, replicates=n))
        assert sim.censored == 0
        mean = sum(k * v for k, v in sim.counts.items()) / n
        assert abs(mean - 1.0 / (1.0 - a)) < 4 * math.sqrt(var / n)

    def test_gof_accepts_true_law(self, sim_100k):
        rep = gof_compare(sim_100k, LAW)
        assert rep.dof == 20
        assert rep.chi_square < chi_square_threshold(rep.dof)
        assert max(abs(z) for z in rep.z_scores.values()) < 4.0
        assert rep.max_abs_deviation < 0.01
        assert set(rep.z_scores) == set(range(1, 21))

    def test_gof_rejects_wrong_law(self, sim_100k):
        rep = gof_compare(sim_100k, ProgenyHalfLaw(0.7))
        assert rep.chi_square > chi_square_threshold(rep.dof)

    def test_gof_on_exact_expected_counts(self):
        # A hand-built sample holding each cell at its expectation: the
        # statistic then only carries rounding, far under the threshold.
        n = 100_000
        pmf = progeny_pmf_range(LAW, 400)
        counts = {ell: round(n * p) for ell, p in enumerate(pmf, start=1) if round(n * p) > 0}
        used = sum(counts.values())
        rep = gof_compare(SimCounts(counts=counts, censored=n - used, replicates=n,
                                    seed=0, progeny_cap=10 ** 9), LAW)
        assert rep.chi_square < 1.0

    def test_insufficient_data(self):
        sim = simulate_total_progeny(OFFSPRING, SimConfig(seed=8, replicates=3))
        with pytest.raises(InsufficientData):
            gof_compare(sim, LAW)

    @pytest.mark.parametrize("bins", [2.5, 0, math.nan])
    def test_gof_names_a_bad_bin_count(self, bins):
        # A fractional count used to reach progeny_pmf_range, whose error
        # named lmax.
        sim = SimCounts(counts={1: 10}, censored=0, replicates=10, seed=0, progeny_cap=100)
        with pytest.raises(DomainError, match="^bins must be an integer >= 1$"):
            gof_compare(sim, LAW, bins=bins)

    def test_threshold_monotone(self):
        assert chi_square_threshold(10) < chi_square_threshold(20)
        assert chi_square_threshold(10, 0.99) < chi_square_threshold(10, 0.999)


class TestChiSquareThreshold:
    QUANTILES = (1e-6, 1e-3, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9)

    def test_tail_at_the_threshold_matches_30_digit_mpmath(self):
        # The miss of the wanted tail at the returned x (regularised
        # incomplete gamma, 30 digits) over the density there is x's error
        # to first order.
        with mp.workdps(30):
            for dof in list(range(1, 201)) + [1000, 10_000, 100_000]:
                a = mp.mpf(dof) / 2
                for q in self.QUANTILES:
                    x = chi_square_threshold(dof, q)
                    y = mp.mpf(x) / 2
                    if q > 0.5:
                        miss = mp.gammainc(a, y, mp.inf, regularized=True) - (1 - mp.mpf(q))
                    else:
                        miss = mp.gammainc(a, 0, y, regularized=True) - mp.mpf(q)
                    density = mp.exp((a - 1) * mp.log(y) - y - mp.loggamma(a)) / 2
                    rel = abs(miss / density) / x
                    assert rel <= (1e-12 if dof <= 1000 else 1e-10), (dof, q, float(rel))

    def test_dof_past_its_sums_is_rejected(self):
        # The tail sums take about 6 sqrt(dof) terms.
        with pytest.raises(DomainError):
            chi_square_threshold(10 ** 10 + 1)
