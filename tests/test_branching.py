"""Branching-process laws: offspring, extinction dual, and total progeny.

The alpha = 1/2 progeny law has four independent routes (recurrence,
elementary surd, formal series, Bessel integral); these tests hold them
against each other and against mpmath-frozen constants (40 digits).
"""

import math
import random
import re
import sys

import pytest

from hypersum import branching
from hypersum.branching import (
    GeneralProgenyLaw,
    ProgenyHalfLaw,
    ScaledSibuya,
    dual_offspring_pmf,
    extinction_prob,
    functional_equation_residual,
    general_progeny_pmf,
    general_progeny_pmf_range,
    h_alpha_pgf,
    progeny_pgf_elementary,
    progeny_pgf_hypergeometric,
    progeny_pmf,
    progeny_pmf_bessel_oracle,
    progeny_pmf_range,
    progeny_pmf_series_coeffs,
    sibuya_pgf,
    sibuya_pmf,
    _dual_root,
)
from hypersum.errors import DomainError, NonConvergent, QuadratureFailure
from hypersum.special import _CHUNKED_FROM, _LADDER_MAX_BLOCK, _LN2, _ladder_upto

from conftest import ladder_block_edges


def _chunked_edge_ells(c):
    """ell = k + 1 around the ladder blocks where chunk transfers start and
    where blocks first reach the cap, and the block after that."""
    edges = ladder_block_edges(c, 4 * _LADDER_MAX_BLOCK)
    first = edges.index(next(e for e, f in zip(edges, edges[1:]) if f - e >= _CHUNKED_FROM))
    cap = edges.index(next(e for e, f in zip(edges, edges[1:]) if f - e == _LADDER_MAX_BLOCK))
    return [k + 1 + d for k in (edges[first], edges[cap], edges[cap + 1]) for d in (-1, 0, 1)]


def _unstopped_range(law, lmax):
    """(log p_ell, p_ell) as arrays for ell = 1..lmax: every block of
    _ladder_upto weighted as the law's pmf range weights it, with no stop."""
    import numpy as np

    if isinstance(law, ProgenyHalfLaw):
        c, x, lpref, lr = 2.0, law.Q, -_LN2, math.log1p(-law.Q) - _LN2
    else:
        c, x = law.c, law.x
        lpref = math.log((c - 1.5) / (c - 1.0)) + 0.5 * math.log(x)
        lr = math.log1p(-math.sqrt(x))
    logs, vals = [], []
    for k, frac, exp in _ladder_upto(c, x, lmax):
        lw = lpref + k * lr + exp * _LN2
        logs.append(np.log(frac) + lw)
        vals.append(frac * np.exp(lw))
    return np.concatenate(logs), np.concatenate(vals)


# The ratio bound's lam grid: the smallest lam whose seeds do not stall,
# one next to 1, the ends of perfbench's range lam, and seeded points.
_rng = random.Random(24)
_RATIO_LAMS = [0.02, 0.3, 0.95, 1.0 - 1e-8] + [_rng.uniform(0.02, 1.0 - 1e-6) for _ in range(8)]
# The general law's monotone grid: c next to 3/2 and at 60, x next to
# 0 and 1, and seeded points with c in (3/2, 60], x in (0, 1).
_rng = random.Random(26)
_MONOTONE_GRID = [(1.5 + 1e-3, 0.5), (60.0, 0.999), (30.0, 1e-3)] + [
    (_rng.uniform(1.5, 60.0), _rng.uniform(0.0, 1.0)) for _ in range(9)]


def survival_exact(d, K):
    """P(offspring > K) in closed form: lam * (1-alpha)_K / K!."""
    return d.lam * math.exp(math.lgamma(K + 1 - d.alpha)
                            - math.lgamma(1 - d.alpha) - math.lgamma(K + 1))


class TestScaledSibuya:
    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ScaledSibuya(0.0, 0.5)
        with pytest.raises(DomainError):
            ScaledSibuya(1.2, 0.5)
        with pytest.raises(DomainError):
            ScaledSibuya(0.5, 0.0)
        with pytest.raises(DomainError):
            ScaledSibuya(0.5, 1.0001)

    def test_pmf_hand_values(self):
        assert sibuya_pmf(ScaledSibuya(0.5, 0.8), 0) == pytest.approx(0.2, rel=1e-15)
        d = ScaledSibuya(0.5, 1.0)
        assert sibuya_pmf(d, 0) == 0.0
        assert sibuya_pmf(d, 1) == pytest.approx(0.5, rel=1e-15)
        assert sibuya_pmf(d, 2) == pytest.approx(0.125, rel=1e-15)

    def test_pmf_rejects_bad_k(self):
        d = ScaledSibuya(0.5, 0.8)
        with pytest.raises(DomainError):
            sibuya_pmf(d, -1)
        with pytest.raises(DomainError):
            sibuya_pmf(d, 2.5)

    def test_partial_sums_match_closed_survival(self):
        d = ScaledSibuya(0.3, 0.7)
        acc = 0.0
        for K in range(0, 60):
            acc += sibuya_pmf(d, K)
            assert 1.0 - acc == pytest.approx(survival_exact(d, K), rel=1e-12)

    def test_normalization_with_exact_tail(self):
        for alpha, lam in ((0.5, 0.6), (0.25, 0.9), (0.8, 0.3)):
            d = ScaledSibuya(alpha, lam)
            mass = sum(sibuya_pmf(d, k) for k in range(0, 301))
            assert mass + survival_exact(d, 300) == pytest.approx(1.0, rel=1e-13)

    def test_pgf(self):
        d = ScaledSibuya(0.5, 0.6)
        assert sibuya_pgf(d, 1.0) == 1.0
        assert sibuya_pgf(d, 0.75) == pytest.approx(0.7, rel=1e-15)
        with pytest.raises(DomainError):
            sibuya_pgf(d, 1.5)

    def test_pgf_equals_truncated_series(self):
        d = ScaledSibuya(0.4, 0.8)
        for u in (0.2, 0.5, 0.9):
            s = sum(sibuya_pmf(d, k) * u ** k for k in range(0, 401))
            assert sibuya_pgf(d, u) == pytest.approx(s, rel=1e-10)


class TestExtinction:
    def test_value(self):
        assert extinction_prob(ScaledSibuya(0.5, 0.6)) == pytest.approx(0.64, rel=1e-15)

    def test_fixed_point(self):
        for alpha, lam in ((0.5, 0.6), (0.2, 0.35), (0.85, 0.97)):
            d = ScaledSibuya(alpha, lam)
            q = extinction_prob(d)
            assert 0.0 < q < 1.0
            assert sibuya_pgf(d, q) == pytest.approx(q, rel=1e-14)

    def test_degenerate_corners_raise(self):
        with pytest.raises(DomainError):
            extinction_prob(ScaledSibuya(1.0, 0.5))
        with pytest.raises(DomainError):
            extinction_prob(ScaledSibuya(0.5, 1.0))


class TestDualOffspring:
    def test_hand_values(self):
        d = ScaledSibuya(0.5, 0.6)
        assert dual_offspring_pmf(d, 0) == pytest.approx(0.625, rel=1e-15)
        assert dual_offspring_pmf(d, 1) == pytest.approx(0.3, rel=1e-15)

    def test_sums_to_one(self):
        for alpha, lam in ((0.5, 0.6), (0.3, 0.8)):
            d = ScaledSibuya(alpha, lam)
            mass = sum(dual_offspring_pmf(d, k) for k in range(0, 400))
            assert mass == pytest.approx(1.0, rel=1e-12)

    def test_mean_is_alpha(self):
        # The conditioned law is subcritical with mean exactly alpha.
        for alpha, lam in ((0.5, 0.6), (0.7, 0.4), (0.2, 0.9)):
            d = ScaledSibuya(alpha, lam)
            mean = sum(k * dual_offspring_pmf(d, k) for k in range(1, 700))
            assert mean == pytest.approx(alpha, rel=1e-10)


class TestProgenyHalfLaw:
    def test_derived_quantities(self):
        law = ProgenyHalfLaw(0.6)
        assert law.Q == pytest.approx(0.64, rel=1e-15)
        assert law.z_minus == pytest.approx(2.0 / 1.8, rel=1e-15)
        assert law.z_plus == pytest.approx(10.0, rel=1e-14)
        assert ProgenyHalfLaw.from_extinction_prob(0.64).lam == pytest.approx(0.6, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            ProgenyHalfLaw(0.0)
        with pytest.raises(DomainError):
            ProgenyHalfLaw(1.0)
        with pytest.raises(DomainError):
            ProgenyHalfLaw.from_extinction_prob(1.0)

    @pytest.mark.parametrize("lam", [1e-9, 7e-9])
    def test_tiny_lambda_is_a_domain_error(self, lam):
        # 1 - lam^2 rounds to 1, which would put z_plus at 2/0.
        with pytest.raises(DomainError):
            ProgenyHalfLaw(lam)

    def test_reference_values(self):
        # lam = 0.6, mpmath at 40 digits
        law = ProgenyHalfLaw(0.6)
        assert progeny_pmf(law, 1) == pytest.approx(0.625, rel=1e-14)
        assert progeny_pmf(law, 5) == pytest.approx(0.02175, rel=1e-13)
        assert progeny_pmf(law, 12) == pytest.approx(0.002199330375, rel=1e-13)
        assert progeny_pmf(law, 200) == pytest.approx(6.9724166459182196102e-14, rel=1e-12)

    def test_range_matches_scalar(self):
        # ell = 151 is the last point query taken by series, 152 the first
        # read from the streaming ladder.
        law = ProgenyHalfLaw(0.45)
        rng = progeny_pmf_range(law, 1000)
        for ell in (1, 2, 17, 40, 151, 152, 1000):
            assert rng[ell - 1] == pytest.approx(progeny_pmf(law, ell), rel=1e-13)

    @pytest.mark.parametrize("ell", [20_000, 30_000])
    def test_long_range_accuracy(self, ell):
        # 2^-ell lam^(2(ell-1)) G_(ell-1)(2; 1 - lam^2) at 40 digits, at
        # the law's float lam. A float log offset summed over the ladder's
        # rescales drifted to 1.2e-10 here.
        import mpmath as mp

        law = ProgenyHalfLaw(0.2)
        k = ell - 1
        with mp.workdps(40):
            lam = mp.mpf(law.lam)
            ref = (mp.mpf(2) ** -ell * lam ** (2 * k)
                   * mp.hyp2f1(mp.mpf(k + 1) / 2, mp.mpf(k + 2) / 2, 2, 1 - lam ** 2))
        for v in (progeny_pmf(law, ell), progeny_pmf_range(law, ell)[ell - 1]):
            assert abs(v - ref) <= 2e-11 * ref

    @pytest.mark.parametrize("lam", [0.02, 0.05])
    @pytest.mark.parametrize("ell", [100, 1000, 10_000])
    def test_small_lambda_against_the_bessel_oracle(self, lam, ell):
        # The weight (1-Q)^(ell-1) is taken from the Q the ladder reads:
        # one from lam^2 would be off by about ell eps/lam^2 (1.1e-9 at
        # lam = 0.02, ell = 10,000). The oracle is within 5e-13 here.
        law = ProgenyHalfLaw(lam)
        ref = progeny_pmf_bessel_oracle(law, ell)
        for v in (progeny_pmf(law, ell), progeny_pmf_range(law, ell)[-1]):
            assert v == pytest.approx(ref, rel=1e-11, abs=0)

    def test_point_far_past_the_underflow_reads_the_stopping_blocks(self, monkeypatch):
        # The point query stops where the range does, instead of stepping
        # the ladder to ell = 10^7 for an exact zero.
        law = ProgenyHalfLaw(0.6)
        read = []

        def counted(*args):
            for block in _ladder_upto(*args):
                read[-1] += len(block[0])
                yield block

        monkeypatch.setattr(branching, "_ladder_upto", counted)
        read.append(0)
        assert progeny_pmf(law, 10**7) == 0.0
        read.append(0)
        # A range to 10^6 stops in the same block as one to 10^7 would.
        progeny_pmf_range(law, 10**6)
        assert 0 < read[0] <= read[1] < 50_000

    def test_range_across_block_edges(self):
        # Every prefix length around the first ladder blocks gives the same
        # values, and each equals its point query.
        law = ProgenyHalfLaw(0.7)
        full = progeny_pmf_range(law, 300)
        for n in ladder_block_edges(2.0, 300):
            for m in (n - 1, n, n + 1):
                assert progeny_pmf_range(law, m) == full[:m]
        for ell in range(1, 301):
            assert full[ell - 1] == pytest.approx(progeny_pmf(law, ell), rel=1e-13, abs=0)

    def test_bad_ell(self):
        law = ProgenyHalfLaw(0.6)
        with pytest.raises(DomainError):
            progeny_pmf(law, 0)
        with pytest.raises(DomainError):
            progeny_pmf(law, 3.5)
        for lmax in (0, 2.5):
            with pytest.raises(DomainError):
                progeny_pmf_range(law, lmax)

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
    def test_non_finite_size_is_a_domain_error(self, n):
        law = ProgenyHalfLaw(0.6)
        with pytest.raises(DomainError):
            progeny_pmf(law, n)
        with pytest.raises(DomainError):
            progeny_pmf_range(law, n)

    def test_range_matches_points_at_chunked_block_edges(self):
        # Q = 0.9375 keeps p_ell above 1e-250 out to the second block at
        # the ladder's cap.
        law = ProgenyHalfLaw(0.25)
        ells = _chunked_edge_ells(2.0)
        full = progeny_pmf_range(law, max(ells))
        for ell in ells:
            assert full[ell - 1] == pytest.approx(progeny_pmf(law, ell), rel=1e-13, abs=0)
            assert progeny_pmf_range(law, ell) == full[:ell]

    @pytest.mark.parametrize("lam,ell", [(0.05, 151), (0.02, 100), (0.02, 50)])
    def test_point_past_its_series_reads_the_ladder(self, lam, ell):
        # G_(ell-1) at Q near 1: its one series leaves double range
        # (ell = 151, 100) or stalls at the term cap (ell = 50), and the
        # point query takes the ladder's value, as the range does.
        law = ProgenyHalfLaw(lam)
        assert progeny_pmf(law, ell) == pytest.approx(progeny_pmf_range(law, ell)[-1], rel=1e-13, abs=0)

    @pytest.mark.parametrize("lam,step", [(0.02, 7), (0.05, 1), (0.1, 1)])
    def test_points_near_q_one_match_the_range(self, lam, step):
        # Where _seed_width expects a column past the seed cap, the point
        # goes to the ladder without summing the column to its cap.
        law = ProgenyHalfLaw(lam)
        full = progeny_pmf_range(law, 150)
        for ell in sorted({*range(1, 151, step), 150}):
            assert progeny_pmf(law, ell) == pytest.approx(full[ell - 1], rel=1e-12, abs=0)

    def test_stalled_ladder_seeds_still_raise(self):
        # Next to Q = 1 the ladder's own seed series stall as well (at k = 0,
        # and at k = 1 for lam = 0.01); the error names the law. lam = 0.02
        # answers (test_points_near_q_one_match_the_range).
        for lam in (1e-3, 0.005, 0.01):
            law = ProgenyHalfLaw(lam)
            named = re.escape("lam = %g reads G_k at Q = 1 - lam^2 = %r" % (lam, law.Q)) + ".*seed series stalled"
            with pytest.raises(NonConvergent, match=named):
                progeny_pmf(law, 5)
            with pytest.raises(NonConvergent, match=named):
                progeny_pmf_range(law, 5)

    def test_near_certain_extinction_concentrates_at_one(self):
        # p_1 = 1/(1+lam); the rest of the mass is small but heavy-tailed.
        law = ProgenyHalfLaw(0.05)
        assert progeny_pmf(law, 1) == pytest.approx(1.0 / 1.05, rel=1e-12)
        assert sum(progeny_pmf_range(law, 20)) > 0.99

    def test_mass_with_geometric_tail_bound(self):
        law = ProgenyHalfLaw(0.6)
        L = 2000
        p = progeny_pmf_range(law, L)
        rho = (1.0 + math.sqrt(law.Q)) / 2.0  # 1/z_minus
        tail = p[-1] * rho / (1.0 - rho)
        assert sum(p) + tail == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("lam", _RATIO_LAMS)
    def test_ratio_bound_that_the_range_stop_rests_on(self, lam):
        # p_(ell+1) <= rho p_ell, rho = (1 + sqrt Q)/2, on the unrounded
        # log p_ell of every pair, past where the doubles underflow too.
        # Subnormal doubles are rounded on a grid of 2^-1074, so there the
        # ratio holds only up to that grid; it is checked on normal ones.
        import numpy as np

        law = ProgenyHalfLaw(lam)
        rho = (1.0 + math.sqrt(law.Q)) / 2.0
        logs, _ = _unstopped_range(law, 50_000)
        assert np.diff(logs).max() <= math.log(rho)
        p = progeny_pmf_range(law, 50_000)
        assert all(b <= rho * a for a, b in zip(p, p[1:]) if a >= sys.float_info.min)

    @pytest.mark.parametrize("lam,lmax", [(0.6, 10), (0.3, 1000), (1.0 - 1e-8, 2000), (0.02, 100_000),
                                          (0.95, 100_000), (1.0 - 1e-8, 100_000), (0.919, 3000),
                                          (0.5579, 20_000), (0.6, 1_000_000)])
    def test_range_stops_where_the_pmf_underflows(self, lam, lmax, monkeypatch):
        # The values equal a sweep to lmax, bit for bit, and the ladder is
        # read up to the first whole block past ell* = 745/|ln rho|, where
        # every double is 0.0. Blocks double, so that is at most 4 ell*.
        # At lam = 0.919 and 0.5579 a block (k = 2023, 8167) opens on a
        # subnormal p_ell about e^-741: a stop above the underflow would
        # drop it.
        law = ProgenyHalfLaw(lam)
        full = _unstopped_range(law, lmax)[1].tolist()
        read = []

        def counted(*args):
            for block in _ladder_upto(*args):
                read.append(len(block[0]))
                yield block

        monkeypatch.setattr(branching, "_ladder_upto", counted)
        assert progeny_pmf_range(law, lmax) == full
        ell_star = 745.0 / -math.log((1.0 + math.sqrt(law.Q)) / 2.0)
        assert sum(read) <= min(lmax, 4.0 * ell_star)


class TestProgenyPgfElementary:
    def test_endpoints(self):
        law = ProgenyHalfLaw(0.6)
        assert progeny_pgf_elementary(law, 0.0) == 0.0
        assert progeny_pgf_elementary(law, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_radius_value(self):
        # H(z_minus) = z_minus/sqrt(Q): the surd vanishes there.
        for lam in (0.3, 0.6, 0.9):
            law = ProgenyHalfLaw(lam)
            v = progeny_pgf_elementary(law, law.z_minus)
            assert v == pytest.approx(law.z_minus / math.sqrt(law.Q), rel=1e-12)

    def test_branch_cut_rejected_far_side_real(self):
        law = ProgenyHalfLaw(0.6)  # cut spans (10/9, 10)
        with pytest.raises(DomainError):
            progeny_pgf_elementary(law, 5.0)
        assert math.isfinite(progeny_pgf_elementary(law, 12.0))

    def test_monotone_on_unit_interval(self):
        law = ProgenyHalfLaw(0.7)
        vals = [progeny_pgf_elementary(law, z / 10.0) for z in range(11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_non_finite_argument_rejected(self):
        law = ProgenyHalfLaw(0.6)
        for z in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                progeny_pgf_elementary(law, z)


class TestProgenyPgfHypergeometric:
    def test_agrees_with_elementary(self):
        for lam in (0.25, 0.6, 0.85):
            law = ProgenyHalfLaw(lam)
            for i in range(13):
                z = law.z_minus * i / 12.0
                a = progeny_pgf_hypergeometric(law, z)
                b = progeny_pgf_elementary(law, z)
                assert a == pytest.approx(b, rel=1e-10, abs=1e-15)

    def test_unit_argument_at_radius(self):
        law = ProgenyHalfLaw(0.6)
        v = progeny_pgf_hypergeometric(law, law.z_minus)
        assert v == pytest.approx(law.z_minus / math.sqrt(law.Q), rel=1e-13)

    def test_past_radius_rejected(self):
        with pytest.raises(DomainError):
            progeny_pgf_hypergeometric(ProgenyHalfLaw(0.6), 2.0)


class TestSeriesCoefficients:
    def test_match_recurrence_route(self):
        # abs=0: pytest.approx's default abs=1e-12 would swamp the small
        # tail probabilities.
        for lam in (0.3, 0.6, 0.9, 0.95):
            law = ProgenyHalfLaw(lam)
            coeffs = progeny_pmf_series_coeffs(law, 200)
            probs = progeny_pmf_range(law, 200)
            for a, b in zip(coeffs, probs):
                assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_bounds(self):
        law = ProgenyHalfLaw(0.6)
        with pytest.raises(DomainError):
            progeny_pmf_series_coeffs(law, 0)


class TestBesselOracle:
    def test_agrees_with_recurrence(self):
        for lam in (0.6, 0.85):
            law = ProgenyHalfLaw(lam)
            for ell in (1, 2, 7, 15):
                a = progeny_pmf_bessel_oracle(law, ell)
                assert a == pytest.approx(progeny_pmf(law, ell), rel=1e-9)

    def test_moderate_order(self):
        law = ProgenyHalfLaw(0.6)
        a = progeny_pmf_bessel_oracle(law, 30)
        assert a == pytest.approx(progeny_pmf(law, 30), rel=1e-7)

    def test_bad_ell(self):
        with pytest.raises(DomainError):
            progeny_pmf_bessel_oracle(ProgenyHalfLaw(0.6), 0)

    def test_agrees_with_recurrence_on_a_seeded_grid(self):
        rng = random.Random(1729)
        for _ in range(60):
            lam = rng.uniform(0.02, 0.999)
            ell = int(round(math.exp(rng.uniform(0.0, math.log(1000.0)))))
            law = ProgenyHalfLaw(lam)
            a = progeny_pmf_bessel_oracle(law, ell)
            assert a == pytest.approx(progeny_pmf(law, ell), rel=1e-9, abs=0), (lam, ell)

    @pytest.mark.parametrize("lam", [1e-4, 1e-6, 1e-8])
    def test_small_lambda_against_mpmath(self, lam):
        # 2^-ell lam^(2 ell - 2) 2F1(ell/2, (ell+1)/2; 2; 1 - lam^2) at 50
        # digits. The integrand's peak is about lam/sqrt(ell) wide in the
        # original angle; the quadrature once returned -1e-6 at
        # (1e-6, 1) and 5e-41 for 8.3e-12 at (1e-8, 50) with status ok.
        # The substituted angle keeps the node count bounded, so every
        # call answers.
        import mpmath as mp

        law = ProgenyHalfLaw(lam)
        assert progeny_pmf_bessel_oracle(law, 1) == 1.0 / (1.0 + lam)
        for ell in (2, 5, 50):
            with mp.workdps(50):
                lm = mp.mpf(lam)
                ref = (mp.mpf(2) ** -ell * lm ** (2 * ell - 2)
                       * mp.hyp2f1(mp.mpf(ell) / 2, mp.mpf(ell + 1) / 2, 2, 1 - lm * lm))
            got = progeny_pmf_bessel_oracle(law, ell)
            assert abs(got - ref) <= 1e-10 * ref, (lam, ell)

    def test_node_cap_raises(self, monkeypatch):
        # ell = 1000 needs 256 steps on [0, pi/2].
        monkeypatch.setattr(branching, "_ORACLE_MAX_STEPS", 64)
        with pytest.raises(QuadratureFailure, match="ell = 1000"):
            progeny_pmf_bessel_oracle(ProgenyHalfLaw(0.6), 1000)
        assert progeny_pmf_bessel_oracle(ProgenyHalfLaw(0.6), 15) == pytest.approx(
            progeny_pmf(ProgenyHalfLaw(0.6), 15), rel=1e-13)


class TestGeneralProgenyLaw:
    def test_validation(self):
        with pytest.raises(DomainError):
            GeneralProgenyLaw(1.5, 0.3)
        with pytest.raises(DomainError):
            GeneralProgenyLaw(2.5, 0.0)
        with pytest.raises(DomainError):
            GeneralProgenyLaw(2.5, 1.0)

    def test_reference_value(self):
        # c = 2.5, x = 0.49, ell = 7, mpmath at 40 digits
        law = GeneralProgenyLaw(2.5, 0.49)
        assert general_progeny_pmf(law, 7) == pytest.approx(
            0.012759031367243320982, rel=1e-12)

    def test_range_matches_scalar(self):
        law = GeneralProgenyLaw(1.75, 0.49)
        rng = general_progeny_pmf_range(law, 1000)
        for ell in (1, 13, 30, 151, 152, 1000):
            assert rng[ell - 1] == pytest.approx(general_progeny_pmf(law, ell), rel=1e-12)

    def test_range_across_block_edges(self):
        law = GeneralProgenyLaw(3.7, 0.6)
        full = general_progeny_pmf_range(law, 300)
        for n in ladder_block_edges(3.7, 300):
            for m in (n - 1, n, n + 1):
                assert general_progeny_pmf_range(law, m) == full[:m]
        for ell in range(1, 301):
            assert full[ell - 1] == pytest.approx(general_progeny_pmf(law, ell), rel=1e-12, abs=0)

    @pytest.mark.parametrize("c,x", [(2.5, 0.99), (6.0, 0.99), (1.6, 0.999), (2.5, 0.999)])
    def test_point_past_its_series_reads_the_ladder(self, c, x):
        # G_150's one series leaves double range here; the point query
        # takes the ladder's value, as the range does.
        law = GeneralProgenyLaw(c, x)
        assert general_progeny_pmf(law, 151) == pytest.approx(
            general_progeny_pmf_range(law, 151)[-1], rel=1e-12, abs=0)

    @pytest.mark.parametrize("c,x", _MONOTONE_GRID)
    def test_range_is_non_increasing(self, c, x):
        # The range stop rests on it: the law is a mixture of geometric
        # laws. Subnormal doubles are rounded on a grid of 2^-1074, so it
        # is checked on normal ones.
        q = general_progeny_pmf_range(GeneralProgenyLaw(c, x), 50_000)
        assert all(b <= a for a, b in zip(q, q[1:]) if b >= sys.float_info.min)

    def test_range_stops_where_the_pmf_underflows(self, monkeypatch):
        # 17,395 of these 20,000 values are exact zeros: the range equals a
        # sweep to lmax bit for bit and reads fewer ladder values.
        law = GeneralProgenyLaw(200.3, 0.5)
        full = _unstopped_range(law, 20_000)[1].tolist()
        assert full.count(0.0) == 17_395
        read = []

        def counted(*args):
            for block in _ladder_upto(*args):
                read.append(len(block[0]))
                yield block

        monkeypatch.setattr(branching, "_ladder_upto", counted)
        assert general_progeny_pmf_range(law, 20_000) == full
        assert sum(read) < 20_000

    def test_mass_when_tail_is_negligible(self):
        # c = 5 decays like ell^(-4.5); past 4000 the remainder is ~1e-13.
        law = GeneralProgenyLaw(5.0, 0.3)
        assert sum(general_progeny_pmf_range(law, 4000)) == pytest.approx(1.0, rel=1e-10)

    def test_bad_ell(self):
        law = GeneralProgenyLaw(2.5, 0.49)
        with pytest.raises(DomainError):
            general_progeny_pmf(law, 0)
        for lmax in (0, 2.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                general_progeny_pmf_range(law, lmax)

    def test_range_matches_points_at_chunked_block_edges(self):
        law = GeneralProgenyLaw(2.5, 0.49)
        ells = _chunked_edge_ells(2.5)
        full = general_progeny_pmf_range(law, max(ells))
        # The point query goes through log q_ell, whose rounding grows with
        # its size, about ell |log(1 - sqrt x)|.
        for ell in ells:
            rel = 8 * 2.2e-16 * ell * abs(math.log1p(-math.sqrt(law.x)))
            assert full[ell - 1] == pytest.approx(general_progeny_pmf(law, ell), rel=rel, abs=0)


class TestTiltedIdentity:
    def test_general_law_is_tilted_half_law(self):
        # q_ell(2, Q) = z_minus^ell p_ell / H(z_minus): the c = 2 member of
        # the general family is the half law reweighted to its radius.
        for lam in (0.45, 0.6, 0.8):
            half = ProgenyHalfLaw(lam)
            gen = GeneralProgenyLaw(2.0, half.Q)
            h_at_radius = progeny_pgf_hypergeometric(half, half.z_minus)
            for ell in range(1, 31):
                tilted = half.z_minus ** ell * progeny_pmf(half, ell) / h_at_radius
                assert general_progeny_pmf(gen, ell) == pytest.approx(tilted, rel=1e-12)


class TestDualRoot:
    def test_exact_quadratic_case(self):
        # alpha = 1/2 gives t(t-1) = v; at v = 2 the root is exactly 2.
        assert _dual_root(2.0, math.log(2.0), 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_reference_value(self):
        # v = 3.7, alpha = 0.35, mpmath findroot at 40 digits
        assert _dual_root(3.7, math.log(3.7), 0.35) == pytest.approx(
            3.0350461252893574352, rel=1e-13)

    def test_residual_across_scales(self):
        for v in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            for alpha in (0.05, 0.5, 0.95):
                t = _dual_root(v, math.log(v), alpha)
                assert 1.0 < t <= 1.0 + v
                r = alpha / (1.0 - alpha)
                assert t ** r * (t - 1.0) == pytest.approx(v, rel=1e-12)


class TestHAlphaPgf:
    def test_endpoints(self):
        d = ScaledSibuya(0.3, 0.5)
        assert h_alpha_pgf(d, 0.0) == 0.0
        assert h_alpha_pgf(d, 1.0) == 1.0

    def test_reference_value(self):
        # alpha = 0.3, lam = 0.5, z = 0.9, mpmath at 40 digits
        d = ScaledSibuya(0.3, 0.5)
        assert h_alpha_pgf(d, 0.9) == pytest.approx(0.86648349093275049259, rel=1e-12)

    def test_half_alpha_reduces_to_elementary(self):
        for lam in (0.25, 0.5, 0.75):
            d = ScaledSibuya(0.5, lam)
            law = ProgenyHalfLaw(lam)
            for i in range(1, 21):
                z = i / 20.0
                assert h_alpha_pgf(d, z) == pytest.approx(
                    progeny_pgf_elementary(law, z), rel=1e-10)

    def test_monotone(self):
        d = ScaledSibuya(0.7, 0.6)
        vals = [h_alpha_pgf(d, z / 16.0) for z in range(17)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        d = ScaledSibuya(0.3, 0.5)
        with pytest.raises(DomainError):
            h_alpha_pgf(d, 1.2)
        with pytest.raises(DomainError):
            h_alpha_pgf(d, -0.1)
        with pytest.raises(DomainError):
            h_alpha_pgf(ScaledSibuya(0.5, 1.0), 0.5)
        with pytest.raises(DomainError):
            h_alpha_pgf(ScaledSibuya(1.0, 0.5), 0.5)

    def test_functional_equation(self):
        # y = Q H(z) must satisfy y = z pgf(y) for the original offspring law.
        for alpha, lam, z in ((0.25, 0.7, 0.3), (0.6, 0.4, 0.9), (0.5, 0.6, 0.5)):
            assert functional_equation_residual(ScaledSibuya(alpha, lam), z) < 1e-12

    def test_newton_step_that_rounds_to_itself(self):
        # Newton lands on the bracket's lower edge, where its next step
        # rounds to t itself; bisecting (1, 1 + v] from there, v = 3.1e97,
        # ran out of iterations.
        d = ScaledSibuya(0.99886, 0.763)
        assert functional_equation_residual(d, 0.9999972) < 1e-12
