"""Hypergeometric building blocks against high-precision references.

Frozen constants were produced with mpmath at 50 digits; each is tagged
with the expression that generated it.
"""

import decimal
import math
import random
import sys
from decimal import Decimal as Dec

import numpy as np
import pytest

from hypersum import special
from hypersum.errors import DomainError, NonConvergent
from hypersum.special import (
    _CHUNKED_FROM,
    _LADDER_MAX_BLOCK,
    _LOOP_COEFFS,
    DEFAULT_TOL,
    EvalResult,
    HypParams,
    Method,
    default_max_terms,
    gauss_point,
    hyp2f1_half_one,
    hyp2f1_ladder,
    hyp2f1_large_k,
    hyp2f1_series,
    _chunked_block,
    _frexp_lists,
    _ladder,
    _ladder_seeds,
    _ladder_upto,
    _looped_block,
    _series_sum,
)

from conftest import (dec_context, dec_ladder, ladder_block_edges, mp_hyp2f1, mp_ladder, ref_loop_ladder,
                      ref_series_sum)


class TestSeries:
    def test_reference_values(self):
        # hyp2f1 at 50 digits
        r = hyp2f1_series(HypParams(0.3, 1.7, 2.2, 0.41))
        assert r.value == pytest.approx(1.1250354463099930076, rel=1e-13)
        r = hyp2f1_series(HypParams(2.5, 0.5, 1.5, -0.8))
        assert r.value == pytest.approx(0.63493288249994028417, rel=1e-13)

    def test_binomial_reduction(self):
        # 2F1(a, b; b; x) = (1-x)^(-a) for any spectator b.
        for a, b, x in ((0.5, 2.0, 0.3), (1.7, 0.9, -0.6), (3.0, 1.0, 0.85)):
            r = hyp2f1_series(HypParams(a, b, b, x))
            assert r.value == pytest.approx((1 - x) ** -a, rel=1e-12)

    def test_x_zero(self):
        r = hyp2f1_series(HypParams(1.2, 3.4, 5.6, 0.0))
        assert r.value == 1.0

    def test_error_estimate_covers_truth(self):
        r = hyp2f1_series(HypParams(0.3, 1.7, 2.2, 0.41), tol=1e-10)
        assert abs(r.value - 1.1250354463099930076) <= 10 * r.abs_error_estimate + 1e-15

    def test_domain_and_cap(self):
        with pytest.raises(DomainError):
            hyp2f1_series(HypParams(0.5, 1.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            hyp2f1_series(HypParams(0.5, 1.0, 2.0, -1.2))
        with pytest.raises(NonConvergent):
            hyp2f1_series(HypParams(0.5, 1.0, 2.0, 0.9), max_terms=5)

    def test_overflow_raises(self):
        # The partial sums pass 1e308 long before the terms decay.
        with pytest.raises(OverflowError):
            hyp2f1_series(HypParams(300.0, 300.0, 1.0, 0.99))

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1_series(HypParams(0.5, 1.0, 2.0, math.nan))
        # nan in a, b or c would otherwise run the full term cap.
        with pytest.raises(DomainError):
            hyp2f1_series(HypParams(math.nan, 1.0, 2.0, 0.5))
        with pytest.raises(DomainError):
            hyp2f1_series(HypParams(0.5, math.nan, 2.0, 0.5))
        with pytest.raises(DomainError):
            hyp2f1_series(HypParams(0.5, 1.0, math.nan, 0.5))

    def test_c_pole_rejected(self):
        with pytest.raises(DomainError):
            HypParams(0.5, 1.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            HypParams(0.5, 1.0, -2.0, 0.3)


def _tol_stopping_at(n, a=0.5, b=1.0, c=2.5, x=0.97):
    """A tol at which the reference series (a, b; c; x) stops after exactly
    n term ratios, found by bisection on log10 tol."""
    lo, hi = -30.0, -3.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        used = ref_series_sum(a, b, c, x, 10.0 ** mid, 10 ** 6)[2] - 1
        if used == n:
            return 10.0 ** mid
        if used > n:
            lo = mid
        else:
            hi = mid
    raise AssertionError("no tol stops the series at %d terms" % n)


def _same_outcome(args):
    """_series_sum and the scalar reference give the same tuple bit for bit,
    or raise the same exception type."""
    try:
        want = ref_series_sum(*args)
    except OverflowError:
        with pytest.raises(OverflowError):
            _series_sum(*args)
        return None
    got = _series_sum(*args)
    assert got == want, args
    return got


class TestSeriesBlocks:
    """Long series against the scalar reference, bit for bit: the stop
    rule, the term cap, the rescale and overflow. The class and case names
    recall the numpy blocks of 256 columns and more that once took over a
    series past 1,024 terms; the cases keep their inputs."""

    @pytest.mark.parametrize("past", [-1, 0, 1, 2, 256 + 1])
    def test_stop_around_the_switch(self, past):
        n = 1024 + past
        args = (0.5, 1.0, 2.5, 0.97, _tol_stopping_at(n), 10 ** 6)
        got = _same_outcome(args)
        assert got[2] == n + 1 and got[3]

    @pytest.mark.parametrize("cap", [1024 - 1, 1024, 1024 + 1, 1024 + 100, 1024 + 256 + 700])
    def test_term_cap_inside_a_block(self, cap):
        got = _same_outcome((0.5, 1.0, 0.6, 0.99999, 1e-14, cap))
        assert got[2] == cap + 1 and not got[3]

    def test_rescale_after_the_switch(self):
        # The terms first pass 1e250 at n = 36,645 and peak near 1e262.
        got = _same_outcome((40.0, 40.0, 0.5, 0.999, 1e-14, 2_000_000))
        assert got[0] > 1e260 and got[2] > 100_000 and got[3]

    def test_overflow_and_cap_cases(self):
        # The partial sums pass 1e308: rescaled, then OverflowError.
        _same_outcome((300.0, 300.0, 1.0, 0.99, DEFAULT_TOL, 100_000))
        _same_outcome((50.0, 60.0, 0.5, 0.999, DEFAULT_TOL, 100_000))
        # Runs to its cap unconverged (hyp2f1_series raises NonConvergent).
        got = _same_outcome((0.5, 1.0, 0.6, 1.0 - 1e-6, DEFAULT_TOL, 2_000_000))
        assert not got[3]
        with pytest.raises(NonConvergent):
            hyp2f1_series(HypParams(0.5, 1.0, 0.6, 1.0 - 1e-6), max_terms=5_000)

    def test_seeded_calls(self):
        rng = random.Random(8)
        for i in range(120):
            tol = rng.choice([1e-10, 1e-14, 1e-17])
            cap = rng.choice([100_000, rng.randint(1, 5_000)])
            if i % 3 == 0:
                args = (rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(0.2, 8),
                        1.0 - 10 ** rng.uniform(-4, -1.5))
            elif i % 3 == 1:
                args = (rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(0.2, 8),
                        -1.0 + 10 ** rng.uniform(-4, -1.5))
            else:
                a = rng.uniform(50, 300)
                args = (a, a + 0.5, rng.uniform(0.5, 5), rng.uniform(0.9, 0.999))
            _same_outcome(args + (tol, cap))


class TestLadderSeeds:
    @pytest.mark.parametrize("c", [0.6, 2.5, 5.9, 50.0])
    @pytest.mark.parametrize("x", [-0.95, -0.3, 0.3, 0.9, 0.99])
    def test_one_pass_matches_mpmath(self, c, x):
        # c = 2.5 puts the step coefficients' pole at k = 2.
        import mpmath as mp

        rows = max(4, math.ceil(c + 1.5) + 1) + 2
        seeds = _ladder_seeds(c, x, rows)
        assert len(seeds) == rows
        with mp.workdps(40):
            for k, v in enumerate(seeds):
                ref = mp.hyp2f1(mp.mpf(k + 1) / 2, mp.mpf(k + 2) / 2, mp.mpf(c), mp.mpf(x))
                assert abs(v - ref) <= 2e-14 * abs(ref), (k, v, ref)

    @pytest.mark.parametrize("c", [0.6, 2.0, 5.9, 50.0])
    @pytest.mark.parametrize("x", [0.05, 0.3, 0.9, 0.99])
    def test_one_column_from_k0_matches_mpmath(self, c, x):
        # The point queries' series: G_k alone, as the column
        # _ladder_seeds(c, x, 1, k), within the point-vs-range tolerance.
        # G_150 at x = 0.99 is past double range for c <= 5.9 (3e346 at
        # c = 0.6), and the column raises there.
        import mpmath as mp

        for k in (0, 7, 40, 150):
            with mp.workdps(60):
                ref = mp.hyp2f1(mp.mpf(k + 1) / 2, mp.mpf(k + 2) / 2, mp.mpf(c), mp.mpf(x))
                if abs(ref) > sys.float_info.max:
                    with pytest.raises(OverflowError):
                        _ladder_seeds(c, x, 1, k)
                    continue
                v, = _ladder_seeds(c, x, 1, k)
                assert abs(v - ref) <= 1e-13 * abs(ref), (k, v, ref)

    def test_stall_and_overflow_are_typed(self):
        with pytest.raises(NonConvergent):
            _ladder_seeds(2.0, 1.0 - 1e-8, 6)
        with pytest.raises(OverflowError):
            _ladder_seeds(2000.0, 0.99, 2004)


class TestGaussPoint:
    def test_reference_value(self):
        # gamma(2.7) gamma(1.2) / (gamma(2.2) gamma(1.7)) at 50 digits
        v = gauss_point(0.5, 1.0, 2.7)
        assert isinstance(v, float)
        assert v == pytest.approx(1.4166666666666666667, rel=1e-13)

    def test_half_one_family_closed_form(self):
        # For the (1/2, 1) pair the unit value collapses to (2c-2)/(2c-3).
        for c in (1.8, 2.0, 3.3, 6.0):
            assert gauss_point(0.5, 1.0, c) == pytest.approx(
                (2 * c - 2) / (2 * c - 3), rel=1e-12)

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            gauss_point(0.5, 1.0, 1.5)
        with pytest.raises(DomainError):
            gauss_point(0.5, 1.0, 1.2)


class TestHalfOneDispatch:
    def test_unit_argument_routes_to_gauss(self):
        r = hyp2f1_half_one(2.0, 1.0)
        assert r.method is Method.GaussPoint
        assert r.value == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(DomainError):
            hyp2f1_half_one(1.2, 1.0)

    def test_small_c_closed_forms(self):
        # c = 1..4 elementary forms; c = 4 value from 50-digit evaluation.
        assert hyp2f1_half_one(4.0, 0.5).value == pytest.approx(
            1.0745166004060958438, rel=1e-14)
        for chi in (-4.0, -0.7, 0.0, 0.4, 0.93):
            s = math.sqrt(1.0 - chi)
            r = hyp2f1_half_one(1.0, chi)
            assert r.method is Method.ClosedForm
            assert r.value == pytest.approx(1.0 / s, rel=1e-14)
            assert hyp2f1_half_one(2.0, chi).value == pytest.approx(
                2.0 / (1.0 + s), rel=1e-14)

    def test_routes(self):
        # One quadratic-transformation series on both sides of chi = 0.
        assert hyp2f1_half_one(2.5, 0.5).method is Method.Series
        assert hyp2f1_half_one(2.5, -2.0).method is Method.Series
        assert hyp2f1_half_one(3.0, 0.5).method is Method.ClosedForm

    def test_series_matches_closed(self):
        for c, chi in ((2.0, 0.6), (3.0, -0.8), (4.0, 0.25)):
            closed = hyp2f1_half_one(c, chi).value
            series = hyp2f1_series(HypParams(0.5, 1.0, c, chi)).value
            assert closed == pytest.approx(series, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            hyp2f1_half_one(-1.0, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_half_one(2.0, 1.5)

    def test_nan_argument_rejected(self):
        # c = 2 has a closed form that would carry the nan through.
        with pytest.raises(DomainError):
            hyp2f1_half_one(2.0, math.nan)
        with pytest.raises(DomainError):
            hyp2f1_half_one(math.nan, 0.5)

    def test_estimate_has_a_rounding_floor(self):
        # Off by 2.2e-16 after 10 terms; the geometric tail alone was 2e-20.
        r = hyp2f1_half_one(0.957, 0.0125)
        ref = mp_hyp2f1(0.5, 1.0, 0.957, 0.0125, dps=40)
        assert abs(r.value - ref) <= r.abs_error_estimate

    def test_estimate_bounds_error_on_a_grid(self):
        rng = random.Random(2024)
        for _ in range(400):
            c = rng.uniform(0.3, 8.0)
            chi = rng.uniform(-50.0, 0.95)
            r = hyp2f1_half_one(c, chi)
            ref = mp_hyp2f1(0.5, 1.0, c, chi, dps=40)
            assert abs(r.value - ref) <= r.abs_error_estimate, (c, chi)


class TestQuadraticSeries:
    """hyp2f1_half_one's one series, 2/(1+s) 2F1(1, 2-c; c; w), judged by
    mpmath."""

    def test_estimate_bounds_error_over_the_whole_range(self):
        # c log-uniform on [0.3, 50], 1 - chi log-uniform on [1e-9, 1e6 + 1].
        # Next to chi = 1 - 1e-9 a c below 3/2 needs about 4e5 terms, so the
        # cap is raised past that.
        rng = random.Random(15319)
        for _ in range(300):
            c = 0.3 * (50.0 / 0.3) ** rng.random()
            chi = 1.0 - 10.0 ** rng.uniform(-9.0, math.log10(1e6 + 1.0))
            r = hyp2f1_half_one(c, chi, max_terms=10**6)
            assert r.method is Method.Series
            ref = mp_hyp2f1(0.5, 1.0, c, chi, dps=40)
            assert abs(r.value - ref) <= r.abs_error_estimate, (c, chi)
            # The rounding floor 4 eps sum|t| is loose where w nears -1 and
            # the terms alternate: up to 7e-6 relative at chi = -5e5.
            assert r.abs_error_estimate <= 1e-5 * abs(r.value), (c, chi)

    @pytest.mark.parametrize("c,chi,terms", [(0.6, 1.0 - 1e-6, 20_000), (1.3, -1e6, 20_000)])
    def test_points_past_the_old_dispatch(self, c, chi, terms):
        # The plain series raised at its 2,000,000-term cap at c = 0.6 and
        # the Euler transform at the 1e5-term cap at chi = -1e6.
        r = hyp2f1_half_one(c, chi)
        assert r.terms_used < terms
        ref = mp_hyp2f1(0.5, 1.0, c, chi, dps=40)
        assert abs(r.value - ref) <= r.abs_error_estimate
        assert abs(r.value - ref) <= 1e-11 * abs(ref)

    def test_integer_c_terminates(self):
        # 2F1(1, 2-c; c; w) is a polynomial of degree c - 2 for integer c.
        r = hyp2f1_half_one(7.0, -30.0)
        assert r.terms_used <= 8
        assert r.value == pytest.approx(float(mp_hyp2f1(0.5, 1.0, 7.0, -30.0, dps=40)), rel=1e-14)

    def test_drift_term_is_opt_in(self):
        # The plain series keeps its estimate; the drift only adds.
        args = (1.0, 2.0 - 0.4, 0.4, 0.99, 1e-14, 10**5)
        plain = _series_sum(*args)
        drift = _series_sum(*args, drift=True)
        assert plain[0] == drift[0] and plain[2:] == drift[2:]
        assert drift[1] > plain[1]


class TestLadder:
    def test_frozen_large_k_values(self):
        # 2F1((k+1)/2, (k+2)/2; c; x) at 50 digits:
        #   k=100, c=2, x=0.64   -> 3.9449425717997945275e+66
        #   k=500, c=3, x=-0.5   -> 9.3430439642209936275e-51
        #   k=1000, c=2.2, x=0.37 -> 1.0152102841872375107e+402 (log form only)
        logs, signs = hyp2f1_ladder(2.0, 0.64, 100)
        assert signs[100] == 1.0
        assert logs[100] == pytest.approx(153.34305053458718306, rel=1e-12)
        logs, signs = hyp2f1_ladder(3.0, -0.5, 500)
        assert signs[500] == 1.0
        assert logs[500] == pytest.approx(-115.19720763731796818, rel=1e-11)
        logs, signs = hyp2f1_ladder(2.2, 0.37, 1000)
        assert signs[1000] == 1.0
        assert logs[1000] == pytest.approx(925.65430315118117039, rel=1e-11)

    def test_matches_series_at_small_k(self):
        logs, signs = hyp2f1_ladder(2.5, 0.3, 20)
        for k in (0, 1, 5, 12, 20):
            direct = hyp2f1_series(
                HypParams((k + 1) / 2.0, (k + 2) / 2.0, 2.5, 0.3)).value
            assert signs[k] * math.exp(logs[k]) == pytest.approx(direct, rel=1e-12)

    def test_oscillation_signs_match_high_precision(self):
        import mpmath as mp

        ref = mp_ladder(2.0, -0.8, 60)
        logs, signs = hyp2f1_ladder(2.0, -0.8, 60)
        for k in range(61):
            assert signs[k] == (1.0 if ref[k] > 0 else -1.0)
            assert logs[k] == pytest.approx(float(mp.log(abs(ref[k]))), abs=1e-10)

    @pytest.mark.parametrize("c,x", [(2.5, 0.49), (1.2, 0.01)])
    def test_positive_x_accuracy_at_large_k(self, c, x):
        # The docstring's claim: for x > 0 the log error stays within 5e-11
        # out to k = 1e4 against the 60-digit recurrence.
        import mpmath as mp

        kmax = 10_000
        ref = mp_ladder(c, x, kmax)
        logs, signs = hyp2f1_ladder(c, x, kmax)
        err = 0.0
        for k in range(kmax + 1):
            assert signs[k] == (1.0 if ref[k] > 0 else -1.0)
            err = max(err, abs(logs[k] - float(mp.log(abs(ref[k])))))
        assert err <= 5e-11

    @pytest.mark.parametrize("c,x", [(2.5, 0.3), (1.2, -0.7)])
    def test_block_edges_match_reference(self, c, x):
        # Lengths that end on either side of the first ladder blocks give
        # the same values as one long call, and each matches the 60-digit
        # recurrence (1.1e-12 at worst here).
        import mpmath as mp

        logs, signs = hyp2f1_ladder(c, x, 240)
        for n in ladder_block_edges(c, 240):
            for kmax in (n - 2, n - 1, n):
                assert hyp2f1_ladder(c, x, kmax) == (logs[:kmax + 1], signs[:kmax + 1])
        ref = mp_ladder(c, x, 240)
        for k in range(241):
            assert signs[k] == (1.0 if ref[k] > 0 else -1.0)
            assert logs[k] == pytest.approx(float(mp.log(abs(ref[k]))), abs=1e-11)

    def test_validation(self):
        with pytest.raises(DomainError):
            hyp2f1_ladder(2.0, 1.0, 10)
        with pytest.raises(DomainError):
            hyp2f1_ladder(-1.0, 0.5, 10)
        with pytest.raises(DomainError):
            hyp2f1_ladder(2.0, 0.5, -1)

    @pytest.mark.parametrize("c,x,kmax", [
        (math.nan, 0.5, 10), (math.inf, 0.5, 10), (2.0, math.nan, 10), (2.0, -math.inf, 10),
        (2.0, 0.5, math.nan), (2.0, 0.5, math.inf), (2.0, 0.5, 2.5)])
    def test_non_finite_arguments_are_domain_errors(self, c, x, kmax):
        with pytest.raises(DomainError):
            hyp2f1_ladder(c, x, kmax)


def _values(c, x, n):
    """The float ladder's G_k for k < n as (frac, exp) arrays."""
    blocks = list(_ladder_upto(c, x, n))
    return np.concatenate([b[1] for b in blocks]), np.concatenate([b[2] for b in blocks])


def _error(c, x, frac, exp, ref):
    """Worst error of G_k = frac * 2**exp against the Decimal values ref:
    relative for x > 0; for x < 0, where G_k oscillates through zeros,
    relative to the envelope max |G_j| over |j - k| <= 8."""
    with decimal.localcontext(dec_context(60)):
        mags = [abs(r) for r in ref]
        pow2 = {}
        worst = Dec(0)
        for k, (f, e) in enumerate(zip(frac.tolist(), exp.tolist())):
            p = pow2.get(e)
            if p is None:
                p = pow2[e] = Dec(2) ** e
            scale = mags[k] if x > 0 else max(mags[max(k - 8, 0):k + 9])
            worst = max(worst, abs(Dec(f) * p - ref[k]) / scale)
        return float(worst)


class TestChunkedLadder:
    """Blocks of _CHUNKED_FROM steps or more go by chunk transfers."""

    # The step-by-step loop's error against the 60-digit recurrence over
    # k <= kmax, when it ran every block; the chunked ladder must stay
    # within 1.1 times of it.
    @pytest.mark.parametrize("c,x,kmax,loop_err", [
        (2.5, 0.49, 20_000, 6.637e-13), (1.2, 0.01, 20_000, 2.033e-12),
        (2.0, -0.8, 20_000, 1.257e-14), (2.0, 0.64, 20_000, 3.794e-13),
        (3.3, -0.3, 20_000, 3.588e-13), (0.667, 2.18e-5, 40_000, 1.488e-10),
        (0.47569, 0.979687, 20_000, 8.210e-13), (2.0, 0.9996, 20_000, 6.949e-13)])
    def test_accuracy_against_reference(self, c, x, kmax, loop_err):
        frac, exp = _values(c, x, kmax + 1)
        assert _error(c, x, frac, exp, dec_ladder(c, x, kmax)) <= 1.1 * loop_err

    @pytest.mark.parametrize("c,x", [(2.5, 0.3), (1.2, -0.5), (0.7, 0.05), (3.3, -0.1),
                                     (0.47569, 0.979687), (0.7, 0.999), (2.0, 0.9996)])
    @pytest.mark.parametrize("switch", [32, _CHUNKED_FROM])
    def test_chunked_blocks_match_loop_blocks(self, monkeypatch, c, x, switch):
        # Chunked from the first block, in blocks of 32 steps doubling (or
        # from the usual switch), against step-by-step blocks everywhere,
        # in both transfer forms: within n eps of each other after n steps,
        # relative to the envelope of |G| over 17 neighbours (|G| itself
        # for x >= 0).
        n = 6000
        loop = 0 if switch < _CHUNKED_FROM else special._LOOP_STEPS
        monkeypatch.setattr(special, "_LOOP_STEPS", loop)
        monkeypatch.setattr(special, "_CHUNKED_FROM", switch)
        frac, exp = _values(c, x, n)
        monkeypatch.setattr(special, "_LOOP_STEPS", 10**9)
        lfrac, lexp = _values(c, x, n)
        v = frac * np.exp2(exp - lexp)
        scale = np.abs(lfrac)
        if x < 0.0:
            for o in range(1, 9):
                scale[o:] = np.maximum(scale[o:], np.abs(lfrac[:-o]) * np.exp2(lexp[:-o] - lexp[o:]))
                scale[:-o] = np.maximum(scale[:-o], np.abs(lfrac[o:]) * np.exp2(lexp[o:] - lexp[:-o]))
        assert np.all(np.abs(v - lfrac) <= n * 2.2e-16 * scale)
        first = ladder_block_edges(c, n)[0] + loop
        assert (frac[:first] == lfrac[:first]).all() and (exp[:first] == lexp[:first]).all()

    @pytest.mark.parametrize("c", [0.6, 2.0, 7.3])
    def test_gap_form_holds_x_zero(self, c):
        # G_k(c; 0) = 1. Out to k = 32,300 the step-by-step loop drifts by
        # 5.8e-10, 5.2e-11 and 2.7e-10 at these c; the gap form keeps the
        # chunked blocks within 1e-10 (7.6e-11, 5.0e-13, 3.5e-13).
        frac, exp = _values(c, 0.0, 32_300)
        assert np.abs(frac * np.exp2(exp) - 1.0).max() <= 1e-10

    def test_transfers_out_of_range_return_none_and_leave_chains(self):
        # At x = 1 - 1e-12 one step grows a value by about 1e25: chunks of
        # 16 leave [1e-250, 1e250], so the block returns None and leaves
        # the chains as they were. Chunks of 8 stay in range and give the
        # values of stepping one at a time, within n eps after n steps.
        start = [[0.75, 0.5, 3, None], [0.625, 0.5, 3, None]]
        chains = [list(ch) for ch in start]
        assert _chunked_block(101, 16, _CHUNKED_FROM // 16, 2.0, 1.0 - 1e-12, chains) is None
        assert chains == start
        frac, exp = _chunked_block(101, 8, _CHUNKED_FROM // 8, 2.0, 1.0 - 1e-12, chains)
        steps = [list(ch) for ch in start]
        lfrac, lexp = _frexp_lists(_looped_block(101, _CHUNKED_FROM, 2.0, 1.0 - 1e-12, steps, 32))
        n = _CHUNKED_FROM
        assert np.all(np.abs(frac * np.exp2(exp - lexp) - lfrac) <= n * 2.2e-16 * np.abs(lfrac))

    @pytest.mark.parametrize("c,x", [(0.667, 2.18e-5), (2.5, 0.3), (1.2, -0.5), (0.47569, 0.979687)])
    def test_prefixes_around_switch_and_cap(self, c, x):
        edges = ladder_block_edges(c, 3 * _LADDER_MAX_BLOCK)
        switch = next(e for e, f in zip(edges, edges[1:]) if f - e >= _CHUNKED_FROM)
        cap = next(e for e, f in zip(edges, edges[1:]) if f - e == _LADDER_MAX_BLOCK)
        top = cap + _LADDER_MAX_BLOCK + 2
        logs, signs = hyp2f1_ladder(c, x, top)
        for n in (switch, cap, cap + _LADDER_MAX_BLOCK):
            for kmax in (n - 2, n - 1, n, n + 1):
                assert hyp2f1_ladder(c, x, kmax) == (logs[:kmax + 1], signs[:kmax + 1])


def _loop_phase_end(c):
    """Ladder index where the chunk transfers start."""
    edges = ladder_block_edges(c, 4 * _CHUNKED_FROM)
    return next(e for e, f in zip(edges, edges[1:]) if f - e >= _CHUNKED_FROM)


class TestLoopPhase:
    """The first steps, stepped one at a time from coefficient blocks of
    _LOOP_COEFFS steps and more, and handed out in lists."""

    # x < 0, x near 0 and x near 1, where the loop phase rescales.
    CASES = [(1.2, -0.7), (3.3, -0.1), (0.667, 2.18e-5), (2.0, 0.0), (2.5, 0.3), (0.7, 0.999)]

    @pytest.mark.parametrize("c,x", CASES)
    def test_values_match_scalar_steps(self, c, x):
        # Bit for bit the scalar reference, up to the chunked switch, as
        # arrays and as the direct sums' lists.
        n = _loop_phase_end(c)
        ref = ref_loop_ladder(c, x, n)
        frac, exp = _values(c, x, n)
        assert list(zip(frac.tolist(), exp.tolist())) == ref
        got = []
        for vals, (ep, eq) in _ladder(c, x, n, 32):
            got += [(f, fe + (eq if j % 2 else ep)) for j, (f, fe) in enumerate(map(math.frexp, vals))]
        assert got[:n] == ref
        if x == 0.999:
            # The loop phase rescales here: G_k passes 1e250 by k = 80.
            assert max(e for _, e in ref) > 4 * 831

    @pytest.mark.parametrize("c,x", [(2.5, 0.3), (1.2, -0.5), (0.7, 0.999)])
    def test_prefixes_around_lists_and_coefficient_blocks(self, c, x):
        edges = ladder_block_edges(c, _loop_phase_end(c))
        coeffs = {edges[0], edges[0] + _LOOP_COEFFS, edges[-1]}
        logs, signs = hyp2f1_ladder(c, x, edges[-1] + 2)
        for n in edges if x < 0.9 else sorted(coeffs):
            for kmax in (n - 2, n - 1, n, n + 1):
                assert hyp2f1_ladder(c, x, kmax) == (logs[:kmax + 1], signs[:kmax + 1])

    def test_lists_are_cut_at_rescales(self):
        # At x = 0.999 the chains rescale every few dozen steps, and each
        # rescale cuts a list short: the loop phase comes in more than its
        # 31 whole lists, each of even length at most 32.
        c, x = 0.7, 0.999
        lens = [len(v) for v, _ in _ladder(c, x, _loop_phase_end(c), 32)]
        assert all(n % 2 == 0 and 0 < n <= 32 for n in lens[1:])
        assert len(lens) > 1 + 992 // 32


class TestLargeK:
    def test_positive_x_converges_to_ladder(self):
        logs, signs = hyp2f1_ladder(2.0, 0.25, 400)
        exact = signs[400] * math.exp(logs[400])
        approx = hyp2f1_large_k(400, 2.0, 0.25).approx
        assert approx == pytest.approx(exact, rel=1e-4)

    def test_negative_x_fields(self):
        ae = hyp2f1_large_k(200, 3.0, -0.5)
        assert ae.w == pytest.approx(0.5)
        phi = math.atan(math.sqrt(0.5))
        assert ae.phi == pytest.approx(phi, rel=1e-15)
        assert ae.Phi_k == pytest.approx(
            (200 - 3.0 + 1.5) * phi - math.pi / 2 * (3.0 - 1.5), rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            hyp2f1_large_k(0, 2.0, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_large_k(100, 2.0, 0.0)
        with pytest.raises(DomainError):
            hyp2f1_large_k(100, 2.0, 1.0)

    @pytest.mark.parametrize("k,c,x", [
        (math.nan, 2.0, 0.5), (math.inf, 2.0, 0.5), (100, math.nan, 0.5), (100, math.inf, 0.5),
        (100, 2.0, math.nan), (100, 2.0, -math.inf)])
    def test_non_finite_arguments_are_domain_errors(self, k, c, x):
        with pytest.raises(DomainError):
            hyp2f1_large_k(k, c, x)


class TestEvalResult:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EvalResult(value=1.0, abs_error_estimate=math.inf,
                       terms_used=3, method=Method.Series)
        with pytest.raises(ValueError):
            EvalResult(value=1.0, abs_error_estimate=0.0,
                       terms_used=0, method=Method.Series)
        r = EvalResult(value=1.0, abs_error_estimate=0.0,
                       terms_used=0, method=Method.ClosedForm)
        assert not r.continuation


class TestTermCapEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HYPERSUM_MAX_TERMS", "123")
        assert default_max_terms() == 123
        with pytest.raises(NonConvergent):
            hyp2f1_series(HypParams(0.5, 1.0, 2.0, 0.9))

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("HYPERSUM_MAX_TERMS", raising=False)
        assert default_max_terms() == 100_000

    @pytest.mark.parametrize("raw", ["0", "-5", "abc", "2.5", "nan", "inf", ""])
    def test_bad_env_values_are_domain_errors(self, monkeypatch, raw):
        monkeypatch.setenv("HYPERSUM_MAX_TERMS", raw)
        with pytest.raises(DomainError):
            default_max_terms()
        with pytest.raises(DomainError):
            hyp2f1_series(HypParams(0.5, 1.0, 2.0, 0.5))
