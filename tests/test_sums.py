"""The weighted sum S(eta, c; x): domain logic, both evaluation routes,
elementary forms, and the geometric-weight variant.

Frozen constants come from mpmath at 40 digits, computed once through the
closed form and once by term-wise summation; the two agreed to all printed
digits before freezing.
"""

import math
import random

import mpmath as mp
import pytest

from hypersum.errors import DomainError, NotConvergent, SlowConvergence
from hypersum import sums
from hypersum.special import (
    _CHUNKED_FROM,
    _LADDER_MAX_BLOCK,
    _LOOP_COEFFS,
    Method,
    _ladder,
    _ladder_upto,
    _large_k_profile,
    hyp2f1_half_one,
)
from hypersum.sums import (
    ClosedFormArgument,
    Reason,
    SumParams,
    convergence_check,
    evaluate,
    letac_sum,
    normalization_identity,
    sum_closed,
    sum_direct,
    sum_special,
    _error_floor,
    _expected_terms,
    _ladder_sum,
    _READ_LIST,
    _TAIL_FROM,
)

from conftest import ladder_block_edges, mp_hyp2f1, ref_ladder_sum


class TestSumParams:
    def test_rejects_bad_eta(self):
        with pytest.raises(DomainError):
            SumParams(0.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            SumParams(-1.0, 2.0, 0.5)

    def test_rejects_bad_c(self):
        with pytest.raises(DomainError):
            SumParams(1.0, 0.0, 0.5)

    def test_rejects_x_outside_closed_interval(self):
        with pytest.raises(DomainError):
            SumParams(1.0, 2.0, 1.0000001)
        with pytest.raises(DomainError):
            SumParams(1.0, 2.0, -1.1)
        SumParams(1.0, 2.0, 1.0)
        SumParams(1.0, 2.0, -1.0)


class TestConvergenceCheck:
    def test_x_zero_always_converges(self):
        for eta in (0.01, 1.0, 40.0):
            v = convergence_check(SumParams(eta, 0.3, 0.0))
            assert v.convergent and not v.on_boundary

    def test_positive_x_threshold(self):
        assert convergence_check(SumParams(0.6, 1.0, 0.25)).convergent
        v = convergence_check(SumParams(0.4, 3.0, 0.25))
        assert not v.convergent
        assert v.reason is Reason.DivergentPositiveX

    def test_positive_boundary_needs_large_c(self):
        # eta = sqrt(x) exactly: c must exceed 3/2, equality not enough.
        lo = convergence_check(SumParams(0.5, 1.5, 0.25))
        hi = convergence_check(SumParams(0.5, 1.6, 0.25))
        assert lo.on_boundary and hi.on_boundary
        assert not lo.convergent
        assert hi.convergent
        assert lo.reason is Reason.BoundaryNeedsLargeC

    def test_boundary_classification_tolerance(self):
        near = convergence_check(SumParams(0.7 * (1 + 1e-13), 2.0, 0.49))
        off = convergence_check(SumParams(0.7 * (1 + 1e-9), 2.0, 0.49))
        assert near.on_boundary
        assert not off.on_boundary
        assert off.convergent and off.reason is Reason.Interior

    @pytest.mark.parametrize("t", [(5e-13, 1.2, 1e-30), (5e-13, 2.5, 1e-30),
                                   (3e-13, 2.0, -1e-20)])
    def test_boundary_tolerance_is_relative_at_small_bounds(self, t):
        # eta is 500 times sqrt(x), and 6e7 times sqrt(1 - x) - 1 = 5e-21.
        # An absolute 1e-12 put both on the boundary (the x < 0 bound also
        # rounded to 0): the first "diverged", the others returned
        # 100,001 +- 1e5 against S = 2.0e12 and 1.99e10. The terms fall by
        # under 1e-12 a step, so the direct sum cannot settle.
        p = SumParams(*t)
        v = convergence_check(p)
        assert v.convergent and not v.on_boundary and v.reason is Reason.Interior
        with pytest.raises(SlowConvergence):
            sum_direct(p)

    def test_negative_x_threshold(self):
        bound = math.sqrt(1.9) - 1.0
        assert convergence_check(SumParams(0.4, 2.0, -0.9)).convergent
        v = convergence_check(SumParams(0.3, 2.0, -0.9))
        assert not v.convergent and v.reason is Reason.DivergentNegativeX
        assert convergence_check(SumParams(bound, 2.0, -0.9)).on_boundary

    def test_x_one(self):
        # Weight kills every k >= 1 term, so only c matters; eta = 1 is
        # flagged as the boundary but the verdict is the same.
        assert convergence_check(SumParams(2.0, 2.0, 1.0)).convergent
        assert convergence_check(SumParams(1.0, 2.0, 1.0)).on_boundary
        v = convergence_check(SumParams(2.0, 0.7, 1.0))
        assert not v.convergent and v.reason is Reason.DivergentAtOne


class TestClosedFormArgument:
    # X = (x+eta)/(1+eta) and xi = x/X^2 at eta = 1 and at eta = 3.
    def test_eta_one_has_no_finite_threshold(self):
        arg = ClosedFormArgument.from_params(SumParams(1.0, 2.0, 0.3))
        assert arg.X == pytest.approx(0.65, rel=1e-15)

    def test_threshold_value(self):
        arg = ClosedFormArgument.from_params(SumParams(3.0, 2.0, 0.3))
        assert arg.X == pytest.approx(0.825, rel=1e-15)
        assert arg.xi == pytest.approx(0.3 / 0.825**2, rel=1e-15)

    def test_sign_of_X_tracks_x_plus_eta(self):
        arg = ClosedFormArgument.from_params(SumParams(0.3, 2.0, -0.5))
        assert arg.X < 0.0
        assert arg.xi < 0.0
        arg = ClosedFormArgument.from_params(SumParams(0.3, 2.0, -0.3))
        assert arg.X == 0.0
        assert math.isinf(arg.xi)


class TestSumDirect:
    def test_reference_values(self):
        # S(2, 2.5; 0.5) and S(0.7, 1.3; -0.5) at 40 digits
        r = sum_direct(SumParams(2.0, 2.5, 0.5))
        assert r.value == pytest.approx(1.4680827863644511378, rel=1e-12)
        assert r.method is Method.Series
        r = sum_direct(SumParams(0.7, 1.3, -0.5))
        assert r.value == pytest.approx(1.7823765756168735959, rel=1e-12)

    def test_x_zero_is_geometric(self):
        for eta in (0.2, 1.0, 3.7):
            r = sum_direct(SumParams(eta, 2.2, 0.0))
            assert r.value == pytest.approx((1 + eta) / eta, rel=1e-13)

    def test_x_one_single_term(self):
        r = sum_direct(SumParams(2.0, 2.5, 1.0))
        # 2F1(1/2, 1; c; 1) = (2c-2)/(2c-3)
        assert r.value == pytest.approx(3.0 / 2.0, rel=1e-14)
        assert r.terms_used == 1
        assert r.method is Method.GaussPoint

    def test_x_one_small_c_rejected(self):
        with pytest.raises(NotConvergent):
            sum_direct(SumParams(2.0, 1.2, 1.0))
        # Override cannot help at x = 1: the k = 0 term itself is infinite.
        with pytest.raises(NotConvergent):
            sum_direct(SumParams(2.0, 1.2, 1.0), override_divergence=True)

    def test_divergent_raises(self):
        with pytest.raises(NotConvergent):
            sum_direct(SumParams(0.5, 1.0, 0.5))

    def test_override_shows_blowup(self):
        r = sum_direct(SumParams(0.5, 1.0, 0.5), max_terms=500,
                       override_divergence=True)
        assert math.isfinite(r.value)
        assert r.value > 1e6
        assert r.abs_error_estimate > 0.0

    def test_boundary_runs_to_cap_with_tail_bound(self):
        # eta = sqrt(x), c = 2: converges like k^(-3/2) to 20/7.
        r = sum_direct(SumParams(0.7, 2.0, 0.49), max_terms=20000)
        assert r.terms_used == 20001
        assert r.abs_error_estimate < 0.05
        assert abs(r.value - 20.0 / 7.0) <= 3 * r.abs_error_estimate

    def test_slow_convergence_raises(self):
        with pytest.raises(SlowConvergence):
            sum_direct(SumParams(0.43, 2.0, 0.16), max_terms=10)

    def test_tiny_eta_keeps_weight_out_of_the_ladder(self):
        # S(eta, c; 0) = (1+eta)/eta; at eta = 1e-3 the sum runs 32,256
        # terms. Rounding w^2 once into the recurrence and applying it k/2
        # times would cost 1.4e-9 here.
        r = sum_direct(SumParams(1e-3, 2.0, 0.0))
        assert abs(r.value - 1001.0) <= 1e-10

    def test_override_terms_past_double_range(self):
        # Terms of the divergent sum leave double range long before 3,000.
        r = sum_direct(SumParams(0.3, 2.0, 0.5), max_terms=3000, override_divergence=True)
        assert r.value == math.inf
        assert r.abs_error_estimate == math.inf

    def test_error_estimate_covers_truth(self):
        for eta, c, x in ((1.3, 1.7, 0.8), (1.3, 3.2, -0.6), (2.0, 1.7, 0.3),
                          (2.0, 3.2, 0.8), (1.0, 2.5, -0.95)):
            X = (x + eta) / (1 + eta)
            ref = float(mp_hyp2f1(0.5, 1.0, c, x / X ** 2) / X)
            r = sum_direct(SumParams(eta, c, x))
            assert abs(r.value - ref) <= 10 * r.abs_error_estimate + 1e-13


class TestDirectEstimates:
    """sum_direct's estimate: geometric tail, rounding floor 4 eps sum|t|
    and a drift term that grows with k, bounding the error."""

    @pytest.mark.parametrize("c", [0.6, 2.0, 7.3])
    def test_x_zero_with_tiny_eta(self, c):
        # S(1e-3, c; 0) = 1001 over 32,256 terms; every G_k(c; 0) is 1, so
        # the error is the ladder's drift (1.6e-10, 1.2e-11 and 1.8e-11).
        r = sum_direct(SumParams(1e-3, c, 0.0))
        assert abs(r.value - 1001.0) <= r.abs_error_estimate <= 1e-9 * 1001.0

    def test_slow_sum_near_x_zero_against_closed(self):
        # 46,373 terms; the two routes differ by 1.3e-9.
        p = SumParams(0.00533, 0.667, 2.18e-5)
        d = sum_direct(p)
        cl = sum_closed(p)
        assert abs(d.value - cl.value) <= d.abs_error_estimate + cl.abs_error_estimate

    def test_seeded_interior_and_pocket_grid(self):
        rng = random.Random(2026)
        for _ in range(200):
            eta = 1.0 + 2.5 * rng.random()
            interior = SumParams(eta, rng.uniform(0.55, 5.95), rng.uniform(-0.98, 0.95))
            eta = rng.uniform(0.15, 0.95)
            pocket = SumParams(eta, rng.uniform(0.55, 5.95), rng.uniform(-0.9 * eta, 0.95 * eta * eta))
            for p in (interior, pocket):
                d = sum_direct(p)
                cl = sum_closed(p)
                assert d.abs_error_estimate <= 1e-9 * abs(cl.value), p
                assert abs(d.value - cl.value) <= d.abs_error_estimate + cl.abs_error_estimate, p


# The x > 0 boundary triples whose direct sums reach the 1e5-term cap: a
# fixed skeleton of 11 (eta, c, x), each under three seeded jitters of 0.2%
# of its ranges, from eta 1e-4 to 3 times above sqrt(x).
CAPPED_BOUNDARY = [
    (0.10685634837600418, 1.0684684778570244, 0.011387503814388605),
    (0.5510039705011687, 1.2185610897027541, 0.3032615739360473),
    (0.7712864881256816, 1.397343998615012, 0.5945998996980878),
    (0.629180163889749, 0.3647471972837254, 0.3953062592996825),
    (0.8290450864618671, 0.4169260262120099, 0.6869123455511685),
    (0.9898192576827941, 0.4737212793705233, 0.9795030923980178),
    (0.5223443822322458, 2.080861557532131, 0.27271297848028153),
    (0.7524249745809308, 2.388142884955095, 0.5660288280582124),
    (0.2694881998018603, 0.5386327607368713, 0.07251938167707848),
    (0.6043731563136747, 0.6185207243946159, 0.36504875825284167),
    (0.8112481507079579, 0.7107794885375823, 0.6579571637397785),
    (0.10583908787972365, 1.0629635482343753, 0.011171526988727374),
    (0.5515504243400082, 1.2212354650523416, 0.30386353915558184),
    (0.7720006111695569, 1.3945550803259021, 0.5957021438178313),
    (0.6285901330611597, 0.36385737781768723, 0.3945719121630682),
    (0.8293849062287506, 0.41567063207244836, 0.6874747003696208),
    (0.9900499546819755, 0.4732631154572327, 0.979960040339441),
    (0.5224006818587091, 2.0795463404329175, 0.2727714519255058),
    (0.7522662754908261, 2.378585642264617, 0.5657903148343122),
    (0.2704363806731023, 0.5387022746613301, 0.07302911584008692),
    (0.6052370932465858, 0.6177527007455901, 0.3660931438607937),
    (0.8104626460629878, 0.7106980772962778, 0.6566846209317976),
    (0.1011648965404931, 1.0704415609697824, 0.010206547521055357),
    (0.5505409453353688, 1.218188187803498, 0.30275198249727786),
    (0.771853453742577, 1.4011489940234796, 0.5954777250705491),
    (0.6284053693704613, 0.36222215443176614, 0.3943373510780062),
    (0.8285781435871697, 0.41329101414094016, 0.6861364806746938),
    (0.9899117731057981, 0.47569122283998266, 0.9796867488262111),
    (0.5223221593919003, 2.0800468863325383, 0.27268810702404894),
    (0.7524656871125498, 2.3755687366188867, 0.566091386343579),
    (0.27174275923988667, 0.5423745228395376, 0.07373732179443108),
    (0.6043154552018707, 0.6189187930807529, 0.3649775032149999),
    (0.8113680904194714, 0.7097868137540819, 0.6581537892322257),
]


def _mp_sum(p):
    """S(eta, c; x) at 40 digits by the closed form, at the exact values of
    the floats."""
    with mp.workdps(40):
        eta, x = mp.mpf(p.eta), mp.mpf(p.x)
        X = (x + eta) / (1 + eta)
        return mp.hyp2f1(mp.mpf(1) / 2, 1, mp.mpf(p.c), x / X ** 2) / X


class TestCappedBoundary:
    """The x > 0 boundary triples of CAPPED_BOUNDARY: the closed route's
    series with s from (eta, x), and the direct route's fitted tail."""

    def test_closed_within_its_estimate(self):
        for t in CAPPED_BOUNDARY + [(0.98958, 0.47498, 0.97902)]:
            p = SumParams(*t)
            r = sum_closed(p)
            assert r.method is Method.Series
            assert abs(r.value - _mp_sum(p)) <= r.abs_error_estimate <= 1e-11 * r.value, t

    def test_direct_tail_within_its_estimate(self):
        for t in CAPPED_BOUNDARY:
            p = SumParams(*t)
            r = sum_direct(p)
            assert r.terms_used == 100_001
            assert abs(r.value - _mp_sum(p)) <= r.abs_error_estimate <= 1e-9 * r.value, t

    @pytest.mark.parametrize("cap", [_TAIL_FROM, 14_000, 20_000])
    def test_direct_tail_at_small_caps(self, cap):
        # Next to the tail's index floor. At CAPPED_BOUNDARY[0] and cap
        # 10,000 the tail is 9% of the sum; without the fitted d it is
        # off by 2.5e-6 of the sum, with it by 7.6e-10, which is still
        # 32 times the rounding and drift floor.
        for t in ((0.501, 2.0, 0.25), CAPPED_BOUNDARY[0], CAPPED_BOUNDARY[5]):
            p = SumParams(*t)
            r = sum_direct(p, max_terms=cap)
            assert r.terms_used == cap + 1
            assert abs(r.value - _mp_sum(p)) <= r.abs_error_estimate <= 1e-5 * r.value, (p, cap)

    def test_below_the_index_floor_raises(self):
        p = SumParams(*CAPPED_BOUNDARY[2])
        with pytest.raises(SlowConvergence):
            sum_direct(p, max_terms=_TAIL_FROM - 1)
        assert sum_direct(p, max_terms=_TAIL_FROM).terms_used == _TAIL_FROM + 1

    def test_negative_x_at_the_cap_raises(self):
        # G_k oscillates at x < 0; no profile tail there.
        with pytest.raises(SlowConvergence):
            sum_direct(SumParams(0.2804719385591032, 2.2396543930497654, -0.6395118514335272))


class TestSumClosed:
    def test_matches_direct_route(self):
        for eta, c, x in ((2.0, 2.5, 0.5), (0.7, 1.3, -0.5), (1.0, 4.1, 0.9),
                          (0.6, 2.0, 0.3)):
            a = sum_closed(SumParams(eta, c, x)).value
            b = sum_direct(SumParams(eta, c, x)).value
            assert a == pytest.approx(b, rel=5e-12)

    def test_tiny_eta_at_x_zero(self):
        # X = eta/(1+eta) squares to an underflow here; every G_k(c; 0) = 1,
        # so S = (1+eta)/eta.
        p = SumParams(1e-300, 2.0, 0.0)
        assert ClosedFormArgument.from_params(p).xi == 0.0
        for method in ("auto", "closed"):
            r = evaluate(p, method)
            assert r.value == pytest.approx(1e300, rel=1e-13)
            assert math.isfinite(r.abs_error_estimate)

    def test_overflow_at_tiny_eta(self):
        # S = (1+eta)/eta is past the largest double.
        p = SumParams(1e-310, 2.0, 0.0)
        with pytest.raises(OverflowError):
            sum_closed(p)
        with pytest.raises(OverflowError):
            evaluate(p)
        with pytest.raises(OverflowError):
            sum_special(p)
        # At x = -eta, S = Gamma(c)/Gamma(c - 1/2) sqrt(pi/eta) = 2e155 is
        # in range: the z-series answers as the elementary form does.
        p = SumParams(1e-310, 2.0, -1e-310)
        r = sum_closed(p)
        assert r.value == pytest.approx(2.0000000000000030551e155, rel=1e-14)
        assert r.value == pytest.approx(sum_special(p).value, rel=1e-14)

    def test_continuation_past_minus_eta(self):
        # x < -eta flips the sign of X; the elementary branch carries on.
        r = sum_closed(SumParams(0.4, 2.0, -0.8))
        assert r.continuation
        assert r.value == pytest.approx(3.0616681035935690577, rel=1e-13)
        d = sum_direct(SumParams(0.4, 2.0, -0.8))
        assert r.value == pytest.approx(d.value, rel=1e-11)

    def test_continuation_needs_elementary_c(self):
        with pytest.raises(DomainError):
            sum_closed(SumParams(0.4, 2.5, -0.8))

    def test_limit_at_minus_eta(self):
        # Gamma(c)/Gamma(c - 1/2) sqrt(pi/eta) at 30 digits: the z-series
        # at z = 1/2, c <= 1/2 included.
        for c, want in ((1.4, 1.8998759620325243124), (0.4, -0.47496899050813098283)):
            r = sum_closed(SumParams(0.6, c, -0.6))
            assert r.value == pytest.approx(want, rel=1e-13)
            assert abs(r.value - want) <= r.abs_error_estimate
            assert r.method is Method.Series and not r.continuation

    def test_z_series_on_nonpositive_x_within_estimate(self):
        # x <= 0 against 40-digit mpmath, c log-uniform in [0.3, 50]: at
        # x > -eta the closed form 2F1(1/2, 1; c; x/X^2)/X, at x = -eta
        # Gauss's second theorem Gamma(c)/Gamma(c - 1/2) sqrt(pi/eta), and
        # at x < -eta, c in {1, 2, 3}, the elementary continuation, also
        # where the sum diverges.
        rng = random.Random(2026)
        divergent = 0
        with mp.workdps(40):
            for i in range(600):
                x = -rng.uniform(1e-3, 1.0)
                c = math.exp(rng.uniform(math.log(0.3), math.log(50.0)))
                if i % 3 == 0:
                    eta = -x * (1.0 + 10.0 ** rng.uniform(-8.0, 3.0))
                elif i % 3 == 1:
                    eta = -x
                else:
                    c = rng.choice((1.0, 2.0, 3.0))
                    eta = -x * rng.uniform(0.01, 0.999)
                    divergent += not convergence_check(SumParams(eta, c, x)).convergent
                r = sum_closed(SumParams(eta, c, x))
                e, xm = mp.mpf(eta), mp.mpf(x)
                X = (xm + e) / (1 + e)
                if X > 0:
                    ref = mp.hyp2f1(0.5, 1, c, xm / X ** 2) / X
                elif X == 0:
                    ref = mp.sqrt(mp.pi / e) * mp.gamma(c) * mp.rgamma(mp.mpf(c) - 0.5)
                else:
                    R = mp.sqrt((1 - xm) * (e ** 2 - xm))
                    D = e + xm + R
                    ref = {1.0: (1 + e) / R, 2.0: 2 * (1 + e) / D,
                           3.0: mp.mpf(4) / 3 * (1 + e) / D * (D + R) / D}[c]
                assert r.continuation == (X < 0), (eta, c, x)
                assert r.terms_used <= 250 and r.method is Method.Series
                assert abs(r.value - ref) <= r.abs_error_estimate <= 1e-12 * abs(ref), (eta, c, x)
        assert divergent > 50

    @pytest.mark.parametrize("eta", [1e300, 1e308, 1.7e308])
    def test_huge_eta_on_nonpositive_x(self, eta):
        # S = 2F1(1/2, 1; c; x) + O(1/eta); eta + x + R passes the largest
        # double from eta = 7.4e307 on.
        for c in (0.7, 2.5, 9.0):
            for x in (-1.0, -0.3, 0.0):
                r = sum_closed(SumParams(eta, c, x))
                assert abs(r.value - mp.hyp2f1(0.5, 1, c, x)) <= r.abs_error_estimate, (c, x)

    def test_xi_above_one_rejected(self):
        with pytest.raises(DomainError):
            sum_closed(SumParams(0.5, 2.0, 0.3))

    @pytest.mark.parametrize("c", [2.0, 2.5, 3.0])
    def test_boundary_from_below_takes_gauss_point(self, c):
        # eta a hair below sqrt(x) is on the boundary by convergence_check,
        # and xi lands just above 1.
        p = SumParams(math.sqrt(0.5) * (1.0 - 1e-13), c, 0.5)
        X = ClosedFormArgument.from_params(p).X
        gauss = math.gamma(c) * math.gamma(c - 1.5) / (math.gamma(c - 0.5) * math.gamma(c - 1.0))
        for r in (sum_closed(p), evaluate(p)):
            assert r.method is Method.GaussPoint
            assert r.value == pytest.approx(gauss / X, rel=1e-12, abs=0)

    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_boundary_from_below_small_c_stays_typed(self, c):
        p = SumParams(math.sqrt(0.5) * (1.0 - 1e-13), c, 0.5)
        with pytest.raises(DomainError):
            sum_closed(p)
        with pytest.raises(NotConvergent):
            evaluate(p)

    def test_xi_one_needs_large_c(self):
        # x = eta^2 lands exactly on xi = 1.
        with pytest.raises(DomainError):
            sum_closed(SumParams(0.7, 1.2, 0.49))
        r = sum_closed(SumParams(0.7, 2.0, 0.49))
        assert r.value == pytest.approx(20.0 / 7.0, rel=1e-12)

    def test_unit_and_minus_eta_estimates_hold_at_large_c(self):
        # The Gauss point of hyp2f1_half_one and sum_direct at x = 1, and
        # sum_closed at x = -eta (its z-series at z = 1/2, about 11 sqrt(c)
        # terms), against 40-digit mpmath for c log-uniform up to 1e6. An
        # exp of lgamma differences of size c log c once put these values
        # 1e2-1e4 estimates off.
        rng = random.Random(3141)
        with mp.workdps(40):
            for _ in range(200):
                c = 1.5 + 10.0 ** rng.uniform(-3.0, 6.0)
                ref = mp.hyp2f1(0.5, 1, c, 1)
                for r in (hyp2f1_half_one(c, 1.0), sum_direct(SumParams(1.0, c, 1.0))):
                    assert r.method is Method.GaussPoint
                    assert abs(r.value - ref) <= r.abs_error_estimate, c
                c = 0.5 + 10.0 ** rng.uniform(-3.0, 6.0)
                eta = rng.uniform(1e-3, 1.0)
                r = sum_closed(SumParams(eta, c, -eta))
                ref = mp.gamma(c) / mp.gamma(mp.mpf(c) - 0.5) * mp.sqrt(mp.pi / eta)
                assert abs(r.value - ref) <= r.abs_error_estimate, (eta, c)


class TestSumSpecial:
    def test_elementary_values(self):
        assert sum_special(SumParams(1.0, 3.0, -1.0)).value == pytest.approx(
            8.0 / 3.0, rel=1e-14)
        # At x = 1 the conjugate root vanishes and the forms collapse.
        assert sum_special(SumParams(2.0, 2.0, 1.0)).value == pytest.approx(2.0, rel=1e-14)
        assert sum_special(SumParams(2.0, 3.0, 1.0)).value == pytest.approx(
            4.0 / 3.0, rel=1e-14)

    def test_agrees_with_series(self):
        for c in (1.0, 2.0, 3.0):
            for eta, x in ((1.5, 0.6), (0.8, -0.5), (1.0, -1.0)):
                a = sum_special(SumParams(eta, c, x)).value
                b = sum_direct(SumParams(eta, c, x)).value
                assert a == pytest.approx(b, rel=5e-12)

    def test_rejects_other_c(self):
        with pytest.raises(DomainError):
            sum_special(SumParams(1.0, 4.0, 0.5))

    def test_rejects_divergent(self):
        with pytest.raises(DomainError):
            sum_special(SumParams(0.4, 2.0, 0.25))

    def test_c_one_excluded_from_boundary(self):
        with pytest.raises(DomainError):
            sum_special(SumParams(0.5, 1.0, 0.25))
        assert sum_special(SumParams(0.5, 2.0, 0.25)).value == pytest.approx(
            2.0 * 1.5 / 0.75, rel=1e-14)

    def test_eta_just_inside_boundary_tolerance(self):
        # eta a hair below sqrt(x) is classified as on the boundary; the
        # special form treats it as there instead of taking sqrt(< 0). On
        # the boundary S(sqrt(x), 2; x) = 2/sqrt(x), S(sqrt(x), 3; x) = 4/(3 sqrt(x)).
        eta = math.sqrt(0.5) * (1.0 - 1e-13)
        assert convergence_check(SumParams(eta, 2.0, 0.5)).on_boundary
        assert sum_special(SumParams(eta, 2.0, 0.5)).value == pytest.approx(
            2.0 / math.sqrt(0.5), rel=1e-12)
        assert sum_special(SumParams(eta, 3.0, 0.5)).value == pytest.approx(
            4.0 / 3.0 / math.sqrt(0.5), rel=1e-12)

    @pytest.mark.parametrize("rel", [1e-10, 1e-7])
    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_next_to_positive_boundary_within_estimate(self, c, rel):
        # eta^2 - x cancels to rel of eta^2 here; against 50 digits.
        import mpmath as mp

        eta, x = 0.7 * (1.0 + rel), 0.49
        r = sum_special(SumParams(eta, c, x))
        with mp.workdps(50):
            X = (mp.mpf(x) + eta) / (1 + mp.mpf(eta))
            ref = mp.hyp2f1(0.5, 1, c, x / X ** 2) / X
        assert abs(r.value - ref) <= r.abs_error_estimate

    @pytest.mark.parametrize("eta", [1e150, 1e160, 1e300])
    def test_huge_eta_routes_agree(self, eta):
        # eta^2 is past the largest double from eta ~ 1.3e154 on; no route
        # may form it.
        for c in (1.0, 2.0, 3.0):
            for x in (-0.5, 0.5):
                p = SumParams(eta, c, x)
                ref = sum_closed(p).value
                assert sum_special(p).value == pytest.approx(ref, rel=1e-13, abs=0)
                assert evaluate(p).value == pytest.approx(ref, rel=1e-13, abs=0)


class TestEvaluate:
    def test_auto_prefers_closed(self):
        r = evaluate(SumParams(2.0, 2.5, 0.5))
        assert r.terms_used < 200
        assert r.value == pytest.approx(1.4680827863644511378, rel=1e-12)

    def test_auto_falls_back_on_continuation_gap(self):
        # Closed route has no c = 2.5 continuation below -eta; the series
        # still converges there and auto must find it.
        r = evaluate(SumParams(0.4, 2.5, -0.8))
        assert r.method is Method.Series
        assert r.value == pytest.approx(sum_direct(SumParams(0.4, 2.5, -0.8)).value)

    def test_auto_degenerate_argument_goes_direct(self):
        # xi = 1 with c <= 3/2 is divergent; the direct route says so
        # instead of the closed form's blunter domain complaint.
        with pytest.raises(NotConvergent):
            evaluate(SumParams(0.5, 1.2, 0.25))

    def test_explicit_methods(self):
        p = SumParams(1.0, 3.0, -1.0)
        assert evaluate(p, method="special").value == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert evaluate(p, method="direct").value == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert evaluate(p, method="closed").value == pytest.approx(8.0 / 3.0, rel=1e-13)
        with pytest.raises(ValueError):
            evaluate(p, method="newton")


class TestLetacSum:
    def test_reference_value_both_routes(self):
        # z = 0.3, c = 2.5, x = 0.25 at 40 digits
        ref = 0.48595990929348023965
        assert letac_sum(0.3, 2.5, 0.25).value == pytest.approx(ref, rel=1e-13)
        r = letac_sum(0.3, 2.5, 0.25, method="direct")
        assert r.value == pytest.approx(ref, rel=1e-12)
        assert r.method is Method.Series

    def test_domain(self):
        with pytest.raises(DomainError):
            letac_sum(0.0, 2.0, 0.1)
        with pytest.raises(DomainError):
            letac_sum(1.0, 2.0, 0.1)
        with pytest.raises(DomainError):
            letac_sum(0.3, 2.0, 0.49)  # needs x < (1-z)^2
        with pytest.raises(DomainError):
            letac_sum(0.3, -1.0, 0.1)
        for method in ("closed", "direct"):
            with pytest.raises(DomainError):
                letac_sum(0.3, math.inf, 0.2, method=method)
        with pytest.raises(ValueError):
            letac_sum(0.3, 2.0, 0.1, method="auto")

    def test_routes_agree_on_grid(self):
        for z in (0.1, 0.45, 0.8):
            for x_frac in (0.2, 0.9):
                x = x_frac * (1 - z) ** 2
                for c in (0.8, 2.0, 3.3):
                    a = letac_sum(z, c, x).value
                    b = letac_sum(z, c, x, method="direct").value
                    assert a == pytest.approx(b, rel=1e-10)


def _mp_letac(z, c, x):
    """(z/(1-z)) 2F1(1/2, 1; c; x/(1-z)^2) at 40 digits, at the floats'
    exact values."""
    with mp.workdps(40):
        zm = mp.mpf(z)
        return zm / (1 - zm) * mp_hyp2f1(0.5, 1, c, mp.mpf(x) / (1 - zm) ** 2, dps=40)


class TestLetacAccuracy:
    def test_slow_sum_gets_the_fitted_tail(self):
        # Term ratio 1 - 3e-5: the direct route reaches its cap of 10^5
        # and adds sum_direct's fitted tail instead of raising.
        z, c, x = (1.0 - math.sqrt(0.5)) * (1.0 - 3e-5), 1.7, 0.5
        d = letac_sum(z, c, x, method="direct", max_terms=10**5)
        cl = letac_sum(z, c, x)
        assert d.terms_used == 10**5 + 1
        assert abs(d.value - cl.value) <= d.abs_error_estimate + cl.abs_error_estimate
        assert abs(d.value - _mp_letac(z, c, x)) <= d.abs_error_estimate <= 1e-10 * d.value

    def test_estimate_bounds_error_on_a_seeded_grid(self):
        # z in [0.01, 0.95], c in [0.3, 8] and 1 - x/(1-z)^2 from 1e-3 to
        # 1, log-uniform, so that many points sit next to x = (1-z)^2.
        rng = random.Random(26)
        for _ in range(67):
            z, c = rng.uniform(0.01, 0.95), rng.uniform(0.3, 8.0)
            x = (1.0 - z) ** 2 * (1.0 - 10.0 ** rng.uniform(-3.0, 0.0))
            ref = _mp_letac(z, c, x)
            for method in ("closed", "direct"):
                r = letac_sum(z, c, x, method=method)
                assert abs(r.value - ref) <= r.abs_error_estimate, (z, c, x, method)


class TestNormalizationIdentity:
    def test_unity_across_x(self):
        for x in (-1.0, -0.4, 0.0, 0.37, 0.9, 1.0):
            assert normalization_identity(x) == pytest.approx(1.0, rel=5e-11)


def _terms(c, x, lw, n):
    """|t_k| = |G_k| exp(k lw) for k < n, as the term-by-term loop forms them."""
    out = []
    for _, frac, exp in _ladder_upto(c, x, n):
        out += [abs(f) * math.exp(k * lw + e * math.log(2.0))
                for k, f, e in zip(range(len(out), len(out) + len(frac)), frac.tolist(), exp.tolist())]
    return out


class TestLadderSum:
    """sums._ladder_sum, the block reader behind both direct routes, against
    conftest.ref_ladder_sum, the term-by-term loop over the same ladder."""

    C, X, ETA = 2.5, 0.3, 0.8
    LW = math.log1p(-X) - math.log1p(ETA)

    @staticmethod
    def _check(c, x, lw, tol, n):
        # Only np.exp's last bit differs, term by term: the running sums
        # stay within (terms read) eps sum|t| of the loop's, and
        # sum k|t| within (terms read) eps of itself.
        got = _ladder_sum(c, x, lw, tol, n)
        ref = ref_ladder_sum(c, x, lw, tol, n)
        assert got[3:5] == ref[3:5]
        bound = ref[3] * 2.2e-16 * ref[1]
        assert abs(got[0] - ref[0]) <= bound
        assert abs(got[1] - ref[1]) <= bound
        assert abs(got[5] - ref[5]) <= ref[3] * 2.2e-16 * ref[5]
        assert got[2] == pytest.approx(ref[2], rel=4.4e-16, abs=0)
        return got

    def _edges(self):
        """Ladder index where the reader's first numpy block starts (the
        first chunked block), and the start of the block after it."""
        edges = ladder_block_edges(self.C, 4 * _CHUNKED_FROM)
        first = next(e for e, f in zip(edges, edges[1:]) if f - e >= _CHUNKED_FROM)
        return first, edges[edges.index(first) + 1]

    def _list_edges(self):
        """Starts of the lists the reader reads term by term after the
        seeds; the loop phase's second coefficient block starts on one."""
        edges = ladder_block_edges(self.C, self._edges()[0])
        assert edges[0] + _LOOP_COEFFS in edges
        return edges[1:-1]

    def _tol_for_stop(self, k):
        """A tol that makes the (decreasing) terms stop at ladder index k:
        terms k-2, k-1, k are the first three under it."""
        t = _terms(self.C, self.X, self.LW, k + 1)
        assert all(a > b for a, b in zip(t[k - 4:], t[k - 3:]))
        return math.sqrt(t[k - 3] * t[k - 2])

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
    def test_stop_around_the_loop_block_switch(self, offset):
        k = self._edges()[0] + offset
        got = self._check(self.C, self.X, self.LW, self._tol_for_stop(k), 10**5)
        assert got[3:5] == (k + 1, True)

    def test_stop_around_every_list_edge(self):
        # Stops on the last value of a list, and on the first and second of
        # the next, which carry two and one small terms across the edge.
        for e in self._list_edges():
            for k in (e - 1, e, e + 1):
                got = self._check(self.C, self.X, self.LW, self._tol_for_stop(k), 10**5)
                assert got[3:5] == (k + 1, True)

    def test_term_cap_around_every_list_edge(self):
        for e in self._list_edges():
            for n in (e - 1, e, e + 1):
                assert self._check(self.C, self.X, self.LW, 0.0, n)[3:5] == (n, False)

    @pytest.mark.parametrize("eta,c,x,n", [(0.5, 1.0, 0.5, 501), (0.3, 2.0, 0.5, 900),
                                           (0.01, 60.0, -1.0, 1050)])
    def test_override_divergence_in_the_loop_phase(self, eta, c, x, n):
        # Divergent sums to a cap inside the loop phase. At x = 0.5 the
        # values pass 1e250 near k = 470 and later lists carry exponents;
        # at c = 60 the loop phase runs to k = 1,056, and the weight's log
        # passes 709 at k = 1,038.
        p = SumParams(eta, c, x)
        lw = math.log1p(-x) - math.log1p(eta)
        got = self._check(c, x, lw, 1e-14, n)
        assert got[3:5] == (n, False)
        r = sum_direct(p, max_terms=n - 1, override_divergence=True)
        assert (r.value, r.terms_used) == (got[0], n)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_small_count_carries_across_a_block_edge(self, offset):
        # One or two of the three small terms sit in the block before.
        k = self._edges()[1] + offset
        got = self._check(self.C, self.X, self.LW, self._tol_for_stop(k), 10**5)
        assert got[3:5] == (k + 1, True)

    def test_term_cap_inside_a_block(self):
        n = self._edges()[1] + 100
        assert self._check(self.C, self.X, self.LW, 0.0, n)[3:5] == (n, False)

    def test_direct_routes_at_a_cap_inside_a_block(self):
        # (0.43, 2, 0.16) stops by tol at 1,073 terms.
        n = self._edges()[0] + 50
        p = SumParams(0.43, 2.0, 0.16)
        assert not ref_ladder_sum(p.c, p.x, math.log1p(-p.x) - math.log1p(p.eta), 1e-14, n)[4]
        with pytest.raises(SlowConvergence):
            sum_direct(p, max_terms=n - 1)
        r = sum_direct(SumParams(0.7, 2.0, 0.49), max_terms=n - 1)
        assert r.terms_used == n

    def test_terms_past_double_range_in_a_block(self):
        # Divergent (0.3, 2, 0.5): log t_k passes 709 near k = 2,600.
        p = SumParams(0.3, 2.0, 0.5)
        lw = math.log1p(-p.x) - math.log1p(p.eta)
        got = _ladder_sum(p.c, p.x, lw, 1e-14, 3001)
        ref = ref_ladder_sum(p.c, p.x, lw, 1e-14, 3001)
        assert got[3:5] == ref[3:5] == (3001, False)
        assert got[0] == ref[0] == math.inf and got[1] == ref[1] == math.inf
        r = sum_direct(p, max_terms=3000, override_divergence=True)
        assert r.value == math.inf and r.terms_used == 3001

    # The variant sums by the count of terms z^k G_(k-1) up to the third
    # in a row under 1e-14.
    LETAC_TERMS = {(0.5, 2.5, 0.24): 953, (0.5, 2.5, 0.2499): 54_209, (0.3, 0.8, 0.48): 1227,
                   (0.6, 4.1, 0.155): 1120, (0.2, 1.7, 0.63): 721, (0.4, 0.6, 0.355): 2945}

    @pytest.mark.parametrize("z,c,x", LETAC_TERMS)
    def test_letac_direct_against_closed(self, z, c, x):
        # x near (1 - z)^2: the terms fall slowly and the sums run past
        # the loop phase's first coefficient block. The direct route reads
        # them as z times S's terms at eta' = (1-x-z)/z, whose weight is
        # z, under tol 1e-14/z.
        terms = self.LETAC_TERMS[z, c, x]
        d = letac_sum(z, c, x, method="direct")
        lw = math.log1p(-x) - math.log1p((1.0 - x - z) / z)
        ref = ref_ladder_sum(c, x, lw, 1e-14 / z, 10**5)
        assert ref[4] and d.terms_used == ref[3] == terms > 2 * _LOOP_COEFFS
        cl = letac_sum(z, c, x)
        assert abs(d.value - cl.value) <= d.abs_error_estimate + cl.abs_error_estimate
        self._check(c, x, lw, 1e-14 / z, 10**5)


def _long_direct(x, c, terms, tol=1e-14):
    """eta at which the large-k profile puts sum_direct's stop near
    ``terms``: |G_K| w^K = tol at K = terms, w = (1-x)/(1+eta)."""
    a, beta, b = _large_k_profile(c, x)
    d = (math.log(tol) - a - beta * math.log(terms)) / terms
    return (1.0 - x) * math.exp(b - d) - 1.0


def _long_letac(x, c, terms, tol=1e-14):
    """z at which the profile puts the variant sum's stop near ``terms``:
    |G_K| z^(K+1) = tol at K = terms."""
    a, beta, b = _large_k_profile(c, x)
    d = (math.log(tol) - a + b - beta * math.log(terms)) / (terms + 1)
    return math.exp(d - b)


def _long_grid(seed):
    """Seeded direct sums planned to run 300 to 20,000 terms: sum_direct at
    x of both signs and at x = 0, and letac_sum's direct route, which sums
    S at eta' = (1-x-z)/z under tol/z. Each item is (route args, c, x, lw,
    tol, log scale of the error floor)."""
    rng = random.Random(seed)
    out = []
    while len(out) < 24:
        x = 0.0 if len(out) == 0 else rng.uniform(-0.95, 0.95)
        c = rng.uniform(0.6, 4.0)
        terms = math.exp(rng.uniform(math.log(300), math.log(20_000)))
        eta = _long_direct(x, c, terms)
        if x < 0.0 and x + eta < 0.0:
            # X < 0: the closed route answers only for c in {1, 2, 3}.
            c = rng.choice((1.0, 2.0, 3.0))
            eta = _long_direct(x, c, terms)
        p = SumParams(eta, c, x)
        verdict = convergence_check(p)
        if not verdict.convergent or verdict.on_boundary:
            continue
        l1x, l1e = math.log1p(-x), math.log1p(eta)
        out.append((p, c, x, l1x - l1e, 1e-14, abs(l1x) + l1e))
    while len(out) < 36:
        x, c = rng.uniform(0.01, 0.8), rng.uniform(0.6, 5.0)
        z = _long_letac(x, c, math.exp(rng.uniform(math.log(300), math.log(20_000))))
        l1x, l1e = math.log1p(-x), math.log1p((1.0 - x - z) / z)
        out.append(((z, c, x), c, x, l1x - l1e, 1e-14 / z, abs(l1x) + l1e))
    return out


class TestPlannedLadder:
    """The direct sums' block plan: _expected_terms from the large-k
    profile, passed to special._ladder as ``expect``."""

    def test_planned_and_unplanned_reads_agree(self):
        long_ones = 0
        for args, c, x, lw, tol, log_scale in _long_grid(21):
            expect = _expected_terms(_large_k_profile(c, x), lw, tol)
            assert expect is not None and expect > _LOOP_COEFFS + 16, args
            got = _ladder_sum(c, x, lw, tol, 10**5 + 1, expect)
            ref = _ladder_sum(c, x, lw, tol, 10**5 + 1)
            assert got[3:5] == ref[3:5] and ref[4], args
            assert abs(got[0] - ref[0]) <= _error_floor(ref[1], ref[5], log_scale), args
            if type(args) is tuple:
                d, cl = letac_sum(*args, method="direct"), letac_sum(*args)
            else:
                d, cl = sum_direct(args), sum_closed(args)
            assert d.terms_used == got[3], args
            assert abs(d.value - cl.value) <= d.abs_error_estimate + cl.abs_error_estimate, args
            long_ones += 300 <= got[3] <= 20_000
        assert long_ones >= 30

    def test_prediction_on_interior_and_pocket_sums(self):
        # The sum-grid's interior and pocket draws; a sum of 300 terms or
        # more without a prediction counts as a miss.
        rng = random.Random(7)
        ratios = []
        for i in range(2000):
            u = [rng.random() for _ in range(3)]
            c = 0.55 + 5.4 * u[1]
            if i % 2:
                p = SumParams(1.0 + 2.5 * u[0], c, -0.98 + 1.93 * u[2])
            else:
                eta = 0.15 + 0.8 * u[0]
                p = SumParams(eta, c, -0.9 * eta + (0.95 * eta * eta + 0.9 * eta) * u[2])
            used = sum_direct(p).terms_used
            if used >= 300:
                lw = math.log1p(-p.x) - math.log1p(p.eta)
                expect = _expected_terms(_large_k_profile(p.c, p.x), lw, 1e-14)
                ratios.append(expect / used if expect is not None else math.inf)
        assert len(ratios) >= 80
        assert sum(0.9 <= r <= 1.3 for r in ratios) >= 0.95 * len(ratios)

    def test_both_direct_routes_pass_the_plan(self, monkeypatch):
        seen = []

        def spy(c, x, n, width=None, expect=None):
            seen.append(expect)
            return _ladder(c, x, n, width, expect)

        monkeypatch.setattr(sums, "_ladder", spy)
        grid = _long_grid(3)
        (p, *_), (z_args, *_) = grid[1], grid[-1]
        sum_direct(p)
        letac_sum(*z_args, method="direct")
        assert len(seen) == 2 and all(e is not None and e > _LOOP_COEFFS for e in seen)

    def test_planned_blocks(self):
        # Seeds, then one chunked block that reaches expect; past it the
        # blocks go on from _CHUNKED_FROM, doubling.
        c, x = 2.5, 0.3
        k0 = max(4, math.ceil(c + 1.5) + 1) + 2
        for expect in (k0 + _LOOP_COEFFS + 1, 3000, 40_000):
            blocks = _ladder(c, x, 10**6, _READ_LIST, expect)
            seeds, _ = next(blocks)
            assert type(seeds) is list and len(seeds) == k0
            k = k0
            while k < expect:
                frac, _ = next(blocks)
                assert type(frac) is not list
                assert expect - k <= _LADDER_MAX_BLOCK or len(frac) >= _LADDER_MAX_BLOCK
                k += len(frac)
            assert k - expect < _LADDER_MAX_BLOCK
            assert len(next(blocks)[0]) >= _CHUNKED_FROM
        # Too close to the seeds: the loop phase's lists, as without a plan.
        blocks = _ladder(c, x, 10**6, _READ_LIST, k0 + _LOOP_COEFFS)
        next(blocks)
        assert type(next(blocks)[0]) is list


class TestTermRatio:
    """The direct sums' large-k term ratio e^(b + log w), b being the rate
    of special._large_k_profile, against its closed forms at 40 digits."""

    @pytest.mark.parametrize("eta,x", [
        (2.0, 0.5), (0.7, 0.3), (3.0, 1e-12), (1.000001, 1 - 1e-6), (1.001, 1 - 1e-9),
        (1.001, 1 - 1e-12), (1.5, -0.5), (0.5, -0.99), (0.45, -1.0), (0.3, 0.0), (1e-3, 0.0)])
    def test_direct_sum(self, eta, x):
        b = _large_k_profile(2.5, x)[2]
        got = math.exp(b + math.log1p(-x) - math.log1p(eta))
        with mp.workdps(40):
            xm, em = mp.mpf(x), mp.mpf(eta)
            if x > 0.0:
                want = (1 + mp.sqrt(xm)) / (1 + em)
            elif x < 0.0:
                want = mp.sqrt(1 - xm) / (1 + em)
            else:
                want = 1 / (1 + em)
        assert got == pytest.approx(float(want), rel=1e-14, abs=0)

    @pytest.mark.parametrize("z,x", [(0.3, 0.25), (0.5, 0.2499), (1e-3, 0.998), (0.9, 1e-3),
                                     (0.2, 0.63)])
    def test_variant_sum(self, z, x):
        got = math.exp(_large_k_profile(2.5, x)[2] + math.log(z))
        with mp.workdps(40):
            want = mp.mpf(z) / (1 - mp.sqrt(mp.mpf(x)))
        assert got == pytest.approx(float(want), rel=1e-14, abs=0)
