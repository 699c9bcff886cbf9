"""Self-contained verification suites.

Each suite exercises one analytic claim by pitting independent evaluation
routes against each other (series vs closed form, recurrence vs asymptotic,
analytic pmf vs Monte Carlo) and returns a plain dict with a ``pass`` flag
and the measured figures. Nothing here trusts the route it is checking.
"""

import math
import time

from .branching import (
    GeneralProgenyLaw,
    ProgenyHalfLaw,
    ScaledSibuya,
    functional_equation_residual,
    general_progeny_pmf_range,
    h_alpha_pgf,
    progeny_pgf_elementary,
    progeny_pmf,
    progeny_pmf_bessel_oracle,
    progeny_pmf_range,
    progeny_pmf_series_coeffs,
)
from .simulate import SimConfig, chi_square_threshold, gof_compare, simulate_total_progeny
from .special import (
    HypParams,
    _large_k_profile,
    hyp2f1_half_one,
    hyp2f1_large_k,
    hyp2f1_ladder,
    hyp2f1_series,
)
from .sums import SumParams, convergence_check, normalization_identity, sum_closed, sum_direct, sum_special

__all__ = ["SUITES", "run_suite"]


def _lls_slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = sum((a - mx) ** 2 for a in xs)
    return num / den


def _series_reference(c, chi):
    """2F1(1/2, 1; c; chi) by plain series, mapped into (x/(x-1)) form for
    negative arguments. Never touches the closed-form branch."""
    if chi >= 0.0:
        return hyp2f1_series(HypParams(0.5, 1.0, c, chi)).value
    u = chi / (chi - 1.0)
    return (1.0 - chi) ** -0.5 * hyp2f1_series(HypParams(0.5, c - 1.0, c, u)).value


def _gauss_reference(c):
    """2F1(1/2, 1; c; 1) = Gamma(c) Gamma(c-3/2) / (Gamma(c-1/2) Gamma(c-1))
    by Gauss's theorem, as exp of lgamma values; c > 3/2. Never touches the
    elementary (2c-2)/(2c-3) that hyp2f1_half_one returns."""
    return math.exp(math.lgamma(c) + math.lgamma(c - 1.5)
                    - math.lgamma(c - 0.5) - math.lgamma(c - 1.0))


def theorem1_suite(n=200, seed=17, tol=1e-9):
    """Direct summation vs closed form over random admissible parameters.

    Half the draws take eta above the convergence bound by a fixed margin;
    the other half probe the eta < 1 pocket, where x is squeezed into
    (-0.9 eta, 0.95 eta^2] and the closed-form argument goes far negative.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    for i in range(n):
        c = float(rng.uniform(0.55, 5.95))
        if i % 2 == 0:
            # eta >= 1: whole x range admissible, margin to x = +-1 only.
            x = float(rng.uniform(-0.98, 0.95))
            eta = 1.0 + float(rng.uniform(0.0, 2.5))
        else:
            eta = float(rng.uniform(0.15, 0.95))
            x = float(rng.uniform(-0.9 * eta, 0.95 * eta * eta))
        p = SumParams(eta, c, x)
        a = sum_direct(p).value
        b = sum_closed(p).value
        rel = abs(a - b) / max(abs(b), 1e-300)
        if rel > worst:
            worst = rel
            worst_case = (eta, c, x)
    dt = time.perf_counter() - t0
    return {"suite": "theorem1", "n": n, "max_rel": worst, "tol": tol,
            "worst_case": worst_case, "seconds": round(dt, 3),
            "pass": worst <= tol and dt <= 60.0}


_BOUNDARY_NEG = math.sqrt(1.25) - 1.0

# (eta, c, x, convergent, on_boundary)
_THEOREM2_CASES = [
    (0.80, 1.0, 0.50, True, False),
    (0.60, 1.0, 0.50, False, False),
    (0.70, 1.0, 0.49, False, True),
    (0.70, 2.0, 0.49, True, True),
    (0.50, 1.0, -0.60, True, False),
    (0.20, 1.0, -0.60, False, False),
    (_BOUNDARY_NEG, 1.0, -0.25, False, True),
    (_BOUNDARY_NEG, 2.0, -0.25, True, True),
    (2.00, 2.0, 1.00, True, False),
    (2.00, 1.5, 1.00, False, False),
    (0.10, 0.8, 0.00, True, False),
    (1.00, 2.0, 1.00, True, True),
]


def theorem2_suite():
    """The twelve boundary classifications, plus the divergence witness:
    partial sums at (0.5, 1, 0.5) blow past 1e6 within 500 terms."""
    failures = []
    for eta, c, x, conv, on_b in _THEOREM2_CASES:
        v = convergence_check(SumParams(eta, c, x))
        if (v.convergent, v.on_boundary) != (conv, on_b):
            failures.append({"eta": eta, "c": c, "x": x,
                             "got": (v.convergent, v.on_boundary),
                             "want": (conv, on_b)})
    witness = sum_direct(SumParams(0.5, 1.0, 0.5), max_terms=500,
                         override_divergence=True).value
    ok = not failures and witness > 1e6
    return {"suite": "theorem2", "cases": len(_THEOREM2_CASES),
            "failures": failures, "witness_partial_sum": witness,
            "pass": ok}


def closed_forms_suite():
    """hyp2f1_half_one at c in {1, 2, 3, 4} and the elementary S forms
    against plain series, plus both boundary values: the unit-argument
    point against Gauss's theorem and the x = -eta limit."""
    import numpy as np

    worst_f = 0.0
    for c in (1.0, 2.0, 3.0, 4.0):
        for chi in np.linspace(-5.0, 0.95, 120):
            ref = _series_reference(c, float(chi))
            got = hyp2f1_half_one(c, float(chi)).value
            worst_f = max(worst_f, abs(got - ref) / abs(ref))
    worst_s = 0.0
    for c in (1.0, 2.0, 3.0):
        for eta in (0.3, 0.55, 0.8, 1.0, 1.7, 2.6):
            for x in np.linspace(-0.95, 0.90, 21):
                p = SumParams(eta, c, float(x))
                v = convergence_check(p)
                if not v.convergent or v.on_boundary:
                    continue
                bound = math.sqrt(x) if x > 0 else (math.sqrt(1.0 - x) - 1.0)
                if eta < bound + 0.03:
                    continue
                ref = sum_direct(p).value
                got = sum_special(p).value
                worst_s = max(worst_s, abs(got - ref) / abs(ref))
    worst_g = 0.0
    for c in np.linspace(1.6, 6.0, 23):
        got = hyp2f1_half_one(float(c), 1.0).value
        ref = _gauss_reference(float(c))
        worst_g = max(worst_g, abs(got - ref) / abs(ref))
    worst_l = 0.0
    for eta in (0.25, 0.6, 1.0):
        for c in (0.8, 1.3, 2.0, 3.7):
            p = SumParams(eta, c, -eta)
            ref = sum_direct(p).value
            got = sum_closed(p).value
            worst_l = max(worst_l, abs(got - ref) / abs(ref))
    ok = worst_f <= 1e-11 and worst_s <= 1e-11 and worst_g <= 1e-10 and worst_l <= 1e-10
    return {"suite": "closed-forms", "max_rel_hyp": worst_f, "max_rel_sum": worst_s,
            "max_rel_gauss": worst_g, "max_rel_limit": worst_l, "pass": ok}


def _hurwitz_zeta(s, q):
    """zeta(s, q) = sum_(n >= 0) (n + q)^(-s) for s > 1 and q >= 1000, by
    Euler-Maclaurin from n = 0: the integral q^(1-s)/(s-1), the end term
    q^(-s)/2 and the Bernoulli terms B_2j/(2j)! (s)_(2j-1) q^(1-s-2j) for
    j = 1, 2, 3. The first term left out is under 1e-16 of the sum for
    s <= 10 and q >= 1000. Measured within 3e-16 relative of 40-digit
    mpmath for s in [1.1, 10] and q from 1501 to 1e6.
    """
    v = q ** -s
    return (q * v / (s - 1.0) + v / 2.0
            + s * v / q * (1.0 / 12.0 - (s + 1.0) * (s + 2.0) / (720.0 * q * q)
                           * (1.0 - (s + 3.0) * (s + 4.0) / (42.0 * q * q))))


def _general_tail_estimate(law, q):
    """Sum of q_ell beyond the head q = [q_1, ..., q_n] (n >= 4000) from
    the power-law tail, as a Python float.

    q_ell approaches A ell^(1/2-c), log A being the law's prefactor plus
    the amplitude a of special._large_k_profile, a closed formula in (c, x)
    that the asymptotics suite checks against the ladder. Three 1/ell
    correction coefficients are fitted from the head's values at
    ell = 1500, 2500 and 4000, and the tail A sum_(ell > n) ell^(1/2-c)
    (1 + c1/ell + c2/ell^2 + c3/ell^3) is four Hurwitz zetas at q = n + 1,
    each from _hurwitz_zeta's Euler-Maclaurin sum. Good to ~1e-11 absolute
    at n = 1e4.
    """
    import numpy as np

    c, x = law.c, law.x
    logA = (math.log((c - 1.5) / (c - 1.0)) + 0.5 * math.log(x)
            + _large_k_profile(c, x)[0])
    pts = [1500, 2500, 4000]
    delta = []
    for ell in pts:
        d = q[ell - 1] * math.exp((c - 0.5) * math.log(ell) - logA) - 1.0
        delta.append(d)
    M = np.array([[1.0 / e, 1.0 / e ** 2, 1.0 / e ** 3] for e in pts])
    c1, c2, c3 = np.linalg.solve(M, np.array(delta))
    A = math.exp(logA)
    zq = len(q) + 1
    return float(A * (_hurwitz_zeta(c - 0.5, zq) + c1 * _hurwitz_zeta(c + 0.5, zq)
                      + c2 * _hurwitz_zeta(c + 1.5, zq) + c3 * _hurwitz_zeta(c + 2.5, zq)))


def corollary1_suite():
    """Normalization identities: half-law progeny mass, the S-based
    identity at five x values, triple-route pmf agreement, and the general
    family's mass and tail exponent."""
    import numpy as np

    # Half-law mass to 2000 with a geometric-ratio tail bound.
    worst_half = 0.0
    for Q in (0.1, 0.5, 0.9):
        law = ProgenyHalfLaw.from_extinction_prob(Q)
        p = progeny_pmf_range(law, 2000)
        rho = (1.0 + math.sqrt(Q)) / 2.0
        tail = p[-1] * rho / (1.0 - rho)
        worst_half = max(worst_half, abs(sum(p) + tail - 1.0))
    # Weighted-sum identity, direct route.
    worst_norm = 0.0
    for x in (-1.0, -0.5, 0.0, 0.5, 0.99):
        worst_norm = max(worst_norm, abs(normalization_identity(x) - 1.0))
    # Triple route at lambda = 0.6.
    law6 = ProgenyHalfLaw(0.6)
    coeffs = progeny_pmf_series_coeffs(law6, 15)
    worst_triple = 0.0
    for ell in range(1, 16):
        a = progeny_pmf(law6, ell)
        b = coeffs[ell - 1]
        c = progeny_pmf_bessel_oracle(law6, ell)
        m = abs(a)
        worst_triple = max(worst_triple, abs(a - b) / m, abs(a - c) / m, abs(b - c) / m)
    # General family: mass via zeta tail, slope via regression.
    worst_mass = 0.0
    worst_slope = 0.0
    head = 10_000
    ls = [int(round(v)) for v in np.geomspace(1000, 10_000, 25)]
    for c in (1.75, 2.5, 4.0):
        for x in (0.25, 0.49):
            law = GeneralProgenyLaw(c, x)
            q = general_progeny_pmf_range(law, head)
            mass = sum(q) + _general_tail_estimate(law, q)
            worst_mass = max(worst_mass, abs(mass - 1.0))
            slope = _lls_slope([math.log(l) for l in ls],
                               [math.log(q[l - 1]) for l in ls])
            worst_slope = max(worst_slope, abs(slope - (0.5 - c)))
    ok = (worst_half <= 1e-8 and worst_norm <= 1e-10
          and worst_triple <= 1e-7 and worst_mass <= 1e-8 and worst_slope <= 0.1)
    return {"suite": "corollary1", "max_half_mass_err": worst_half,
            "max_norm_err": worst_norm, "max_triple_rel": worst_triple,
            "max_general_mass_err": worst_mass, "max_slope_err": worst_slope,
            "pass": ok}


_ASYM_CASES = ([(c, x) for c in (1.5, 2.0, 3.0) for x in (0.25, 0.64)]
               + [(c, x) for c in (2.0, 3.0) for x in (-0.5, -1.0)])
_ASYM_KS = (50, 100, 200, 400)


def _asym_errors(c, x):
    """Per-k relative error of the large-index approximation vs recurrence.

    Positive x: pointwise. Negative x: the approximant oscillates through
    zeros where pointwise ratios are meaningless, so the error is RMS over
    a +-8 window around k, normalized by the RMS of the exact values.
    """
    kmax = max(_ASYM_KS) + 8
    logs, signs = hyp2f1_ladder(c, x, kmax)
    rels = []
    signs_ok = True
    for k in _ASYM_KS:
        if x > 0.0:
            exact = signs[k] * math.exp(logs[k])
            approx = hyp2f1_large_k(k, c, x).approx
            rels.append(abs(approx - exact) / abs(exact))
        else:
            num = 0.0
            den = 0.0
            for j in range(k - 8, k + 9):
                exact = signs[j] * math.exp(logs[j])
                ae = hyp2f1_large_k(j, c, x)
                num += (ae.approx - exact) ** 2
                den += exact ** 2
            rels.append(math.sqrt(num / den))
            ae = hyp2f1_large_k(k, c, x)
            if abs(math.sin(ae.Phi_k)) > 0.2:
                exact = signs[k] * math.exp(logs[k])
                if math.copysign(1.0, ae.approx) != math.copysign(1.0, exact):
                    signs_ok = False
    return rels, signs_ok


def asymptotics_suite():
    results = []
    ok = True
    for c, x in _ASYM_CASES:
        rels, signs_ok = _asym_errors(c, x)
        rel200 = rels[_ASYM_KS.index(200)]
        if max(rels) <= 1e-12:
            # Error at rounding level across all k (the c = 3/2 case is
            # exact up to an exponentially small remainder): slope of
            # noise is meaningless, accuracy is the pass.
            slope = 0.0
            case_ok = rel200 <= 0.05
        else:
            slope = _lls_slope([math.log(k) for k in _ASYM_KS],
                               [math.log(max(r, 1e-300)) for r in rels])
            case_ok = rel200 <= 0.05 and slope <= -0.8
        case_ok = case_ok and signs_ok
        ok = ok and case_ok
        results.append({"c": c, "x": x, "rel_at_200": rel200,
                        "slope": slope, "signs_ok": signs_ok, "pass": case_ok})
    return {"suite": "asymptotics", "cases": results, "pass": ok}


# The half-law route check's z grid: np.linspace(0.05, 1.0, 20) bit for
# bit, in plain Python, so that the suite runs without numpy.
_HALF_ROUTE_ZS = [0.05 + i * (0.95 / 19) for i in range(19)] + [1.0]


def functional_eq_suite():
    """Fixed-point identity of the progeny transform on a 5x5x5 grid, and
    agreement of the root-finding route with the elementary alpha = 1/2
    generating function."""
    alphas = (0.25, 0.375, 0.5, 0.625, 0.75)
    lams = (0.25, 0.375, 0.5, 0.625, 0.75)
    zs = (0.1, 0.325, 0.55, 0.775, 1.0)
    worst_res = 0.0
    for a in alphas:
        for lam in lams:
            d = ScaledSibuya(a, lam)
            for z in zs:
                worst_res = max(worst_res, functional_equation_residual(d, z))
    worst_half = 0.0
    for lam in (0.25, 0.5, 0.6, 0.75):
        d = ScaledSibuya(0.5, lam)
        law = ProgenyHalfLaw(lam)
        for z in _HALF_ROUTE_ZS:
            worst_half = max(worst_half, abs(h_alpha_pgf(d, z) - progeny_pgf_elementary(law, z)))
    ok = worst_res <= 1e-10 and worst_half <= 1e-10
    return {"suite": "functional-eq", "max_residual": worst_res,
            "max_half_route_diff": worst_half, "pass": ok}


def montecarlo_suite(replicates=1_000_000, seed=42, workers=1):
    """Large seeded run against the analytic pmf, plus the worker-count
    identity on a smaller range."""
    t0 = time.perf_counter()
    d = ScaledSibuya(0.5, 0.6)
    law = ProgenyHalfLaw(0.6)
    sim = simulate_total_progeny(d, SimConfig(seed=seed, replicates=replicates,
                                              progeny_cap=100_000, workers=workers))
    rep = gof_compare(sim, law, bins=20)
    thr = chi_square_threshold(rep.dof, 0.999)
    worst_z = max(abs(v) for k, v in rep.z_scores.items() if k <= 20)
    small = SimConfig(seed=seed, replicates=100_000, progeny_cap=100_000, workers=1)
    a = simulate_total_progeny(d, small)
    b = simulate_total_progeny(d, SimConfig(seed=seed, replicates=100_000,
                                            progeny_cap=100_000, workers=2))
    identical = a.counts == b.counts and a.censored == b.censored
    dt = time.perf_counter() - t0
    ok = rep.chi_square < thr and worst_z <= 4.0 and identical and dt <= 300.0
    return {"suite": "montecarlo", "replicates": replicates,
            "chi_square": rep.chi_square, "dof": rep.dof, "threshold_0999": thr,
            "max_abs_z": worst_z, "censored": sim.censored,
            "workers_identical": identical, "seconds": round(dt, 3), "pass": ok}


SUITES = {
    "theorem1": theorem1_suite,
    "theorem2": theorem2_suite,
    "closed-forms": closed_forms_suite,
    "corollary1": corollary1_suite,
    "asymptotics": asymptotics_suite,
    "functional-eq": functional_eq_suite,
    "montecarlo": montecarlo_suite,
}


def run_suite(name, **kwargs):
    """Run one suite by name. Its record carries its wall time in
    ``seconds``; theorem1 and montecarlo time themselves, because their
    pass rules use it."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (have: %s)" % (name, ", ".join(sorted(SUITES))))
    t0 = time.perf_counter()
    record = SUITES[name](**kwargs)
    record.setdefault("seconds", round(time.perf_counter() - t0, 3))
    return record
