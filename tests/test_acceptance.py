"""Acceptance gate: nine criteria, one verdict line each.

Each test prints (and registers for the terminal summary) a single
"CRITERION n: PASS/FAIL (details)" line with its measured numbers and the
pinned tolerances, then asserts. Criteria 4, 6, and 9 share one normalization
suite run; criterion 5 re-derives its reference values from a 60-digit
recurrence rather than the package's own float ladder, so the asymptotic
path is judged against an independent oracle.
"""

import math

import pytest

from hypersum.special import hyp2f1_large_k
from hypersum.verify import (
    asymptotics_suite,
    closed_forms_suite,
    corollary1_suite,
    functional_eq_suite,
    montecarlo_suite,
    theorem1_suite,
    theorem2_suite,
)

from conftest import ACCEPTANCE_LINES, mp_ladder

_ASYM_CASES = ([(c, x) for c in (1.5, 2.0, 3.0) for x in (0.25, 0.64)]
               + [(c, x) for c in (2.0, 3.0) for x in (-0.5, -1.0)])
_ASYM_KS = (50, 100, 200, 400)


def _record(num, ok, detail):
    line = "CRITERION %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


@pytest.fixture(scope="module")
def normalization_result():
    return corollary1_suite()


def test_criterion_1_two_route_identity():
    r = theorem1_suite(n=200, seed=17, tol=1e-9)
    line = _record(1, r["pass"],
                   "direct vs closed sum: max rel %.3g over %d draws, tol %g, %.1f s (limit 60 s)"
                   % (r["max_rel"], r["n"], r["tol"], r["seconds"]))
    assert r["pass"], line


def test_criterion_2_convergence_classification():
    r = theorem2_suite()
    line = _record(2, r["pass"],
                   "%d/%d boundary cases exact, divergence witness %.3g > 1e6 by k=500"
                   % (r["cases"] - len(r["failures"]), r["cases"],
                      r["witness_partial_sum"]))
    assert r["pass"], line


def test_criterion_3_closed_forms():
    r = closed_forms_suite()
    line = _record(3, r["pass"],
                   "closed vs series: hyp %.2g, sum %.2g (tol 1e-11); "
                   "unit-point %.2g, limit %.2g (tol 1e-10)"
                   % (r["max_rel_hyp"], r["max_rel_sum"],
                      r["max_rel_gauss"], r["max_rel_limit"]))
    assert r["pass"], line


def test_criterion_4_progeny_mass_and_normalization(normalization_result):
    r = normalization_result
    ok = r["max_half_mass_err"] <= 1e-8 and r["max_norm_err"] <= 1e-10
    line = _record(4, ok,
                   "half-law mass err %.2g (tol 1e-8), unit identity err %.2g (tol 1e-10)"
                   % (r["max_half_mass_err"], r["max_norm_err"]))
    assert ok, line


def test_criterion_5_large_index_asymptotics():
    # Reference values from the 60-digit recurrence; error metric matches
    # the verification suite (pointwise for x > 0, windowed RMS for x < 0,
    # sign pattern checked away from the phase zeros).
    worst_rel200 = 0.0
    worst_slope = -math.inf
    all_ok = True
    for c, x in _ASYM_CASES:
        ref = mp_ladder(c, x, max(_ASYM_KS) + 8)
        rels = []
        signs_ok = True
        for k in _ASYM_KS:
            if x > 0.0:
                exact = float(ref[k])
                approx = hyp2f1_large_k(k, c, x).approx
                rels.append(abs(approx - exact) / abs(exact))
            else:
                num = 0.0
                den = 0.0
                for j in range(k - 8, k + 9):
                    exact = float(ref[j])
                    num += (hyp2f1_large_k(j, c, x).approx - exact) ** 2
                    den += exact ** 2
                rels.append(math.sqrt(num / den))
                ae = hyp2f1_large_k(k, c, x)
                if abs(math.sin(ae.Phi_k)) > 0.2:
                    if math.copysign(1.0, ae.approx) != math.copysign(1.0, float(ref[k])):
                        signs_ok = False
        rel200 = rels[_ASYM_KS.index(200)]
        worst_rel200 = max(worst_rel200, rel200)
        if max(rels) <= 1e-12:
            case_ok = rel200 <= 0.05 and signs_ok
        else:
            slope = ((len(_ASYM_KS) * sum(math.log(k) * math.log(max(r, 1e-300))
                                          for k, r in zip(_ASYM_KS, rels))
                      - sum(math.log(k) for k in _ASYM_KS)
                      * sum(math.log(max(r, 1e-300)) for r in rels))
                     / (len(_ASYM_KS) * sum(math.log(k) ** 2 for k in _ASYM_KS)
                        - sum(math.log(k) for k in _ASYM_KS) ** 2))
            worst_slope = max(worst_slope, slope)
            case_ok = rel200 <= 0.05 and slope <= -0.8 and signs_ok
        all_ok = all_ok and case_ok
    line = _record(5, all_ok,
                   "vs 60-digit recurrence: worst rel@200 %.3g (tol 0.05), "
                   "worst error slope %.3f (<= -0.8), sign patterns ok"
                   % (worst_rel200, worst_slope))
    assert all_ok, line


def test_criterion_6_triple_route_progeny(normalization_result):
    r = normalization_result
    ok = r["max_triple_rel"] <= 1e-7
    line = _record(6, ok,
                   "recurrence vs series coefficients vs Bessel integral: "
                   "max pairwise rel %.2g (tol 1e-7, ell <= 15)" % r["max_triple_rel"])
    assert ok, line


def test_criterion_7_functional_equation():
    r = functional_eq_suite()
    line = _record(7, r["pass"],
                   "transform fixed-point residual %.2g (tol 1e-10), "
                   "root route vs surd route %.2g (tol 1e-10)"
                   % (r["max_residual"], r["max_half_route_diff"]))
    assert r["pass"], line


def test_criterion_8_monte_carlo():
    r = montecarlo_suite(replicates=1_000_000, seed=42, workers=1)
    line = _record(8, r["pass"],
                   "1e6 replicates: chi2 %.2f < %.2f (0.999 quantile, dof %d), "
                   "max |z| %.2f <= 4, workers identical: %s, %.2f s (limit 300 s)"
                   % (r["chi_square"], r["threshold_0999"], r["dof"],
                      r["max_abs_z"], r["workers_identical"], r["seconds"]))
    assert r["pass"], line


def test_criterion_9_general_family_mass_and_tail(normalization_result):
    r = normalization_result
    ok = r["max_general_mass_err"] <= 1e-8 and r["max_slope_err"] <= 0.1
    line = _record(9, ok,
                   "family mass err %.2g (tol 1e-8), tail exponent err %.2g (tol 0.1)"
                   % (r["max_general_mass_err"], r["max_slope_err"]))
    assert ok, line


def test_asymptotics_suite_consistent_with_oracle_run():
    # The packaged suite must agree with the oracle-backed criterion above.
    assert asymptotics_suite()["pass"]
