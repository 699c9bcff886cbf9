"""Non-finite, underflowing and oversized inputs get a typed answer: a
DomainError or NonConvergent, or a value that checks out, never nan, 0.0
from a wrong branch or a bare arithmetic exception."""

import math
import re

import pytest

from hypersum.branching import (
    GeneralProgenyLaw,
    ProgenyHalfLaw,
    ScaledSibuya,
    functional_equation_residual,
    general_progeny_pmf_range,
    h_alpha_pgf,
    progeny_pgf_hypergeometric,
    sibuya_pmf,
)
from hypersum.errors import DomainError, NonConvergent
from hypersum.special import (
    _LADDER_MAX_COLUMNS,
    HypParams,
    hyp2f1_half_one,
    hyp2f1_ladder,
    hyp2f1_large_k,
    hyp2f1_series,
)
from hypersum.sums import SumParams, letac_sum, sum_direct

inf = math.inf


def _pgf_checks(alpha, lam, z):
    """h_alpha_pgf where (lam z)^(1/(1-alpha)) underflows: a value in
    [0, 1] whose functional-equation residual is at most 1e-10."""
    d = ScaledSibuya(alpha, lam)
    v = h_alpha_pgf(d, z)
    assert 0.0 <= v <= 1.0
    assert functional_equation_residual(d, z) <= 1e-10


CASES = {
    # evaluate and sum_closed returned 0.0 here, sum_direct nan.
    "SumParams(inf, 2, 0.5)": (lambda: SumParams(inf, 2.0, 0.5), DomainError),
    "SumParams(1, inf, 0.5)": (lambda: SumParams(1.0, inf, 0.5), DomainError),
    "GeneralProgenyLaw(inf, 0.5)": (lambda: GeneralProgenyLaw(inf, 0.5), DomainError),
    "progeny_pgf_hypergeometric(-inf)": (
        lambda: progeny_pgf_hypergeometric(ProgenyHalfLaw(0.6), -inf), DomainError),
    "sibuya_pmf(inf)": (lambda: sibuya_pmf(ScaledSibuya(0.5, 0.3), inf), DomainError),
    "hyp2f1_half_one(2.5, -inf)": (lambda: hyp2f1_half_one(2.5, -inf), DomainError),
    "h_alpha_pgf(0.5, 0.3; 1e-200)": (lambda: _pgf_checks(0.5, 0.3, 1e-200), None),
    "h_alpha_pgf(0.9, 0.2; 1e-40)": (lambda: _pgf_checks(0.9, 0.2, 1e-40), None),
    "h_alpha_pgf(0.999, 0.9; 0.5)": (lambda: _pgf_checks(0.999, 0.9, 0.5), None),
    # A bad term cap raised TypeError or reported "the -1-term cap".
    "sum_direct(max_terms=-3)": (
        lambda: sum_direct(SumParams(2.0, 2.5, 0.5), max_terms=-3), DomainError),
    "sum_direct(max_terms=2.5)": (
        lambda: sum_direct(SumParams(2.0, 2.5, 0.5), max_terms=2.5), DomainError),
    "sum_direct(max_terms=nan)": (
        lambda: sum_direct(SumParams(2.0, 2.5, 0.5), max_terms=math.nan), DomainError),
    "letac_sum(direct, max_terms=-3)": (
        lambda: letac_sum(0.3, 2.5, 0.25, method="direct", max_terms=-3), DomainError),
    "letac_sum(direct, max_terms=2.5)": (
        lambda: letac_sum(0.3, 2.5, 0.25, method="direct", max_terms=2.5), DomainError),
    "hyp2f1_half_one(2.5, 0.5, max_terms=-1)": (
        lambda: hyp2f1_half_one(2.5, 0.5, max_terms=-1), DomainError),
    # The branches that sum no series returned values for these.
    "hyp2f1_half_one(1.0, 0.5, max_terms=-1)": (
        lambda: hyp2f1_half_one(1.0, 0.5, max_terms=-1), DomainError),
    "hyp2f1_half_one(2.0, 1.0, max_terms=-1)": (
        lambda: hyp2f1_half_one(2.0, 1.0, max_terms=-1), DomainError),
    "letac_sum(closed, max_terms=-3)": (
        lambda: letac_sum(0.3, 2.5, 0.25, max_terms=-3), DomainError),
    "hyp2f1_series(max_terms=nan)": (
        lambda: hyp2f1_series(HypParams(0.5, 1.0, 2.5, 0.5), max_terms=math.nan), DomainError),
}


@pytest.mark.parametrize("call,error", CASES.values(), ids=CASES.keys())
def test_non_finite_or_underflowing_input(call, error):
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()


# Every ladder reader at a c whose seeds would take about c columns.
HUGE_C = {
    "sum_direct": lambda c: sum_direct(SumParams(2.0, c, 0.5)),
    "letac_sum(direct)": lambda c: letac_sum(0.3, c, 0.25, method="direct"),
    "hyp2f1_ladder": lambda c: hyp2f1_ladder(c, 0.5, 3),
    "general_progeny_pmf_range": lambda c: general_progeny_pmf_range(GeneralProgenyLaw(c, 0.5), 3),
}


@pytest.mark.parametrize("c", [1e10, 1e300, 1.7e308])
@pytest.mark.parametrize("read", HUGE_C.values(), ids=HUGE_C.keys())
def test_ladder_refuses_c_past_its_column_bound(read, c):
    # At c = 1e10 the seeds alone would take 74.5 GiB, and past about
    # 1e18 numpy cannot size them: the bound is checked before they are.
    with pytest.raises(NonConvergent, match=re.escape("c = %g needs" % c)) as info:
        read(c)
    assert "bound of %d" % _LADDER_MAX_COLUMNS in str(info.value)


def test_large_k_approximant_names_a_c_past_log_gamma_range():
    # log Gamma(c) overflows past c = 2.5e305.
    with pytest.raises(OverflowError, match=re.escape("c = 1.7e+308")):
        hyp2f1_large_k(10, 1.7e308, 0.5)
