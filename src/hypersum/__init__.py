"""Weighted sums of Gauss hypergeometric functions, their closed forms,
and the heavy-tailed branching-process distributions built on them.

numpy is imported inside the functions that compute with it, so importing
the package, and every route that runs in plain Python, does not load it.
Nothing imports scipy.
"""

from .branching import (
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
)
from .errors import (
    DomainError,
    HypersumError,
    InsufficientData,
    NonConvergent,
    NotConvergent,
    QuadratureFailure,
    RootFindFailure,
    SlowConvergence,
)
from .simulate import (
    DualOffspringSampler,
    GofReport,
    SimConfig,
    SimCounts,
    chi_square_threshold,
    gof_compare,
    simulate_total_progeny,
)
from .special import (
    AsymptoticEval,
    EvalResult,
    HypParams,
    Method,
    hyp2f1_half_one,
    hyp2f1_ladder,
    hyp2f1_large_k,
    hyp2f1_series,
)
from .sums import (
    ClosedFormArgument,
    ConvergenceVerdict,
    Reason,
    SumParams,
    convergence_check,
    evaluate,
    letac_sum,
    normalization_identity,
    sum_closed,
    sum_direct,
    sum_special,
)
from .verify import run_suite

__version__ = "0.1.0"
