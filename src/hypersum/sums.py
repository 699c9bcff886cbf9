"""The weighted hypergeometric sum S(eta, c; x), its convergence domain,
closed forms, special cases, and the geometric-weight variant sum.

S(eta, c; x) = sum_{k>=0} ((1-x)/(1+eta))^k * 2F1(k/2+1/2, k/2+1; c; x).

Direct summation (the variant sum's too: it is z S(eta', c; x)) reads the
inner functions from special._ladder, the one streaming stride-2
recurrence ladder, which gives each G_k as a float times an integer power
of two; a term is that float times exp(k log w + e ln 2) for weight w. One
block reader, _ladder_sum, forms the terms, the stop rule and the running
sums. It first predicts where the terms fall under tol from the large-k
profile of G_k (_expected_terms). A sum expected to end within a few
hundred steps of the seeds is read term by term over the ladder's loop
phase (up to its first 992 steps), which hands out plain floats in lists
of 32 and steps only as far as they are read, and in numpy over the
chunked blocks after it. A longer one skips the loop phase: the ladder
steps one chunked block sized to reach the predicted end, read in numpy.
The closed form 2F1(1/2, 1; c; xi)/X, xi = x/X^2, X = (x+eta)/(1+eta), is
one series of the closed family per regime: 2F1(1, 2c-2; c; z) at x <= 0,
hyp2f1_half_one at x > 0. The two paths share no evaluation code, so they
check each other.
"""

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergent, NotConvergent, SlowConvergence
from .special import (
    _LN2,
    _ROUNDING,
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    EvalResult,
    Method,
    _ladder,
    _large_k_profile,
    _seed_depth,
    _series_sum,
    _term_cap,
    hyp2f1_half_one,
)

__all__ = [
    "SumParams",
    "ClosedFormArgument",
    "Reason",
    "ConvergenceVerdict",
    "convergence_check",
    "sum_direct",
    "sum_closed",
    "sum_special",
    "evaluate",
    "letac_sum",
    "normalization_identity",
]

# Relative tolerance for classifying eta as sitting exactly on a Theorem-type
# convergence boundary; exact float equality would be meaningless.
_BOUNDARY_RTOL = 1e-12


@dataclass(frozen=True)
class SumParams:
    """The triple (eta, c, x) parameterizing S(eta, c; x)."""

    eta: float
    c: float
    x: float

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise DomainError("require finite eta > 0")
        if not 0 < self.c < math.inf:
            raise DomainError("require finite c > 0")
        if not -1.0 <= self.x <= 1.0:
            raise DomainError("require -1 <= x <= 1")


@dataclass(frozen=True)
class ClosedFormArgument:
    """Derived quantities of the closed form: X = (x+eta)/(1+eta) and
    xi = x/X^2, the argument of its one function 2F1(1/2, 1; c; xi)/X."""

    X: float
    xi: float

    @classmethod
    def from_params(cls, p):
        X = (p.x + p.eta) / (1.0 + p.eta)
        # x / X / X, not x / (X*X): X*X underflows to 0 for eta near 1e-300.
        xi = p.x / X / X if X != 0.0 else math.copysign(math.inf, p.x)
        return cls(X=X, xi=xi)


class Reason(enum.Enum):
    Interior = "Interior"
    BoundaryNeedsLargeC = "BoundaryNeedsLargeC"
    DivergentPositiveX = "DivergentPositiveX"
    DivergentNegativeX = "DivergentNegativeX"
    DivergentAtOne = "DivergentAtOne"


@dataclass(frozen=True)
class ConvergenceVerdict:
    convergent: bool
    on_boundary: bool
    reason: Reason


def convergence_check(p):
    """Classify S(eta, c; x) convergence.

    For 0 < x < 1 the series converges iff eta > sqrt(x) (strict for
    c <= 3/2, non-strict above); for x < 0 the bound is sqrt(1+|x|) - 1;
    x = 0 always converges; at x = 1 only c > 3/2 survives (every k >= 1
    term carries a vanishing weight). On a boundary means within 1e-12 of
    it, relative. Total function, raises nothing.
    """
    if p.x == 0.0:
        return ConvergenceVerdict(True, False, Reason.Interior)
    if p.x == 1.0:
        on_b = abs(p.eta - 1.0) <= _BOUNDARY_RTOL
        conv = p.c > 1.5
        if on_b:
            return ConvergenceVerdict(conv, True, Reason.BoundaryNeedsLargeC)
        return ConvergenceVerdict(conv, False, Reason.Interior if conv else Reason.DivergentAtOne)
    if p.x > 0.0:
        bound = math.sqrt(p.x)
        divergent_reason = Reason.DivergentPositiveX
    else:
        # sqrt(1 - x) - 1 without its cancellation at small |x|.
        bound = -p.x / (math.sqrt(1.0 - p.x) + 1.0)
        divergent_reason = Reason.DivergentNegativeX
    if abs(p.eta - bound) <= _BOUNDARY_RTOL * bound:
        return ConvergenceVerdict(p.c > 1.5, True, Reason.BoundaryNeedsLargeC)
    if p.eta > bound:
        return ConvergenceVerdict(True, False, Reason.Interior)
    return ConvergenceVerdict(False, False, divergent_reason)


# The direct sum reads the ladder's loop phase in lists of this many values.
_READ_LIST = 32
# Drift of the ladder, in eps per step: the relative error of G_k grows
# about linearly in k. Against 40-digit mpmath on 1,100 seeded direct sums
# (interior and pocket strata, x = 0 at eta = 1e-3 and the point
# (0.00533, 0.667, 2.18e-5)), the largest error beyond the tail and the
# rounding floor was 16 eps sum k|t|, at x just below 0.
_DRIFT = 32.0
_EPS = 2.220446049250313e-16


def _error_floor(sum_abs, moment, log_scale):
    """Error floor of a direct sum beyond its tail: 4 eps sum|t| for the
    rounding of the terms and their sum, plus
    eps (_DRIFT + log_scale) sum k|t| for what grows linearly in k: the
    ladder's drift, and the rounding of the weight's exponent k lw, lw
    being formed from logs of sum ``log_scale``."""
    return _ROUNDING * sum_abs + _EPS * (_DRIFT + log_scale) * moment


def _far_term(v, lt):
    """v e^lt where e^lt alone may leave double range: +-inf past it, 0 for
    v = 0."""
    f, e = math.frexp(v)
    try:
        return f * math.exp(lt + e * _LN2) if f else 0.0
    except OverflowError:
        return math.copysign(math.inf, f)


def _expected_terms(profile, lw, tol):
    """How many terms a direct sum of t_k = G_k exp(k lw) is expected to
    read before it stops, or None where the profile's terms do not fall
    (or tol is 0).

    ``profile`` is special._large_k_profile(c, x): |G_k| at x > 0, its
    envelope at x < 0 and 1 at x = 0. The first k at which it puts |t_k|
    under tol, plus the two more small terms of the stop rule, makes the
    count. On a seeded sum-grid the count is exact or one short for nearly
    every sum of 300 terms or more at x > 0; at x < 0 a zero of G_k can
    stop a sum a few percent early.
    """
    a, beta, b = profile
    d = b + lw
    if not (d < 0.0 and tol > 0.0):
        return None
    rhs = math.log(tol) - a
    if rhs >= 0.0:
        return None
    # Solve h(u) = d e^u + beta u - rhs = 0 for u = log k, log|t_k| being
    # log tol there, by Newton from the root without the power term.
    u = math.log(rhs / d)
    for _ in range(4):
        e = d * math.exp(u)
        u -= (e + beta * u - rhs) / (e + beta)
    # Past double range (d near the smallest double) the iterate is NaN.
    return int(math.exp(u)) + 4 if math.isfinite(u) else None


def _ladder_sum(c, x, lw, tol, n, expect=None):
    """Running sum of t_k = G_k exp(k lw) over ladder indices k = 0..n-1
    of special._ladder, stopping once three terms in a row have |t| < tol
    with k > 2.

    ``expect`` goes to special._ladder, which plans its blocks to reach it
    (from _expected_terms); the terms and the stop rule are the same with
    or without it, and the values differ only in their last bits.
    The seeds and the loop phase come as lists of _READ_LIST Python floats
    v with their chain exponents e, the ladder stepping only as far as they
    are read. They are read term by term as t = v exp(k lw + e ln 2),
    +-inf past double range: as v exp(k lw) while the list's exponents are
    0 (until a value leaves [1e-250, 1e250]), by _far_term where the
    exponent passes 709. The (frac, exp) arrays of the chunk transfers go
    through _block_sum, where a term whose log passes 709 counts as
    infinite (0 where G_k is 0). Returns (s, sum|t|, last term, terms read,
    stopped, sum k|t|).
    """
    s = 0.0
    sum_abs = 0.0
    mom = 0.0
    small = 0
    t = 0.0
    k = 0
    exp = math.exp
    for vals, e in _ladder(c, x, n, _READ_LIST, expect):
        if type(vals) is list:
            lim = 709.0 if e == (0, 0) else -math.inf
            k1 = k
            for v in vals if k + len(vals) <= n else vals[:n - k]:
                lt = k * lw
                if lt > lim:
                    lt += e[(k - k1) % 2] * _LN2
                    t = v * exp(lt) if lt <= 709.0 else _far_term(v, lt)
                else:
                    t = v * exp(lt)
                s += t
                a = abs(t)
                sum_abs += a
                mom += k * a
                k += 1
                if a < tol:
                    small += 1
                    if small >= 3 and k > 3:
                        return s, sum_abs, t, k, True, mom
                else:
                    small = 0
        else:
            m = min(len(vals), n - k)
            s, sum_abs, mom, t, used, small = _block_sum(vals[:m], e[:m], k, lw, tol,
                                                         s, sum_abs, mom, small)
            k += used
            if small == 3:
                return s, sum_abs, t, k, True, mom
            # Let the block go before the ladder forms the next one.
            del vals, e
        if k == n:
            return s, sum_abs, t, k, False, mom


def _first(flags):
    """Index of the first True in a boolean array, or None."""
    if not flags.size:
        return None
    i = int(flags.argmax())
    return i if flags[i] else None


def _block_sum(frac, exp, k, lw, tol, s, sum_abs, mom, small):
    """_ladder_sum's loop over one block G_(k+j) = frac[j] 2^exp[j], in numpy.

    The terms, the stop rule (counting the small terms carried in) and the
    running sums s, sum|t| and sum k|t| come from array operations; s and
    sum|t| are ordered add.accumulates seeded by the carried ones, so they
    differ from the term-by-term loop only through np.exp's last bit.
    Returns (s, sum|t|, sum k|t|, last term, terms read, small-term
    count), the count being 3 when the sum stopped.
    """
    import numpy as np

    js = np.arange(k, k + len(frac), dtype=float)
    ts = js * lw
    ts += exp * _LN2
    over = ts > 709.0
    # Terms and sums past double range are infinite, as in the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(ts, out=ts)
        ts *= frac
        if over.any():
            ts[over] = np.where(frac[over] != 0.0, np.copysign(np.inf, frac[over]), 0.0)
        at = np.abs(ts)
        # Three small terms in a row, counting the ones carried in.
        run = np.concatenate(([small >= 2, small >= 1], at < tol))
        three = run[2:] & run[1:-1] & run[:-2]
        three[:max(3 - k, 0)] = False
        stop = _first(three)
        end = len(ts) if stop is None else stop + 1
        t = float(ts[end - 1])
        # Not a BLAS dot (@): waking its threads costs more than the product.
        js[:end] *= at[:end]
        mom += float(js[:end].sum())
        ts[0] += s
        at[0] += sum_abs
        s = float(np.add.accumulate(ts[:end], out=ts[:end])[-1])
        sum_abs = float(np.add.accumulate(at[:end], out=at[:end])[-1])
    if stop is not None:
        small = 3
    else:
        small = 2 if run[-1] and run[-2] else int(run[-1])
    return s, sum_abs, mom, t, end, small


# sum_direct's fitted tail: only for caps of at least _TAIL_FROM terms,
# where the 1/k fit of the large-k profile holds, fitted to the last term,
# and summed in blocks of _TAIL_BLOCK terms, at most _TAIL_MAX_TERMS of
# them.
_TAIL_FROM = 10_000
_TAIL_BLOCK = 2048
_TAIL_MAX_TERMS = 1 << 22


def _fitted_tail(profile, lr, K, t_K):
    """(tail, its estimate, sum k|t| over it) of a convergent direct sum
    with 0 < x < 1 cut after index K, or None where the fit does not apply.

    For 0 < x < 1 the terms follow the large-k profile
    t_k ~ e^a k^beta r^k e^(d/k), beta = 1/2 - c and log r = lr = b + log w,
    (a, beta, b) being ``profile``, from special._large_k_profile. d comes
    from the last term against the profile's amplitude:
    d = K (log t_K - a - beta log K - K lr), which is the 1/k coefficient
    up to O(1/K). Then
    tail = t_K sum_{j>=1} r^j (1 + j/K)^beta e^(d (1/(K+j) - 1/K)),
    summed in blocks until its terms fall under 1e-17 of it, and its
    estimate is |tail - the same sum with d = 0|.
    """
    import numpy as np

    a, beta, _ = profile
    if not 0.0 < t_K < math.inf:
        return None
    if lr * _TAIL_MAX_TERMS > -50.0:
        # r^j would not fall far enough within _TAIL_MAX_TERMS terms.
        return None
    d = K * (math.log(t_K) - a - beta * math.log(K) - K * lr)
    total = 0.0
    diff = 0.0
    mom = 0.0
    js = np.arange(1.0, _TAIL_BLOCK + 1.0)
    for j0 in range(0, _TAIL_MAX_TERMS, _TAIL_BLOCK):
        j = js + j0
        f = np.log1p(j / K)
        f *= beta
        f += j * lr
        np.exp(f, out=f)
        g = np.expm1(-d * j / (K * (K + j)))
        g *= f
        f += g
        total += float(f.sum())
        diff += float(g.sum())
        j += K
        j *= f
        mom += float(j.sum())
        if not math.isfinite(total):
            return None
        # The terms fall from here on once beta/(K+j) + log r < 0.
        if f[-1] <= 1e-17 * total and beta < -lr * (K + j0 + _TAIL_BLOCK):
            a = abs(t_K)
            return t_K * total, a * abs(diff), a * mom
    return None


def sum_direct(p, tol=DEFAULT_TOL, max_terms=None, override_divergence=False):
    """S(eta, c; x) by term-wise summation.

    The inner hypergeometric values are streamed from the stride-2
    recurrence ladder special._ladder (exact contiguous relation, each
    value a float times an integer power of two), one step per term, so
    large k costs neither overflow nor the accuracy of a truncated
    asymptotic. Terms are added until the absolute term stays below ``tol``
    for three consecutive k (k > 2). The large-k profile of G_k predicts
    how many terms that takes (_expected_terms). A sum predicted to end
    within a few hundred terms is read by the block reader _ladder_sum one
    term at a time over the ladder's loop phase (up to about the first
    1,000 terms), as the ladder steps them, and later blocks in numpy. A
    longer one skips the loop: the ladder steps one chunked block sized to
    reach the predicted end, and its terms are read in numpy, where a term
    costs tens of nanoseconds. Past that end the sum goes on in the
    ladder's usual blocks. The prediction changes only the last bits of
    the value, never the stop rule or the value of a range or point query.

    ``abs_error_estimate`` is the geometric tail from the last term, plus
    4 eps sum|t| for rounding, plus eps (32 + |log(1-x)| + log(1+eta))
    sum k|t| for what grows linearly in k: the ladder's drift and the
    rounding of the weight's exponent.

    A convergent sum with 0 < x < 1, off the boundary, that reaches a cap
    K = ``max_terms`` of at least 10,000 terms adds a fitted tail instead
    of raising (_fitted_tail): the paper's large-k profile
    t_k ~ C k^(1/2-c) r^k e^(d/k), r = (1+sqrt(x))/(1+eta), with d fitted
    to its last term against the profile's amplitude C. Its estimate is
    |tail - tail with d = 0| plus the floor above over terms and tail. The
    tail uses only the last ladder term and the profile, nothing of the
    closed form. Below that cap, at x <= 0 (where G_k oscillates) and
    where the tail would need more than about 4 million terms, the sum
    raises ``SlowConvergence``.

    On a Theorem-type convergence boundary the terms decay only like
    k^(1/2-c); the sum then runs to ``max_terms`` and an integral-comparison
    tail bound takes the geometric tail's place instead of raising.

    At x = 1 only the k = 0 term has weight: 2F1(1/2, 1; c; 1), which
    Gauss's theorem reduces to (2c-2)/(2c-3), within 4 eps at every c > 3/2.

    ``override_divergence`` admits divergent parameters and returns the raw
    partial sum (for divergence demonstrations); its error estimate is the
    last term magnitude, a local figure only. Not available at x = 1, where
    individual terms are not finite. A ``max_terms`` that is not a whole
    number >= 1 raises ``DomainError``.
    """
    verdict = convergence_check(p)
    if not verdict.convergent and not override_divergence:
        raise NotConvergent("S(%g, %g; %g) diverges: %s" % (p.eta, p.c, p.x, verdict.reason.value))
    max_terms = _term_cap(max_terms)
    if p.x == 1.0:
        if p.c <= 1.5:
            raise NotConvergent("S(eta, c; 1) has no finite terms for c <= 3/2")
        # Only the k=0 term carries weight (1-x)^k != 0.
        v = (2.0 * p.c - 2.0) / (2.0 * p.c - 3.0)
        return EvalResult(value=v, abs_error_estimate=4.0 * v * 2.2e-16,
                          terms_used=1, method=Method.GaussPoint)
    l1x = math.log1p(-p.x)
    l1e = math.log1p(p.eta)
    fit = (verdict.convergent and not verdict.on_boundary and p.x > 0.0
           and max_terms >= _TAIL_FROM)
    lw = l1x - l1e
    # The ladder's column bound comes before the profile's log Gamma(c).
    _seed_depth(p.c)
    profile = _large_k_profile(p.c, p.x)
    # Log of the terms' ratio at large k.
    lr = profile[2] + lw
    s, sum_abs, t, used, stopped, mom = _ladder_sum(
        p.c, p.x, lw, tol, max_terms + 1, _expected_terms(profile, lw, tol))
    log_scale = abs(l1x) + l1e
    floor = _error_floor(sum_abs, mom, log_scale)
    if not stopped:
        last = abs(t)
        if verdict.on_boundary and verdict.convergent:
            # Terms ~ C k^{1/2-c} on the boundary; integral comparison gives
            # sum_{j>K} ~ C K^{3/2-c}/(c-3/2) = t_K * K/(c-3/2).
            tail = last * max_terms / (p.c - 1.5)
            return EvalResult(value=s, abs_error_estimate=tail + floor,
                              terms_used=max_terms + 1, method=Method.Series)
        tail = _fitted_tail(profile, lr, max_terms, t) if fit else None
        if tail is not None:
            tail, est, tail_mom = tail
            floor = _error_floor(sum_abs + abs(tail), mom + tail_mom, log_scale)
            return EvalResult(value=s + tail, abs_error_estimate=est + floor,
                              terms_used=max_terms + 1, method=Method.Series)
        if override_divergence:
            return EvalResult(value=s, abs_error_estimate=last if math.isfinite(s) else math.inf,
                              terms_used=max_terms + 1, method=Method.Series)
        raise SlowConvergence(
            "direct sum did not settle in %d terms (term ratio ~ %.6f)"
            % (max_terms, math.exp(lr)))
    rho = min(math.exp(lr), 0.999999)
    est = abs(t) * rho / (1.0 - rho) + floor
    return EvalResult(value=s, abs_error_estimate=est,
                      terms_used=used, method=Method.Series)


def _two_square(a):
    """(hi, lo) with hi + lo = a*a exactly: Dekker's product on Veltkamp's
    split of a. Exact for |a| between about 1e-146 and 1e150."""
    hi = a * a
    t = 134217729.0 * a           # 2^27 + 1
    ah = t - (t - a)
    al = a - ah
    return hi, ((ah * ah - hi) + 2.0 * ah * al) + al * al


def _conj_root(eta, x):
    """R = sqrt((1-x)(eta^2-x)), real and positive on the whole x <= eta^2
    range.

    sqrt(eta^2-x) is formed as hypot(eta, sqrt(-x)) for x <= 0. Above,
    next to the eta = sqrt(x) boundary eta^2 - x cancels, so it is formed
    from the exact square hi + lo of eta, where hi - x is exact; an eta
    within the boundary tolerance below sqrt(x) gives R = 0. eta^2
    overflows past eta ~ 1e154, far from the boundary, where
    sqrt(eta) sqrt(eta - x/eta) does not cancel.
    """
    if x <= 0.0:
        e = math.hypot(eta, math.sqrt(-x))
    elif eta < 1e150:
        hi, lo = _two_square(eta)
        e = math.sqrt(max((hi - x) + lo, 0.0))
    else:
        e = math.sqrt(eta) * math.sqrt(eta - x / eta)
    return math.sqrt(1.0 - x) * e


def _special_value(c, eta, x):
    """Elementary S for c in {1,2,3} in conjugate-root form, R =
    _conj_root(eta, x): regular at x = 0 and at R = 0 (the eta = sqrt(x)
    boundary), and the analytic continuation's branch at x < -eta."""
    R = _conj_root(eta, x)
    if c == 1.0:
        return (1.0 + eta) / R
    D = eta + x + R
    if c == 2.0:
        return 2.0 * (1.0 + eta) / D
    return (4.0 / 3.0) * (1.0 + eta) / D * ((D + R) / D)


def _finite(v, p):
    """v, or OverflowError when the closed-form arithmetic left double range."""
    if not math.isfinite(v):
        raise OverflowError("S(%g, %g; %g) is out of double range" % (p.eta, p.c, p.x))
    return v


def sum_closed(p):
    """S(eta, c; x) through the paper's closed form 2F1(1/2, 1; c; xi)/X,
    xi = x/X^2, X = (x+eta)/(1+eta), with R = _conj_root(eta, x).

    * x <= 0: S = (1+eta)/R 2F1(1, 2c-2; c; z) by A&S 15.3.19 and one
      Pfaff step (DLMF 15.8.1), z = -x (1+eta)^2/(2RD) in [0, 0.86),
      D = eta + x + R; z = 1/2 at x = -eta. z is formed as
      -x ((1+eta)/R) ((1+eta)/(2D)): nothing cancels, eta is not squared.
      One series (special._series_sum), of at most about 250 terms (about
      11 sqrt(c) at x = -eta). At x < -eta it is the analytic continuation
      (``continuation=True``, divergent points too), for c in {1, 2, 3}
      only; other c raise ``DomainError``.
    * x > 0: hyp2f1_half_one(c, xi) with s = sqrt(1-xi) = R/(x+eta): an s
      from the rounded xi put (0.98958, 0.47498, 0.97902), next to the
      eta = sqrt(x) boundary, 1.7e-10 off 40-digit mpmath, against 4.2e-12.
      At xi = 1 (x = 1, x = eta^2, or eta just below sqrt(x) but on the
      boundary by convergence_check) the Gauss value, c > 3/2 only.

    The estimate is the series' (twice it for z) times the prefactor, plus
    4 eps of the value. A value past double range raises ``OverflowError``.
    """
    eta, c, x = p.eta, p.c, p.x
    if x <= 0.0:
        if x + eta < 0.0 and c not in (1.0, 2.0, 3.0):
            # The z-series answers here too. It waits for ROADMAP item 1: the
            # benchmark reads this refusal as auto's fallback to the direct sum.
            raise DomainError("x < -eta continuation is only available for c in {1,2,3}")
        # Past eta = 1e300 the k >= 1 terms of S weigh under 2e-300, so S
        # does not move in double precision, and eta + x + R stays in range.
        eta = min(eta, 1e300)
        R = _conj_root(eta, x)
        pref = _finite((1.0 + eta) / R, p)
        z = -x * pref * ((1.0 + eta) / (2.0 * (eta + x + R)))
        f, tail, used, ok = _series_sum(1.0, 2.0 * c - 2.0, c, z, DEFAULT_TOL, DEFAULT_MAX_TERMS)
        if not ok:
            raise NonConvergent("z-series of S hit the %d-term cap" % DEFAULT_MAX_TERMS)
        v = _finite(pref * f, p)
        # z is 17 roundings deep (10 eps off, measured): twice the drift term's 4 eps.
        est, method = 2.0 * pref * tail, Method.Series
    else:
        arg = ClosedFormArgument.from_params(p)
        xi = arg.xi
        # xi is 1 at x = eta^2, give or take an ulp or two of the quotient,
        # and for an eta that convergence_check puts on the boundary from below.
        if abs(xi - 1.0) <= 4e-16 or (xi > 1.0 and c > 1.5 and convergence_check(p).on_boundary):
            xi = 1.0
        if xi > 1.0:
            raise DomainError("closed form needs xi = x/X^2 <= 1, got %g" % xi)
        s = _conj_root(eta, x) / (x + eta) if xi < 1.0 else 0.0
        if s == 0.0:
            xi = 1.0
        inner = hyp2f1_half_one(c, xi, _s=s)
        v = _finite(inner.value / arg.X, p)
        est = inner.abs_error_estimate / arg.X
        used, method = inner.terms_used, inner.method
    return EvalResult(value=v, abs_error_estimate=est + 4.0 * abs(v) * 2.2e-16,
                      terms_used=used, method=method, continuation=x + p.eta < 0.0)


def sum_special(p):
    """Elementary closed forms of S for c in {1, 2, 3}.

    Domain is the convergence region for the given c: strict interior for
    c = 1, boundary included for c = 2, 3. The removable x = 0 singularity
    of the textbook expressions does not arise in the conjugate-root form.
    """
    if p.c not in (1.0, 2.0, 3.0):
        raise DomainError("special forms exist for c in {1, 2, 3}")
    verdict = convergence_check(p)
    if not verdict.convergent:
        raise DomainError("outside the convergence region: %s" % verdict.reason.value)
    if p.c == 1.0 and verdict.on_boundary:
        raise DomainError("c = 1 requires the strict interior")
    v = _finite(_special_value(p.c, p.eta, p.x), p)
    return EvalResult(value=v, abs_error_estimate=8.0 * abs(v) * 2.2e-16,
                      terms_used=0, method=Method.ClosedForm)


def evaluate(p, method="auto"):
    """S(eta, c; x) by the requested route.

    ``auto`` prefers the closed form and falls back to direct summation when
    xi is within 1e-6 of 1 with c <= 3/2 + 1e-6 (the closed form's argument
    degenerates there) or when the closed form rejects parameters the series
    still accepts.
    """
    method = method.lower()
    if method == "direct":
        return sum_direct(p)
    if method == "closed":
        return sum_closed(p)
    if method == "special":
        return sum_special(p)
    if method != "auto":
        raise ValueError("unknown method %r" % method)
    arg = ClosedFormArgument.from_params(p)
    if abs(arg.xi - 1.0) <= 1e-6 and p.c <= 1.5 + 1e-6:
        return sum_direct(p)
    try:
        return sum_closed(p)
    except DomainError:
        return sum_direct(p)


def letac_sum(z, c, x, method="closed", tol=DEFAULT_TOL, max_terms=None):
    """The geometric-weight variant sum_{k>=1} z^k 2F1(k/2, k/2+1/2; c; x).

    Defined for 0 < z < 1 and 0 < x < (1-z)^2; equals
    (z/(1-z)) 2F1(1/2, 1; c; x/(1-z)^2). The inner function at index k is
    the ladder value G_(k-1), so the variant sum is z S(eta', c; x) at
    eta' = (1-x-z)/z, where S's weight (1-x)/(1+eta') is z, and
    x < (1-z)^2 is eta' > sqrt(x). The direct route is
    z sum_direct(SumParams(eta', c, x), tol/z, max_terms): its block plan,
    stop rule, error estimate and, at caps of at least 10,000, fitted
    tail. It reads at most max_terms + 1 terms (k = 1..max_terms + 1).
    sum_direct's boundary rules apply where eta' is on S's boundary, i.e.
    1 - z - sqrt(x) <= 1e-12 z sqrt(x)/(1 + sqrt(x)); a z below about
    5.6e-309, where eta' leaves double range, raises DomainError. Both
    methods pass tol and max_terms on, and a max_terms that is not a whole
    number >= 1 raises DomainError on either.
    """
    if not 0.0 < z < 1.0:
        raise DomainError("require 0 < z < 1")
    if not 0.0 < x < (1.0 - z) ** 2:
        raise DomainError("require 0 < x < (1-z)^2")
    if not 0 < c < math.inf:
        raise DomainError("require finite c > 0")
    max_terms = _term_cap(max_terms)
    method = method.lower()
    if method == "closed":
        # s = sqrt(1 - chi) from (1-z)^2 - x = 1 - 2z + z^2 - x, summed
        # exactly: next to x = (1-z)^2 it cancels, and a factored form
        # would carry the rounding of 1 - z and sqrt(x) (4.8e-14 relative
        # in s at 1 - chi = 1e-3).
        hi, lo = _two_square(z)
        s = math.sqrt(math.fsum((1.0, -2.0 * z, hi, lo, -x))) / (1.0 - z)
        pref = z / (1.0 - z)
        inner = hyp2f1_half_one(c, x / (1.0 - z) ** 2, tol, max_terms, _s=s)
    elif method == "direct":
        pref = z
        inner = sum_direct(SumParams((1.0 - x - z) / z, c, x), tol / z, max_terms)
    else:
        raise ValueError("method must be 'direct' or 'closed'")
    return EvalResult(value=pref * inner.value,
                      abs_error_estimate=pref * inner.abs_error_estimate,
                      terms_used=inner.terms_used, method=inner.method)


def normalization_identity(x):
    """(1/2) S(1, 2; x), identically 1 on [-1, 1]; evaluated by direct
    summation so the identity is a real check, not an echo of itself."""
    return 0.5 * sum_direct(SumParams(1.0, 2.0, x)).value
