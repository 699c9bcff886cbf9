"""Heavy-tailed branching: scaled Sibuya offspring, the extinction dual,
and total-progeny laws whose probabilities are hypergeometric ladder values.

The pmfs read G_k = 2F1((k+1)/2, (k+2)/2; c; x) from special, a range from
one k-ladder sweep and a point from special._ladder_value. The alpha = 1/2
progeny law has three more independent expressions (elementary generating
function, hypergeometric form, Bessel integral) that are kept separate on
purpose; agreement between them is evidence, identity would be circular.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError, QuadratureFailure, RootFindFailure
from .special import (
    _LN2,
    _ladder_upto,
    _ladder_value,
    _whole,
    hyp2f1_half_one,
)

__all__ = [
    "ScaledSibuya",
    "ProgenyHalfLaw",
    "GeneralProgenyLaw",
    "DualRoot",
    "sibuya_pmf",
    "sibuya_pgf",
    "extinction_prob",
    "dual_pgf",
    "dual_offspring_pmf",
    "progeny_pmf",
    "progeny_pmf_range",
    "progeny_pgf_elementary",
    "progeny_pgf_hypergeometric",
    "progeny_pmf_bessel_oracle",
    "progeny_pmf_series_coeffs",
    "general_progeny_pmf",
    "general_progeny_log_pmf",
    "general_progeny_pmf_range",
    "solve_dual_root",
    "h_alpha_pgf",
    "functional_equation_residual",
]


@dataclass(frozen=True)
class ScaledSibuya:
    """Offspring law with generating function 1 - lam*(1-u)^alpha.

    P(0) = 1-lam, and the tail decays like k^(-1-alpha): infinite mean for
    every alpha < 1.
    """

    alpha: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError("require 0 < alpha <= 1")
        if not 0.0 < self.lam <= 1.0:
            raise DomainError("require 0 < lam <= 1")


def sibuya_pmf(d, k):
    """P(offspring = k). Ratio recurrence, exact to rounding."""
    k = _whole(k, 0, "k")
    if k == 0:
        return 1.0 - d.lam
    p = d.lam * d.alpha
    for j in range(1, k):
        p *= (j - d.alpha) / (j + 1.0)
    return p


def sibuya_pgf(d, u):
    if not -1.0 <= u <= 1.0:
        raise DomainError("require -1 <= u <= 1")
    return 1.0 - d.lam * (1.0 - u) ** d.alpha


def extinction_prob(d):
    """Root of pgf(q) = q in [0, 1): q = 1 - lam^(1/(1-alpha)).

    alpha = 1 degenerates (the offspring mean becomes lam <= 1 and
    extinction is certain, the formula is 0/0); lam = 1 likewise drops the
    k = 0 atom. Both raise rather than return a conventional value.
    """
    if d.alpha == 1.0 or d.lam == 1.0:
        raise DomainError("extinction dual needs alpha < 1 and lam < 1")
    return 1.0 - d.lam ** (1.0 / (1.0 - d.alpha))


def dual_pgf(d, u):
    """Offspring pgf conditioned on eventual extinction: pgf(q*u)/q."""
    q = extinction_prob(d)
    return sibuya_pgf(d, q * u) / q


def dual_offspring_pmf(d, k):
    """Dual pmf: (1-lam)/q at zero, q^(k-1) * sibuya_pmf(k) above.

    Finite mean alpha, unlike the original law.
    """
    q = extinction_prob(d)
    if k == 0:
        return (1.0 - d.lam) / q
    return q ** (k - 1) * sibuya_pmf(d, k)


@dataclass(frozen=True)
class ProgenyHalfLaw:
    """Total progeny of the alpha = 1/2 process, conditioned on extinction.

    Q = 1 - lam^2 is the extinction probability; z_minus and z_plus bound
    the branch cut of the generating function H, and z_minus > 1 is its
    radius of convergence.
    """

    lam: float
    Q: float = field(init=False)
    z_minus: float = field(init=False)
    z_plus: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise DomainError("require 0 < lam < 1")
        object.__setattr__(self, "Q", 1.0 - self.lam * self.lam)
        rq = math.sqrt(self.Q)
        if rq == 1.0:
            # lam below about 7.45e-9: 1 - lam^2 rounds to 1, so z_plus
            # would divide by zero and Q would leave the ladder's x < 1.
            raise DomainError("lam = %g is too small: 1 - lam^2 rounds to 1" % self.lam)
        object.__setattr__(self, "z_minus", 2.0 / (1.0 + rq))
        object.__setattr__(self, "z_plus", 2.0 / (1.0 - rq))

    @classmethod
    def from_extinction_prob(cls, Q):
        if not 0.0 < Q < 1.0:
            raise DomainError("require 0 < Q < 1")
        return cls(lam=math.sqrt(1.0 - Q))


def progeny_pmf(law, ell):
    """P(total progeny = ell) = 2^-ell (1-Q)^(ell-1) G_(ell-1)(2; Q)."""
    ell = _whole(ell, 1, "ell")
    frac, exp = _ladder_value(2.0, law.Q, ell - 1)
    # The power 2^-ell joins G's exponent as an integer.
    return frac * math.exp((ell - 1) * (2.0 * math.log(law.lam)) + (exp - ell) * _LN2)


def progeny_pmf_range(law, lmax):
    """P(total progeny = ell) for ell = 1..lmax, one ladder sweep."""
    lmax = _whole(lmax, 1, "lmax")
    import numpy as np

    llam2 = 2.0 * math.log(law.lam)
    # Filled in place: a list grown block by block reallocates its buffer,
    # which raised the peak memory of a 1e6 range by about 2%.
    out = [0.0] * lmax
    # k = ell - 1 on each ladder block.
    for k, frac, exp in _ladder_upto(2.0, law.Q, lmax):
        out[k[0]:k[-1] + 1] = (frac * np.exp(k * llam2 + (exp - k - 1) * _LN2)).tolist()
    return out


def progeny_pgf_elementary(law, z):
    """H(z) in surds: z/(1-lam^2) * (1 - lam^2 z/2 - (lam/2) sqrt(lam^2 z^2 - 4z + 4)).

    Real only off the branch cut (z_minus, z_plus).
    """
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    rad = law.lam * law.lam * z * z - 4.0 * z + 4.0
    if rad < 0.0:
        # At z = z_minus the discriminant is an exact zero hit by rounding
        # noise; a genuinely interior z produces rad of order 1.
        if rad > -1e-12 * (4.0 + 4.0 * abs(z)):
            rad = 0.0
        else:
            raise DomainError("z in the branch cut (z_minus, z_plus)")
    lam = law.lam
    return z / (1.0 - lam * lam) * (
        1.0 - lam * lam * z / 2.0 - (lam / 2.0) * math.sqrt(rad))


def progeny_pgf_hypergeometric(law, z):
    """H(z) = (z/2)/(1 - lam^2 z/2) * 2F1(1/2, 1; 2; Q/(1 - lam^2 z/2)^2).

    The argument reaches 1 exactly at z = z_minus, where the c = 2 unit
    value 2F1(1/2, 1; 2; 1) = 2 makes H finite: H(z_minus) = z_minus/sqrt(Q).
    """
    if not -math.inf < z <= law.z_minus * (1.0 + 1e-12):
        raise DomainError("z must be finite, at most the convergence radius z_minus")
    w = law.lam * law.lam * z / 2.0
    denom = 1.0 - w
    arg = law.Q / (denom * denom)
    if arg > 1.0 + 1e-12:
        raise DomainError("argument exceeds 1 (z past z_minus)")
    if abs(arg - 1.0) <= 1e-12:
        # z at (or within rounding of) z_minus: the argument is an exact 1
        # and the square-root sensitivity of the series there would cost
        # half the digits; take the unit-argument value instead.
        arg = 1.0
    inner = hyp2f1_half_one(2.0, arg)
    return (z / 2.0) / denom * inner.value


# The Bessel oracle accepts a quadrature error estimate up to this share of
# its value, or up to 1e-9.
_ORACLE_RTOL = 1e-10


def progeny_pmf_bessel_oracle(law, ell):
    """P(total progeny = ell) as a Bessel-transform integral.

    p_ell = Q^{-1/2}/(ell-1)! * integral_0^inf u^(ell-2) e^(-gamma u)
    I_1(beta u) du with gamma = 2/lam^2, beta = gamma sqrt(Q). Shares no
    code with the recurrence route, so it can serve as an oracle for it.
    Uses scipy's exponentially scaled I_1 (``i1e``) to keep the integrand
    bounded; the (ell-1)! is folded into the exponent. Upper limit is set
    where the log-integrand falls 40 below its peak.
    """
    from scipy.integrate import quad
    from scipy.special import i1e

    ell = _whole(ell, 1, "ell")
    gamma = 2.0 / (law.lam * law.lam)
    beta = gamma * math.sqrt(law.Q)
    decay = gamma - beta
    lgam = math.lgamma(ell)
    lpref = -0.5 * math.log(law.Q) - lgam

    def f(u):
        if u == 0.0:
            # u^(ell-2) I_1(beta u) -> beta/2 at ell = 1, 0 for ell >= 2.
            return beta / 2.0 * math.exp(lpref) if ell == 1 else 0.0
        lt = (ell - 2) * math.log(u) - decay * u + lpref
        return math.exp(lt) * i1e(beta * u)

    peak = max((ell - 2) / decay, 1.0 / decay)
    # Walk out until the log-integrand is 40 under its peak value.
    lpk = (ell - 2) * math.log(peak) - decay * peak
    hi = peak
    while (ell - 2) * math.log(hi) - decay * hi > lpk - 40.0:
        hi *= 1.5
    val, err = quad(f, 0.0, hi, points=[peak] if peak < hi else None,
                    limit=400, epsabs=1e-14, epsrel=1e-12)
    if not math.isfinite(val) or err > max(_ORACLE_RTOL * abs(val), 1e-9):
        raise QuadratureFailure("integral error %.3g too large" % err)
    return val


def progeny_pmf_series_coeffs(law, lmax):
    """First lmax progeny probabilities by formal series extraction.

    H(z) = z/(1-lam^2) (1 - lam^2 z/2 - lam r(z)) with r(z) the power series
    of sqrt(1 - z + lam^2 z^2/4). Squaring r gives the convolution
    recurrence r_0 = 1, r_n = (a_n - sum_{j=1}^{n-1} r_j r_{n-j})/2 with a_n
    the coefficients of the polynomial under the root. Only polynomial
    algebra is involved, which makes this a third independent route; every
    r_n with n >= 1 is negative, so the sums do not cancel.
    """
    lmax = _whole(lmax, 1, "lmax")
    lam2 = law.lam * law.lam
    a = [1.0, -1.0, lam2 / 4.0] + [0.0] * lmax
    r = [1.0]
    for n in range(1, lmax):
        r.append((a[n] - sum(r[j] * r[n - j] for j in range(1, n))) / 2.0)
    # p_ell is the z^(ell-1) coefficient of (1 - lam^2 z/2 - lam r(z))/(1 - lam^2).
    inner = [1.0, -lam2 / 2.0] + [0.0] * lmax
    pref = 1.0 / (1.0 - lam2)
    return [pref * (inner[n] - law.lam * r[n]) for n in range(lmax)]


@dataclass(frozen=True)
class GeneralProgenyLaw:
    """Progeny-type law q_ell = ((c-3/2)/(c-1)) sqrt(x) (1-sqrt(x))^(ell-1)
    G_(ell-1)(c; x), normalized for every c > 3/2, 0 < x < 1."""

    c: float
    x: float

    def __post_init__(self):
        if not 1.5 < self.c < math.inf:
            raise DomainError("require finite c > 3/2")
        if not 0.0 < self.x < 1.0:
            raise DomainError("require 0 < x < 1")


def general_progeny_log_pmf(law, ell):
    ell = _whole(ell, 1, "ell")
    frac, exp = _ladder_value(law.c, law.x, ell - 1)
    if frac < 0.0:
        raise DomainError("negative mass at ell = %d (invalid parameters)" % ell)
    lg = math.log(frac) + exp * _LN2 if frac else -math.inf
    rx = math.sqrt(law.x)
    return (math.log((law.c - 1.5) / (law.c - 1.0)) + 0.5 * math.log(law.x)
            + (ell - 1) * math.log1p(-rx) + lg)


def general_progeny_pmf(law, ell):
    return math.exp(general_progeny_log_pmf(law, ell))


def general_progeny_pmf_range(law, lmax):
    """q_ell for ell = 1..lmax from a single ladder sweep."""
    lmax = _whole(lmax, 1, "lmax")
    import numpy as np

    lpref = math.log((law.c - 1.5) / (law.c - 1.0)) + 0.5 * math.log(law.x)
    l1mrx = math.log1p(-math.sqrt(law.x))
    out = [0.0] * lmax
    # k = ell - 1 on each ladder block; filled in place as in progeny_pmf_range.
    for k, frac, exp in _ladder_upto(law.c, law.x, lmax):
        out[k[0]:k[-1] + 1] = (frac * np.exp(lpref + k * l1mrx + exp * _LN2)).tolist()
    return out


@dataclass(frozen=True)
class DualRoot:
    """Root t_s0 of t^(alpha/(1-alpha)) (t-1) = v on (1, 1+v]."""

    v: float
    alpha: float
    t_s0: float

    def __post_init__(self):
        t = self.t_s0
        resid = abs(t ** (self.alpha / (1.0 - self.alpha)) * (t - 1.0) - self.v)
        if resid > 1e-12 * max(1.0, self.v):
            raise RootFindFailure("root residual %.3g" % resid)


def solve_dual_root(v, alpha):
    """Solve t^(alpha/(1-alpha)) (t-1) = v for the unique root above 1.

    Newton on the log form g(t) = (alpha/(1-alpha)) log t + log(t-1) - log v,
    which is strictly increasing, with bisection whenever a step leaves the
    bracket. g(1+) = -inf and g(1+v) >= 0 pin the root in (1, 1+v].
    """
    if not 0.0 < v < math.inf:
        raise DomainError("require finite v > 0")
    if not 0.0 < alpha < 1.0:
        raise DomainError("require 0 < alpha < 1")
    return DualRoot(v=v, alpha=alpha, t_s0=_dual_root(v, math.log(v), alpha))


def _dual_root(v, lv, alpha):
    """solve_dual_root's root from v and lv = log v. For v = inf (past double
    range) the bracket is (1, max(2, (2v)^(1/(r+1)))], as t >= 2 has
    t - 1 >= t/2; OverflowError when it passes double range."""
    r = alpha / (1.0 - alpha)

    def g(t):
        return r * math.log(t) + math.log(t - 1.0) - lv

    lo = 1.0 + 1e-300
    hi = 1.0 + v if v < math.inf else max(2.0, math.exp((lv + _LN2) / (r + 1.0)))
    if v < 1.0:
        t = 1.0 + v / (1.0 + v) ** (r / (r + 1.0))
    else:
        t = (1.0 + v) ** (1.0 / (r + 1.0)) if v < math.inf else math.exp(lv / (r + 1.0))
    t = min(max(t, 1.0 + 1e-16), hi)
    for _ in range(200):
        gt = g(t)
        if abs(gt) < 1e-14:
            return t
        if gt > 0.0:
            hi = t
        else:
            lo = t
        step = gt / (r / t + 1.0 / (t - 1.0))
        tn = t - step
        # A step that rounds to t itself ends the search: t may sit on the
        # bracket's edge, and bisecting from there starts over.
        if tn != t and not lo < tn < hi:
            tn = 0.5 * (lo + hi)
        if tn == t:
            return t
        t = tn
    raise RootFindFailure("no convergence after 200 iterations (log v=%g, alpha=%g)" % (lv, alpha))


def h_alpha_pgf(d, z):
    """Progeny generating function for general alpha via the dual root:

    H(z) = (1 - (lam z t)^(1/(1-alpha))) / (1 - lam^(1/(1-alpha))),
    t = solve_dual_root((1-z)/(lam z)^(1/(1-alpha)), alpha).

    v is formed from logs, so it may pass double range while t stays finite.
    At the root (lam z t)^(1/(1-alpha)) = (1-z) t/(t-1), and below z = 0.999
    the numerator is taken as (z t - 1)/(t - 1): the power form cancels at
    small z and multiplies the root's rounding by 1/(1-alpha). The
    functional-equation residual is then at most 1.9e-12 on 30,000 seeded
    points with alpha up to 1 - 1e-6 (4.9e-9 for the power form alone).

    Reduces to the elementary alpha = 1/2 form; checked against it rather
    than derived from it.
    """
    if d.alpha >= 1.0 or d.lam >= 1.0:
        raise DomainError("need alpha < 1 and lam < 1")
    if not 0.0 <= z <= 1.0:
        raise DomainError("require 0 <= z <= 1")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return 1.0
    s = 1.0 / (1.0 - d.alpha)
    lv = math.log1p(-z) - s * (math.log(d.lam) + math.log(z))
    v = math.exp(lv) if lv < 709.0 else math.inf
    t = _dual_root(v, lv, d.alpha)
    q = 1.0 - d.lam ** s
    if z < 0.999:
        return (z * t - 1.0) / (t - 1.0) / q
    return (1.0 - (d.lam * z * t) ** s) / q


def functional_equation_residual(d, z):
    """|y - z * pgf(y)| with y = Q * H(z): zero when H is the conditioned
    progeny transform of the original offspring law."""
    y = extinction_prob(d) * h_alpha_pgf(d, z)
    return abs(y - z * sibuya_pgf(d, y))
