"""Special-function kernel: Gauss hypergeometric evaluation, the
streaming k-ladder and large-parameter asymptotic approximants.

Everything here is a pure function of its arguments; no global mutable state.
"""

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergent

__all__ = [
    "Method",
    "EvalResult",
    "HypParams",
    "AsymptoticEval",
    "DEFAULT_TOL",
    "default_max_terms",
    "hyp2f1_series",
    "hyp2f1_half_one",
    "hyp2f1_large_k",
    "hyp2f1_ladder",
]

DEFAULT_TOL = 1e-14
DEFAULT_MAX_TERMS = 100_000

# Scaled series and ladder values are moved back by a power of two once
# they pass _HUGE (or, on the ladder, fall under _TINY).
_HUGE = 1e250
_TINY = 1e-250
_LN2 = math.log(2.0)


def default_max_terms():
    """The term cap of a caller that leaves max_terms unset: the constant
    DEFAULT_MAX_TERMS (100,000).

    The k-ladder's seed series (_ladder_seeds) do not follow it: they have
    their own cap of _SEED_MAX_TERMS = 200,000 terms.
    """
    return DEFAULT_MAX_TERMS


def _term_cap(max_terms):
    """A caller's term cap: DEFAULT_MAX_TERMS for None, else max_terms as an
    int if it is a whole number >= 1 (DomainError otherwise)."""
    if max_terms is None:
        return DEFAULT_MAX_TERMS
    return _whole(max_terms, 1, "max_terms")


class Method(enum.Enum):
    """How a value was produced."""

    Series = "Series"
    ClosedForm = "ClosedForm"
    GaussPoint = "GaussPoint"


@dataclass(frozen=True)
class EvalResult:
    """A computed value with an error estimate and provenance.

    ``continuation`` is True only when the value is an analytic-continuation
    value rather than the sum of a convergent series.
    """

    value: float
    abs_error_estimate: float
    terms_used: int
    method: Method
    continuation: bool = False

    def __post_init__(self):
        if math.isfinite(self.value) and not math.isfinite(self.abs_error_estimate):
            raise ValueError("finite value requires a finite error estimate")
        if self.terms_used == 0 and self.method not in (Method.ClosedForm, Method.GaussPoint):
            raise ValueError("terms_used = 0 is reserved for closed-form routes")


@dataclass(frozen=True)
class HypParams:
    """Parameters (a, b; c; x) of the Gauss hypergeometric series."""

    a: float
    b: float
    c: float
    x: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            raise DomainError("a, b and c must be finite")
        # c at a pole of the Gamma prefactor makes the series undefined.
        if self.c <= 0 and self.c == int(self.c):
            raise DomainError("c must not be zero or a negative integer")


@dataclass(frozen=True)
class AsymptoticEval:
    """Leading-order large-k approximant of G_k at (k, c, x): ``approx``,
    its log magnitude ``log_abs`` (finite where ``approx`` leaves double
    range) and ``Phi_k``, the phase of the oscillation at x < 0."""

    k: int
    c: float
    x: float
    Phi_k: float
    approx: float
    log_abs: float


def _whole(n, lo, name):
    """int(n) for a finite integer n >= lo; DomainError otherwise."""
    if not (math.isfinite(n) and n >= lo and n == int(n)):
        raise DomainError("%s must be an integer >= %d" % (name, lo))
    return int(n)


# Rounding floor of a series estimate, per unit of sum |t|.
_ROUNDING = 4.0 * 2.220446049250313e-16


def _series_sum(a, b, c, x, tol, max_terms):
    """Scaled-accumulator core of the 2F1 partial sum.

    Returns (value, abs_error_estimate, terms_used, converged). Term
    magnitudes are tracked against a running power-of-two offset so that
    large half-integer parameters (terms up to ~1e280 before the tail
    decays) neither overflow nor lose the sign bookkeeping. The estimate is
    the geometric tail from the last ratio plus 4 eps (sum|t| + sum n|t_n|)
    over the terms used: a rounding floor, and a drift term, since term n
    is a product of n rounded ratios and a relative error d in x moves it
    by n d, so in a long series what grows linearly in n outweighs the
    floor.

    One plain loop over every term, up to max_terms. A term or partial sum
    that is not finite (a parameter near the largest double makes
    (c + n)(n + 1) overflow, and the ratio inf/inf) raises OverflowError
    at once.
    """
    off = 0.0          # log of the scale factored out of acc, term and mass
    acc = 1.0
    term = 1.0
    mass = 1.0         # sum |t|, for the rounding floor
    mom = 0.0          # sum n|t_n|, for the drift term
    ratio = 0.0
    small = 0
    n = 0
    while n < max_terms:
        ratio = (a + n) * (b + n) * x / ((c + n) * (n + 1.0))
        term *= ratio
        acc += term
        n += 1
        at = abs(term)
        aa = abs(acc)
        mass += at
        mom += n * at
        if at <= tol * aa:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        # Written so that a NaN term also takes this branch.
        if not (at <= _HUGE and aa <= _HUGE):
            if not math.isfinite(at + aa):
                raise OverflowError("2F1(%r, %r; %r; %r) series: term %d is not finite"
                                    % (a, b, c, x, n))
            e = math.frexp(max(at, aa))[1]
            sc = math.ldexp(1.0, -e)
            term *= sc
            acc *= sc
            mass *= sc
            mom *= sc
            off += e * _LN2
    converged = small >= 2
    # Geometric tail from the last ratio; the true ratio tends to |x|, so
    # never assume faster decay than that.
    r = min(abs(x), 0.999999)
    r = max(r, min(abs(ratio), 0.999999))
    tail = abs(term) * r / (1.0 - r) + _ROUNDING * (mass + mom)
    if off == 0.0:
        return acc, tail, n + 1, converged
    sign = 1.0 if acc >= 0 else -1.0
    lv = off + math.log(abs(acc)) if acc != 0.0 else -math.inf
    try:
        value = sign * math.exp(lv)
    except OverflowError:
        raise OverflowError("2F1(%r, %r; %r; %r) is past the largest double: log|value| = %.6g"
                            % (a, b, c, x, lv)) from None
    try:
        tail = math.exp(off + math.log(tail)) if tail > 0.0 else 0.0
    except OverflowError:
        tail = math.inf
    return value, tail, n + 1, converged


def hyp2f1_series(p, tol=DEFAULT_TOL, max_terms=None):
    """Gauss hypergeometric 2F1 by direct power-series summation.

    Parameters
    ----------
    p : HypParams
        Series parameters; requires |p.x| < 1.
    tol : float
        Relative term tolerance. Summation stops once two consecutive terms
        fall below tol times the partial sum (two, so that odd/even
        cancellation for negative arguments cannot truncate early).
    max_terms : int, optional
        Term cap; defaults to DEFAULT_MAX_TERMS (100,000).

    Returns
    -------
    EvalResult
        Partial sum with an error estimate: the geometric tail from the last
        term ratio plus 4 eps (sum|t| + sum n|t_n|), a rounding floor and
        the drift of long series whose x carries rounding. The terms are summed
        one at a time in _series_sum's loop. A series that does not meet
        tol within max_terms raises ``NonConvergent``, a sum past the
        largest double raises ``OverflowError``, and a max_terms that is
        not a whole number >= 1 raises ``DomainError``.
    """
    if not abs(p.x) < 1.0:
        raise DomainError("series requires |x| < 1, got x=%g" % p.x)
    max_terms = _term_cap(max_terms)
    value, tail, used, ok = _series_sum(p.a, p.b, p.c, p.x, tol, max_terms)
    if not ok:
        raise NonConvergent(
            "2F1 series did not meet tol=%g within %d terms" % (tol, max_terms)
        )
    return EvalResult(value=value, abs_error_estimate=tail, terms_used=used, method=Method.Series)


def hyp2f1_half_one(c, chi, tol=DEFAULT_TOL, max_terms=None, *, _s=None):
    """Evaluate 2F1(1/2, 1; c; chi) for chi <= 1.

    Routes: the unit-argument Gauss point for chi=1 (c > 3/2 only), where
    Gauss's theorem reduces to (2c-2)/(2c-3), within 4 eps at every c;
    the elementary form 1/s for c = 1; and otherwise one series, the
    quadratic transformation of Abramowitz & Stegun 15.3.19,

        2F1(1/2, 1; c; chi) = 2/(1+s) 2F1(1, 2-c; c; w),

    s = sqrt(1-chi), w = (1-s)/(1+s) = chi/(1+s)^2. It maps all of chi < 1
    into |w| < 1; near chi = 1 its length grows like (1-chi)^(-1/2) (about
    16/s terms for tol = 1e-14), and for integer c >= 2 it is a polynomial
    of degree c - 2 in w, summed in at most c + 1 terms. At c = 1 it would
    be geometric in w, long at both ends of chi. The estimate is
    _series_sum's, whose 4 eps sum n|t_n| bounds what the rounding of w
    does to a long series.

    ``_s`` is private: s formed by a caller that knows 1 - chi better than
    the rounded chi does (sums.sum_closed, sums.letac_sum's closed route).
    """
    if not 0 < c < math.inf:
        raise DomainError("require finite c > 0")
    if not -math.inf < chi <= 1.0:
        raise DomainError("require finite chi <= 1")
    max_terms = _term_cap(max_terms)
    if chi == 1.0:
        if c <= 1.5:
            raise DomainError("2F1(1/2,1;c;1) diverges for c <= 3/2")
        # Gauss's theorem in elementary form: an exp of lgamma differences
        # would lose digits like c log c.
        v = (2.0 * c - 2.0) / (2.0 * c - 3.0)
        return EvalResult(
            value=v,
            abs_error_estimate=4.0 * v * 2.2e-16,
            terms_used=0,
            method=Method.GaussPoint,
        )
    s = math.sqrt(1.0 - chi) if _s is None else _s
    if c == 1.0:
        v = 1.0 / s
        return EvalResult(
            value=v,
            abs_error_estimate=4.0 * v * 2.2e-16,
            terms_used=0,
            method=Method.ClosedForm,
        )
    # Two divisions: (1+s)^2 overflows for chi below about -1.7e308.
    w = chi / (1.0 + s) / (1.0 + s)
    value, tail, used, ok = _series_sum(1.0, 2.0 - c, c, w, tol, max_terms)
    if not ok:
        raise NonConvergent("quadratic-transformation series hit the %d-term cap" % max_terms)
    pref = 2.0 / (1.0 + s)
    return EvalResult(
        value=pref * value,
        abs_error_estimate=pref * tail,
        terms_used=used,
        method=Method.Series,
    )


def _large_k_profile(c, x):
    """(a, beta, b) with log|G_k| ~ a + beta log k + b k to leading order
    as k grows: the magnitude of hyp2f1_large_k's approximant for
    0 < x < 1, its envelope (without sin Phi_k) for x < 0, and G_k = 1 at
    x = 0. The one home of this profile: hyp2f1_large_k reads it,
    sums.sum_direct (and through it letac_sum's direct route) takes its
    block plan, term ratio e^(b + log w) and fitted tail from it, and the
    corollary1 suite its tail amplitude. log(1 - sqrt x) is formed as
    log(1 - x) - log(1 + sqrt x), which does not cancel next to x = 1.
    No validation: callers check c > 0 and x < 1."""
    if x == 0.0:
        return 0.0, 0.0, 0.0
    if x > 0.0:
        lr = math.log1p(-x) - math.log1p(math.sqrt(x))
        a = ((c - 1.5) * _LN2 + math.lgamma(c) - 0.5 * math.log(math.pi)
             - (c / 2.0 - 0.25) * math.log(x) + (c - 1.5) * lr)
        return a, 0.5 - c, -lr
    lr = math.log1p(-x)
    a = ((c - 0.5) * _LN2 + math.lgamma(c) - 0.5 * math.log(math.pi)
         - (c / 2.0 - 0.25) * math.log(-x) + (c / 2.0 - 0.75) * lr)
    return a, 0.5 - c, -0.5 * lr


def hyp2f1_large_k(k, c, x):
    """Leading-order approximant of 2F1(k/2+1/2, k/2+1; c; x) as k grows.

    For 0 < x < 1 the approximant is a pure power/exponential profile; for
    x < 0 it oscillates with phase Phi(k) = (k-c+3/2)*arctan(sqrt(|x|)) -
    (pi/2)(c-3/2). All gamma and power factors are assembled in log space
    (_large_k_profile) and the sign is restored at the end. ``log_abs`` is
    log|approx|, finite where ``approx`` leaves double range (about
    k = 1,000 at typical x). Leading order only; the first neglected
    correction is O(1/k). A c past about 2.5e305, where log Gamma(c) leaves
    double range, raises OverflowError naming c.
    """
    k = _whole(k, 1, "k")
    if not 0 < c < math.inf:
        raise DomainError("require finite c > 0")
    if not (-math.inf < x < 1.0 and x != 0.0):
        raise DomainError("require x in (0,1) or finite x < 0")
    phi = math.atan(math.sqrt(abs(x)))
    Phi_k = (k - c + 1.5) * phi - (math.pi / 2.0) * (c - 1.5)
    try:
        a, beta, b = _large_k_profile(c, x)
    except OverflowError:
        raise OverflowError("the large-k approximant at c = %g: log Gamma(c) is past double range"
                            % c) from None
    lg = a + beta * math.log(k) + b * k
    s = 1.0 if x > 0.0 else math.sin(Phi_k)
    try:
        approx = math.exp(lg) * s
    except OverflowError:
        approx = math.copysign(math.inf, s)
    log_abs = lg + math.log(abs(s)) if s else -math.inf
    return AsymptoticEval(k=k, c=c, x=x, Phi_k=Phi_k, approx=approx, log_abs=log_abs)


# ---------------------------------------------------------------------------
# The k-ladder: G_k = 2F1((k+1)/2, (k+2)/2; c; x) for k = 0..kmax.


# A seed block holds at most this many terms (rows x columns).
_SEED_BLOCK_SIZE = 8192
_SEED_TOL = 1e-17
_SEED_MAX_TERMS = 200_000
# The ladder seeds about c + 4.5 columns (_ladder), and refuses a c that
# would need more than this many: c up to about 1.3e5.
_LADDER_MAX_COLUMNS = 1 << 17


def _seed_width(p, z, tol):
    """About how many terms a series with terms ~ n^p z^n needs to fall
    under tol; at least 16."""
    if z < 1e-3:
        return 16
    p = max(p, 0.0)
    lt = -math.log(tol)
    lz = -math.log(z)
    n = 16.0
    for _ in range(3):
        n = max(16.0, (p * math.log(n) + lt) / lz)
    return int(n) + 1


def _ladder_seeds(c, x, rows, k0=0, size=None):
    """G_k for k = k0..k0+rows-1 (ints) as a list of floats, in one pass.

    One column per k holds 2F1(a, b; c; x), a = (k+1)/2, b = a + 1/2, or for
    x < 0 the Pfaff series 2F1(a, c-b; c; x/(x-1)), cancellation-free at
    small k, whose values are then multiplied by (1-x)^-a with Python's
    ``**``. Each block takes the column-wise multiply.accumulate of its
    term ratios, seeded by each column's last term, and adds it to the
    column sums. The first block is sized from the slowest series' decay
    (``size``, where the caller has it from _seed_width, else formed here)
    and later ones double, within _SEED_BLOCK_SIZE terms. The pass ends
    when every series' last two terms are at most _SEED_TOL times its sum;
    it raises NonConvergent after _SEED_MAX_TERMS terms, and OverflowError
    when a series leaves double range.
    """
    import numpy as np

    a = np.arange(k0 + 1, k0 + rows + 1) / 2.0
    b = a + 0.5
    z = x
    if x < 0.0:
        z = x / (x - 1.0)
        b = c - b
    term = np.ones(rows)
    total = np.ones(rows)
    n = 0
    cap = max(2, _SEED_BLOCK_SIZE // rows)
    if size is None:
        size = _seed_width(k0 + rows - c - 0.5 if x >= 0.0 else 0.0, z, _SEED_TOL)
    with np.errstate(over="raise", invalid="raise"):
        try:
            while True:
                w = min(size, cap, _SEED_MAX_TERMS - n)
                ns = np.arange(n, n + w, dtype=float)[:, None]
                t = a + ns
                t *= b + ns
                t *= z / ((c + ns) * (ns + 1.0))
                t[0] *= term
                np.multiply.accumulate(t, axis=0, out=t)
                total += t.sum(axis=0)
                last = np.abs(t[-2:]) if w > 1 else np.abs(np.stack([term, t[0]]))
                term = t[-1]
                n += w
                small = last <= _SEED_TOL * np.abs(total)
                if small.all():
                    break
                if n >= _SEED_MAX_TERMS:
                    k = k0 + int(np.argmin(small.all(axis=0)))
                    raise NonConvergent("ladder seed series stalled at k=%d" % k)
                size *= 2
        except FloatingPointError:
            raise OverflowError("ladder seed series past double range") from None
    seeds = total.tolist()
    if x < 0.0:
        return [(1.0 - x) ** (-(k + 1) / 2.0) * v for k, v in enumerate(seeds, k0)]
    return seeds


def _step_coeffs(a, c, x, gap=False):
    """Coefficients (A, B) of G_next = A*G_mid + B*G_prev at fixed (c, x),
    where G_prev, G_mid, G_next = 2F1(a+j, a+1/2+j; c; x) for j = -1, 0, 1;
    with ``gap``, (C, B) where C = A + B - 1.

    The general contiguous relation with b = a + 1/2 substituted and
    factored; the unfactored form cancels O(a^3) terms in floating point,
    which made the ladder's error grow like k^2 eps for x > 0. C has its own
    factored form, exactly 0 at x = 0 and accurate to a few ulp where
    A + B - 1 would cancel. Only pole is 4a = 2c + 1. ``a`` may be a float
    or a numpy array of them; subexpressions are formed once, in place, in
    the order the factored form evaluates them, so an array call gives each
    element bit for bit the value of the scalar call, and a long block holds
    few temporaries.
    """
    a4c = 4.0 * a
    a4c -= 2.0 * c
    g = 2.0 * a
    t = g - 2.0 * c
    t += 1.0
    g += 1.0
    g *= a
    if gap:
        # C = -x (2 g (a4c - 1) x + 8 g - (4a - 1)(a4c + 1)(a4c + 3)) / (2 den);
        # its first two terms are formed before g goes into den.
        C = a4c - 1.0
        C *= g
        C *= 2.0 * x
        C += 8.0 * g
    den = g
    den *= (1.0 - x) ** 2
    den *= a4c - 1.0
    B = c - a
    B *= t
    B *= a4c + 3.0
    B /= den
    den *= 2.0
    if gap:
        del t
        v = 4.0 * a
        v -= 1.0
        v *= a4c + 1.0
        v *= a4c + 3.0
        C -= v
        C *= -x
        C /= den
        return C, B
    # A = (a4c + 1)(4a (1 + x) t + (2c - 3)(2c + x)) / (2 den)
    A = 4.0 * a
    A *= 1.0 + x
    A *= t
    A += (2.0 * c - 3.0) * (2.0 * c + x)
    A *= a4c + 1.0
    A /= den
    return A, B


# The phases and block sizes of _ladder, described in its docstring.
_LOOP_STEPS = 992
_CHUNKED_FROM = 1024
_LADDER_MAX_BLOCK = 16384
# The loop phase's first coefficient block. A direct sum expected to end
# within it reads the loop phase; a longer one costs less as planned
# chunked blocks, read in numpy, than stepped and summed in the loop.
_LOOP_COEFFS = 256


def _rescale(f, f1):
    """(f, f1, s) scaled by 2^-s so that f is in [1/2, 1); s = 0 when f is
    already in [_TINY, _HUGE] or zero."""
    if not _TINY < abs(f) < _HUGE and f:
        s = math.frexp(f)[1]
        return math.ldexp(f, -s), math.ldexp(f1, -s), s
    return f, f1, 0


def _looped_block(k0, w, c, x, chains, width):
    """The ladder's stepping loop, over the w steps (w even) from k = k0.

    The block's step coefficients come from one _step_coeffs call, in k
    order: even positions step the first chain, odd ones the second.
    ``chains`` holds each chain's state [newest, previous, exponent, gap],
    values being the float times 2^exponent and gap the previous minus the
    newest value when a chunked block left it (None otherwise). Yields the
    new values as (vals, (ep, eq)): a list of at most ``width`` (even)
    Python floats and the chains' exponents, value j being
    G = vals[j] 2^(ep if j is even else eq). When a new value leaves
    [_TINY, _HUGE], a power of two moves from the chain's values into its
    exponent and the list ends before it. Nothing is computed before the
    first list is asked for, and ``chains`` is updated once the block has
    run through.
    """
    import numpy as np

    A, B = _step_coeffs(np.arange(k0 - 1, k0 - 1 + w) / 2.0, c, x)
    A = A.tolist()
    B = B.tolist()
    (p1, p2, ep, _), (q1, q2, eq, _) = chains
    lo, hi = _TINY, _HUGE
    for i in range(0, w, width):
        out = []
        put = out.append
        j = i + width
        for a0, b0, a1, b1 in zip(A[i:j:2], B[i:j:2], A[i + 1:j:2], B[i + 1:j:2]):
            f = a0 * p1 + b0 * p2
            g = a1 * q1 + b1 * q2
            if not (lo < abs(f) < hi and lo < abs(g) < hi):
                f, p1, s = _rescale(f, p1)
                g, q1, t = _rescale(g, q1)
                if s or t:
                    if out:
                        yield out, (ep, eq)
                        out = []
                        put = out.append
                    ep += s
                    eq += t
            p2 = p1
            p1 = f
            q2 = q1
            q1 = g
            put(f)
            put(g)
        yield out, (ep, eq)
    chains[0] = [p1, p2, ep, None]
    chains[1] = [q1, q2, eq, None]


def _frexp_lists(lists):
    """(frac, exp) arrays of the (vals, (ep, eq)) lists of _looped_block,
    in order, with G = frac * 2**exp."""
    import numpy as np

    vals = []
    shifts = []
    for v, e in lists:
        if e != (0, 0):
            shifts.append((len(vals), len(v), e))
        vals += v
    frac, exp = np.frexp(np.array(vals))
    for j, w, (ep, eq) in shifts:
        exp[j:j + w:2] += ep
        exp[j + 1:j + w:2] += eq
    return frac, exp


def _chunk_width(n):
    """Chunk length for a block of n steps: the power of two nearest
    sqrt(n/2), which balances the per-step numpy calls against the
    per-chunk Python carry."""
    return 1 << round(math.log2(n / 2.0) / 2.0)


def _carry(U, Q, U1, Q1, y, z, e):
    """Start states of one chain's chunks, in order.

    A chunk starts from a pair (y, z), y the chain's newest value, and ends
    at y = U y + Q z, z = U1 y + Q1 z, one element of each list per chunk.
    When y or z leaves [2^-50, 2^50] (z only above), both are scaled by a
    power of two so that the larger is in [1/2, 1), the exponent e taking
    the shift; with |U|, |Q| <= _HUGE no value of the chunk can overflow.
    Returns lists of the starts and exponents, and the chain's (y, z, e)
    after the last chunk.
    """
    lo, hi = 2.0 ** -50, 2.0 ** 50
    ys, zs, es = [], [], []
    for u, q, u1, q1 in zip(U, Q, U1, Q1):
        if not (lo < abs(y) < hi and abs(z) < hi):
            s = math.frexp(y if abs(y) >= abs(z) else z)[1]
            y = math.ldexp(y, -s)
            z = math.ldexp(z, -s)
            e += s
        ys.append(y)
        zs.append(z)
        es.append(e)
        y, z = u * y + q * z, u1 * y + q1 * z
    return ys, zs, es, (y, z, e)


# For |x| up to this, chunk transfers run in the gap form (_chunked_block).
_GAP_FORM_X = 0.2


def _chunked_block(k0, L, rows, c, x, chains):
    """One ladder block of rows*L steps from k = k0 by chunk transfers, or
    None when they leave [_TINY, _HUGE] (then nothing is updated).

    Each chain's steps split into rows/2 chunks of L; row 2i + j of the
    arrays below is chunk i of chain j. A chunk's values do not depend on
    how many chunks follow it in the block. A chunk maps its
    start (y, z) to the value U y + Q z at each of its steps, U and Q being
    the solutions from the starts (1, 0) and (0, 1). One numpy step over
    all rows at a time runs the recurrence for U and Q of every chunk at
    once; _carry then walks each chain's chunks in Python, and every value
    of the block is U y + Q z from its chunk's start, split by np.frexp.

    z is the previous value, and the recurrence G_next = A G_mid + B G_prev,
    except for |x| <= _GAP_FORM_X. There z is the gap (previous minus
    newest) and the recurrence runs as step = C G_mid - B (last step),
    G_next = G_mid + step, with C = A + B - 1 from _step_coeffs. Near
    x = 0 the recurrence has a double root at 1 and the values barely move:
    the direct form's U and Q grow like the step count and cancel, while
    the steps carry the change with their own relative precision. At
    (c, x) = (2, 0) the drift of G_k = 1 by k = 32,000 is 5e-13, against
    5e-11 for the step-by-step loop and 1.6e-9 for the direct form. Away
    from 0 the gap form rounds more per step (up to three times the loop's
    error at x = -0.9), while the direct form stays within 10% of it.
    Returns (frac, exp) and updates ``chains``.
    """
    import numpy as np

    # Step i of row r is step 2 (r//2 L + i) + r%2 of the block.
    r = np.arange(rows)
    a = np.arange(L, dtype=float)[:, None] + (k0 - 1 + (r // 2 * (2 * L) + r % 2)) / 2.0
    gap = abs(x) <= _GAP_FORM_X
    A, B = _step_coeffs(a, c, x, gap)
    del a
    # W[i] holds U and Q at step i of every chunk.
    W = np.empty((L, 2, rows))
    tmp = np.empty((2, rows))
    # Transfers past double range are caught by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        if gap:
            # A holds C here.
            step = np.stack([A[0], B[0]])
            W[0] = step
            W[0, 0] += 1.0
            for i in range(1, L):
                np.multiply(W[i - 1], A[i], out=tmp)
                step *= B[i]
                np.subtract(tmp, step, out=step)
                np.add(W[i - 1], step, out=W[i])
            # The new gap is minus the last step.
            z_map = np.negative(step, out=step)
        else:
            W[0, 0] = A[0]
            W[0, 1] = B[0]
            np.multiply(W[0], A[1], out=W[1])
            W[1, 0] += B[1]
            for i in range(2, L):
                np.multiply(W[i - 1], A[i], out=W[i])
                np.multiply(W[i - 2], B[i], out=tmp)
                W[i] += tmp
            z_map = W[L - 2]
    del A, B
    for h in (0, 1):
        aw = np.abs(W[:, h])
        if not (aw.max() <= _HUGE and aw.min(where=aw > 0.0, initial=1.0) >= _TINY):
            return None
    del aw
    y = np.empty(rows)
    z = np.empty(rows)
    e = np.empty(rows, dtype=np.int64)
    for j in (0, 1):
        y0, y1, e0, d0 = chains[j]
        z0 = (y1 - y0 if d0 is None else d0) if gap else y1
        ys, zs, es, (yj, zj, ej) = _carry(W[L - 1, 0, j::2].tolist(), W[L - 1, 1, j::2].tolist(),
                                          z_map[0, j::2].tolist(), z_map[1, j::2].tolist(),
                                          y0, z0, e0)
        chains[j] = [yj, yj + zj, ej, zj] if gap else [yj, zj, ej, None]
        y[j::2] = ys
        z[j::2] = zs
        e[j::2] = es
    U = W[:, 0]
    U *= y
    W[:, 1] *= z
    U += W[:, 1]
    # Back to k order, (L, chunk, chain) -> (chunk, L, chain), as frexp writes.
    nc = rows // 2
    frac = np.empty((nc, L, 2))
    fe = np.empty((nc, L, 2), dtype=np.intc)
    np.frexp(U.reshape(L, nc, 2).transpose(1, 0, 2), out=(frac, fe))
    return frac.ravel(), (fe + e.reshape(nc, 1, 2)).ravel()


def _seed_depth(c):
    """The ladder's seed depth m: its seeds take m + 2 columns, so that
    every middle index sits strictly above the lone coefficient pole at
    k = c - 1/2. A c that would need more than _LADDER_MAX_COLUMNS columns
    raises NonConvergent; sums.sum_direct asks before it forms the large-k
    profile, whose log Gamma(c) overflows past c = 2.5e305."""
    m = max(4, math.ceil(c + 1.5) + 1)
    if m + 2 > _LADDER_MAX_COLUMNS:
        raise NonConvergent("the ladder at c = %g needs %.3g seed columns, past its bound of %d"
                            % (c, m + 2, _LADDER_MAX_COLUMNS))
    return m


def _ladder(c, x, n, width=None, expect=None):
    """Yield blocks of G_k for consecutive k, starting at k = 0, up to at
    least k = n-1.

    A block is (frac, exp), with G_k = frac * 2**exp: frac a float array
    with |frac| in [1/2, 1) (0 at an exact zero), exp an integer array.
    With ``width``, the seeds and the loop phase come instead as lists of
    at most ``width`` Python floats with their chains' exponents, as
    _looped_block yields them: (vals, (ep, eq)) with G = vals[j] 2^ep for
    even j and 2^eq for odd j. The first block holds the series seeds up to
    k = m+1, computed together in one pass of _ladder_seeds; the forward
    recurrence then runs with stride 2, one chain per parity. The loop phase
    (the first _LOOP_STEPS steps) forms its step coefficients in one
    _step_coeffs call for the first _LOOP_COEFFS steps and one for the
    rest, and steps them in a Python loop (_looped_block) that runs only as
    far as the lists are read. After it, blocks of _CHUNKED_FROM steps
    doubling up to _LADDER_MAX_BLOCK (so that a long ladder pays numpy's
    per-call cost rarely) go by chunk transfers (_chunked_block). Where
    those leave [_TINY, _HUGE], as for x near 1, the block runs again with
    chunks half as long until they fit. Over L steps a transfer grows like
    (1-sqrt(x))^(-2L), so it stays in range for L below about
    288/|ln(1-sqrt(x))| (63 steps at x = 0.9797, 38 at x = 0.999); at L = 2
    it is a product of two step coefficients of size about (1-x)^-2, under
    1e64 for every double x < 1, so the halving ends (OverflowError
    otherwise). The part that reaches n is cut short, to whole chunks or
    steps. Cutting changes none of the values kept, so G_k depends neither
    on n nor on ``width``, unless the cut decides how long a block's chunks
    are.
    ``expect`` is private to sum_direct's reader (sums._ladder_sum), which
    predicts from the large-k profile how many values it will read. When
    it lies more than _LOOP_COEFFS steps past the seeds, the loop phase is
    skipped: each chunked block is sized to reach ``expect`` (at most
    _LADDER_MAX_BLOCK steps), and past it the blocks go on from
    _CHUNKED_FROM, doubling, as without it. The planned blocks' values
    differ from the loop's only in their last bits. Ranges, point queries
    and hyp2f1_ladder never pass it, so their values do not change with it.
    Each chain is a float times 2^e with e an integer: a power of two
    moves from the value into e whenever the loop's newest value leaves
    [_TINY, _HUGE], and at each chunk start, so no k can overflow and the
    exponent never drifts. A c whose seeds would take more than
    _LADDER_MAX_COLUMNS columns raises NonConvergent before anything is
    allocated. No validation: callers check c > 0 and -1 <= x < 1.
    """
    import numpy as np

    m = _seed_depth(c)
    seeds = _ladder_seeds(c, x, m + 2)
    yield (seeds, (0, 0)) if width else np.frexp(np.array(seeds))
    # Newest value, the one before and exponent of the chain of k = m+2,
    # then of the other parity.
    chains = [[seeds[m], seeds[m - 2], 0, None], [seeds[m + 1], seeds[m - 1], 0, None]]
    k0 = m + 2
    end = k0 + _LOOP_STEPS
    # 0: no plan.
    expect = expect or 0
    if expect - k0 > _LOOP_COEFFS:
        end = k0
    end = min(end, n)
    size = _LOOP_COEFFS
    while k0 < end:
        w = min(size, end - k0)
        w += w % 2
        lists = _looped_block(k0, w, c, x, chains, width or w)
        if width:
            yield from lists
        else:
            yield _frexp_lists(lists)
        k0 += w
        size = _LADDER_MAX_BLOCK
    size = _CHUNKED_FROM
    while k0 < n:
        planned = expect - k0 > _LOOP_COEFFS
        step = min(expect - k0, _LADDER_MAX_BLOCK) if planned else size
        w = min(step, n - k0)
        L = _chunk_width(step)
        while (block := _chunked_block(k0, L, 2 * -(-w // (2 * L)), c, x, chains)) is None:
            if L == 2:
                raise OverflowError("ladder transfers past double range at k=%d" % k0)
            L //= 2
        yield block
        k0 += len(block[0])
        if not planned:
            size = min(2 * size, _LADDER_MAX_BLOCK)
        # Let the block go before the next one is formed.
        del block


def _ladder_upto(c, x, n):
    """Yield (k, frac, exp) arrays block by block over k = 0..n-1 (n >= 1)
    of _ladder, where G_k = frac * 2**exp."""
    import numpy as np

    k0 = 0
    for frac, exp in _ladder(c, x, n):
        m = min(len(frac), n - k0)
        yield np.arange(k0, k0 + m), frac[:m], exp[:m]
        k0 += m
        if k0 == n:
            return


def _seed_column(c, x, k):
    """G_k from the one column _ladder_seeds(c, x, 1, k), for the progeny
    point queries at 0 < x < 1 (at x < 0 a single Pfaff column loses every
    digit by k = 150): where k <= 150 and _seed_width expects the column
    within _SEED_MAX_TERMS terms, unless that series leaves double range
    or stalls; None otherwise."""
    if k <= 150 and (size := _seed_width(k + 0.5 - c, x, _SEED_TOL)) <= _SEED_MAX_TERMS:
        try:
            return _ladder_seeds(c, x, 1, k, size)[0]
        except (OverflowError, NonConvergent):
            return None


def hyp2f1_ladder(c, x, kmax):
    """log-magnitudes and signs of G_k = 2F1((k+1)/2, (k+2)/2; c; x).

    Parameters
    ----------
    c : float
        Lower parameter, c > 0.
    x : float
        Argument, -1 <= x < 1.
    kmax : int
        Largest index; values for k = 0..kmax are returned.

    Returns
    -------
    (logs, signs) : pair of lists
        logs[k] = log|G_k| (-inf at an exact zero), signs[k] in {-1.0, +1.0}.

    Notes
    -----
    Forward three-term recurrence in k with stride 2 (one chain per parity),
    seeded by series values at small k; one pass of the generator that every
    other ladder consumer reads. The first 992 steps run one at a time in a
    Python loop, from step coefficients formed in two numpy calls (the
    first 256 steps, then the rest); longer stretches go by chunk transfers
    at numpy speed (about 100 ns a step against 300 for the loop). For
    0 < x < 1 the wanted solution dominates, so the forward direction is
    self-correcting; for x < 0 the two solutions share one modulus and
    errors grow only linearly in k. Against a 60-digit run of the same
    recurrence at the floats' exact values, up to k = 2e4, relative error:
    6.6e-13 at (c, x) = (2.5, 0.49), 3.9e-13 at (1.2, 0.01), 4.1e-13 at
    (2, 0.64); relative to the envelope of |G_k|: 1.4e-14 at (2, -0.8),
    3.5e-13 at (3.3, -0.3). At k = 4e4, (0.667, 2.18e-5): 4.5e-12, where
    stepping one at a time gives 1.5e-10.
    Each value is a float times 2^e with e an integer, and the float is
    rescaled by a power of two whenever it leaves [1e-250, 1e250], so
    arbitrarily large k cannot overflow and log|G_k| = log|frac| + e ln 2
    carries no summed offset: at (2, 0.96), k = 29,999, G_k is within
    3.2e-13 relative of 40-digit mpmath.
    """
    if not 0 < c < math.inf:
        raise DomainError("require finite c > 0")
    if not -1.0 <= x < 1.0:
        raise DomainError("ladder requires -1 <= x < 1")
    kmax = _whole(kmax, 0, "kmax")
    import numpy as np

    logs = []
    signs = []
    with np.errstate(divide="ignore"):
        for _, frac, exp in _ladder_upto(c, x, kmax + 1):
            logs += (np.log(np.abs(frac)) + exp * _LN2).tolist()
            signs += np.where(frac < 0.0, -1.0, 1.0).tolist()
    return logs, signs
