"""Shared test helpers: high-precision reference evaluations and the
acceptance-criteria summary block."""

import decimal
import math
from decimal import Decimal as Dec

import mpmath as mp
import pytest

# Lines registered by the acceptance tests, echoed after the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def mp_hyp2f1(a, b, c, x, dps=50):
    """2F1(a, b; c; x) at ``dps`` digits, at the exact values of the floats:
    next to x = 1 the decimal repr of x would move 1 - x by 3e-11 relative
    at x = 1 - 1e-6."""
    with mp.workdps(dps):
        return mp.hyp2f1(mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(x))


# dec_ladder's runs for the session, by (c, x, dps).
_LADDERS = {}


def dec_ladder(c, x, kmax, dps=60):
    """G_k = 2F1((k+1)/2, (k+2)/2; c; x) for k = 0..kmax as ``dps``-digit
    Decimals, in the context ``dec_context(dps)``.

    Runs the stride-2 contiguous relation in its general, unfactored form
    with mpmath seeds; the recurrence coefficients are exact rationals in
    (c, x), so the result is a from-scratch reference for the float path
    (which uses the factored coefficients in float64). c and x are taken
    at the exact values of their floats: the decimal 0.64 differs from the
    float 0.64 by 1e-17, which moves G_k at k = 2e4 by 6e-13. Decimal
    arithmetic runs about ten times faster than mpmath's here. Memoised for
    the session: a call extends the run kept for (c, x, dps) as far as it
    needs and returns a copy of its first kmax + 1 values.
    """
    vals = _LADDERS.setdefault((c, x, dps), [])
    with decimal.localcontext(dec_context(dps)):
        cd = Dec(c) + 0
        xd = Dec(x) + 0
        half = Dec("0.5")
        m = max(4, math.ceil(cd + Dec("1.5")) + 1)
        D = xd - 1
        for k in range(len(vals), kmax + 1):
            if k <= m + 1:
                with mp.workdps(dps + 10):
                    v = mp.hyp2f1(mp.mpf(k + 1) / 2, mp.mpf(k + 2) / 2, mp.mpf(c), mp.mpf(x))
                    vals.append(Dec(mp.nstr(v, dps + 5, strip_zeros=False)) + 0)
                continue
            a = (k - 1) * half
            b = a + half
            Et = (-(b - 1) * (2 * a - cd + (b - a) * xd) * (cd - b)
                  - (a - 1) * (cd - a - b) * (cd - a)) / (b - a)
            B = -(cd - a - b - 1) * (cd - a) * (cd - b) / (a * b * D * D * (cd - a - b + 1))
            A = (-(cd - a - 1) + (cd - a - b - 1) * Et / (a * D * (cd - a - b + 1))) / (b * D)
            vals.append(A * vals[k - 2] + B * vals[k - 4])
    return vals[:kmax + 1]


def dec_context(dps):
    """Decimal context of ``dps`` digits whose exponent range holds every
    G_k the tests read."""
    return decimal.Context(prec=dps, Emax=10**9, Emin=-10**9)


def mp_ladder(c, x, kmax, dps=60):
    """dec_ladder's values as mpmath numbers of ``dps`` digits."""
    with mp.workdps(dps):
        return [mp.mpf(str(v)) for v in dec_ladder(c, x, kmax, dps)]


def ref_series_sum(a, b, c, x, tol, max_terms):
    """Scalar reference for special._series_sum: one plain loop over every
    term, which _series_sum must match bit for bit. The tail estimate adds
    4 eps (sum|t| + sum n|t_n|) over the terms used."""
    huge = 1e250
    ln2 = math.log(2.0)
    off = 0.0
    acc = 1.0
    term = 1.0
    mass = 1.0
    mom = 0.0
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
        if at > huge or aa > huge:
            e = math.frexp(max(at, aa))[1]
            sc = math.ldexp(1.0, -e)
            term *= sc
            acc *= sc
            mass *= sc
            mom *= sc
            off += e * ln2
    converged = small >= 2
    r = min(abs(x), 0.999999)
    r = max(r, min(abs(ratio), 0.999999))
    tail = abs(term) * r / (1.0 - r) + 4.0 * 2.220446049250313e-16 * (mass + mom)
    if off == 0.0:
        return acc, tail, n + 1, converged
    sign = 1.0 if acc >= 0 else -1.0
    lv = off + math.log(abs(acc)) if acc != 0.0 else -math.inf
    value = sign * math.exp(lv)
    try:
        tail = math.exp(off + math.log(tail)) if tail > 0.0 else 0.0
    except OverflowError:
        tail = math.inf
    return value, tail, n + 1, converged


def ladder_block_edges(c, kmax):
    """Indices k <= kmax at which the float ladder starts a new block or
    list: after the series seeds, every _READ_LIST steps of the loop phase
    (the lists that the direct sums read; the loop phase's second
    coefficient block starts on one of them), then the chunked blocks,
    doubling from _CHUNKED_FROM up to the ladder's cap. Lists that a
    rescale cuts short add edges of their own, which this leaves out."""
    from hypersum.special import _CHUNKED_FROM, _LADDER_MAX_BLOCK, _LOOP_COEFFS, _LOOP_STEPS
    from hypersum.sums import _READ_LIST

    assert _LOOP_COEFFS % _READ_LIST == 0 == _LOOP_STEPS % _READ_LIST
    k = max(4, math.ceil(c + 1.5) + 1) + 2
    end = k + _LOOP_STEPS
    edges = list(range(k, min(end, kmax + 1), _READ_LIST))
    k = end
    n = _CHUNKED_FROM
    while k <= kmax:
        edges.append(k)
        k += n
        n = min(2 * n, _LADDER_MAX_BLOCK)
    return edges


def ref_loop_ladder(c, x, n):
    """Scalar reference for the ladder's loop phase: G_k for k < n as
    (frac, exp) pairs, G_k = frac * 2**exp. The seeds come from
    special._ladder_seeds; each later k takes one scalar
    special._step_coeffs call at a = (k-1)/2 and steps
    G_k = A G_(k-2) + B G_(k-4) in its parity's chain, a float times 2^e.
    When a new value leaves [1e-250, 1e250] (and is not 0), it goes into
    [1/2, 1) by a power of two, the chain's previous value and exponent
    taking the same shift."""
    from hypersum.special import _ladder_seeds, _step_coeffs

    m = max(4, math.ceil(c + 1.5) + 1)
    seeds = _ladder_seeds(c, x, m + 2)
    out = [math.frexp(v) for v in seeds[:n]]
    # [newest, previous, exponent] of the chain of k = m+2, then of k = m+3.
    chains = [[seeds[m], seeds[m - 2], 0], [seeds[m + 1], seeds[m - 1], 0]]
    for k in range(m + 2, n):
        ch = chains[(k - m) % 2]
        A, B = _step_coeffs((k - 1) / 2.0, c, x)
        f = A * ch[0] + B * ch[1]
        mid = ch[0]
        if f and not 1e-250 < abs(f) < 1e250:
            s = math.frexp(f)[1]
            f = math.ldexp(f, -s)
            mid = math.ldexp(mid, -s)
            ch[2] += s
        ch[0], ch[1] = f, mid
        fr, fe = math.frexp(f)
        out.append((fr, fe + ch[2]))
    return out


def ref_ladder_sum(c, x, lw, tol, n):
    """Scalar reference for sums._ladder_sum: one loop over every value of
    special._ladder, in the lists the reader reads, with
    t_k = G_k exp(k lw) and math.exp per term, stopping at three
    terms in a row under tol with k > 2. A value v with chain exponent e of
    a list gives t = v exp(l), l = k lw + e ln 2, when l <= 709,
    and f exp(l + e' ln 2) otherwise, f 2^e' being v split by frexp (+-inf
    past double range). A G_k = f 2^e of an array gives
    f exp(k lw + e ln 2), infinite when that log passes 709.
    Returns (s, sum|t|, last term, terms read, stopped, sum k|t|)."""
    from hypersum.special import _ladder
    from hypersum.sums import _READ_LIST

    ln2 = math.log(2.0)
    s = 0.0
    sum_abs = 0.0
    mom = 0.0
    small = 0
    t = 0.0
    k = 0
    for vals, e in _ladder(c, x, n + 1, _READ_LIST):
        is_list = type(vals) is list
        if is_list:
            exps = [e[j % 2] for j in range(len(vals))]
        else:
            vals, exps = vals.tolist(), e.tolist()
        for v, ce in zip(vals, exps):
            if k == n:
                return s, sum_abs, t, k, False, mom
            lt = k * lw + ce * ln2
            if lt <= 709.0:
                t = v * math.exp(lt)
            elif is_list:
                f, fe = math.frexp(v)
                try:
                    t = f * math.exp(lt + fe * ln2) if f else 0.0
                except OverflowError:
                    t = math.copysign(math.inf, f)
            else:
                t = math.copysign(math.inf, v) if v else 0.0
            s += t
            a = abs(t)
            sum_abs += a
            mom += k * a
            if a < tol:
                small += 1
                if small >= 3 and k > 2:
                    return s, sum_abs, t, k + 1, True, mom
            else:
                small = 0
            k += 1


@pytest.fixture(scope="session")
def mp50():
    return lambda a, b, c, x: mp_hyp2f1(a, b, c, x, dps=50)
