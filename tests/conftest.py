"""Shared test helpers: high-precision reference evaluations and the
acceptance-criteria summary block."""

import math

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
    with mp.workdps(dps):
        return mp.hyp2f1(mp.mpf(str(a)), mp.mpf(str(b)), mp.mpf(str(c)), mp.mpf(str(x)))


def mp_ladder(c, x, kmax, dps=60):
    """G_k = 2F1((k+1)/2, (k+2)/2; c; x) for k = 0..kmax in mp arithmetic.

    Runs the stride-2 contiguous recurrence at ``dps`` digits with library
    seeds; the recurrence coefficients are exact rationals in (c, x), so
    the result is a from-scratch reference for the float path (which uses
    log-scaled float64 state instead).
    """
    with mp.workdps(dps):
        c = mp.mpf(str(c))
        x = mp.mpf(str(x))
        m = max(4, int(mp.ceil(c + mp.mpf("1.5"))) + 1)
        vals = [mp.hyp2f1((k + 1) / mp.mpf(2), (k + 2) / mp.mpf(2), c, x)
                for k in range(min(m + 1, kmax) + 1)]
        D = x - 1
        for k in range(m + 2, kmax + 1):
            a = (k - 1) / mp.mpf(2)
            b = a + mp.mpf("0.5")
            Et = (-(b - 1) * (2 * a - c + (b - a) * x) * (c - b)
                  - (a - 1) * (c - a - b) * (c - a)) / (b - a)
            B = -(c - a - b - 1) * (c - a) * (c - b) / (a * b * D * D * (c - a - b + 1))
            A = (-(c - a - 1) + (c - a - b - 1) * Et / (a * D * (c - a - b + 1))) / (b * D)
            vals.append(A * vals[k - 2] + B * vals[k - 4])
        return vals


def ref_series_sum(a, b, c, x, tol, max_terms):
    """Scalar reference for special._series_sum: one plain loop over every
    term, the form the blocked series must reproduce bit for bit. The tail
    estimate adds the rounding floor 4 eps sum|t| over the terms used."""
    huge = 1e250
    ln2 = math.log(2.0)
    off = 0.0
    acc = 1.0
    term = 1.0
    mass = 1.0
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
            off += e * ln2
    converged = small >= 2
    r = min(abs(x), 0.999999)
    r = max(r, min(abs(ratio), 0.999999))
    tail = abs(term) * r / (1.0 - r) + 4.0 * 2.220446049250313e-16 * mass
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
    """Indices k <= kmax at which the float ladder starts a new block: after
    the series seeds, then block sizes doubling from the first."""
    from hypersum.special import _FIRST_BLOCK, _MAX_BLOCK

    k = max(4, math.ceil(c + 1.5) + 1) + 2
    n = _FIRST_BLOCK
    edges = []
    while k <= kmax:
        edges.append(k)
        k += n
        n = min(2 * n, _MAX_BLOCK)
    return edges


@pytest.fixture(scope="session")
def mp50():
    return lambda a, b, c, x: mp_hyp2f1(a, b, c, x, dps=50)
