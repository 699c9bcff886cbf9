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
