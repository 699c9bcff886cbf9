"""The verify suites' own kernels, held against mpmath."""

import random

import mpmath as mp
import numpy as np
import pytest

from hypersum.verify import _HALF_ROUTE_ZS, _hurwitz_zeta


@pytest.mark.parametrize("q", [1501, 4001, 10001, 10**6])
def test_hurwitz_zeta_matches_mpmath(q):
    # corollary1 sums its general-family tail from q = 10,001.
    rng = random.Random(q)
    for s in [1.1, 1.5, 2.0, 4.0, 6.5, 10.0] + [rng.uniform(1.1, 10.0) for _ in range(20)]:
        with mp.workdps(40):
            ref = mp.zeta(mp.mpf(s), q)
        assert abs(_hurwitz_zeta(s, q) - ref) <= 1e-14 * ref, (s, q)


def test_half_route_grid_is_the_numpy_grid_bit_for_bit():
    # functional-eq once drew this grid from np.linspace; its plain-Python
    # form must not move a point.
    assert _HALF_ROUTE_ZS == np.linspace(0.05, 1.0, 20).tolist()
